"""The checkers catch planted faults.

`verify_solution`, the fuzz comparator and the benchmark's answer check are
what every reported answer is held to, so each is fed a wrong answer here:
a point one step outside a row or the target residues, a value one too
high, a flipped status.  The optimal values of the solver are compared
with a scan of the whole LP bounding box, which rests on no proximity
bound.
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cctu import cli, fuzz
from cctu.fileio import parse_instance, serialize_instance
from cctu.generators import generate
from cctu.patterns import is_prime, solve_rcctuf
from cctu.polyhedra import SolveResult, lp_optimize
from cctu.verify import verify_solution
from random_systems import boxed
from reference import full_box_optimum

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

# 0 <= x <= 5 and x = 2 (mod 3)
MINIMAL = """\
rows 2
cols 1
T
-1
 1
b 0 5
gamma 1
m 3
R 2
"""

ROW_OFF_BY_ONE = (-1,)  # residue 2, row 0 reads 1 > 0
RESIDUE_OFF_BY_ONE = ((1,), (3,))  # inside the box, residues 1 and 0


def test_verify_rejects_a_row_violated_by_exactly_one():
    inst = parse_instance(MINIMAL)
    report = verify_solution(inst, ROW_OFF_BY_ONE)
    assert not report.ok and report.residue_ok
    assert [(v.row, v.lhs, v.rhs) for v in report.row_violations] == [(0, 1, 0)]
    assert "row 0: 1 > 0 (violated by 1)" in report.describe()
    top = verify_solution(inst, (8,))
    assert [(v.row, v.slack) for v in top.row_violations] == [(1, -3)]
    assert verify_solution(inst, (5,)).ok


def test_verify_rejects_a_residue_off_by_one():
    inst = parse_instance(MINIMAL)
    for x in RESIDUE_OFF_BY_ONE:
        report = verify_solution(inst, x)
        assert not report.ok and not report.residue_ok and report.row_violations == ()
        assert "congruency" in report.describe()


@pytest.mark.parametrize("x", (ROW_OFF_BY_ONE,) + RESIDUE_OFF_BY_ONE)
def test_cli_solve_exits_4_on_a_point_off_by_one(tmp_path, capsys, monkeypatch, x):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    monkeypatch.setattr(cli, "solve_rcctuf", lambda inst, budget: SolveResult("feasible", x, 0))
    assert cli.main(["solve", "--input", str(path)]) == cli.EXIT_CHECK
    assert "fails verification" in capsys.readouterr().err


def value_one_too_high(inst, res):
    if res.status == "feasible" and inst.c is not None:
        return replace(res, value=res.value + 1)
    return res


def status_flipped(inst, res):
    flip = {"feasible": "infeasible", "infeasible": "feasible"}
    return replace(res, status=flip.get(res.status, res.status))


def planted(fault):
    return lambda inst, budget: fault(inst, solve_rcctuf(inst, budget))


# at seed 7 and m = 3 the 40 draws hold 3 feasible objective answers
@pytest.mark.parametrize("fault", (value_one_too_high, status_flipped))
def test_fuzz_counts_a_planted_fault_and_writes_its_reproducer(tmp_path, monkeypatch, fault):
    honest = fuzz.run_fuzz(40, 7, fixed_m=3)
    assert honest["disagreements"] == 0 and honest["feasible"] > 0
    monkeypatch.setattr(fuzz, "solve_rcctuf", planted(fault))
    summary = fuzz.run_fuzz(40, 7, fixed_m=3, output_prefix=str(tmp_path / "repro"))
    assert summary["disagreements"] > 0
    assert len(summary["reproducers"]) == summary["disagreements"]
    assert sorted(tmp_path.iterdir()) == sorted(Path(p) for p in summary["reproducers"])
    for path in summary["reproducers"]:
        inst = parse_instance(Path(path).read_text())
        agree, _res, _ora = fuzz._statuses(inst, 4_000_000)
        assert not agree


@pytest.mark.parametrize("fault", (value_one_too_high, status_flipped))
def test_bench_check_marks_a_planted_fault_wrong(fault):
    inst = parse_instance(MINIMAL.replace("R 2\n", "R 2\nc -1\n"))
    res = solve_rcctuf(inst)
    assert (res.status, res.value) == ("feasible", -5)
    corpus = [("minimal", serialize_instance(inst))]
    honest = bench.Served()
    honest.record(0, 0, (inst, res, True), None)
    assert bench.check(corpus, honest) == (0, 0, [])
    served = bench.Served()
    served.record(0, 0, (inst, fault(inst, res), True), None)
    failed, wrong, reasons = bench.check(corpus, served)
    assert (failed, wrong, len(reasons)) == (1, 1, 1)
    assert reasons[0].startswith("minimal request 0: ")


def test_optimal_values_match_a_scan_of_the_lp_bounding_box():
    """Objective instances of every generator kind but the constant core,
    up to 5 variables, with b drawn around a point of the box [-2, 2]^n and
    that box appended, at every supported (m, |R|) for m up to 7.  Each
    shape with |R| < m has optima away from the LP vertex, where the solver
    scans its proximity box."""
    rng = random.Random(61)
    shapes = [
        (m, size)
        for m in (2, 3, 4, 5, 7)
        for size in range(1, m + 1)
        if size >= m - 1 or (size == m - 2 and is_prime(m))
    ]
    seen = set()
    for m, size in shapes:
        for _ in range(40):
            kind = rng.choice(("network", "transposed", "sum2", "sum3", "pivoted"))
            inst = generate(kind, rng.randint(1, 5), m, size, seed=rng.randrange(1 << 30), with_c=True).instance
            star = [rng.randint(-2, 2) for _ in range(inst.nvars)]
            b = tuple([v + rng.choice((-1, 0, 0, 1, 2)) for v in inst.P.T.matrix.mul_vec(star)])
            inst = inst.replaced(P=boxed(inst.P.T, b, 2))
            res = solve_rcctuf(inst)
            assert inst.nvars <= 5
            assert (res.status, res.value) == full_box_optimum(inst), serialize_instance(inst)
            if res.status == "feasible" and res.value != lp_optimize(inst.P, inst.c, "min").value:
                seen.add((m, size, "beyond the vertex"))
            seen.add((m, size, res.status))
    assert {(m, size) for m, size, _ in seen} == set(shapes)
    assert {(m, size) for m, size, status in seen if status == "beyond the vertex"} == {
        (m, size) for m, size in shapes if size < m
    }
    assert "infeasible" in {status for _, _, status in seen}
