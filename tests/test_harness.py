import hashlib
import json
import random
import subprocess
import sys

import pytest

from cctu.cli import main
from cctu.errors import InputFormatError
from cctu.fileio import parse_instance, serialize_instance
from cctu.generators import KINDS, generate, random_network_matrix
from cctu.matrices import IntMatrix
from cctu.patterns import is_prime, solve_rcctuf
from cctu.polyhedra import Polyhedron, RCctufInstance, oracle_solve
from cctu.seymour import classify, recognize_network_matrix, reduce_to_core
from cctu.verify import verify_solution
from reference import certified

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


def test_roundtrip_minimal():
    inst = parse_instance(MINIMAL)
    assert inst.nvars == 1 and inst.m == 3 and inst.R == frozenset({2})
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_roundtrip_with_objective():
    inst = parse_instance(MINIMAL + "c -1\n")
    assert inst.c == (-1,)
    assert parse_instance(serialize_instance(inst)) == inst


def zero_column_instance(b, m=3, R=frozenset({0}), c=None):
    """A k x 0 system: the only point is x = (), feasible iff b >= 0."""
    P = Polyhedron(certified(IntMatrix(((),) * len(b), 0)), b)
    return RCctufInstance(P, (), m, R, c)


def test_roundtrip_zero_columns():
    for b in ((1,), (-1,), (0, 2)):
        inst = zero_column_instance(b)
        assert parse_instance(serialize_instance(inst)) == inst


def test_cli_solves_zero_column_files(tmp_path, capsys):
    for b in ((1,), (-1,), (0, 2)):
        inst = zero_column_instance(b)
        path = tmp_path / "inst.txt"
        path.write_text(serialize_instance(inst))
        code = main(["solve", "--input", str(path), "--json"])
        data = json.loads(capsys.readouterr().out)
        ora = oracle_solve(inst)
        assert data["status"] == ora.status and code == (0 if ora.status == "feasible" else 1), b
        if ora.status == "feasible":
            assert data["x"] == []


def test_zero_column_instances_on_every_supported_shape():
    # () has residue 0, so it solves exactly when b >= 0 and 0 is a target
    for m in range(2, 8):
        for ell in (m, m - 1, m - 2):
            if ell < 1 or (ell == m - 2 and not is_prime(m)):
                continue
            for R in (frozenset(range(ell)), frozenset(range(m - ell, m))):
                for b in ((1,), (-1,), (0, 2)):
                    for c in (None, ()):
                        inst = zero_column_instance(b, m, R, c)
                        res = solve_rcctuf(inst)
                        assert res.status == oracle_solve(inst).status, (m, R, b)
                        assert res.status == ("feasible" if min(b) >= 0 and 0 in R else "infeasible")


def test_residue_out_of_range_rejected():
    with pytest.raises(InputFormatError):
        parse_instance(MINIMAL.replace("R 2", "R 3"))


def test_non_tu_matrix_rejected_with_witness():
    bad = MINIMAL.replace("rows 2\ncols 1", "rows 2\ncols 2").replace(
        "T\n-1\n 1", "T\n1 1\n-1 1"
    ).replace("gamma 1", "gamma 1 0")
    with pytest.raises(InputFormatError) as err:
        parse_instance(bad)
    assert "determinant" in str(err.value)


def test_parse_reports_line_numbers():
    with pytest.raises(InputFormatError) as err:
        parse_instance(MINIMAL.replace("b 0 5", "b 0 x"))
    assert "line" in str(err.value)


def test_generator_network_recognizable():
    for seed in range(5):
        gen = generate("network", 4, 3, 1, seed)
        mat = gen.instance.P.T.matrix
        assert recognize_network_matrix(mat, *reduce_to_core(mat)) is not None


def test_generator_sum3_classifies_as_sum():
    gen = generate("sum3", 4, 3, 1, seed=7)
    cls = classify(gen.instance.P.T.matrix)
    # a 3-sum matrix may still be a network matrix; any verified tag is fine,
    # but a separation must exist
    from cctu.seymour import find_sum_decomposition

    dec = find_sum_decomposition(gen.instance.P.T.matrix)
    assert dec is not None and dec.A.ncols >= 2 and dec.B.ncols >= 2


def test_generator_deterministic():
    a = generate("sum2", 4, 5, 2, seed=123)
    b = generate("sum2", 4, 5, 2, seed=123)
    assert a.instance == b.instance


def test_generator_const_core():
    gen = generate("const_core", 7, 3, 1, seed=3)
    cls = classify(gen.instance.P.T.matrix)
    assert cls.tag == "constant_core"


def test_verify_solution_reports():
    inst = parse_instance(MINIMAL)
    good = verify_solution(inst, (2,))
    assert good.ok
    off = verify_solution(inst, (3,))
    assert not off.ok and not off.residue_ok and "congruency" in off.describe()
    out = verify_solution(inst, (8,))
    assert not out.ok and out.row_violations[0].row == 1


def run_cli(tmp_path, *argv):
    return main(list(argv))


def test_cli_solve_feasible(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    code = run_cli(tmp_path, "solve", "--input", str(path))
    out = capsys.readouterr().out
    assert code == 0 and "feasible" in out


def test_cli_solve_infeasible_reports_flat_row(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL.replace("b 0 5", "b 0 1"))
    code = run_cli(tmp_path, "solve", "--input", str(path))
    out = capsys.readouterr().out
    assert code == 1 and "infeasible" in out and "flat_row" in out


def test_cli_solve_with_a_large_right_hand_side(tmp_path, capsys):
    # 29990 <= x1 <= 30000: the shortening step sees multiplicities near 3 * 10^4
    text = "rows 2\ncols 2\nT\n1 0\n-1 0\nb 30000 -29990\ngamma 1 1\nm 3\nR 1 2\n"
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code = run_cli(tmp_path, "solve", "--input", str(path), "--json")
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["status"] == oracle_solve(parse_instance(text)).status == "feasible"


def test_cli_solve_json(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    code = run_cli(tmp_path, "solve", "--input", str(path), "--json")
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["status"] == "feasible" and data["x"] == [2]


def test_cli_check_tu_on_special_matrix(tmp_path, capsys):
    text = """\
rows 5
cols 5
T
 1  1  1  1  1
 1  1  1  0  0
 1  0  1  1  0
 1  0  0  1  1
 1  1  0  0  1
b 1 1 1 1 1
gamma 1 0 0 0 0
m 3
R 0
"""
    path = tmp_path / "inst.txt"
    path.write_text(text)
    code = run_cli(tmp_path, "check-tu", "--input", str(path))
    assert code == 0
    assert capsys.readouterr().out == "totally unimodular (5x5)\n"


def test_cli_check_tu_negative(tmp_path, capsys):
    text = MINIMAL.replace("rows 2\ncols 1", "rows 2\ncols 2").replace(
        "T\n-1\n 1", "T\n1 1\n-1 1"
    ).replace("gamma 1", "gamma 1 0")
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = run_cli(tmp_path, "check-tu", "--input", str(path))
    assert code == 1
    assert "not totally unimodular" in capsys.readouterr().out


def check_tu_output(tmp_path, capsys, rows):
    k, n = len(rows), len(rows[0])
    text = f"rows {k}\ncols {n}\nT\n"
    text += "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
    text += "b " + " ".join(["1"] * k) + "\ngamma " + " ".join(["1"] * n) + "\nm 3\nR 0\n"
    path = tmp_path / "big.txt"
    path.write_text(text)
    code = run_cli(tmp_path, "check-tu", "--input", str(path))
    assert code == 1
    return capsys.readouterr().out


def test_cli_check_tu_negative_past_the_exhaustive_scan(tmp_path, capsys):
    """A non-TU matrix larger than 8x8 on both sides whose core fits the scan:
    the core's witness is printed in the input's row and column indices."""
    cycle = [[1 if j in (i, (i + 1) % 5) else 0 for j in range(9)] for i in range(5)]
    unit = [[1 if j == 5 + i else 0 for j in range(9)] for i in range(4)]
    out = check_tu_output(tmp_path, capsys, cycle + unit)
    assert "not totally unimodular: rows [0, 1, 2, 3, 4] cols [0, 1, 2, 3, 4] det 2" in out


def test_cli_check_tu_negative_with_a_core_past_the_exhaustive_scan(tmp_path, capsys):
    """A non-TU matrix whose core is past the 8x8 scan has no scanned witness;
    check-tu still gives the verdict instead of a traceback."""
    intervals = [(a, a + 1) for a in range(8)] + [(a, a + 2) for a in range(7)]
    rows = [[1 if lo <= r <= hi else 0 for lo, hi in intervals] for r in range(9)]
    rows[1][0] = -1  # rows 0, 1 on columns 0 and 8 read ((1, 1), (-1, 1)): det 2
    out = check_tu_output(tmp_path, capsys, rows)
    assert "not totally unimodular (no witness past the 8x8 scan)" in out


def test_cli_generate_and_decompose(tmp_path, capsys):
    target = tmp_path / "gen.txt"
    code = run_cli(
        tmp_path, "generate", "--kind", "network", "--size", "3", "--m", "3",
        "--residues", "1", "--seed", "11", "--output", str(target),
    )
    assert code == 0 and target.exists()
    inst = parse_instance(target.read_text())
    assert inst.m == 3
    capsys.readouterr()
    code = run_cli(tmp_path, "decompose", "--input", str(target))
    out = capsys.readouterr().out
    assert code == 0 and "network" in out


def cli_exit(argv):
    """The exit code of `cctu argv`, whether argparse exits or the command
    returns it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def argparse_wording(message):
    """"FLAG must ..." as argparse words a rejected value of FLAG."""
    flag, rule = message.split(" ", 1)
    return f"argument {flag}: {rule}"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m", "0"], "--m must be at least 1, not 0"),
        (["--m", "-2"], "--m must be at least 1, not -2"),
        (["--size", "0"], "--size must be at least 1, not 0"),
        (["--residues", "0"], "--residues must lie in 1..3, not 0"),
        (["--residues", "5", "--m", "3"], "--residues must lie in 1..3, not 5"),
    ],
)
def test_cli_generate_rejects_out_of_range_arguments(tmp_path, capsys, flags, message):
    """--m and --size are checked by their argparse types; the range of
    --residues depends on --m, so the command checks it."""
    target = tmp_path / "gen.txt"
    code = cli_exit(["generate", "--kind", "network", "--output", str(target), *flags])
    captured = capsys.readouterr()
    assert code == 2 and not target.exists() and captured.out == ""
    if flags[0] == "--residues":
        assert captured.err == f"error: {message}\n"
    else:
        assert captured.err.endswith(f"error: {argparse_wording(message)}\n")


def test_cli_generate_keeps_the_range_ends(tmp_path, capsys):
    target = tmp_path / "gen.txt"
    code = run_cli(
        tmp_path, "generate", "--kind", "network", "--size", "1", "--m", "3",
        "--residues", "3", "--output", str(target),
    )
    assert code == 0
    inst = parse_instance(target.read_text())
    assert inst.R == frozenset({0, 1, 2})


def test_cli_width_and_proximity(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    assert run_cli(tmp_path, "width", "--input", str(path)) == 0
    out = capsys.readouterr().out
    assert "width" in out
    assert run_cli(tmp_path, "proximity", "--input", str(path)) == 0
    out = capsys.readouterr().out
    assert "distance" in out


def test_cli_proximity_on_a_feasible_unbounded_instance(tmp_path, capsys):
    """Proximity ignores the objective, so an unbounded objective does not
    make a feasible instance look infeasible."""
    path = tmp_path / "unbounded.txt"
    path.write_text("rows 1\ncols 1\nT\n-1\nb 0\ngamma 1\nm 3\nR 1\nc -1\n")
    assert run_cli(tmp_path, "solve", "--input", str(path)) == 0
    assert "unbounded" in capsys.readouterr().out
    assert run_cli(tmp_path, "proximity", "--input", str(path)) == 0
    out = capsys.readouterr().out
    dist = int(out.split("distance ")[1].split()[0])
    assert dist <= 3 - 1


def test_cli_verify(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    assert run_cli(tmp_path, "verify", "--input", str(path), "--x", "2") == 0
    assert run_cli(tmp_path, "verify", "--input", str(path), "--x", "1") == 1


def test_cli_fuzz_small(tmp_path, capsys):
    code = run_cli(
        tmp_path, "fuzz", "--seed", "7", "-n", "12", "--output",
        str(tmp_path / "repro"), "--json",
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0, data
    assert data["disagreements"] == 0


def test_cli_entrypoint_subprocess(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    proc = subprocess.run(
        [sys.executable, "-m", "cctu.cli", "solve", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "feasible" in proc.stdout


def test_cli_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    rejected = [
        ["width", "--input", str(path), "--json"],
        ["decompose", "--input", str(path), "--output", str(tmp_path / "out")],
        ["check-tu", "--input", str(path), "--skip-tu-check"],
        ["verify", "--input", str(path), "--x", "2", "--max-enum", "5"],
        ["generate", "--kind", "network", "--json"],
        ["proximity", "--input", str(path), "--seed", "3"],
    ]
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_solve_rejects_a_point_that_fails_verification(tmp_path, capsys, monkeypatch):
    from cctu import cli
    from cctu.patterns import SolveResult

    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    # x = 8 has residue 2 but violates row 1 (x <= 5)
    monkeypatch.setattr(cli, "solve_rcctuf", lambda inst, budget: SolveResult("feasible", (8,)))
    code = main(["solve", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "row 1: 8 > 5" in err


def test_minimizer_returns_instance_when_no_disagreement():
    from cctu.fuzz import minimize_reproducer

    inst = parse_instance(MINIMAL)
    assert minimize_reproducer(inst, 100000) == inst


def test_minimizer_can_drop_every_row(monkeypatch):
    from cctu import fuzz

    monkeypatch.setattr(fuzz, "_statuses", lambda inst, budget: (False, None, None))
    small = fuzz.minimize_reproducer(parse_instance(MINIMAL), 100000)
    assert (small.P.T.nrows, small.nvars, small.gamma) == (0, 1, (0,))
    assert parse_instance(serialize_instance(small)) == small


def test_fuzz_counts_unsupported_apart_from_disagreements(tmp_path):
    """At seed 7 and m = 4, 23 draws have |R| = 2, which the solver declines;
    they are neither disagreements nor reproducers."""
    from cctu.fuzz import run_fuzz

    summary = run_fuzz(60, 7, fixed_m=4, output_prefix=str(tmp_path / "repro"))
    assert (summary["disagreements"], summary["unsupported"]) == (0, 23)
    assert summary["reproducers"] == [] and not list(tmp_path.iterdir())


def test_fuzz_summary_counts_every_instance_once(capsys):
    """Agreements split into feasible, infeasible and unbounded, and every
    instance is an agreement, a disagreement, unsupported or skipped.  At
    m = 7 some agreements are unbounded; a tiny enumeration budget makes
    draws raise ScaleError, which skips them."""
    from cctu.fuzz import run_fuzz

    at_m7 = run_fuzz(12, 0, fixed_m=7)
    tiny_budget = run_fuzz(12, 0, budget=30)
    for s in (at_m7, tiny_budget):
        assert s["feasible"] + s["infeasible"] + s["unbounded"] == s["agreements"]
        assert s["agreements"] + s["disagreements"] + s["unsupported"] + s["skipped"] == s["total"]
    assert at_m7["unbounded"] > 0 and tiny_budget["skipped"] > 0
    assert main(["fuzz", "-n", "3", "--m", "7"]) == 0
    assert capsys.readouterr().out == (
        "3/3 oracle-vs-solver agreements (1 feasible, 1 infeasible, 1 unbounded), "
        "0 unsupported, 0 skipped, 0 oracle fallbacks\n"
    )


def test_fuzz_parallel_matches_serial():
    from cctu.fuzz import run_fuzz

    a = run_fuzz(10, 5, jobs=1)
    b = run_fuzz(10, 5, jobs=2)
    assert {k: v for k, v in a.items() if k != "reproducers"} == {
        k: v for k, v in b.items() if k != "reproducers"
    }


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-n", "5", "--m", "-3"], "--m must be at least 0, not -3"),
        (["-n", "-2"], "-n must be at least 0, not -2"),
        (["-n", "2", "--jobs", "0"], "--jobs must be at least 1, not 0"),
    ],
)
def test_cli_fuzz_rejects_out_of_range_arguments(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: {argparse_wording(message)}\n") and captured.out == ""


def test_cli_fuzz_keeps_the_range_ends(capsys):
    assert main(["fuzz", "-n", "0", "--m", "0", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.startswith("0/0 oracle-vs-solver agreements")


# one variable in [0, 5] with its optimal vertex x = 0 outside R, so every
# answer needs the 5-point proximity box (m - |R| = 2 on each side)
BOXED_ONE = "rows 2\ncols 1\nT\n1\n-1\nb 5 0\ngamma 1\nm 3\nR 1\nc 1\n"


@pytest.mark.parametrize("command", ["solve", "oracle", "proximity"])
def test_cli_budget_overrun_exits_3(tmp_path, capsys, command):
    path = tmp_path / "boxed.txt"
    path.write_text(BOXED_ONE)
    assert main([command, "--input", str(path), "--max-enum", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: box of 5 points exceeds budget 1\n" and captured.out == ""


# x0 + x1 <= 1, x0 - x1 <= 0, x0 >= 0 is not TU: maximizing x0 needs the pivot 2
NON_TU = "rows 3\ncols 2\nT\n1 1\n1 -1\n-1 0\nb 1 0 0\ngamma 1 1\nm 3\nR 1\nc -1 0\n"


@pytest.mark.parametrize("command", ["solve", "width", "oracle"])
def test_cli_rejects_a_non_tu_matrix_past_the_skipped_check(tmp_path, capsys, command):
    path = tmp_path / "non_tu.txt"
    path.write_text(NON_TU)
    assert main([command, "--input", str(path), "--skip-tu-check"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pivot 2: the constraint matrix is not totally unimodular\n"
    assert captured.out == ""


def test_cli_decompose_certifies_its_input(tmp_path, capsys):
    """decompose always checks total unimodularity: a non-TU matrix exits 2
    with the certification message, and there is no flag to skip it."""
    path = tmp_path / "non_tu.txt"
    path.write_text(NON_TU)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: constraint matrix is not totally unimodular")
    assert captured.out == ""
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", str(path), "--skip-tu-check"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --skip-tu-check" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "inst.txt"],
        ["oracle", "--input", "inst.txt"],
        ["proximity", "--input", "inst.txt"],
        ["fuzz", "-n", "3"],
    ],
    ids=["solve", "oracle", "proximity", "fuzz"],
)
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_rejects_a_max_enum_below_one(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-enum", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --max-enum: must be at least 1, not {budget}" in captured.err
    assert captured.out == ""


# sha256 of generator output.  Every benchmark corpus is drawn from the
# generators, so a change to these digests re-draws the corpora.
INSTANCE_DIGESTS = {
    "network/3": "e2fc2987946b0676baa426f6092a684155728d16ce43a352a9aff16e87a6a636",
    "network/11": "7d167f5babe78c8469c1322ce8ead41e8eec5813e86d07f9a846016f720387a9",
    "transposed/3": "94536b7d82d0633d22172777e86067c36426aabf4a2192888b026d2cd25cf70c",
    "transposed/11": "05c582a4aef9dfa595a92dd81470d1f5dcaa815a07489b4493d3cd74bf1b89b7",
    "sum1/3": "c68876bd4e4f0a4473444c3a97ef335336a7d37e1d9c019e7eeac1ed9b225bce",
    "sum1/11": "4282287d57f28832c914acfe07ea42d5c1f1fee6fe4902e8dcae3f90eb543931",
    "sum2/3": "a8d7ca80abdd5ea7b2b59b28ab6ec003c3c446d9e919828b90f926fb909242d2",
    "sum2/11": "2fd20e158ef7147b903eac35abbfa1e149979f6f54eeb51d62e20a5f18fa75b5",
    "sum3/3": "e174eb46a131db7433660289df5da77b8dd0561f91aa54c93fc342c19e4d3a19",
    "sum3/11": "1c8e361b4bfc73dda5bd248a0049e7b62a2fe8f308740839bd9cd36983330f08",
    "pivoted/3": "97b9ad79d5e680f51bd3244ab0ca18827a6b9934960513b526c1e0bb5b417230",
    "pivoted/11": "9551ff10beaeca242bfe6b1922f86f64c3fda9257d7e356db355537a9715decc",
    "const_core/3": "90303b2dcad9dd40456a68387b36acdb6abb20040e048d984f8fe3ee89124645",
    "const_core/11": "cc38a42bdc9ba94c553f5ad6a2a9c6b0498fc1d57b827324cf924d707d7a7cf7",
}
NETWORK_DIGESTS = {
    (0, 0, 3): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (1, 1, 2): "f3cbeae0b68df6b7cc0a5da43f5202bd33708c72e9f6634344b71f0bb2d44975",
    (2, 5, 7): "31965d262b20c7246350885b37e1f8e87c9864700541299d6947fec8978fa4ea",
    (3, 9, 4): "e3c3367735ebcb7a37d5ca5116ec74271df20813ce9296b39fe1c62fa0ffb3fa",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_generator_output_is_pinned():
    for kind in KINDS:
        for seed in (3, 11):
            text = serialize_instance(generate(kind, 6, 5, 3, seed, True).instance)
            assert _sha256(text) == INSTANCE_DIGESTS[f"{kind}/{seed}"], (kind, seed)
    for (seed, k, n), digest in NETWORK_DIGESTS.items():
        rows = random_network_matrix(random.Random(seed), k, n).rows
        assert _sha256(repr(rows)) == digest, (seed, k, n)
