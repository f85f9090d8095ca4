import json
import subprocess
import sys

import pytest

from cctu.cli import main
from cctu.errors import InputFormatError
from cctu.fileio import parse_instance, serialize_instance
from cctu.generators import generate
from cctu.seymour import classify, recognize_network_matrix
from cctu.verify import verify_solution

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
        assert recognize_network_matrix(gen.instance.P.T.matrix) is not None


def test_generator_sum3_classifies_as_sum():
    gen = generate("sum3", 4, 3, 1, seed=7)
    cls = classify(gen.instance.P.T)
    # a 3-sum matrix may still be a network matrix; any verified tag is fine,
    # but a separation must exist
    from cctu.seymour import find_sum_decomposition

    dec = find_sum_decomposition(gen.instance.P.T.matrix)
    assert dec is not None and dec.n_A >= 2 and dec.n_B >= 2


def test_generator_deterministic():
    a = generate("sum2", 4, 5, 2, seed=123)
    b = generate("sum2", 4, 5, 2, seed=123)
    assert a.instance == b.instance


def test_generator_const_core():
    gen = generate("const_core", 7, 3, 1, seed=3)
    cls = classify(gen.instance.P.T)
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
    assert "totally unimodular" in capsys.readouterr().out


def test_cli_check_tu_negative(tmp_path, capsys):
    text = MINIMAL.replace("rows 2\ncols 1", "rows 2\ncols 2").replace(
        "T\n-1\n 1", "T\n1 1\n-1 1"
    ).replace("gamma 1", "gamma 1 0")
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = run_cli(tmp_path, "check-tu", "--input", str(path))
    assert code == 1
    assert "not totally unimodular" in capsys.readouterr().out


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


def test_cli_width_and_proximity(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(MINIMAL)
    assert run_cli(tmp_path, "width", "--input", str(path)) == 0
    out = capsys.readouterr().out
    assert "width" in out
    assert run_cli(tmp_path, "proximity", "--input", str(path)) == 0
    out = capsys.readouterr().out
    assert "distance" in out


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
    monkeypatch.setattr(cli, "solve_rcctuf", lambda inst, config: SolveResult("feasible", (8,)))
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


def test_fuzz_parallel_matches_serial():
    from cctu.fuzz import run_fuzz

    a = run_fuzz(10, 5, jobs=1)
    b = run_fuzz(10, 5, jobs=2)
    assert {k: v for k, v in a.items() if k != "reproducers"} == {
        k: v for k, v in b.items() if k != "reproducers"
    }
