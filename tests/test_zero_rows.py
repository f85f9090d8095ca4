"""Systems with no constraint rows: only gamma.x in R (mod m) binds.

The flatness procedure strips rows until it finds a flat one or the system
is bare, so a 0 x n system is a state the solver itself reaches; every path
must keep its n columns.
"""

import random

from cctu.cli import main
from cctu.fileio import parse_instance, serialize_instance
from cctu.matrices import IntMatrix, TUMatrix
from cctu.patterns import is_prime, solve_rcctuf
from cctu.polyhedra import Polyhedron, RCctufInstance, oracle_solve
from cctu.seymour import NetworkRepresentation
from cctu.verify import verify_solution
from reference import is_elementary, tu_appendable_rows


def supported_shapes():
    """Every (m, |R|) the solver covers for m in 2..7."""
    for m in range(2, 8):
        for ell in (m, m - 1, m - 2):
            if ell >= 1 and (ell >= m - 1 or is_prime(m)):
                yield m, ell


def zero_row_instance(rng, m, ell, n, with_c):
    gamma = tuple(rng.choice((0, 0, rng.randint(-m, m))) for _ in range(n))
    R = frozenset(rng.sample(range(m), ell))
    c = tuple(rng.randint(-2, 2) for _ in range(n)) if with_c else None
    P = Polyhedron(TUMatrix.trusted(IntMatrix((), n)), ())
    return RCctufInstance(P, gamma, m, R, c)


def zero_row_corpus():
    """Four seeded draws per shape, objective on or off, and n in 1..3."""
    rng = random.Random(4040)
    for m, ell in supported_shapes():
        for with_c in (False, True):
            for n in (1, 2, 3) * 4:
                yield zero_row_instance(rng, m, ell, n, with_c)


def test_zero_row_shapes():
    assert (IntMatrix((), 3).nrows, IntMatrix((), 3).ncols) == (0, 3)
    t = IntMatrix((), 3).transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    s = IntMatrix(((1, 2, 3),)).submatrix((), (0, 2))
    assert (s.nrows, s.ncols) == (0, 2)
    r = NetworkRepresentation(1, (), ((0, 0),) * 3).rebuild()
    assert (r.nrows, r.ncols) == (0, 3)


def test_zero_row_elementary_vectors():
    bare = IntMatrix((), 2)
    assert len(tu_appendable_rows(bare)) == 9
    assert is_elementary(bare, (1, 0)) and not is_elementary(bare, (1, 1))


def test_zero_row_corpus_covers_every_supported_shape():
    corpus = list(zero_row_corpus())
    shapes = {(inst.m, len(inst.R)) for inst in corpus}
    assert shapes == set(supported_shapes()) and (7, 5) in shapes
    assert any(0 in inst.gamma for inst in corpus)
    assert any(inst.c is not None for inst in corpus)
    assert any(inst.c is None for inst in corpus)


def test_zero_row_solver_matches_oracle():
    statuses = set()
    for inst in zero_row_corpus():
        res = solve_rcctuf(inst)
        ora = oracle_solve(inst)
        assert res.status == ora.status, inst
        statuses.add(res.status)
        if res.status == "feasible":
            assert verify_solution(inst, res.x).ok, (inst, res.x)
            assert res.value == ora.value, inst
        if res.status == "unbounded":
            assert verify_solution(inst, res.x).ok, (inst, res.x)
    assert statuses == {"feasible", "infeasible", "unbounded"}


def test_zero_row_roundtrip():
    for inst in zero_row_corpus():
        text = serialize_instance(inst)
        assert text.startswith("rows 0\n")
        assert parse_instance(text) == inst


def test_cli_solves_zero_row_files(tmp_path, capsys):
    for i, inst in enumerate(zero_row_corpus()):
        if i % 8:
            continue
        path = tmp_path / f"inst{i}.txt"
        path.write_text(serialize_instance(inst))
        code = main(["solve", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1) and "Traceback" not in err, (inst, err)
        assert ("infeasible" in out) == (code == 1), out


def test_cli_proximity_on_a_zero_column_file(tmp_path, capsys):
    """With no variables the only point is x = (), at distance 0 from itself."""
    path = tmp_path / "inst.txt"
    path.write_text("rows 2\ncols 0\nT\nb 0 1\ngamma\nm 3\nR 0\n")
    code = main(["proximity", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err, err
    assert "distance 0 (bound 2)" in out, out
