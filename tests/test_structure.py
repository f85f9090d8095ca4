import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cctu import structure
from cctu.errors import InfeasibleRelaxationError
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular
from cctu.patterns import solve_rcctuf
from cctu.polyhedra import (
    Polyhedron,
    RCctufInstance,
    integral_feasible_point,
    lp_optimize,
    oracle_solve,
)
from cctu.structure import (
    BackMap,
    bound_scalar_products,
    eliminate_tight_variable,
    find_flat_or_solve,
    proximal_solution,
    solve_r_minus_1,
    solve_unconstrained_congruence,
)
from random_systems import polyhedron_with_implicit_equalities, random_instance
from reference import tu_appendable_rows


def interval(lo, hi, gamma, m, R, c=None):
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (-lo, hi))
    return RCctufInstance(P, gamma, m, frozenset(R), c)


def test_flat_on_tight_paper_family():
    # 0 <= x <= m-l-1 with the top l residues: infeasible, flat width m-l-1
    for m in range(2, 8):
        for ell in range(1, m):
            R = frozenset(range(m - ell, m))
            inst = interval(0, m - ell - 1, (1,), m, R)
            out = find_flat_or_solve(inst)
            assert out.tag == "flat"
            assert out.width == m - ell - 1


def test_flat_outcome_on_narrow_box():
    out = find_flat_or_solve(interval(0, 1, (1,), 3, {2}))
    assert out.tag == "flat" and out.width == 1 and out.row_index in (0, 1)


def test_solution_on_wide_box():
    out = find_flat_or_solve(interval(0, 10, (1,), 3, {2}))
    assert out.tag == "solution" and out.x[0] % 3 == 2


def test_full_residue_set_solves_immediately():
    inst = interval(0, 10, (1,), 3, {0, 1, 2})
    out = find_flat_or_solve(inst)
    assert out.tag == "solution" and inst.is_feasible_point(out.x)


def test_flat_requires_feasible_relaxation():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))
    with pytest.raises(InfeasibleRelaxationError):
        find_flat_or_solve(RCctufInstance(P, (1,), 3, frozenset({0})))


def test_gcd_obstruction_reported_as_infeasible():
    # gamma = 0 makes every residue 0; R = {1} can never be hit
    out = find_flat_or_solve(interval(0, 10, (0,), 3, {1}))
    assert out.tag == "infeasible"
    assert solve_unconstrained_congruence((0,), 3, frozenset({1})) is None
    assert solve_unconstrained_congruence((2, 4), 6, frozenset({1, 3})) is None
    x = solve_unconstrained_congruence((2, 4), 6, frozenset({0, 4}))
    assert x is not None and (2 * x[0] + 4 * x[1]) % 6 in (0, 4)


def test_flat_or_solve_matches_oracle_feasibility(rng):
    for _ in range(120):
        inst = random_instance(rng, n_max=3)
        ora = oracle_solve(inst)
        try:
            out = find_flat_or_solve(inst)
        except InfeasibleRelaxationError:
            assert ora.status == "infeasible"
            continue
        if out.tag == "solution":
            assert ora.status == "feasible"
            assert inst.is_feasible_point(out.x)
        elif out.tag == "flat":
            assert out.width <= inst.m - len(inst.R) - 1
        else:
            assert ora.status == "infeasible"


def test_flat_rows_on_infeasible_instances_have_small_width(rng):
    seen_flat = 0
    tries = 0
    while seen_flat < 25 and tries < 400:
        tries += 1
        inst = random_instance(rng, n_max=3)
        if oracle_solve(inst).status != "infeasible":
            continue
        try:
            out = find_flat_or_solve(inst)
        except InfeasibleRelaxationError:
            continue
        if out.tag == "flat":
            seen_flat += 1
            assert out.width <= inst.m - len(inst.R) - 1
            # verify the width certificate against the full polyhedron
            row = inst.P.T.matrix.rows[out.row_index]
            lo = lp_optimize(inst.P, row, "min")
            hi = lp_optimize(inst.P, row, "max")
            assert int(hi.value - lo.value) <= out.width
    assert seen_flat > 0


def test_bound_scalar_products_window():
    inst = interval(0, 10, (1,), 3, {0})
    bounds, P = bound_scalar_products(inst, [(1,)])
    (l, u), = bounds
    assert (l, u) == (0, 2)
    assert P.nvars == 1


def test_bound_scalar_products_trivial_window():
    inst = interval(0, 2, (1,), 3, {0})
    bounds, _ = bound_scalar_products(inst, [(1,)])
    assert bounds == ((0, 2),)


def test_bound_scalar_products_preserves_feasibility(rng):
    done = 0
    while done < 60:
        inst = random_instance(rng, n_max=3)
        dirs = [tuple(1 if j == i else 0 for j in range(inst.nvars)) for i in range(inst.nvars)]
        try:
            bounds, P = bound_scalar_products(inst, dirs)
        except InfeasibleRelaxationError:
            continue
        slack = inst.m - len(inst.R)
        assert all(u - l <= slack for l, u in bounds)
        narrowed = inst.replaced(P=P)
        assert oracle_solve(inst).status == oracle_solve(narrowed).status
        done += 1


def test_proximal_solution_bound(rng):
    done = 0
    while done < 40:
        inst = random_instance(rng, n_max=3)
        ora = oracle_solve(inst)
        if ora.status != "feasible":
            continue
        x0 = lp_optimize(inst.P, (0,) * inst.nvars, "min").x
        x = proximal_solution(inst, x0, ora.x)
        assert inst.is_feasible_point(x)
        bound = inst.m - len(inst.R)
        assert max(abs(a - b) for a, b in zip(x, x0)) <= bound
        done += 1


def test_proximal_products_bounded_for_enumerated_appendable_rows(rng):
    done = 0
    while done < 10:
        inst = random_instance(rng, n_max=3)
        ora = oracle_solve(inst)
        if ora.status != "feasible":
            continue
        x0 = lp_optimize(inst.P, (0,) * inst.nvars, "min").x
        x = proximal_solution(inst, x0, ora.x)
        bound = inst.m - len(inst.R)
        for d in tu_appendable_rows(inst.P.T):
            assert sum(a * (u - v) for a, u, v in zip(d, x, x0)) <= bound
        done += 1


def two_var_forced():
    # x1 + x2 <= 3 and -(x1 + x2) <= -3 force the diagonal
    T = IntMatrix(((1, 1), (-1, -1), (1, 0), (-1, 0)))
    P = Polyhedron(TUMatrix.certify(T), (3, -3, 5, 5))
    return RCctufInstance(P, (1, 2), 4, frozenset({1}))


def test_eliminate_tight_variable_round_trip():
    inst = two_var_forced()
    reduced, back = eliminate_tight_variable(inst)
    assert reduced.nvars == 1
    assert is_totally_unimodular(reduced.P.T.matrix)
    # lift arbitrary feasible points of the reduced instance; the residue
    # target moves by a constant, so membership must match exactly
    for x1 in range(-5, 6):
        if reduced.P.contains((x1,)):
            lifted = back.lift((x1,))
            assert inst.P.contains(lifted)
            assert (reduced.residue((x1,)) in reduced.R) == (inst.residue(lifted) in inst.R)


def test_eliminate_none_on_full_dimensional_box():
    T = IntMatrix(((1, 0), (0, 1), (-1, 0), (0, -1)))
    P = Polyhedron(TUMatrix.certify(T), (2, 2, 0, 0))
    inst = RCctufInstance(P, (1, 1), 3, frozenset({0}))
    assert eliminate_tight_variable(inst) is None


def test_solve_r_minus_1_trivial_cases():
    assert solve_r_minus_1(interval(0, 1, (1,), 3, {1, 2})) == (1,)
    assert solve_r_minus_1(interval(0, 0, (1,), 3, {1, 2})) is None


def test_solve_r_minus_1_matches_oracle(rng):
    done = 0
    while done < 300:
        m = rng.choice((2, 3, 4, 5))
        inst = random_instance(rng, n_max=5, m_choices=(m,), r_size=m - 1)
        sol = solve_r_minus_1(inst)
        ora = oracle_solve(inst)
        if sol is None:
            assert ora.status == "infeasible"
        else:
            assert inst.is_feasible_point(sol)
            assert ora.status == "feasible"
        done += 1


def test_detect_unboundedness_cases():
    # min -x over x >= 0 with parity 0: feasible, relaxation unbounded
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))
    unbounded = RCctufInstance(P, (1,), 2, frozenset({0}), (-1,))
    bounded = interval(0, 5, (1,), 2, {0}, c=(-1,))
    # unbounded relaxation but congruence unattainable
    impossible = RCctufInstance(P, (0,), 2, frozenset({1}), (-1,))
    cases = ((unbounded, "unbounded"), (bounded, "feasible"), (impossible, "infeasible"))
    for inst, verdict in cases:
        assert solve_rcctuf(inst).status == verdict
        assert oracle_solve(inst).status == verdict


OPTIMIZED_FLATNESS_CHECK = """
import cctu.structure as st
from cctu.errors import SolutionCheckError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron, RCctufInstance

# 5 <= x <= 10 with |R| = m-1: no flat row, and the unconstrained congruence
# point lies below the interval, so the dropped rows are re-added through the
# shortening transform, here patched to return a point far outside
P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (10, -5))
inst = RCctufInstance(P, (1,), 3, frozenset({1, 2}))
st.transform_solution = lambda inst, y, x0: (10**6,)
try:
    print("returned", st.find_flat_or_solve(inst).x)
except SolutionCheckError as exc:
    print("raised", type(exc).__name__)
"""


def test_structure_checks_survive_python_O(tmp_path):
    """Under python -O, which strips assert statements, a transformed point
    that fails its row still raises SolutionCheckError, and the CLI still
    solves an |R| = m-1 instance."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_FLATNESS_CHECK],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "SolutionCheckError"], proc.stdout
    path = tmp_path / "rminus1.txt"
    path.write_text("rows 2\ncols 1\nT\n1\n-1\nb 10 -5\ngamma 1\nm 3\nR 1 2\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cctu.cli", "solve", "--input", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "feasible" in proc.stdout


OPTIMIZED_HANDOFF_CHECK = """
import cctu.baseblocks as bb
import cctu.structure as st
from cctu.errors import CctuError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron, RCctufInstance, oracle_solve

# 0 <= x, y <= 2 with x = y; (5, 5) lies outside, (0, 0) is a vertex
rows = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
P = Polyhedron(TUMatrix.certify(IntMatrix(rows)), (2, 0, 2, 0, 0, 0))
inst = RCctufInstance(P, (1, 1), 3, frozenset({1, 2}))
calls = {
    "normalize": lambda: bb.normalize(inst, vertex=(5, 5)),
    "eliminate": lambda: st.eliminate_tight_variable(inst, vertex=(5, 5)),
    "flatness": lambda: st.find_flat_or_solve(inst, vertex=(5, 5)),
    "oracle": lambda: oracle_solve(inst, vertex=(5, 5)),
    # row 0 (x <= 2) is not tight at (0, 0), so it is no implicit equality
    "equality": lambda: st.eliminate_tight_variable(inst, vertex=(0, 0), equality=0),
    "index": lambda: st.find_flat_or_solve(inst, vertex=(0, 0), equality=-1),
}
for name, call in calls.items():
    try:
        print(name, "returned", call())
    except CctuError as exc:
        print(name, "raised", type(exc).__name__)
"""


def test_handed_down_vertex_checks_survive_python_O():
    """A vertex outside P, or an implicit-equality verdict that names no
    row tight at the vertex, raises CctuError, also under python -O."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_HANDOFF_CHECK],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "normalize", "raised", "CctuError",
        "eliminate", "raised", "CctuError",
        "flatness", "raised", "CctuError",
        "oracle", "raised", "CctuError",
        "equality", "raised", "CctuError",
        "index", "raised", "CctuError",
    ], proc.stdout


def reference_tight_pick(inst):
    """Row choice of elimination by its two-LPs-per-row definition: the first
    nonzero row whose LP maximum and minimum both equal its right-hand side,
    else the first row of width 0 below its right-hand side.  Returns
    (row index, beta) or None."""
    deferred = None
    for i, (row, bv) in enumerate(zip(inst.P.T.matrix.rows, inst.P.b)):
        if not any(row):
            continue
        hi = lp_optimize(inst.P, row, "max")
        if hi.status == "unbounded":
            continue
        lo = lp_optimize(inst.P, row, "min")
        if lo.status == "unbounded" or lo.value != hi.value:
            continue
        if hi.value == bv:
            return i, bv
        if deferred is None:
            deferred = (i, int(hi.value))
    # the affine hull of P is cut out by its implicit equalities, so a row of
    # width 0 below its bound means some other row is tight on all of P
    assert deferred is None
    return None


def reference_flat_row(inst):
    """Flatness scan by its two-LPs-per-row definition: the first nonzero row
    whose width over the rows from it onward is at most m-|R|-1, as
    (row index, width), or None."""
    mat = inst.P.T.matrix
    k = mat.nrows
    for idx in range(k):
        if not any(mat.rows[idx]):
            continue
        sub = Polyhedron(TUMatrix.trusted(IntMatrix(mat.rows[idx:], mat.ncols)), inst.P.b[idx:])
        lo = lp_optimize(sub, mat.rows[idx], "min")
        hi = lp_optimize(sub, mat.rows[idx], "max")
        if lo.status == "optimal" and hi.status == "optimal":
            w = int(hi.value - lo.value)
            if w <= inst.m - len(inst.R) - 1:
                return idx, w
    return None


def test_tight_rows_from_the_feasible_vertex_match_two_lps_per_row():
    rng = random.Random(2024)
    eliminated = flat = 0
    for _ in range(300):
        inst = polyhedron_with_implicit_equalities(rng)
        if integral_feasible_point(inst.P) is None:
            with pytest.raises(InfeasibleRelaxationError):
                eliminate_tight_variable(inst)
            with pytest.raises(InfeasibleRelaxationError):
                find_flat_or_solve(inst)
            continue
        pick = reference_tight_pick(inst)
        step = eliminate_tight_variable(inst)
        if pick is None:
            assert step is None
        else:
            eliminated += 1
            i, beta = pick
            row = inst.P.T.matrix.rows[i]
            j = max(t for t in range(len(row)) if row[t])
            reduced, back = step
            assert back == BackMap(j, row[j], beta, row[:j] + row[j + 1:])
            assert reduced.P.b == tuple([
                bv - row[j] * beta * r[j]
                for t, (r, bv) in enumerate(zip(inst.P.T.matrix.rows, inst.P.b))
                if t != i
            ])
        # the same answers from a handed-down vertex and verdict
        x0 = integral_feasible_point(inst.P)
        equality = None if pick is None else pick[0]
        assert eliminate_tight_variable(inst, vertex=x0, equality=equality) == step
        ref = reference_flat_row(inst)
        out = find_flat_or_solve(inst)
        assert find_flat_or_solve(inst, vertex=x0, equality=equality) == out
        if ref is None:
            assert out.tag != "flat"
            assert out.tag == "infeasible" or inst.is_feasible_point(out.x)
        else:
            flat += 1
            assert (out.tag, out.row_index, out.width) == ("flat",) + ref
    assert eliminated > 50 and flat > 50


def counting(monkeypatch, name):
    calls = []
    real = getattr(structure, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, name, wrapped)
    return calls


def test_full_dimensional_box_costs_one_lp_per_row_tight_at_the_vertex(monkeypatch):
    n = 3
    units = [tuple([s if t == i else 0 for t in range(n)]) for i in range(n) for s in (1, -1)]
    P = Polyhedron(TUMatrix.certify(IntMatrix(tuple(units))), (2, 0) * n)
    x0 = integral_feasible_point(P)
    tight = [row for row, bv in zip(units, P.b) if sum(a * v for a, v in zip(row, x0)) == bv]
    assert len(tight) == n
    inst = RCctufInstance(P, (1,) * n, 3, frozenset({1, 2}))
    lps = counting(monkeypatch, "lp_optimize")
    widths = counting(monkeypatch, "width")
    assert eliminate_tight_variable(inst) is None
    assert [tuple(args[1]) for args in lps] == tight
    out = find_flat_or_solve(inst)
    assert out.tag == "solution" and inst.is_feasible_point(out.x)
    assert widths == []
    # a pinned coordinate is an implicit equality, so the width scan runs
    pinned = inst.replaced(P=P.with_rows([(0, 0, 1), (0, 0, -1)], [0, 0]))
    out = find_flat_or_solve(pinned)
    assert (out.tag, out.width) == ("flat", 0)
    assert widths
