import random

import pytest

from cctu.errors import InfeasibleRelaxationError
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular, tu_appendable_rows
from cctu.polyhedra import Polyhedron, RCctufInstance, lp_optimize, oracle_solve
from cctu.structure import (
    bound_scalar_products,
    detect_unboundedness,
    eliminate_tight_variable,
    find_flat_or_solve,
    proximal_solution,
    solve_r_minus_1,
    solve_unconstrained_congruence,
)
from random_systems import random_instance


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
    (l, u), = bounds.bounds
    assert (l, u) == (0, 2)
    assert P.nvars == 1


def test_bound_scalar_products_trivial_window():
    inst = interval(0, 2, (1,), 3, {0})
    bounds, _ = bound_scalar_products(inst, [(1,)])
    assert bounds.bounds == ((0, 2),)


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
        assert all(u - l <= slack for l, u in bounds.bounds)
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
        x0 = lp_optimize(inst.P, (0,) * inst.nvars, "min").vertex
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
        x0 = lp_optimize(inst.P, (0,) * inst.nvars, "min").vertex
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
    inst = RCctufInstance(P, (1,), 2, frozenset({0}), (-1,))
    assert detect_unboundedness(inst)
    bounded = interval(0, 5, (1,), 2, {0}, c=(-1,))
    assert not detect_unboundedness(bounded)
    # unbounded relaxation but congruence unattainable
    impossible = RCctufInstance(P, (0,), 2, frozenset({1}), (-1,))
    assert not detect_unboundedness(impossible)
