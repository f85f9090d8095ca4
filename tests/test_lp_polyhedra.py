import random
from itertools import product

import pytest

from cctu.errors import InfeasibleRelaxationError, ScaleError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import (
    Polyhedron,
    RCctufInstance,
    integral_feasible_point,
    lp_optimize,
    oracle_solve,
    search_box,
    width,
)
from random_systems import random_instance, random_tu_matrix


def box_1d(lo, hi):
    return Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (-lo, hi))


def test_lp_min_over_interval():
    out = lp_optimize(box_1d(0, 5), (1,), "min")
    assert out.tag == "optimal" and out.vertex == (0,) and out.value == 0


def test_lp_unbounded_ray():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))  # x >= 0
    out = lp_optimize(P, (1,), "max")
    assert out.tag == "unbounded" and out.ray == (1,)


def test_lp_infeasible():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (0, -1))  # x<=0, x>=1
    assert lp_optimize(P, (1,), "min").tag == "infeasible"


def test_integral_feasible_point_cases():
    assert integral_feasible_point(box_1d(0, 5)) is not None
    empty = Polyhedron(TUMatrix.certify(IntMatrix(())), ())
    # no constraints at all: the origin works
    assert integral_feasible_point(Polyhedron(TUMatrix.trusted(IntMatrix(((0,),))), (0,))) == (0,)
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))  # x<=-1, x>=0
    assert integral_feasible_point(P) is None


def test_lp_vertices_integral_on_random_tu_systems():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 5)
        T = random_tu_matrix(rng, k, n)
        b = tuple(rng.randint(-4, 6) for _ in range(k))
        # bound the polyhedron so the optimum exists
        P = Polyhedron(TUMatrix.trusted(T), b).with_rows(
            [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            + [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)],
            [7] * (2 * n),
        )
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        out = lp_optimize(P, c, "min")
        if out.tag == "optimal":
            assert P.contains(out.vertex)
            assert sum(ci * vi for ci, vi in zip(c, out.vertex)) == out.value


def test_lp_optimum_matches_bruteforce_on_boxes():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        T = random_tu_matrix(rng, k, n)
        b = tuple(rng.randint(-3, 5) for _ in range(k))
        P = Polyhedron(TUMatrix.trusted(T), b).with_rows(
            [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            + [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)],
            [4] * (2 * n),
        )
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        pts = [x for x in product(range(-4, 5), repeat=n) if P.contains(x)]
        out = lp_optimize(P, c, "min")
        if not pts:
            assert out.tag == "infeasible"
        else:
            best = min(sum(ci * vi for ci, vi in zip(c, x)) for x in pts)
            assert out.tag == "optimal" and out.value == best


def test_width_finite_with_witnesses():
    res = width(box_1d(0, 3), (1,))
    assert res.finite and res.width == 3
    assert res.argmin == (0,) and res.argmax == (3,)


def test_width_infinite():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))
    assert not width(P, (1,)).finite


def test_width_diagonal_direction_on_unit_box():
    T = IntMatrix(((1, 0), (0, 1), (-1, 0), (0, -1)))
    P = Polyhedron(TUMatrix.certify(T), (1, 1, 0, 0))
    res = width(P, (1, 1))
    assert res.finite and res.width == 2


def test_width_requires_feasible_polyhedron():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))
    with pytest.raises(InfeasibleRelaxationError):
        width(P, (1,))


def make_inst(lo, hi, gamma, m, R, c=None):
    return RCctufInstance(box_1d(lo, hi), gamma, m, frozenset(R), c)


def test_oracle_infeasible_tight_interval():
    # 0 <= x <= 1 with x = 2 (mod 3): the tight one-dimensional family
    assert oracle_solve(make_inst(0, 1, (1,), 3, {2})).status == "infeasible"


def test_oracle_finds_point_in_box():
    out = oracle_solve(make_inst(0, 10, (1,), 3, {2}))
    assert out.status == "feasible" and out.x[0] % 3 == 2


def test_oracle_full_residue_set_returns_relaxation_point():
    inst = make_inst(0, 10, (1,), 3, {0, 1, 2})
    out = oracle_solve(inst)
    assert out.status == "feasible" and inst.P.contains(out.x)


def test_oracle_optimization_matches_exhaustive():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng, n_max=3, with_c=True)
        out = oracle_solve(inst)
        pts = [
            x
            for x in product(range(-12, 13), repeat=inst.nvars)
            if inst.is_feasible_point(x)
        ]
        lpout = lp_optimize(inst.P, inst.c, "min")
        if out.status == "infeasible":
            # no feasible point in a wide window either
            assert not pts or lpout.tag == "unbounded"
        elif out.status == "feasible":
            assert inst.is_feasible_point(out.x)
            if pts and lpout.tag == "optimal":
                best = min(inst.objective(x) for x in pts)
                # exhaustive window can only see [-12,12]; the oracle is exact
                assert out.value <= best


def test_oracle_agrees_with_full_box_enumeration_feasibility():
    rng = random.Random(37)
    agree = 0
    for _ in range(200):
        inst = random_instance(rng, n_max=4)
        out = oracle_solve(inst)
        pts_exist = any(
            inst.is_feasible_point(x) for x in product(range(-11, 12), repeat=inst.nvars)
        )
        if out.status == "feasible":
            assert inst.is_feasible_point(out.x)
            agree += 1
        else:
            assert not pts_exist
            agree += 1
    assert agree == 200


def test_oracle_budget():
    inst = RCctufInstance(
        Polyhedron(TUMatrix.trusted(IntMatrix((tuple([0] * 12),))), (0,)),
        (1,) * 12,
        9,
        frozenset({1}),
    )
    with pytest.raises(ScaleError):
        oracle_solve(inst, budget=1000)


def test_search_box_first_hit_is_lexicographic_minimum():
    inst = make_inst(-10, 10, (1,), 3, {2})
    found, x, _ = search_box(inst, (0,), 3)
    assert found and x == (-1,)  # -1 = 2 mod 3, scanned before 2
