import random
from itertools import product

import pytest

from cctu import lp
from cctu.errors import InfeasibleRelaxationError, ScaleError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import (
    Polyhedron,
    RCctufInstance,
    SolveResult,
    integral_feasible_point,
    lp_optimize,
    lp_range,
    oracle_solve,
    search_box,
    width,
)
from random_systems import boxed, random_instance, random_tu_matrix


def box_1d(lo, hi):
    return Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (-lo, hi))


def test_lp_min_over_interval():
    out = lp_optimize(box_1d(0, 5), (1,), "min")
    assert out.status == "optimal" and out.x == (0,) and out.value == 0


def test_lp_unbounded_ray():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))  # x >= 0
    out = lp_optimize(P, (1,), "max")
    assert out.status == "unbounded" and out.ray == (1,)


def test_lp_infeasible():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (0, -1))  # x<=0, x>=1
    assert lp_optimize(P, (1,), "min").status == "infeasible"


def test_integral_feasible_point_cases():
    assert integral_feasible_point(box_1d(0, 5)) is not None
    empty = Polyhedron(TUMatrix.certify(IntMatrix(())), ())
    assert integral_feasible_point(empty) == ()
    # no constraints at all: the origin works
    assert integral_feasible_point(Polyhedron(TUMatrix.trusted(IntMatrix(((0,),))), (0,))) == (0,)
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))  # x<=-1, x>=0
    assert integral_feasible_point(P) is None


def test_integral_feasible_point_starts_nearest_the_origin():
    """The simplex starts every variable at the point of its bounds nearest
    0: a polyhedron that holds the origin gives the origin back, and a box
    gives its corner nearest the origin."""
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(1, 4)
        T = random_tu_matrix(rng, rng.randint(1, 6), n)
        P = Polyhedron(TUMatrix.trusted(T), [rng.randint(0, 3) for _ in range(T.nrows)])
        assert integral_feasible_point(P) == (0,) * n
    # 1 <= x0 <= 3, -3 <= x1 <= -1
    box = Polyhedron(TUMatrix.certify(IntMatrix(((-1, 0), (1, 0), (0, -1), (0, 1)))), (-1, 3, 3, -1))
    assert integral_feasible_point(box) == (1, -1)


def test_lp_vertices_integral_on_random_tu_systems():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 5)
        T = random_tu_matrix(rng, k, n)
        b = tuple(rng.randint(-4, 6) for _ in range(k))
        # bound the polyhedron so the optimum exists
        P = boxed(TUMatrix.trusted(T), b, 7)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        out = lp_optimize(P, c, "min")
        if out.status == "optimal":
            assert P.contains(out.x)
            assert sum(ci * vi for ci, vi in zip(c, out.x)) == out.value


def test_lp_optimum_matches_bruteforce_on_boxes():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        T = random_tu_matrix(rng, k, n)
        b = tuple(rng.randint(-3, 5) for _ in range(k))
        P = boxed(TUMatrix.trusted(T), b, 4)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        pts = [x for x in product(range(-4, 5), repeat=n) if P.contains(x)]
        out = lp_optimize(P, c, "min")
        if not pts:
            assert out.status == "infeasible"
        else:
            best = min(sum(ci * vi for ci, vi in zip(c, x)) for x in pts)
            assert out.status == "optimal" and out.value == best


def test_width_finite_with_witnesses():
    assert width(box_1d(0, 3), (1,)) == 3


def test_width_infinite():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))
    assert width(P, (1,)) is None
    assert width(P, (-1,)) is None


def test_width_diagonal_direction_on_unit_box():
    T = IntMatrix(((1, 0), (0, 1), (-1, 0), (0, -1)))
    P = Polyhedron(TUMatrix.certify(T), (1, 1, 0, 0))
    assert width(P, (1, 1)) == 2


def count_lps(monkeypatch):
    calls = []
    solve_lp = lp.solve_lp

    def counting(rows, b, c, sense="min"):
        calls.append(sense)
        return solve_lp(rows, b, c, sense)

    monkeypatch.setattr(lp, "solve_lp", counting)
    return calls


def test_lp_range_of_an_empty_polyhedron_takes_one_lp(monkeypatch):
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))  # x<=-1, x>=0
    calls = count_lps(monkeypatch)
    assert lp_range(P, (1,)) is None
    assert calls == ["min"]


def test_lp_range_marks_each_unbounded_side_with_none():
    half_line = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (-2,))  # x >= 2
    assert lp_range(half_line, (1,)) == (2, None)
    assert lp_range(half_line, (-1,)) == (None, -2)
    free = Polyhedron(TUMatrix.trusted(IntMatrix(((0,),))), (0,))
    assert lp_range(free, (1,)) == (None, None)


def test_lp_range_is_the_exact_range_on_a_box():
    T = IntMatrix(((1, 0), (0, 1), (-1, 0), (0, -1)))
    P = Polyhedron(TUMatrix.certify(T), (3, 1, 2, 4))  # -2 <= x0 <= 3, -4 <= x1 <= 1
    assert lp_range(P, (1, -1)) == (-3, 7)
    assert lp_range(P, (0, 0)) == (0, 0)


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


def test_oracle_answers_with_the_solver_result_type():
    """The oracle and the structural solver give the same answer type, so
    the CLI and the fuzzer read both alike."""
    half_line = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))  # x >= 0
    unbounded = RCctufInstance(half_line, (1,), 3, frozenset({2}), (-1,))
    answers = {
        "feasible": oracle_solve(make_inst(0, 10, (1,), 3, {2}, c=(1,))),
        "infeasible": oracle_solve(make_inst(0, 1, (1,), 3, {2})),
        "unbounded": oracle_solve(unbounded),
    }
    for status, out in answers.items():
        assert type(out) is SolveResult and out.status == status and out.stats == {}
    assert (answers["feasible"].x, answers["feasible"].value) == ((2,), 2)


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
            assert not pts or lpout.status == "unbounded"
        elif out.status == "feasible":
            assert inst.is_feasible_point(out.x)
            if pts and lpout.status == "optimal":
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
