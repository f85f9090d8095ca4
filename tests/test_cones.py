import pytest

from cctu import lp
from cctu.cones import decompose_pointed_tu_cone, decompose_solutions
from cctu.errors import CctuError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron, integral_feasible_point, lp_optimize
from random_systems import boxed, random_tu_matrix
from reference import certified, is_elementary


def test_zero_point_gives_zero_coefficients():
    T = IntMatrix(((-1, 0), (0, -1)))
    rays, coeffs = decompose_pointed_tu_cone(T, (0, 0))
    assert coeffs == (0, 0) and len(rays) == 2


def test_orthant_decomposition_is_forced():
    T = IntMatrix(((-1, 0), (0, -1)))
    rays, coeffs = decompose_pointed_tu_cone(T, (2, 1))
    rebuilt = [0, 0]
    for lam, ray in zip(coeffs, rays):
        rebuilt[0] += lam * ray[0]
        rebuilt[1] += lam * ray[1]
    assert tuple(rebuilt) == (2, 1)
    # the orthant's extremal rays are the unit vectors, so the multiset is pinned
    used = sorted((ray, lam) for ray, lam in zip(rays, coeffs) if lam)
    assert used == [((0, 1), 1), ((1, 0), 2)]


def test_wedge_cone_decomposition_properties():
    # cone {0 <= x1 <= x2}
    T = IntMatrix(((-1, 0), (0, -1), (1, -1)))
    y = (1, 2)
    rays, coeffs = decompose_pointed_tu_cone(T, y)
    rebuilt = (
        sum(l * r[0] for l, r in zip(coeffs, rays)),
        sum(l * r[1] for l, r in zip(coeffs, rays)),
    )
    assert rebuilt == y
    tu = certified(T)
    for lam, ray in zip(coeffs, rays):
        if lam:
            assert all(v <= 0 for v in T.mul_vec(ray))
            assert is_elementary(tu, ray)


def test_rejects_non_pointed_cone():
    with pytest.raises(CctuError):
        decompose_pointed_tu_cone(IntMatrix(((-1, 0),)), (1, 0))


def test_rejects_point_outside_cone():
    with pytest.raises(CctuError):
        decompose_pointed_tu_cone(IntMatrix(((-1, 0), (0, -1))), (-1, 0))


def test_identity_shift_decomposition():
    # 0 <= x <= 5, x0=1, y=4: single ray (1) with coefficient 3
    P = Polyhedron(certified(IntMatrix(((-1,), (1,)))), (0, 5))
    dec = decompose_solutions(P, (1,), (4,))
    assert dec.point_for(dec.coeffs) == dec.y
    used = [(r, l) for r, l in zip(dec.rays, dec.coeffs) if l]
    assert used == [((1,), 3)]


def test_equal_points_decompose_trivially():
    P = Polyhedron(certified(IntMatrix(((-1,), (1,)))), (0, 5))
    dec = decompose_solutions(P, (2,), (2,))
    assert dec.point_for(dec.coeffs) == dec.y and all(l == 0 for l in dec.coeffs)


def _bounded_system(rng, n, k):
    T = random_tu_matrix(rng, k, n)
    b = tuple(rng.randint(-3, 6) for _ in range(k))
    P = boxed(TUMatrix.trusted(T), b, 6)
    return P


def _two_points(rng, P):
    n = P.nvars
    x0 = integral_feasible_point(P)
    if x0 is None:
        return None
    c = tuple(rng.randint(-2, 2) for _ in range(n))
    out = lp_optimize(P, c, "max")
    y = out.x if out.status == "optimal" else x0
    return x0, y


def test_decomposition_contract_on_random_systems(rng):
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        P = _bounded_system(rng, n, rng.randint(1, 4))
        pts = _two_points(rng, P)
        if pts is None:
            continue
        x0, y = pts
        dec = decompose_solutions(P, x0, y)
        assert dec.point_for(dec.coeffs) == dec.y
        tu = P.T
        for lam, ray in zip(dec.coeffs, dec.rays):
            if lam:
                assert is_elementary(tu, ray), (P.T.matrix.rows, ray)
                for row in P.T.matrix.rows:
                    assert sum(a * v for a, v in zip(row, ray)) in (-1, 0, 1)
        # free-subsum feasibility on random sub-multiplicity vectors
        for _ in range(40):
            mu = tuple(rng.randint(0, l) for l in dec.coeffs)
            assert P.contains(dec.point_for(mu))
        checked += 1


def test_at_most_n_nonzero_terms(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        P = _bounded_system(rng, n, rng.randint(1, 3))
        pts = _two_points(rng, P)
        if pts is None:
            continue
        x0, y = pts
        dec = decompose_solutions(P, x0, y)
        assert len(dec.rays) == n and len(dec.coeffs) == n


def test_decomposition_solves_no_lp(rng, monkeypatch):
    """Each ray comes from purifying the current point, not from an LP, and
    it is still elementary."""
    cases = []
    while len(cases) < 40:
        n = rng.randint(1, 4)
        P = _bounded_system(rng, n, rng.randint(1, 4))
        pts = _two_points(rng, P)
        if pts is not None and pts[0] != pts[1]:
            cases.append((P, *pts))

    def no_lp(*args, **kwargs):
        raise AssertionError("the cone decomposition solved an LP")

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    for P, x0, y in cases:
        dec = decompose_solutions(P, x0, y)
        assert dec.point_for(dec.coeffs) == dec.y
        for lam, ray in zip(dec.coeffs, dec.rays):
            if lam:
                assert is_elementary(P.T, ray), (P.T.matrix.rows, ray)
