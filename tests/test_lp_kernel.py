"""The fraction-free simplex against exhaustive enumeration, and the exact
checks that must hold under `python -O`."""

import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from math import gcd

from cctu import cones, lp
from random_systems import random_tu_matrix


def _solve_square(rows, rhs, n):
    """Some rational solution of rows * x == rhs, or None (Fraction
    Gauss-Jordan, free columns set to 0)."""
    work = [[Fraction(v) for v in r] + [Fraction(bv)] for r, bv in zip(rows, rhs)]
    pivots = []
    rank = 0
    for j in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][j] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        work[rank] = [v / work[rank][j] for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][j] != 0:
                f = work[i][j]
                work[i] = [a - f * p for a, p in zip(work[i], work[rank])]
        pivots.append(j)
        rank += 1
    if any(row[-1] != 0 for row in work[rank:]):
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        x[j] = work[i][-1]
    return x, rank


def _rank(rows, n):
    return _solve_square(rows, [0] * len(rows), n)[1] if rows else 0


def _enumerate_lp(rows, b, c):
    """(status, value) of min c.x over rows * x <= b by enumeration.

    Every nonempty polyhedron has a minimal face cut out by rank(rows)
    independent tight rows, so feasibility and the optimum show on those
    basic solutions; the LP is bounded iff the dual {y >= 0, y.rows = -c}
    has a basic feasible solution (Caratheodory).
    """
    n = len(c)
    k = len(rows)
    r = _rank(rows, n)
    values = []
    for idx in combinations(range(k), r):
        sub = [rows[i] for i in idx]
        if _rank(sub, n) < r:
            continue
        x, _ = _solve_square(sub, [b[i] for i in idx], n)
        if all(sum(a * v for a, v in zip(row, x)) <= bv for row, bv in zip(rows, b)):
            values.append(sum(cv * xv for cv, xv in zip(c, x)))
    if not values:
        return "infeasible", None
    cols = [tuple(row[j] for row in rows) for j in range(n)]  # rows^T, n x k
    bounded = False
    for size in range(0, min(k, n) + 1):
        for idx in combinations(range(k), size):
            sub = [[col[i] for i in idx] for col in cols]
            sol = _solve_square(sub, [-cv for cv in c], size)
            if sol is not None and all(v >= 0 for v in sol[0]):
                bounded = True
                break
        if bounded:
            break
    if not bounded:
        return "unbounded", None
    return "optimal", min(values)


def _check_against_enumeration(rows, b, c):
    res = lp.solve_lp(rows, b, c, "min")
    status, value = _enumerate_lp(rows, b, c)
    assert res.status == status, (rows, b, c, res)
    if status == "optimal":
        x = [Fraction(v, res.den) for v in res.x]
        assert res.value == value
        assert sum(cv * xv for cv, xv in zip(c, x)) == value
        assert all(sum(a * v for a, v in zip(row, x)) <= bv for row, bv in zip(rows, b))
        assert res.den > 0 and gcd(res.den, *res.x) == 1
    elif status == "unbounded":
        ray = res.ray
        assert any(ray) and gcd(*ray) == 1, ray
        assert all(sum(a * v for a, v in zip(row, ray)) <= 0 for row in rows)
        assert sum(cv * v for cv, v in zip(c, ray)) < 0
    return res


def _recording_pivot(monkeypatch):
    dens = []
    pivot = lp.pivot

    def recorded(rows, r, s, den):
        new = pivot(rows, r, s, den)
        dens.append(new)
        return new

    monkeypatch.setattr(lp, "pivot", recorded)
    return dens


def test_tu_lps_match_enumeration_with_unit_denominator(monkeypatch):
    dens = _recording_pivot(monkeypatch)
    rng = random.Random(2027)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        k = rng.randint(1, 6)
        rows = random_tu_matrix(rng, k, n).rows
        b = [rng.randint(-4, 4) for _ in range(k)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        res = _check_against_enumeration(rows, b, c)
        seen.add(res.status)
        if res.status == "optimal":
            assert res.den == 1 and all(type(v) is int for v in res.x)
            assert type(res.value) is int
    assert seen == {"optimal", "unbounded", "infeasible"}
    assert dens and set(dens) == {1}


def test_general_integer_lps_match_enumeration():
    rng = random.Random(2028)
    fractional = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        k = rng.randint(0, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        b = [rng.randint(-4, 4) for _ in range(k)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        res = _check_against_enumeration(rows, b, c)
        fractional += res.status == "optimal" and res.den > 1
    assert fractional > 0


def test_sliced_cone_lps_match_enumeration(monkeypatch):
    """The LP shape of cones._extremal_ray: a TU cone, with some rows held
    at equality, cut by the summed slice row sigma.x <= 1."""
    dens = _recording_pivot(monkeypatch)
    rng = random.Random(2029)
    for _ in range(200):
        n = rng.randint(1, 3)
        k = rng.randint(1, 6)
        mat = random_tu_matrix(rng, k, n).rows
        n_eq = rng.randint(0, k - 1)
        eq_rows, lt_rows = mat[:n_eq], mat[n_eq:]
        sigma = [-sum(r[j] for r in lt_rows) for j in range(n)]
        rows = []
        for r in eq_rows:
            rows += [r, tuple(-v for v in r)]
        rows += list(lt_rows) + [tuple(sigma)]
        b = [0] * (len(rows) - 1) + [1]
        _check_against_enumeration(rows, b, [-v for v in sigma])
    assert max(dens) > 1


def test_eliminate_gives_rank_and_null_directions():
    rng = random.Random(2030)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        work, pivots, den = lp.eliminate(rows, n)
        assert len(pivots) == _rank(rows, n)
        assert den > 0
        for j, i in pivots.items():
            assert work[i][j] == den
            assert all(work[i][jj] == 0 for jj in pivots if jj != j)
        d = cones._null_direction(rows, n)
        assert (d is None) == (len(pivots) == n)
        if d is not None:
            assert any(d) and all(sum(a * v for a, v in zip(r, d)) == 0 for r in rows)


def test_checks_survive_optimized_mode():
    """Exactness checks raise CctuError, not AssertionError, so `-O` keeps them."""
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from cctu import cones, lp
        from cctu.errors import CctuError
        from cctu.matrices import IntMatrix

        assert False, "asserts must be stripped in this run"

        def raises(fn):
            try:
                fn()
            except CctuError as exc:
                return type(exc).__name__
            return "no error"

        # a vertex 7/5 is not integral; int() would truncate it to 1
        frac = lp.LpResult("optimal", (7,), Fraction(7, 5), den=5)
        print("integral", raises(lambda: lp.as_integer_vector(frac)))

        simplex = lp._simplex
        lp._simplex = lambda tab, basis, den, allowed: (0, den)
        print("phase1", raises(lambda: lp.solve_lp([(1,)], [-1], [0])))
        lp._simplex = simplex

        orthant = IntMatrix(((-1, 0), (0, -1)))
        extremal_ray = cones._extremal_ray
        cones._extremal_ray = lambda eq_rows, lt_rows, n: (2, 2)
        print("step", raises(lambda: cones.decompose_pointed_tu_cone(orthant, (1, 1))))
        cones._extremal_ray = extremal_ray

        cones._vertex_of_optimal_face = lambda rows, rhs, x, q: ([0] * len(x), 1)
        print("ray", raises(lambda: cones._extremal_ray([], [(-1, 0), (0, -1)], 2)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "integral", "CctuError", "phase1", "CctuError", "step", "CctuError", "ray", "CctuError",
    ]
