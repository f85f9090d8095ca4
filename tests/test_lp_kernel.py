"""The unit-pivot simplex against exhaustive enumeration, and the exact
checks that must hold under `python -O`."""

import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cctu import lp
from cctu.errors import UnsupportedInstanceError
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


def _check_against_enumeration(rows, b, c, sense="min"):
    res = lp.solve_lp(rows, b, c, sense)
    sign = 1 if sense == "min" else -1
    status, value = _enumerate_lp(rows, b, [sign * v for v in c])
    assert res.status == status, (rows, b, c, sense, res)
    if status == "optimal":
        x = res.x
        assert all(type(v) is int for v in x) and type(res.value) is int
        assert res.value == sign * value
        assert sum(cv * xv for cv, xv in zip(c, x)) == res.value
        assert all(sum(a * v for a, v in zip(row, x)) <= bv for row, bv in zip(rows, b))
    elif status == "unbounded":
        ray = res.ray
        assert any(ray) and gcd(*ray) == 1, ray
        assert all(sum(a * v for a, v in zip(row, ray)) <= 0 for row in rows)
        assert sign * sum(cv * v for cv, v in zip(c, ray)) < 0
    return res


def _recording_pivot(monkeypatch):
    entries = []
    pivot = lp.pivot

    def recorded(rows, r, s):
        entries.append(rows[r][s])
        pivot(rows, r, s)

    monkeypatch.setattr(lp, "pivot", recorded)
    return entries


def test_tu_lps_match_enumeration_with_unit_denominator(monkeypatch):
    entries = _recording_pivot(monkeypatch)
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
    assert seen == {"optimal", "unbounded", "infeasible"}
    assert entries and set(entries) == {1, -1}


def test_non_unit_pivots_raise_unsupported():
    """Rows that are not TU and reach a pivot other than +-1 raise
    UnsupportedInstanceError, from `solve_lp` and from `eliminate`, and every
    answer that does come back is exact."""
    message = "pivot -2: the constraint matrix is not totally unimodular"
    # x0 + x1 <= 1, x0 - x1 <= 0, x0 >= 0: the maximum of x0 is at (1/2, 1/2)
    with pytest.raises(UnsupportedInstanceError, match="pivot 2: the constraint"):
        lp.solve_lp([(1, 1), (1, -1), (-1, 0)], [1, 0, 0], [1, 0], "max")
    with pytest.raises(UnsupportedInstanceError, match=message):
        lp.eliminate([(1, 1), (1, -1)], 2)
    rng = random.Random(2028)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randint(1, 3)
        k = rng.randint(0, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        b = [rng.randint(-4, 4) for _ in range(k)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        try:
            res = _check_against_enumeration(rows, b, c)
            outcomes[res.status] += 1
        except UnsupportedInstanceError:
            outcomes["solve_lp raised"] += 1
        try:
            work, pivots = lp.eliminate(rows, n)
            assert len(pivots) == _rank(rows, n)
            outcomes["eliminated"] += 1
        except UnsupportedInstanceError:
            outcomes["eliminate raised"] += 1
    assert min(outcomes.values()) > 10 and len(outcomes) == 6, outcomes


def test_eliminate_gives_rank_and_null_directions():
    """On TU rows every pivot is +-1, the reduced rows stay in {-1, 0, 1},
    and each free column gives a null direction."""
    rng = random.Random(2030)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = random_tu_matrix(rng, rng.randint(0, 5), n).rows
        work, pivots = lp.eliminate(rows, n)
        assert len(pivots) == _rank(rows, n)
        assert all(v in (-1, 0, 1) for row in work for v in row)
        for j, i in pivots.items():
            assert work[i][j] == 1
            assert all(work[i][jj] == 0 for jj in pivots if jj != j)
        for f in range(n):
            if f in pivots:
                continue
            d = [0] * n
            d[f] = 1
            for j, i in pivots.items():
                d[j] = -work[i][f]
            assert all(sum(a * v for a, v in zip(r, d)) == 0 for r in rows)


def reference_pivot(rows, r, s):
    """The dense unit pivot, kept as the reference for `lp.pivot`: a -1
    pivot row is negated, and every other row with f != 0 is rebuilt in
    full."""
    if rows[r][s] == -1:
        rows[r] = [-q for q in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        f = row[s]
        if f and i != r:
            rows[i] = [a - f * q for a, q in zip(row, prow)]


def test_pivot_matches_the_dense_reference():
    """Gauss-Jordan runs on seeded TU tableaus: before each pivot, a copy
    takes the reference pivot, and both must leave the same rows."""
    rng = random.Random(2031)
    cases = Counter()
    for _ in range(300):
        k = rng.randint(1, 6)
        n = rng.randint(1, 8)
        rows = [list(r) for r in random_tu_matrix(rng, k, n).rows]
        for r in rng.sample(range(k), k):
            support = [j for j in range(n) if rows[r][j]]
            if not support:
                continue
            s = rng.choice(support)
            cases[rows[r][s]] += 1
            expected = [list(row) for row in rows]
            reference_pivot(expected, r, s)
            lp.pivot(rows, r, s)
            assert rows == expected
    assert set(cases) == {1, -1} and min(cases.values()) > 50


def test_eliminate_and_solve_lp_match_the_dense_reference(monkeypatch):
    """Seeded TU systems give the same elimination and the same LpResult
    fields, for min and max, with the reference pivot."""
    rng = random.Random(2032)
    systems = []
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, 6)
        rows = random_tu_matrix(rng, k, n).rows
        b = [rng.randint(-4, 4) for _ in range(k)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        systems.append((rows, b, c, n))

    def outputs():
        out = []
        for rows, b, c, n in systems:
            out.append(lp.eliminate(rows, n))
            for sense in ("min", "max"):
                res = lp.solve_lp(rows, b, c, sense)
                out.append((res, type(res.value)))
        return out

    sparse = outputs()
    monkeypatch.setattr(lp, "pivot", reference_pivot)
    assert sparse == outputs()


def _unit(n, j, a=1):
    return tuple([a if jj == j else 0 for jj in range(n)])


def _both_senses(rows, b, c):
    """The min and max results, each checked against enumeration."""
    return [_check_against_enumeration(rows, b, c, sense) for sense in ("min", "max")]


def test_repeated_bounds_keep_the_tightest():
    # x0 <= 5, x0 <= 2, x0 >= -3, x0 >= 1, and -4 <= x1 <= 4 twice over
    rows = [(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 1), (0, -1), (0, 1), (0, -1), (1, 1)]
    b = [5, 2, 3, -1, 4, 4, 4, 4, 3]
    lo, hi = _both_senses(rows, b, [1, 0])
    assert (lo.value, hi.value) == (1, 2)
    lo, hi = _both_senses(rows, b, [0, 1])
    assert (lo.value, hi.value) == (-4, 2)
    rng = random.Random(2033)
    for _ in range(200):
        n = rng.randint(1, 3)
        rows = [_unit(n, rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(2, 7))]
        rows += random_tu_matrix(rng, rng.randint(0, 2), n).rows
        b = [rng.randint(-3, 4) for _ in rows]
        _both_senses(rows, b, [rng.randint(-3, 3) for _ in range(n)])


def test_fixed_variable():
    # x0 == 3 by two bounds, x0 + x1 <= 5, x1 >= -4
    rows = [(1, 0), (-1, 0), (1, 1), (0, -1)]
    b = [3, -3, 5, 4]
    lo, hi = _both_senses(rows, b, [1, 1])
    assert (lo.x, lo.value, hi.x, hi.value) == ((3, -4), -1, (3, 2), 5)
    for x0 in (-2, 0, 2):  # fixed below, at and above 0
        res = _both_senses([(1,), (-1,)], [x0, -x0], [1])
        assert [r.x for r in res] == [(x0,), (x0,)]


def test_crossed_bounds_are_infeasible():
    for rows, b in (
        ([(1, 0), (-1, 0)], [1, -2]),  # x0 <= 1, x0 >= 2
        ([(0, 1), (1, -1), (0, -1)], [-3, 0, 2]),  # x1 <= -3, x1 >= -2
    ):
        assert [r.status for r in _both_senses(rows, b, [1, -1])] == ["infeasible"] * 2


def test_zero_rows_are_decided_at_once():
    rows = [(0, 0), (1, 1), (-1, 0), (0, -1)]
    for b0 in (-1, -5):
        assert [r.status for r in _both_senses(rows, [b0, 2, 0, 0], [1, 2])] == ["infeasible"] * 2
    for b0 in (0, 3):
        with_zero = _both_senses(rows, [b0, 2, 0, 0], [1, 2])
        without = _both_senses(rows[1:], [2, 0, 0], [1, 2])
        assert [(r.status, r.value) for r in with_zero] == [(r.status, r.value) for r in without]
        assert [r.value for r in with_zero] == [0, 4]


def test_single_entries_beyond_one_stay_general_rows():
    # 2 x0 <= 3 and x0 <= 2: folded into the bound x0 <= 3 the maximum would
    # read 2; as a general row it binds at 3/2 and needs the pivot 2
    with pytest.raises(UnsupportedInstanceError, match="pivot 2:"):
        lp.solve_lp([(2,), (1,), (-1,)], [3, 2, 0], [1], "max")
    rng = random.Random(2034)
    outcomes = Counter()
    for _ in range(200):
        n = rng.randint(1, 3)
        rows = [_unit(n, rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(rng.randint(1, 4))]
        rows += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        b = [rng.randint(-4, 5) for _ in rows]
        try:
            for res in _both_senses(rows, b, [rng.randint(-3, 3) for _ in range(n)]):
                outcomes[res.status] += 1
        except UnsupportedInstanceError:
            outcomes["raised"] += 1
    assert min(outcomes.values()) > 10 and len(outcomes) == 4, outcomes


def test_free_variables_are_unbounded_both_ways():
    """Free variables are not split; each direction still gets an improving
    ray with T.r <= 0 (checked in _check_against_enumeration)."""
    cases = [
        ([], [], [1, -2]),  # no rows at all
        ([(1, -1), (-1, 1)], [0, 0], [1, 1]),  # the line x0 == x1
        ([(1, 1, 0), (0, 1, -1)], [2, 1], [1, 0, 3]),
        ([(0, 1), (0, -1)], [3, 3], [2, 1]),  # x0 free, x1 boxed
    ]
    for rows, b, c in cases:
        assert [r.status for r in _both_senses(rows, b, c)] == ["unbounded"] * 2


def test_checks_survive_optimized_mode():
    """Exactness checks raise CctuError, not AssertionError, so `-O` keeps
    them; each probe prints its message, so it pins the check that fired."""
    script = textwrap.dedent(
        """
        from cctu import cones, lp
        from cctu.errors import CctuError
        from cctu.matrices import IntMatrix

        assert False, "asserts must be stripped in this run"

        def probe(name, fn):
            try:
                fn()
            except CctuError as exc:
                print(f"{name}: {type(exc).__name__}: {exc}")
                return
            print(f"{name}: no error")

        # the pivot 2 would scale the other rows by 1/2
        probe("pivot", lambda: lp.pivot([[2, 1], [1, 1]], 0, 0))

        simplex = lp._simplex
        lp._simplex = lambda tab, basis, allowed, bounds: 0
        # a general row: a single +-1 entry would fold into a bound
        probe("phase1", lambda: lp.solve_lp([(1, 1)], [-1], [0, 0]))
        lp._simplex = simplex

        # the ray (1, 2) leaves (1, 1) in the orthant only for steps up to 1/2
        orthant = IntMatrix(((-1, 0), (0, -1)))
        cones._extremal_ray = lambda rows, x: (1, 2)
        probe("step", lambda: cones.decompose_pointed_tu_cone(orthant, (1, 1)))

        cones._extremal_ray = lambda rows, x: (0, 0)
        probe("ray", lambda: cones.decompose_pointed_tu_cone(orthant, (1, 1)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "pivot: UnsupportedInstanceError: pivot 2: the constraint matrix is not totally unimodular",
        "phase1: CctuError: phase-1 simplex reported an unbounded sum of artificials",
        "step: CctuError: non-integral or nonpositive step length 1/2",
        "ray: CctuError: extremal ray must be nonzero",
    ]
