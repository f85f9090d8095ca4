"""The exact kernels against brute force: `box_search` against a scan of the
whole box, `find_non_unit_subdet` against every square submatrix taken by
Laplace expansion, both in the kernels' own scan order."""

import random
from itertools import combinations
from operator import mul

from cctu.kernels import box_search, find_non_unit_subdet
from cctu.matrices import IntMatrix
from random_systems import random_tu_matrix
from reference import cofactor_det, full_box


def random_box_case(rng):
    n, k = rng.randint(0, 4), rng.randint(0, 5)
    entries = rng.choice(((-1, 0, 1), (-3, -2, -1, 0, 0, 1, 2, 3)))
    rows = [tuple([rng.choice(entries) for _ in range(n)]) for _ in range(k)]
    lo = [rng.randint(-3, 2) for _ in range(n)]
    hi = [lv + rng.randint(-1 if rng.random() < 0.05 else 0, 4) for lv in lo]
    point = [rng.randint(lv, max(lv, hv)) for lv, hv in zip(lo, hi)]
    b = [sum(map(mul, r, point)) + rng.randint(-3, 3) for r in rows]
    if rows and rng.random() < 0.1:
        rows.append((0,) * n)
        b.append(rng.randint(-2, 1))
    m = rng.randint(1, 6)
    gamma = [rng.randint(-3, 5) for _ in range(n)]
    rmask = rng.randint(1, (1 << m) - 1)
    c = None if rng.random() < 0.4 else [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
    return (rows, b, gamma, m, rmask, lo, hi, c)


def test_box_search_matches_the_full_box_on_seeded_cases():
    rng = random.Random(97)
    seen = set()
    for _ in range(3000):
        case = random_box_case(rng)
        rows, b, gamma, m, rmask, lo, hi, c = case
        answer = box_search(*case)
        assert answer == full_box(*case), case
        seen.add("found" if answer[0] else "not found")
        seen.add("objective" if c is not None else "feasibility")
        if any(t not in (-1, 0, 1) for r in rows for t in r):
            seen.add("large entries")
        if any(not any(r) and bv < 0 for r, bv in zip(rows, b)):
            seen.add("zero row with b < 0")
        if any(lv > hv for lv, hv in zip(lo, hi)):
            seen.add("lo > hi")
        if not lo:
            seen.add("n = 0")
    assert seen == {
        "found",
        "not found",
        "objective",
        "feasibility",
        "large entries",
        "zero row with b < 0",
        "lo > hi",
        "n = 0",
    }


def test_box_search_edge_cases():
    # a zero row with b < 0 has no point, whatever the other rows allow
    assert box_search([(0, 0), (1, 0)], [-1, 5], [1, 1], 2, 0b11, [0, 0], [2, 2], None) == (False, None, 0)
    assert box_search([(0, 0), (1, 0)], [0, 5], [1, 1], 2, 0b11, [0, 0], [2, 2], None) == (True, [0, 0], 0)
    # crossed bounds leave an empty box
    assert box_search([], [], [1, 1], 2, 0b11, [0, 3], [2, 2], None) == (False, None, 0)
    # n = 0: the empty vector, residue 0, rows read 0 <= b
    assert box_search([()], [0], [], 3, 0b001, [], [], None) == (True, [], 0)
    assert box_search([()], [0], [], 3, 0b110, [], [], None) == (False, None, 0)
    assert box_search([()], [-1], [], 3, 0b001, [], [], [])[0] is False
    # entries outside {-1, 0, 1}: 2x + 3y <= 7 with x + y = 2 (mod 3), first in order
    assert box_search([(2, 3)], [7], [1, 1], 3, 0b100, [0, 0], [3, 3], None) == (True, [0, 2], 0)


def test_box_search_breaks_minimize_ties_by_the_first_point():
    # (0, 1) and (1, 0) both cost 1 with x + y = 1 (mod 3): the first wins
    assert box_search([], [], [1, 1], 3, 0b010, [0, 0], [2, 2], [1, 1]) == (True, [0, 1], 1)
    # a zero cost ties the whole box: the first feasible point
    assert box_search([(-1, -1)], [-1], [1, 0], 2, 0b10, [0, 0], [2, 2], [0, 0]) == (True, [1, 0], 0)
    # cost -x - y over x + y <= 3: every point on the diagonal ties, the first is (0, 3)
    assert box_search([(1, 1)], [3], [0, 0], 1, 1, [0, 0], [3, 3], [-1, -1]) == (True, [0, 3], -3)


def first_witness(rows):
    """Every square submatrix by order, then row subset, then column subset,
    each subset in lexicographic order; the first determinant outside
    {-1, 0, 1}."""
    mat = IntMatrix(rows, len(rows[0]) if rows else 0)
    for order in range(1, min(mat.nrows, mat.ncols) + 1):
        for sub in combinations(range(mat.nrows), order):
            for cols in combinations(range(mat.ncols), order):
                det = cofactor_det(mat.submatrix(sub, cols))
                if det not in (-1, 0, 1):
                    return (sub, cols, det)
    return None


def test_subdeterminant_scan_finds_the_first_witness():
    rng = random.Random(53)
    kinds = set()
    for trial in range(400):
        k, n = rng.randint(0, 7), rng.randint(0, 7)
        if trial % 4 == 0 and k and n:
            # TU, or TU but for one entry
            rows = [list(r) for r in random_tu_matrix(rng, k, n).rows]
            if rng.random() < 0.7:
                rows[rng.randrange(k)][rng.randrange(n)] = rng.choice((-1, 0, 1))
        elif trial % 4 == 1:
            # a signed cycle, rows and columns shuffled: every proper minor
            # is a signed path, and the whole one has determinant 0 or +-2
            size = rng.randint(3, 7)
            perm_r, perm_c = rng.sample(range(size), size), rng.sample(range(size), size)
            rows = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in (i, (i + 1) % size):
                    rows[perm_r[i]][perm_c[j]] = rng.choice((1, -1))
        else:
            weights = rng.choice(((0, 1, 2, 1, 0), (1, 6, 6, 6, 1), (0, 1, 4, 1, 0)))
            rows = [rng.choices(range(-2, 3), weights, k=n) for _ in range(k)]
        rows = tuple([tuple(r) for r in rows])
        witness = find_non_unit_subdet(rows)
        assert witness == first_witness(rows), rows
        kinds.add(None if witness is None else len(witness[0]))
    assert kinds == {None, 1, 2, 3, 4, 5, 6, 7}
