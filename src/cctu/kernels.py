"""Exact integer kernels for the hot inner loops.

Subdeterminant scans, the Ghouila-Houri signing check and the integer box
search.  Matrices come as sequences of rows.  Arithmetic is exact: Python
integers never overflow.
"""

from itertools import combinations

BACKEND = "python"


def det_bareiss(rows):
    """Exact determinant of a square integer matrix via fraction-free
    elimination.  Intermediate values are leading principal minors, hence
    integers.

    No solver path calls this; it stays because the benchmark tracer binds
    it as one of its targets.
    """
    return _det_rows([list(r) for r in rows])


def _det_rows(a):
    # Bareiss elimination in place on a square list of row lists.  The scan in
    # find_non_unit_subdet calls this directly rather than det_bareiss, so
    # wrapping det_bareiss (as a tracer does) never sees its inner calls.
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for j in range(n - 1):
        if a[j][j] == 0:
            for i in range(j + 1, n):
                if a[i][j] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[j][j]
        for i in range(j + 1, n):
            row_i = a[i]
            row_j = a[j]
            aij = row_i[j]
            for kk in range(j + 1, n):
                row_i[kk] = (pivot * row_i[kk] - aij * row_j[kk]) // prev
            row_i[j] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def find_non_unit_subdet(rows):
    """Search all square submatrices for a determinant outside {-1, 0, 1}.

    Returns (row_indices, col_indices, det) for the first violation in
    (order, lexicographic) scan order, or None if every subdeterminant is in
    {-1, 0, 1}.  1x1 submatrices are included, so non-{-1,0,1} entries are
    caught here too.
    """
    for i, r in enumerate(rows):
        for j, v in enumerate(r):
            if v not in (-1, 0, 1):
                return ((i,), (j,), v)
    k = len(rows)
    n = len(rows[0]) if rows else 0
    for order in range(2, min(k, n) + 1):
        for sub in combinations(range(k), order):
            picked = [rows[i] for i in sub]
            for cols in combinations(range(n), order):
                d = _det_rows([[r[j] for j in cols] for r in picked])
                if d not in (-1, 0, 1):
                    return (sub, cols, d)
    return None


def ghouila_houri_ok(rows):
    """Ghouila-Houri criterion on rows: every row subset admits a +-1 signing
    whose signed sum has all entries in {-1, 0, 1}.

    Exact but exponential; intended for matrices past the exhaustive-scan cap.
    Entries must already be in {-1, 0, 1}.
    """
    n = len(rows[0]) if rows else 0
    for size in range(1, len(rows) + 1):
        for subset in combinations(range(len(rows)), size):
            if not _signing_exists([rows[i] for i in subset], n):
                return False
    return True


def _signing_exists(rows, n):
    # Backtracking over signs with a reachability prune per column: the
    # remaining rows must be able to pull every partial sum back into [-1, 1].
    t = len(rows)
    remaining = [[0] * n for _ in range(t + 1)]
    for i in range(t - 1, -1, -1):
        for j in range(n):
            remaining[i][j] = remaining[i + 1][j] + (1 if rows[i][j] != 0 else 0)
    sums = [0] * n

    def rec(i):
        if i == t:
            return all(-1 <= s <= 1 for s in sums)
        for sgn in (1, -1):
            ok = True
            row = rows[i]
            for j in range(n):
                sums[j] += sgn * row[j]
                if abs(sums[j]) > 1 + remaining[i + 1][j]:
                    ok = False
            if ok and rec(i + 1):
                return True
            for j in range(n):
                sums[j] -= sgn * row[j]
        return False

    found = rec(0)
    del rec  # rec refers to itself through its closure; free it without the GC
    return found


def box_search(rows, b, gamma, m, rmask, lo, hi, c):
    """Scan the integer box [lo, hi] for points with T x <= b and
    gamma.x mod m in the residue mask; `rows` are the rows of T.

    Depth-first over coordinates with per-row interval pruning (partial sum
    plus the best the remaining coordinates can do).  Without a cost vector
    `c`, returns the first feasible point in lexicographic order; with one,
    returns a feasible point minimizing c.x.

    Returns (found, point, value).
    """
    k = len(rows)
    n = len(lo)
    if any(lo[j] > hi[j] for j in range(n)):
        return (False, None, 0)
    if n == 0:
        # the sole candidate is the empty vector: rows read 0 <= b, residue 0
        ok = all(bv >= 0 for bv in b) and (rmask >> (0 % m)) & 1
        return (bool(ok), [] if ok else None, 0)
    # suffix extrema of each row over the remaining coordinates
    suf_min = [[0] * (n + 1) for _ in range(k)]
    for i in range(k):
        for j in range(n - 1, -1, -1):
            t = rows[i][j]
            contrib = t * lo[j] if t >= 0 else t * hi[j]
            suf_min[i][j] = suf_min[i][j + 1] + contrib
    minimize = c is not None
    cost_row = c if minimize else [0] * n
    csuf_min = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        cj = cost_row[j]
        csuf_min[j] = csuf_min[j + 1] + (cj * lo[j] if cj >= 0 else cj * hi[j])

    best_x = None
    best_val = None
    x = [0] * n
    partial = [0] * k

    def rec(j, cost):
        nonlocal best_x, best_val
        if j == n:
            if (rmask >> (sum(g * v for g, v in zip(gamma, x)) % m)) & 1:
                if best_val is None or cost < best_val:
                    best_val = cost
                    best_x = list(x)
                return True
            return False
        for v in range(lo[j], hi[j] + 1):
            ok = True
            for i in range(k):
                partial[i] += rows[i][j] * v
                if partial[i] + suf_min[i][j + 1] > b[i]:
                    ok = False
            new_cost = cost + cost_row[j] * v
            if ok and minimize and best_val is not None and new_cost + csuf_min[j + 1] >= best_val:
                ok = False
            if ok:
                x[j] = v
                if rec(j + 1, new_cost) and not minimize:
                    return True
            for i in range(k):
                partial[i] -= rows[i][j] * v
        return False

    rec(0, 0)
    del rec  # rec refers to itself through its closure; free it without the GC
    if best_x is None:
        return (False, None, 0)
    return (True, best_x, best_val)
