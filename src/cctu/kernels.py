"""Exact integer kernels for the hot inner loops.

Subdeterminant scans, the Ghouila-Houri signing check and the integer box
search.  All functions work on flat row-major integer lists.  Arithmetic is
exact: Python integers never overflow.
"""

from itertools import combinations

BACKEND = "python"


def det_bareiss(flat, n):
    """Exact determinant of an n*n integer matrix via fraction-free elimination.

    `flat` is the matrix in row-major order.  Intermediate values are leading
    principal minors, hence integers.
    """
    return _det_rows([list(flat[i * n:(i + 1) * n]) for i in range(n)])


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


def find_non_unit_subdet(flat, k, n, max_order=None):
    """Search all square submatrices for a determinant outside {-1, 0, 1}.

    Returns (row_indices, col_indices, det) for the first violation in
    (order, lexicographic) scan order, or None if every subdeterminant is in
    {-1, 0, 1}.  1x1 submatrices are included, so non-{-1,0,1} entries are
    caught here too.
    """
    top = min(k, n)
    if max_order is not None:
        top = min(top, max_order)
    for i in range(k):
        for j in range(n):
            if flat[i * n + j] not in (-1, 0, 1):
                return ((i,), (j,), flat[i * n + j])
    full = [flat[i * n:(i + 1) * n] for i in range(k)]
    for order in range(2, top + 1):
        for rows in combinations(range(k), order):
            picked = [full[i] for i in rows]
            for cols in combinations(range(n), order):
                d = _det_rows([[r[j] for j in cols] for r in picked])
                if d not in (-1, 0, 1):
                    return (rows, cols, d)
    return None


def ghouila_houri_ok(flat, k, n):
    """Ghouila-Houri criterion on rows: every row subset admits a +-1 signing
    whose signed sum has all entries in {-1, 0, 1}.

    Exact but exponential; intended for matrices past the exhaustive-scan cap.
    Entries must already be in {-1, 0, 1}.
    """
    rows = [tuple(flat[i * n:(i + 1) * n]) for i in range(k)]
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
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


def box_search(tflat, k, n, b, gamma, m, rmask, lo, hi, c, minimize):
    """Scan the integer box [lo, hi] for points with T x <= b and
    gamma.x mod m in the residue mask.

    Depth-first over coordinates with per-row interval pruning (partial sum
    plus the best the remaining coordinates can do).  When `minimize` is
    false, returns the first feasible point in lexicographic order; when
    true, returns a feasible point minimizing c.x (c may be None, meaning 0).

    Returns (found, point, value).
    """
    if any(lo[j] > hi[j] for j in range(n)):
        return (False, None, 0)
    if n == 0:
        # the sole candidate is the empty vector: rows read 0 <= b, residue 0
        ok = all(bv >= 0 for bv in b) and (rmask >> (0 % m)) & 1
        return (bool(ok), [] if ok else None, 0)
    # suffix extrema of each row over the remaining coordinates
    row = [tflat[i * n:(i + 1) * n] for i in range(k)]
    suf_min = [[0] * (n + 1) for _ in range(k)]
    for i in range(k):
        for j in range(n - 1, -1, -1):
            t = row[i][j]
            contrib = t * lo[j] if t >= 0 else t * hi[j]
            suf_min[i][j] = suf_min[i][j + 1] + contrib
    cvec = c if c is not None else [0] * n
    csuf_min = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        cj = cvec[j]
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
                partial[i] += row[i][j] * v
                if partial[i] + suf_min[i][j + 1] > b[i]:
                    ok = False
            new_cost = cost + cvec[j] * v
            if ok and minimize and best_val is not None and new_cost + csuf_min[j + 1] >= best_val:
                ok = False
            if ok:
                x[j] = v
                if rec(j + 1, new_cost) and not minimize:
                    return True
            for i in range(k):
                partial[i] -= row[i][j] * v
        return False

    rec(0, 0)
    del rec  # rec refers to itself through its closure; free it without the GC
    if best_x is None:
        return (False, None, 0)
    return (True, best_x, best_val)
