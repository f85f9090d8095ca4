"""Exact integer kernels for the hot inner loops.

Subdeterminant scans, the Ghouila-Houri signing check and the integer box
search.  Matrices come as sequences of rows.  Arithmetic is exact: Python
integers never overflow.

The two scans skip work an earlier step settled.  The subdeterminant scan
expands each minor along its last row over the nonzero minors of the order
below, which it kept, instead of eliminating every minor afresh.  The box
search keeps each row's slack and lets a coordinate run only over the
window its column's nonzero rows allow, instead of checking every row at
every value.  Both find the same first answer as a plain scan in the same
order.
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
    a = [list(r) for r in rows]
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
    (order, row subset, column subset) scan order, each subset in
    lexicographic order, or None if every subdeterminant is in {-1, 0, 1}.
    1x1 submatrices are included, so non-{-1,0,1} entries are caught here
    too.

    Each minor of order t is expanded along its last row over the nonzero
    minors of order t - 1, which the scan of that order stored (all of them
    are +-1, or the scan would have stopped).  A minor is keyed by one int:
    its row bits sit above its column bits.  The store holds the nonzero
    minors of the previous order and those of the order being scanned, at
    most; an order without a nonzero minor ends the scan, since every larger
    minor expands over it.  Memory is traded for time: on a TU 20x8
    interval matrix (its own core) the whole scan took 2.5 s of CPU and a
    39 MB peak RSS, where eliminating each minor took 27.7 s and 17 MB.
    """
    k = len(rows)
    n = len(rows[0]) if rows else 0
    prev = {}
    for i, r in enumerate(rows):
        for j, v in enumerate(r):
            if v not in (-1, 0, 1):
                return ((i,), (j,), v)
            if v:
                prev[1 << (n + i) | 1 << j] = v
    for order in range(2, min(k, n) + 1):
        if not prev:
            return None
        # per column subset: its bits and, per column, the bits of the
        # minor without it and the cofactor sign along the last row
        sign0 = 1 if order % 2 else -1
        expansions = []
        for cols in combinations(range(n), order):
            bits = 0
            for j in cols:
                bits |= 1 << j
            terms = []
            s = sign0
            for j in cols:
                terms.append((j, bits ^ 1 << j, s))
                s = -s
            expansions.append((cols, bits, terms))
        cur = {}
        for sub in combinations(range(k), order):
            head = 0
            for i in sub[:-1]:
                head |= 1 << (n + i)
            last = rows[sub[-1]]
            top = head | 1 << (n + sub[-1])
            for cols, bits, terms in expansions:
                d = 0
                for j, rest, s in terms:
                    a = last[j]
                    if a:
                        minor = prev.get(head | rest)
                        if minor:
                            d += s * a * minor
                if d:
                    if d != 1 and d != -1:
                        return (sub, cols, d)
                    cur[top | bits] = d
        prev = cur
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

    Depth-first over coordinates in ascending order, with bound
    propagation.  Each row keeps its slack: b_i minus the terms of the
    coordinates fixed so far minus the best case of the free ones.  The
    coordinate x_j then runs only over the window that the rows nonzero in
    column j allow (x_j <= lo_j + floor(s_i / t) for t > 0, x_j >= hi_j -
    floor(s_i / -t) for t < 0), so every prefix visited is feasible; a
    negative slack at the root means no point at all.  Without a cost
    vector `c`, returns the first feasible point in lexicographic order;
    with one, the first in that order of those minimizing c.x.

    Returns (found, point, value).
    """
    n = len(lo)
    if any(lo[j] > hi[j] for j in range(n)):
        return (False, None, 0)
    slack = []
    for r, bv in zip(rows, b):
        s = bv
        for t, lv, hv in zip(r, lo, hi):
            if t:
                s -= t * lv if t > 0 else t * hv
        if s < 0:
            return (False, None, 0)
        slack.append(s)
    if n == 0:
        # the sole candidate is the empty vector, with residue 0
        return (True, [], 0) if rmask & 1 else (False, None, 0)
    # per column: (row, entry, the coordinate's best-case value for that row)
    cols = [
        [(i, r[j], lo[j] if r[j] > 0 else hi[j]) for i, r in enumerate(rows) if r[j]]
        for j in range(n)
    ]
    minimize = c is not None
    cost_row = c if minimize else [0] * n
    csuf_min = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        cj = cost_row[j]
        csuf_min[j] = csuf_min[j + 1] + (cj * lo[j] if cj >= 0 else cj * hi[j])

    best_x = None
    best_val = None
    x = [0] * n
    last = n - 1

    def rec(j, cost, res):
        # scans x_j over its window; True once a feasible point is found
        nonlocal best_x, best_val
        lo_j = bot = lo[j]
        hi_j = top = hi[j]
        col = cols[j]
        for i, t, _ in col:
            if t > 0:
                cap = lo_j + slack[i] // t
                if cap < top:
                    top = cap
            else:
                cap = hi_j - slack[i] // -t
                if cap > bot:
                    bot = cap
        cj = cost_row[j]
        g = gamma[j]
        found = False
        if j == last:
            # only the residue is left to check; with c_j >= 0 no later
            # value is cheaper than the first hit
            for v in range(bot, top + 1):
                if (rmask >> ((res + g * v) % m)) & 1:
                    found = True
                    new_cost = cost + cj * v
                    if best_val is None or new_cost < best_val:
                        best_val = new_cost
                        x[j] = v
                        best_x = list(x)
                    if not minimize or cj >= 0:
                        break
            return found
        if bot > top:
            return False
        saved = [slack[i] for i, _, _ in col]
        for i, t, base in col:
            slack[i] -= t * (bot - base)
        bound = csuf_min[j + 1]
        for v in range(bot, top + 1):
            new_cost = cost + cj * v
            if minimize and best_val is not None and new_cost + bound >= best_val:
                if cj >= 0:
                    break  # the cost only grows with v
            else:
                x[j] = v
                if rec(j + 1, new_cost, (res + g * v) % m):
                    found = True
                    if not minimize:
                        break
            for i, t, _ in col:
                slack[i] -= t
        for (i, _, _), s in zip(col, saved):
            slack[i] = s
        return found

    rec(0, 0, 0)
    del rec  # rec refers to itself through its closure; free it without the GC
    if best_x is None:
        return (False, None, 0)
    return (True, best_x, best_val)
