"""Exact simplex and elimination over totally unimodular integer data.

Two-phase primal simplex with bounded variables and Bland's rule on an
integer tableau.

A row with a single entry of +-1 is a bound l_j <= x_j <= u_j, not a tableau
row: the tightest bound on each variable wins, crossed bounds and a zero row
with negative right-hand side make the LP infeasible at once, and a zero row
with b >= 0 is dropped.  A single entry of |a| >= 2 stays a general row.  The
tableau holds the general rows with one slack each; free variables are not
split.

Every variable starts at the point of [l_j, u_j] nearest 0, so x = 0 when it
lies within the bounds.  A tableau column holds y_j with x_j = off_j +
sgn_j * y_j, and every nonbasic y_j sits at 0.  A variable at its upper bound
is complemented (sgn_j = -1, off_j = u_j), so it too moves up from 0 and a
bound flip is a column negation plus a rhs update, not a pivot.  A nonbasic
variable strictly inside its bounds (only ever at its start point) may move
either way; it is complemented before it enters downwards.  General rows
that the start point violates get artificials in phase 1.

[T; I; -I] is TU whenever T is (Schrijver 1986, Sec. 19), so every basis is
unimodular, every pivot is +-1 and the tableau B^-1 [A | rhs] stays integral:
points, values and rays come back as plain ints.  `pivot` is therefore a
unit pivot, a plain row subtraction that touches only the rows with a
nonzero entry in the pivot column, and in them only the pivot row's nonzero
columns, in place; tableau rows are mutable lists, owned by the tableau.
Any other pivot means the data is not TU, and `pivot` raises
UnsupportedInstanceError.  Every step is exact integer arithmetic, so a run
that does not raise gives the exact answer.

`eliminate` runs the same pivot as Gauss-Jordan elimination, for the rank
and null-space computations of the cone decomposition.

This deliberately replaces the strongly-polynomial LP framework the theory
assumes: exactness is what keeps the downstream structural guarantees intact at
desk scale.
"""

from dataclasses import dataclass
from math import gcd

from .errors import CctuError, UnsupportedInstanceError


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: tuple = None  # optimal integer point, length n
    value: int = None  # exact optimal value
    ray: tuple = None  # primitive integer improving ray for "unbounded"


def solve_lp(rows, b, c, sense="min"):
    """Optimize c.x over {x : rows*x <= b}, x real and free.

    rows: sequence of integer row tuples (possibly empty), b: ints, c: ints.
    """
    n = len(c)
    if sense == "max":
        res = solve_lp(rows, b, [-v for v in c], "min")
        if res.status == "optimal":
            return LpResult("optimal", res.x, -res.value)
        return res

    # Fold the single-variable rows into bounds: lo <= x <= hi, None for an
    # infinite bound.
    lo = [None] * n
    hi = [None] * n
    general = []
    rhs = []
    for r, bv in zip(rows, b):
        zeros = r.count(0)
        if zeros == n:
            if bv < 0:
                return LpResult("infeasible")
            continue
        if zeros == n - 1:
            if 1 in r:
                j = r.index(1)
                if hi[j] is None or bv < hi[j]:
                    hi[j] = bv
                continue
            if -1 in r:
                j = r.index(-1)
                if lo[j] is None or -bv > lo[j]:
                    lo[j] = -bv
                continue
        general.append(r)
        rhs.append(bv)

    # Start each variable at the point of its bounds nearest 0, complemented
    # when that is its upper bound; lo, hi become the bounds of y.
    off = [0] * n
    sgn = [1] * n
    for j in range(n):
        l = lo[j]
        u = hi[j]
        if u is None:
            if l is not None and l > 0:
                off[j] = l
                lo[j] = 0
        elif l is None:
            if u <= 0:
                off[j], sgn[j], lo[j], hi[j] = u, -1, 0, None
        elif l > u:
            return LpResult("infeasible")
        elif l > 0:
            off[j], lo[j], hi[j] = l, 0, u - l
        elif u < 0 or (u == 0 and l < 0):
            off[j], sgn[j], lo[j], hi[j] = u, -1, 0, u - l

    # Columns: y (n) | slacks (k) | artificials | rhs.
    k = len(general)
    ncols = n + k
    if any(off):
        rhs = [bv - sum([a * o for a, o in zip(r, off)]) for r, bv in zip(general, rhs)]
    nart = sum(1 for bv in rhs if bv < 0)
    width = ncols + nart + 1
    lo += [0] * (k + nart)
    hi += [None] * (k + nart)
    bounds = (lo, hi, off, sgn)
    complemented = -1 in sgn
    tab = []
    basis = []
    art = ncols
    for i, r in enumerate(general):
        row = [a * s for a, s in zip(r, sgn)] if complemented else list(r)
        row += [0] * (width - n)
        row[n + i] = 1
        bv = row[-1] = rhs[i]
        if bv < 0:
            row = [-v for v in row]
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(n + i)
        tab.append(row)

    if nart:
        phase1 = [0] * ncols + [1] * nart + [0]
        tab.append(_reduced_costs(tab, basis, phase1))
        if _simplex(tab, basis, ncols + nart, bounds) != "optimal":
            raise CctuError("phase-1 simplex reported an unbounded sum of artificials")
        if any(tab[i][-1] for i in range(k) if basis[i] >= ncols):
            return LpResult("infeasible")
        tab.pop()
        _pivot_out_artificials(tab, basis, ncols)
        # Artificials never re-enter, and a row that kept one is zero on every
        # structural column, so neither takes part in phase 2.
        if max(basis) >= ncols:
            keep = [i for i in range(k) if basis[i] < ncols]
            tab = [tab[i] for i in keep]
            basis = [basis[i] for i in keep]
        for row in tab:
            del row[ncols:-1]

    cost = [cj * s for cj, s in zip(c, sgn)] + [0] * (k + 1)
    tab.append(_reduced_costs(tab, basis, cost))
    status = _simplex(tab, basis, ncols, bounds)
    if status == "optimal":
        x = list(off)
        for i, j in enumerate(basis):
            if j < n:
                x[j] += sgn[j] * tab[i][-1]
        return LpResult("optimal", tuple(x), sum([cj * xj for cj, xj in zip(c, x)]))
    # Unbounded: y_enter grows by 1, and each basic y by minus its entry.
    enter = status
    ray = [0] * n
    if enter < n:
        ray[enter] = sgn[enter]
    for i, j in enumerate(basis):
        if j < n:
            ray[j] = -sgn[j] * tab[i][enter]
    return LpResult("unbounded", ray=_primitive(ray))


def _neg(v):
    """-v, with None standing for an infinite bound."""
    return None if v is None else -v


def _reduced_costs(tab, basis, cost):
    """The objective row cost - sum_i cost[basis[i]] * tab[i]."""
    red = list(cost)
    for i, j in enumerate(basis):
        cb = cost[j]
        if cb:
            red = [a - cb * q for a, q in zip(red, tab[i])]
    return red


def _simplex(tab, basis, allowed, bounds):
    """Bounded-variable Bland-rule simplex on an integer tableau whose last
    row holds the reduced costs.

    `bounds` is (lo, hi, off, sgn) per column, as in the module docstring;
    the simplex keeps them current as it complements and shifts columns.
    Entering columns are restricted to indices < allowed (phase 2 excludes
    artificials this way).  The entering column is the first whose reduced
    cost d improves: d < 0 where y can rise, d > 0 where y can fall (then
    the column is complemented first).  The step stops at the first bound
    it meets: a basic y leaves at its bound, ties going to the lowest
    column index, or, when its own bound comes no later, the entering y
    flips to it without a pivot.  Returns "optimal", or the entering column
    index on unboundedness.

    Termination.  A nonbasic y strictly inside its bounds is at its start
    point.  When it enters it either becomes basic or flips to a bound, and
    a basic y leaves only at a bound, so it never returns to the interior:
    there are at most n such entries.  A flip and a pivot with a positive
    step strictly lower the objective, and the basis together with the bound
    each nonbasic y sits at fixes the point, so a run that does not end
    cycles through degenerate pivots at one point after its last interior
    entry.  Every column that enters and leaves in that cycle sits at a
    bound of the point.  Measured from that bound it is a nonnegative
    variable of a standard-form LP whose tableaux are the cycle's up to
    column signs, and the cycle would be a cycle of Bland's rule there,
    which Bland (1977) rules out.
    """
    lo, hi, off, sgn = bounds
    k = len(basis)
    red = tab[-1]
    while True:
        enter = -1
        for j in range(allowed):
            d = red[j]
            if (d < 0 and hi[j] != 0) or (d > 0 and lo[j] != 0):
                enter = j
                break
        if enter < 0:
            return "optimal"
        if red[enter] > 0:  # y falls: complement it so that it rises
            for row in tab:
                row[enter] = -row[enter]
            sgn[enter] = -sgn[enter]
            lo[enter], hi[enter] = _neg(hi[enter]), _neg(lo[enter])
        # min ratio over the bounds the step meets, by cross-multiplication
        h = hi[enter]
        leave = -1
        best_n, best_a = h, 1
        for i in range(k):
            a = tab[i][enter]
            if a > 0:
                bnd = lo[basis[i]]
                if bnd is None:
                    continue
                num = tab[i][-1] - bnd
            elif a < 0:
                bnd = hi[basis[i]]
                if bnd is None:
                    continue
                num = bnd - tab[i][-1]
                a = -a
            else:
                continue
            if best_n is None:
                leave, best_n, best_a = i, num, a
                continue
            lhs = num * best_a
            rhs = best_n * a
            if lhs < rhs or (lhs == rhs and leave >= 0 and basis[i] < basis[leave]):
                leave, best_n, best_a = i, num, a
        if best_n is None:
            return enter
        if leave < 0:  # y_enter reaches its own bound h: y = h - y'
            for row in tab:
                a = row[enter]
                if a:
                    row[-1] -= a * h
                    row[enter] = -a
            off[enter] += sgn[enter] * h
            sgn[enter] = -sgn[enter]
            lo[enter], hi[enter] = 0, None if lo[enter] is None else h - lo[enter]
            continue
        j = basis[leave]
        row = tab[leave]
        if row[enter] > 0:  # y_j falls to lo_j: shift so that it sits at 0
            bnd = lo[j]
            if bnd:
                row[-1] -= bnd
                off[j] += sgn[j] * bnd
                hi[j] = None if hi[j] is None else hi[j] - bnd
                lo[j] = 0
        else:  # y_j rises to hi_j: complement it, y_j = hi_j - y'
            bnd = hi[j]
            row = tab[leave] = [-v for v in row]
            row[j] = 1
            row[-1] += bnd
            off[j] += sgn[j] * bnd
            sgn[j] = -sgn[j]
            lo[j], hi[j] = 0, None if lo[j] is None else bnd - lo[j]
        pivot(tab, leave, enter)
        basis[leave] = enter
        red = tab[-1]


def pivot(rows, r, s):
    """Unit pivot on rows[r][s], in place.

    A -1 pivot row is negated first; then each row with f != 0 in column s
    loses f times the pivot row, on the pivot row's nonzero columns only,
    and every other row stays as it is.  Raises UnsupportedInstanceError on
    any other pivot entry: over TU data every pivot is +-1.
    """
    prow = rows[r]
    p = prow[s]
    if p == -1:
        prow = rows[r] = [-q for q in prow]
    elif p != 1:
        raise UnsupportedInstanceError(f"pivot {p}: the constraint matrix is not totally unimodular")
    support = [j for j, q in enumerate(prow) if q]
    for i, row in enumerate(rows):
        f = row[s]
        if f and i != r:
            for j in support:
                row[j] -= f * prow[j]


def _pivot_out_artificials(tab, basis, ncols):
    """Swap remaining zero-level artificials for structural columns where
    possible; rows left with no structural pivot are redundant and harmless.
    """
    for i in range(len(basis)):
        if basis[i] >= ncols:
            for j in range(ncols):
                if tab[i][j]:
                    pivot(tab, i, j)
                    basis[i] = j
                    break


def eliminate(rows, ncols):
    """Gauss-Jordan elimination of integer rows by unit pivots.

    Returns (work, pivots): `work` is the reduced row list (length
    len(rows)), `pivots` maps each pivot column to its row, and every pivot
    row reads 1 at its pivot column and 0 at the other pivot columns.
    len(pivots) is the rank.  Raises UnsupportedInstanceError when the rows
    need a pivot other than +-1, which TU rows never do.
    """
    work = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for j in range(ncols):
        if rank == len(work):
            break
        piv = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot(work, rank, j)
        pivots[j] = rank
        rank += 1
    return work, pivots


def _primitive(vec):
    """Divide an integer vector by the gcd of its entries (gcd 1 afterwards)."""
    g = gcd(*vec)
    return tuple([v // g for v in vec]) if g > 1 else tuple(vec)

