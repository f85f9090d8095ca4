"""Exact simplex and elimination over integer data, without fractions.

Two-phase primal simplex with Bland's rule on a fraction-free integer
tableau.  Free variables are split (x = u - v), inequalities get slacks, rows
with negative right-hand side get artificials in phase 1.  The tableau keeps
integer entries D * B^-1 [A | rhs] and integer reduced costs under one common
denominator D > 0; a pivot on p rewrites every other row as
(p * a - f * q) / D, which is exact by Sylvester's identity (Edmonds 1967,
Bareiss 1968), and then sets D = p.  Over TU systems every pivot is +-1, so D
stays 1 and vertices come back as plain ints; on other integer data the
results are still exact, as numerators over one denominator.

With D = 1 and a pivot of +-1 the update is a plain row subtraction, so
`pivot` then touches only the rows with a nonzero entry in the pivot column,
and in them only the pivot row's nonzero columns, in place.  Tableau rows
are therefore mutable lists, owned by the tableau.

`eliminate` runs the same pivot as fraction-free Gauss-Jordan elimination,
for the rank and null-space computations of the cone decomposition.

This deliberately replaces the strongly-polynomial LP framework the theory
assumes: exactness is what keeps the downstream structural guarantees intact at
desk scale.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CctuError


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: tuple = None  # integer numerators, length n; the optimum is x / den
    value: Fraction = None  # exact optimal value: an int when den == 1
    ray: tuple = None  # primitive integer improving ray for "unbounded"
    den: int = 1  # common denominator of x, in lowest terms


def solve_lp(rows, b, c, sense="min"):
    """Optimize c.x over {x : rows*x <= b}, x real and free.

    rows: sequence of integer row tuples (possibly empty), b: ints, c: ints.
    """
    n = len(c)
    k = len(rows)
    if sense == "max":
        res = solve_lp(rows, b, [-v for v in c], "min")
        if res.status == "optimal":
            return LpResult("optimal", res.x, -res.value, den=res.den)
        return res

    # Standard form: columns = u (n) | v (n) | slacks (k) | artificials | rhs.
    ncols = 2 * n + k
    nart = sum(1 for bv in b if bv < 0)
    width = ncols + nart + 1
    tab = []
    basis = []
    art = ncols
    for i in range(k):
        r = rows[i]
        row = [*r, *[-v for v in r], *[0] * (width - 2 * n)]
        row[2 * n + i] = 1
        row[-1] = b[i]
        if b[i] < 0:
            row = [-v for v in row]
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(2 * n + i)
        tab.append(row)

    den = 1
    if nart:
        phase1 = [0] * ncols + [1] * nart + [0]
        tab.append(_reduced_costs(tab, basis, phase1, den))
        status, den = _simplex(tab, basis, den, allowed=ncols + nart)
        if status != "optimal":
            raise CctuError("phase-1 simplex reported an unbounded sum of artificials")
        if any(tab[i][-1] for i in range(k) if basis[i] >= ncols):
            return LpResult("infeasible")
        tab.pop()
        den = _pivot_out_artificials(tab, basis, ncols, den)
        # Artificials never re-enter, and a row that kept one is zero on every
        # structural column, so neither takes part in phase 2.
        keep = [i for i in range(k) if basis[i] < ncols]
        tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cost = [*c, *[-v for v in c], *[0] * (k + 1)]
    tab.append(_reduced_costs(tab, basis, cost, den))
    status, den = _simplex(tab, basis, den, allowed=ncols)
    z = [0] * ncols
    if status == "optimal":
        for i, j in enumerate(basis):
            z[j] = tab[i][-1]
        x = [z[j] - z[n + j] for j in range(n)]
        g = gcd(den, *x)
        if g > 1:
            x = [v // g for v in x]
            den //= g
        value = sum(cj * xj for cj, xj in zip(c, x))
        value = value if den == 1 else Fraction(value, den)
        return LpResult("optimal", tuple(x), value, den=den)
    # Unbounded: the entering column gives an improving ray, scaled by den.
    enter = status
    z[enter] = den
    for i, j in enumerate(basis):
        z[j] = -tab[i][enter]
    return LpResult("unbounded", ray=_primitive([z[j] - z[n + j] for j in range(n)]))


def _reduced_costs(tab, basis, cost, den):
    """The objective row den * cost - sum_i cost[basis[i]] * tab[i]."""
    red = [den * v for v in cost]
    for i, j in enumerate(basis):
        cb = cost[j]
        if cb:
            red = [a - cb * q for a, q in zip(red, tab[i])]
    return red


def _simplex(tab, basis, den, allowed):
    """Bland-rule simplex on a fraction-free tableau whose last row holds the
    reduced costs.

    Entering columns are restricted to indices < allowed (phase 2 excludes
    artificials this way).  Returns (status, den): status is "optimal" or the
    entering column index on unboundedness.
    """
    k = len(basis)
    red = tab[-1]
    while True:
        enter = -1
        for j in range(allowed):
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", den
        # min ratio rhs/a over a > 0, compared by cross-multiplication
        leave = -1
        for i in range(k):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave, best_r, best_a = i, tab[i][-1], a
                    continue
                lhs = tab[i][-1] * best_a
                rhs = best_r * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_r, best_a = i, tab[i][-1], a
        if leave < 0:
            return enter, den
        den = pivot(tab, leave, enter, den)
        basis[leave] = enter
        red = tab[-1]


def pivot(rows, r, s, den):
    """Fraction-free pivot on rows[r][s]; returns the new common denominator.

    `rows` holds integer rows D * B^-1 A under the common denominator `den`.
    Every other row becomes (p * a - f * q) // den, an exact division by
    Sylvester's identity (so a row with f = 0 is still rescaled by p / den),
    and the pivot row stays as it is.  A negative pivot
    negates every row so that the new denominator |p| stays positive.

    A unit pivot (den = 1, p = +-1) is a plain row subtraction.  A -1 pivot
    row is negated first; then each row with f != 0 loses f times the pivot
    row, in place and on the pivot row's nonzero columns only, and every
    other row stays as it is.  Those are exactly the rows of the general
    update.
    """
    prow = rows[r]
    p = prow[s]
    if den == 1 and (p == 1 or p == -1):
        if p < 0:
            prow = rows[r] = [-q for q in prow]
        support = [j for j, q in enumerate(prow) if q]
        for i, row in enumerate(rows):
            f = row[s]
            if f and i != r:
                for j in support:
                    row[j] -= f * prow[j]
        return 1
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[s]
        if f:
            rows[i] = [(p * a - f * q) // den for a, q in zip(row, prow)]
        elif p != den:
            rows[i] = [p * a // den for a in row]
    if p < 0:
        for i, row in enumerate(rows):
            rows[i] = [-a for a in row]
        p = -p
    return p


def _pivot_out_artificials(tab, basis, ncols, den):
    """Swap remaining zero-level artificials for structural columns where
    possible; rows left with no structural pivot are redundant and harmless.
    Returns the new common denominator.
    """
    for i in range(len(basis)):
        if basis[i] >= ncols:
            for j in range(ncols):
                if tab[i][j]:
                    den = pivot(tab, i, j, den)
                    basis[i] = j
                    break
    return den


def eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns (work, pivots, den): `work` is the reduced row list (length
    len(rows)), `pivots` maps each pivot column to its row, and every pivot
    row reads den at its pivot column and 0 at the other pivot columns.
    len(pivots) is the rank.
    """
    work = [list(r) for r in rows]
    pivots = {}
    den = 1
    rank = 0
    for j in range(ncols):
        if rank == len(work):
            break
        piv = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        den = pivot(work, rank, j, den)
        pivots[j] = rank
        rank += 1
    return work, pivots, den


def _primitive(vec):
    """Divide an integer vector by the gcd of its entries (gcd 1 afterwards)."""
    g = gcd(*vec)
    return tuple([v // g for v in vec]) if g > 1 else tuple(vec)


def as_integer_vector(res):
    """The optimal point of an LpResult as ints; raises CctuError when it is
    not integral (possible only on non-TU data)."""
    if res.den != 1:
        raise CctuError(f"non-integral vertex {res.x} / {res.den}")
    return res.x
