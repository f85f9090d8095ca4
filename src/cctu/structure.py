"""Structural tools: flat directions, bounded scalar products, proximity,
variable elimination through tight constraints, and the |R| = m-1 solver.

The driving fact: if a constraint row is not a flat direction of width at
most m-|R|-1, it can be dropped without changing feasibility, because any
solution of the relaxed problem can be pulled back under the constraint by
the shortening transform.  Iterating either exhibits a flat row or strips
the system bare, and for |R| = m-1 the flat width bound is zero, so tight
constraints are the only obstruction and they project away exactly.
"""

from dataclasses import dataclass
from math import gcd

from .errors import DimensionError, InfeasibleRelaxationError
from .matrices import IntMatrix, TUMatrix
from .polyhedra import (
    Polyhedron,
    RCctufInstance,
    integral_feasible_point,
    lp_optimize,
    oracle_solve,
    width,
)
from .shortening import transform_solution


@dataclass(frozen=True)
class FlatnessOutcome:
    tag: str  # "solution" | "flat" | "infeasible"
    x: tuple = None
    row_index: int = None
    width: int = None
    argmin: tuple = None
    argmax: tuple = None


def solve_unconstrained_congruence(gamma, m, R):
    """Integer x with gamma.x mod m in R and no other constraints, or None.

    gamma.x ranges over the multiples of gcd(gamma) as x runs over Z^n, so
    scan the m multiples mod m.  None means the congruence alone is
    unsatisfiable (every instance with this gamma, m, R is infeasible).
    """
    n = len(gamma)
    g = 0
    coeff = [0] * n
    for i, gv in enumerate(gamma):
        if gv == 0:
            continue
        if g == 0:
            g = abs(gv)
            coeff = [0] * n
            coeff[i] = 1 if gv > 0 else -1
        else:
            old_g, x_old = g, list(coeff)
            a, b = g, gv
            # extended gcd of (a, b)
            r0, r1, s0, s1 = a, b, 1, 0
            t0, t1 = 0, 1
            while r1:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                s0, s1 = s1, s0 - q * s1
                t0, t1 = t1, t0 - q * t1
            g = r0
            coeff = [s0 * v for v in x_old]
            coeff[i] += t0
    if g == 0:
        return (0,) * n if 0 in R else None
    for t in range(m):
        if (g * t) % m in R:
            return tuple([t * v for v in coeff])
    return None


def find_flat_or_solve(inst):
    """Either a feasible solution, or a constraint row that is a flat
    direction of the underlying polyhedron of width at most m-|R|-1.

    Processes rows in order: a row whose width over the current (partially
    stripped) polyhedron is within the bound is returned as flat: the
    original polyhedron is contained in the current one, so the bound
    transfers.  Otherwise the row is dropped.  Dropped rows are re-added in
    reverse order, repairing the solution with the shortening transform.

    The "infeasible" tag covers the degenerate terminal case where even the
    unconstrained congruence is unsatisfiable (gcd obstruction); no flat row
    exists there.
    """
    if integral_feasible_point(inst.P) is None:
        raise InfeasibleRelaxationError("relaxation is infeasible")
    mat = inst.P.T.matrix
    rows = mat.rows
    rhs = inst.P.b
    k = len(rows)
    bound = inst.m - len(inst.R) - 1
    for idx in range(k):
        if not any(rows[idx]):
            continue  # vacuous zero row, not a direction
        current = _sub_polyhedron(mat, rhs, range(idx, k))
        res = width(current, rows[idx])
        if res.finite and res.width <= bound:
            return FlatnessOutcome(
                "flat", row_index=idx, width=res.width, argmin=res.argmin, argmax=res.argmax
            )
    x = solve_unconstrained_congruence(inst.gamma, inst.m, inst.R)
    if x is None:
        return FlatnessOutcome("infeasible")
    slack = inst.m - len(inst.R)
    for idx in range(k - 1, -1, -1):
        if sum(a * v for a, v in zip(rows[idx], x)) <= rhs[idx]:
            continue
        # a point sitting at least m-|R| below the re-added bound; one exists
        # because the row was dropped only when its width was at least m-|R|
        with_row = _sub_polyhedron(mat, rhs, range(idx, k))
        x0 = integral_feasible_point(with_row.with_rows([rows[idx]], [rhs[idx] - slack]))
        assert x0 is not None
        partial = RCctufInstance(
            _sub_polyhedron(mat, rhs, range(idx + 1, k)), inst.gamma, inst.m, inst.R
        )
        x = transform_solution(partial, x, x0)
        assert sum(a * v for a, v in zip(rows[idx], x)) <= rhs[idx]
    assert inst.is_feasible_point(x)
    return FlatnessOutcome("solution", x=x)


def _sub_polyhedron(mat, rhs, idx):
    sub = IntMatrix(tuple([mat.rows[i] for i in idx]), mat.ncols)
    return Polyhedron(TUMatrix.trusted(sub), tuple([rhs[i] for i in idx]))


@dataclass(frozen=True)
class ScalarBounds:
    """Per-direction integer windows (lo_i, hi_i) with hi_i - lo_i <= m-|R|."""

    bounds: tuple


def bound_scalar_products(inst, directions):
    """Windows for the products d.x that preserve feasibility.

    `directions` must be simultaneously TU-appendable to the constraint
    matrix (caller-certified).  Processes them in order, adding each window
    to the system before bounding the next; returns the bounds and the
    augmented polyhedron.  Window placement: anchored at the LP minimum,
    clipped by the LP maximum.
    """
    P = inst.P
    slack = inst.m - len(inst.R)
    out = []
    for d in directions:
        lo = lp_optimize(P, d, "min")
        if lo.tag == "infeasible":
            raise InfeasibleRelaxationError("relaxation is infeasible")
        hi = lp_optimize(P, d, "max")
        lo_v = None if lo.tag == "unbounded" else int(lo.value)
        hi_v = None if hi.tag == "unbounded" else int(hi.value)
        if lo_v is not None and hi_v is not None and hi_v - lo_v <= slack:
            l, u = lo_v, hi_v
        elif lo_v is not None:
            l = lo_v
            u = lo_v + slack if hi_v is None else min(lo_v + slack, hi_v)
        elif hi_v is not None:
            u = hi_v
            l = hi_v - slack
        else:
            l, u = 0, slack
        P = P.with_rows([tuple(d), tuple([-v for v in d])], [u, -l])
        out.append((l, u))
    return ScalarBounds(tuple(out)), P


def proximal_solution(inst, x0, y):
    """A feasible x with d.(x - x0) <= m-|R| for every TU-appendable d, built
    from a known feasible y; implies the l_inf proximity bound, asserted."""
    x = transform_solution(inst, y, x0)
    bound = inst.m - len(inst.R)
    assert all(abs(a - b) <= bound for a, b in zip(x, x0))
    return x


@dataclass(frozen=True)
class BackMap:
    """Reconstruction of an eliminated variable: x_j = alpha*beta - alpha*(a2 . xbar)."""

    var_index: int
    alpha: int
    beta: int
    a2: tuple

    def lift(self, xbar):
        xj = self.alpha * self.beta - self.alpha * sum(a * v for a, v in zip(self.a2, xbar))
        return xbar[: self.var_index] + (xj,) + xbar[self.var_index:]


def eliminate_tight_variable(inst):
    """Project out one variable through a constraint tight on the whole
    polyhedron, or return None when no constraint qualifies.

    Scan order: first the rows whose LP maximum and minimum both equal the
    right-hand side (tight constraints proper), then rows of width zero
    whose common value sits strictly below the right-hand side (the bound
    tightens to that value without changing the polyhedron).  Returns
    (reduced instance, BackMap).
    """
    if inst.nvars < 2:
        raise DimensionError("need at least two variables to eliminate one")
    if integral_feasible_point(inst.P) is None:
        raise InfeasibleRelaxationError("relaxation is infeasible")
    rows = inst.P.T.matrix.rows
    rhs = inst.P.b
    pick = None
    deferred = None
    for i, (row, bv) in enumerate(zip(rows, rhs)):
        if not any(row):
            continue
        hi = lp_optimize(inst.P, row, "max")
        if hi.tag == "unbounded":
            continue
        lo = lp_optimize(inst.P, row, "min")
        if lo.tag == "unbounded" or lo.value != hi.value:
            continue
        if hi.value == bv:
            pick = (i, bv)
            break
        if deferred is None:
            deferred = (i, int(hi.value))
    if pick is None:
        pick = deferred
    if pick is None:
        return None
    i, beta = pick
    row = rows[i]
    j = max(t for t in range(len(row)) if row[t] != 0)
    alpha = row[j]
    assert alpha in (-1, 1)
    a2 = row[:j] + row[j + 1:]
    new_rows = []
    new_rhs = []
    for t, (r, bv) in enumerate(zip(rows, rhs)):
        if t == i:
            continue
        rbar = r[:j] + r[j + 1:]
        new_rows.append(tuple([v - alpha * r[j] * a for v, a in zip(rbar, a2)]))
        new_rhs.append(bv - alpha * beta * r[j])
    gbar = inst.gamma[:j] + inst.gamma[j + 1:]
    gj = inst.gamma[j]
    new_gamma = tuple([v - alpha * gj * a for v, a in zip(gbar, a2)])
    new_R = frozenset((r - alpha * gj * beta) % inst.m for r in inst.R)
    new_c = None
    if inst.c is not None:
        cbar = inst.c[:j] + inst.c[j + 1:]
        new_c = tuple([v - alpha * inst.c[j] * a for v, a in zip(cbar, a2)])
    reduced = RCctufInstance(
        Polyhedron(TUMatrix.trusted(IntMatrix(tuple(new_rows), len(a2))), tuple(new_rhs)),
        new_gamma,
        inst.m,
        new_R,
        new_c,
    )
    return reduced, BackMap(j, alpha, beta, a2)


def _solve_univariate(inst):
    """Direct solve for one-variable instances (used at the recursion floor)."""
    lo = lp_optimize(inst.P, (1,), "min")
    if lo.tag == "infeasible":
        return None
    hi = lp_optimize(inst.P, (1,), "max")
    lo_v = None if lo.tag == "unbounded" else int(lo.value)
    hi_v = None if hi.tag == "unbounded" else int(hi.value)
    if lo_v is not None:
        start = lo_v
    elif hi_v is not None:
        start = hi_v - inst.m + 1
    else:
        start = 0
    for x in range(start, start + inst.m):
        if hi_v is not None and x > hi_v:
            break
        if inst.is_feasible_point((x,)):
            return (x,)
    return None


def solve_r_minus_1(inst):
    """Feasibility solver for |R| = m-1: eliminate tight constraints until the
    flatness machinery applies (its width bound is zero there, so after
    elimination no flat row can remain).  Returns a solution or None.
    """
    assert len(inst.R) == inst.m - 1, "solver requires exactly m-1 target residues"
    level = inst.without_objective()
    lifts = []
    while True:
        if integral_feasible_point(level.P) is None:
            return None
        if level.nvars == 1:
            x = _solve_univariate(level)
            break
        step = eliminate_tight_variable(level)
        if step is None:
            out = find_flat_or_solve(level)
            if out.tag == "solution":
                x = out.x
            elif out.tag == "infeasible":
                x = None
            else:  # pragma: no cover - a width-0 row would have been eliminated
                raise AssertionError("flat row of width 0 survived elimination")
            break
        level, bm = step
        lifts.append(bm)
    if x is None:
        return None
    for bm in reversed(lifts):
        x = bm.lift(x)
    assert inst.is_feasible_point(x)
    return x


def detect_unboundedness(inst):
    """A problem with an objective is unbounded iff it is feasible and its
    relaxation is unbounded; feasibility is decided by the proximity-box
    oracle.
    """
    assert inst.c is not None, "unboundedness needs an objective"
    out = lp_optimize(inst.P, inst.c, "min")
    if out.tag != "unbounded":
        return False
    return oracle_solve(inst.without_objective()).status == "feasible"
