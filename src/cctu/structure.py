"""Structural tools: flat directions, bounded scalar products, proximity,
variable elimination through tight constraints, and the |R| = m-1 solver.

The driving fact: if a constraint row is not a flat direction of width at
most m-|R|-1, it can be dropped without changing feasibility, because any
solution of the relaxed problem can be pulled back under the constraint by
the shortening transform.  Iterating either exhibits a flat row or strips
the system bare, and for |R| = m-1 the flat width bound is zero, so tight
constraints are the only obstruction and they project away exactly.

Tight constraints are found from one feasible vertex x0.  The affine hull of
a nonempty P = {x : Ax <= b} is cut out by its implicit equalities, the rows
with a_i.x = b_i on all of P (Schrijver 1986, Theory of Linear and Integer
Programming, section 8.2).  Such a row is tight at x0, so only the rows
tight there need an LP (min a_i.x over P); and when none is an implicit
equality, P is full-dimensional and no nonzero row has width 0 over P or
over any polyhedron containing it.

`solve_r_minus_1` solves for that vertex once per solve.  Elimination maps P
one-to-one onto the next level, so the vertex without the eliminated
coordinate is a point of the next level, and a row that is not an implicit
equality stays not one there.  So the vertex is carried down the levels,
each level's scan starts at the row where the last one stopped, and both
the vertex and the scan's verdict are handed to `eliminate_tight_variable`
and `find_flat_or_solve` through their keyword-only `vertex` and `equality`
arguments.  They check what they are handed and solve neither again.

The same vertex can answer an |R| = m-1 instance outright: over a TU system
it is integral, so when its residue is in R it is a solution.  Likewise an
integral LP optimum whose residue is in R is optimal, since the LP value
bounds every integer point; the driver in `patterns` uses that.
"""

from dataclasses import dataclass
from operator import mul

from .errors import CctuError, DimensionError, InfeasibleRelaxationError, SolutionCheckError
from .matrices import IntMatrix, TUMatrix
from .polyhedra import (
    Polyhedron,
    RCctufInstance,
    integral_feasible_point,
    lp_optimize,
    lp_range,
    vertex_of,
    width,
)
from .shortening import transform_solution

_UNSCANNED = object()  # default `equality`: P has not been scanned for one


@dataclass(frozen=True)
class FlatnessOutcome:
    tag: str  # "solution" | "flat" | "infeasible"
    x: tuple = None
    row_index: int = None
    width: int = None


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


def find_flat_or_solve(inst, *, vertex=None, equality=_UNSCANNED):
    """Either a feasible solution, or a constraint row that is a flat
    direction of the underlying polyhedron of width at most m-|R|-1.

    Processes rows in order: a row whose width over the current (partially
    stripped) polyhedron is within the bound is returned as flat: the
    original polyhedron is contained in the current one, so the bound
    transfers.  Otherwise the row is dropped.  Dropped rows are re-added in
    reverse order, repairing the solution with the shortening transform.

    The width scan runs only when a flat row can exist.  A width is never
    negative, so a bound below zero (|R| = m) admits none.  A row of width 0
    over a polyhedron containing P is constant on P, so with bound 0
    (|R| = m-1) a flat row needs P to lie in a hyperplane, which by the
    affine-hull theorem (Schrijver 1986, section 8.2) means some row is an
    implicit equality of P; without one the scan is skipped.

    The "infeasible" tag covers the degenerate terminal case where even the
    unconstrained congruence is unsatisfiable (gcd obstruction); no flat row
    exists there.

    A caller that holds a point of P passes it as `vertex`, and one that has
    scanned P for implicit equalities passes the verdict as `equality` (see
    `eliminate_tight_variable`); neither is then computed again.
    """
    x0 = vertex_of(inst.P, vertex)
    if x0 is None:
        raise InfeasibleRelaxationError("relaxation is infeasible")
    mat = inst.P.T.matrix
    rows = mat.rows
    rhs = inst.P.b
    k = len(rows)
    bound = inst.m - len(inst.R) - 1
    if bound == 0:
        equality = _implicit_equality(inst.P, x0, equality)
    if bound > 0 or (bound == 0 and equality is not None):
        for idx in range(k):
            if not any(rows[idx]):
                continue  # vacuous zero row, not a direction
            current = _sub_polyhedron(mat, rhs, range(idx, k))
            w = width(current, rows[idx])
            if w is not None and w <= bound:
                return FlatnessOutcome("flat", row_index=idx, width=w)
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
        if x0 is None:
            raise CctuError(f"dropped row {idx} has no point {slack} below its bound")
        partial = RCctufInstance(
            _sub_polyhedron(mat, rhs, range(idx + 1, k)), inst.gamma, inst.m, inst.R
        )
        x = transform_solution(partial, x, x0)
        if sum(a * v for a, v in zip(rows[idx], x)) > rhs[idx]:
            raise SolutionCheckError(f"transformed point violates re-added row {idx}")
    if not inst.is_feasible_point(x):
        raise SolutionCheckError("stripped-system solution is infeasible")
    return FlatnessOutcome("solution", x=x)


def _first_implicit_equality(P, x0, start=0):
    """Index of the first nonzero row with a_i.x = b_i on all of P, or None.

    `x0` is a point of P.  An implicit equality is tight at every point of
    P, so only the rows tight at x0 are candidates, and each costs one LP:
    the row is an implicit equality exactly when its minimum over P is b_i.
    A tight row that repeats one already tested has its verdict, so it gets
    no LP of its own.  The rows before `start` must be known not to be
    implicit equalities.
    """
    rows = P.T.matrix.rows
    tested = set()
    for i in range(start, len(rows)):
        row = rows[i]
        bv = P.b[i]
        if not any(row) or row in tested or sum(map(mul, row, x0)) != bv:
            continue
        tested.add(row)
        if lp_optimize(P, row, "min").value == bv:
            return i
    return None


def _implicit_equality(P, x0, equality):
    """The first implicit equality of P as `_first_implicit_equality` finds
    it from the point x0, or the handed-down verdict `equality` after a
    check that its row is nonzero and tight at x0."""
    if equality is _UNSCANNED:
        return _first_implicit_equality(P, x0)
    if equality is not None:
        rows = P.T.matrix.rows
        if not (
            0 <= equality < len(rows)
            and any(rows[equality])
            and sum(map(mul, rows[equality], x0)) == P.b[equality]
        ):
            raise CctuError(f"handed-down implicit equality {equality} is not tight at {x0}")
    return equality


def _sub_polyhedron(mat, rhs, idx):
    sub = IntMatrix(tuple([mat.rows[i] for i in idx]), mat.ncols)
    return Polyhedron(TUMatrix.trusted(sub), tuple([rhs[i] for i in idx]))


def bound_scalar_products(inst, directions):
    """Windows for the products d.x that preserve feasibility.

    `directions` must be simultaneously TU-appendable to the constraint
    matrix (caller-certified).  Processes them in order, adding each window
    to the system before bounding the next; returns the tuple of integer
    windows (lo_i, hi_i), each with hi_i - lo_i <= m-|R|, and the augmented
    polyhedron.  Window placement: anchored at the LP minimum, clipped by
    the LP maximum.
    """
    P = inst.P
    slack = inst.m - len(inst.R)
    out = []
    for d in directions:
        span = lp_range(P, d)
        if span is None:
            raise InfeasibleRelaxationError("relaxation is infeasible")
        lo_v, hi_v = span
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
    return tuple(out), P


def proximal_solution(inst, x0, y):
    """A feasible x with d.(x - x0) <= m-|R| for every TU-appendable d, built
    from a known feasible y; implies the l_inf proximity bound, checked."""
    x = transform_solution(inst, y, x0)
    bound = inst.m - len(inst.R)
    if any(abs(a - b) > bound for a, b in zip(x, x0)):
        raise SolutionCheckError(f"transformed point is farther than {bound} from x0")
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


def eliminate_tight_variable(inst, *, vertex=None, equality=_UNSCANNED):
    """Project out one variable through a constraint tight on the whole
    polyhedron, or return None when no constraint qualifies.

    Picks the first nonzero row that is an implicit equality of P, that is,
    tight at every point of P, so beta is its right-hand side.  Such a row
    is tight at the feasible vertex x0, so only the rows tight at x0 are
    tested, with one LP each.  No row of width 0 below its right-hand side
    needs a look of its own: the affine hull of a nonempty P is cut out by
    its implicit equalities (Schrijver 1986, Theory of Linear and Integer
    Programming, section 8.2), so when none exists P is full-dimensional and
    no nonzero row is constant on it.

    A caller that holds a point of P passes it as `vertex` (checked to lie
    in P), and one that has already scanned P for implicit equalities passes
    the index of the first one, or None when P has none, as `equality`.
    Left out, both are computed here: one LP for the vertex, one per tight
    row for the scan.

    Returns (reduced instance, BackMap).  Raises ValueError when `inst` has
    an objective: elimination preserves feasibility, and the caller owns the
    objective.
    """
    if inst.c is not None:
        raise ValueError("elimination takes feasibility instances; the caller owns the objective")
    if inst.nvars < 2:
        raise DimensionError("need at least two variables to eliminate one")
    x0 = vertex_of(inst.P, vertex)
    if x0 is None:
        raise InfeasibleRelaxationError("relaxation is infeasible")
    i = _implicit_equality(inst.P, x0, equality)
    if i is None:
        return None
    rows = inst.P.T.matrix.rows
    rhs = inst.P.b
    beta = rhs[i]
    row = rows[i]
    j = max(t for t in range(len(row)) if row[t] != 0)
    alpha = row[j]
    if alpha not in (-1, 1):
        raise CctuError(f"tight row has a non-unit pivot {alpha}")
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
    reduced = RCctufInstance(
        Polyhedron(TUMatrix.trusted(IntMatrix(tuple(new_rows), len(a2))), tuple(new_rhs)),
        new_gamma,
        inst.m,
        new_R,
    )
    return reduced, BackMap(j, alpha, beta, a2)


def _solve_univariate(inst):
    """Direct solve for one-variable instances (used at the recursion floor)."""
    span = lp_range(inst.P, (1,))
    if span is None:
        return None
    lo_v, hi_v = span
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

    The feasibility check yields an integral vertex of P; when its residue is
    in R it is returned as it is, and only otherwise does elimination run.
    Raises ValueError when `inst` has an objective: the caller owns it.
    """
    if inst.c is not None:
        raise ValueError(
            "the |R| = m-1 solver takes feasibility instances; the caller owns the objective"
        )
    if len(inst.R) != inst.m - 1:
        raise CctuError("solver requires exactly m-1 target residues")
    x0 = integral_feasible_point(inst.P)
    if x0 is None:
        return None
    if inst.residue(x0) in inst.R:
        return x0
    if inst.nvars == 0:
        return None  # () is the only point, and its residue 0 is not in R
    # x0 and the scan position carry down the levels (see the module docstring)
    level = inst
    lifts = []
    start = 0
    while True:
        if level.nvars == 1:
            x = _solve_univariate(level)
            break
        i = _first_implicit_equality(level.P, x0, start)
        step = eliminate_tight_variable(level, vertex=x0, equality=i)
        if step is None:
            out = find_flat_or_solve(level, vertex=x0, equality=None)
            if out.tag == "solution":
                x = out.x
            elif out.tag == "infeasible":
                x = None
            else:  # pragma: no cover - a width-0 row would have been eliminated
                raise CctuError("flat row of width 0 survived elimination")
            break
        level, bm = step
        lifts.append(bm)
        x0 = x0[: bm.var_index] + x0[bm.var_index + 1:]
        start = i
    if x is None:
        return None
    for bm in reversed(lifts):
        x = bm.lift(x)
    if not inst.is_feasible_point(x):
        raise SolutionCheckError("lifted |R| = m-1 solution is infeasible")
    return x
