"""Polyhedra {x : Tx <= b} over TU matrices, the central problem type, the
LP queries over them, the answer type `SolveResult`, and the proximity-box
oracle used to cross-check every structural solver.

Every LP runs through `lp_optimize`, which hands back the `lp.LpResult`
(status, integral point x, int value).  The structural tools ask one more
question of it, the range of d.x over P, and `lp_range` answers it: the
flat-row widths, the bounded scalar-product windows and the narrowed
pattern domain all read both ends of that range.

The oracle's completeness rests on the proximity bound: a feasible instance
has a solution within l_inf distance m-|R| of any point satisfying the
relaxation, and (for optimization) an optimal solution within that distance
of an optimal relaxation vertex.  So scanning that box decides the instance
exactly at desk scale.
"""

from dataclasses import dataclass, field

from . import kernels, lp
from .errors import CctuError, DimensionError, InfeasibleRelaxationError, ScaleError
from .matrices import IntMatrix, TUMatrix

DEFAULT_ENUM_BUDGET = 4_000_000


@dataclass(frozen=True)
class Polyhedron:
    """Inequality system T x <= b with T certified TU and b a tuple of ints;
    a `b` that is not a tuple raises TypeError."""

    T: TUMatrix
    b: tuple

    def __post_init__(self):
        if type(self.b) is not tuple:
            raise TypeError("rhs b must be a tuple")
        if self.T.nrows != len(self.b):
            raise DimensionError("rhs length differs from row count")

    @property
    def nvars(self):
        return self.T.ncols

    def contains(self, x):
        return all(v <= bv for v, bv in zip(self.T.matrix.mul_vec(x), self.b))

    def with_rows(self, rows, rhs):
        mat = IntMatrix(self.T.matrix.rows + tuple([tuple(r) for r in rows]), self.nvars)
        return Polyhedron(TUMatrix.trusted(mat), self.b + tuple(rhs))


@dataclass(frozen=True)
class RCctufInstance:
    """Find x with Tx <= b and gamma.x in R (mod m); minimize c.x if c given.
    Fields are kept as given: gamma and c tuples of ints, R a frozenset of
    ints; fields of another type raise TypeError."""

    P: Polyhedron
    gamma: tuple
    m: int
    R: frozenset
    c: tuple = None

    def __post_init__(self):
        if type(self.gamma) is not tuple or not (self.c is None or type(self.c) is tuple):
            raise TypeError("gamma and c must be tuples")
        if type(self.R) is not frozenset:
            raise TypeError("target residues R must be a frozenset")
        if self.c is not None and len(self.c) != self.P.nvars:
            raise DimensionError("objective length mismatch")
        if len(self.gamma) != self.P.nvars:
            raise DimensionError("gamma length mismatch")
        if not self.R:
            raise ValueError("empty target residue set")
        if not all(0 <= r < self.m for r in self.R):
            raise ValueError("target residues outside {0..m-1}")

    @property
    def nvars(self):
        return self.P.nvars

    def residue(self, x):
        return sum(g * v for g, v in zip(self.gamma, x)) % self.m

    def is_feasible_point(self, x):
        return self.P.contains(x) and self.residue(x) in self.R

    def objective(self, x):
        return sum(cv * xv for cv, xv in zip(self.c, x))

    def without_objective(self):
        return self if self.c is None else RCctufInstance(self.P, self.gamma, self.m, self.R)

    def replaced(self, **kw):
        data = {"P": self.P, "gamma": self.gamma, "m": self.m, "R": self.R, "c": self.c}
        data.update(kw)
        return RCctufInstance(**data)


def lp_optimize(P, c, sense="min"):
    """Exact optimum of c.x over P as an `lp.LpResult`; over a TU system its
    point comes back integral."""
    if len(c) != P.nvars:
        raise DimensionError("objective length mismatch")
    return lp.solve_lp(P.T.matrix.rows, P.b, list(c), sense)


def integral_feasible_point(P):
    """Some integral point of P, or None."""
    res = lp_optimize(P, (0,) * P.nvars, "min")
    return res.x if res.status == "optimal" else None


def vertex_of(P, vertex=None):
    """`vertex` when a caller hands one down, else `integral_feasible_point(P)`.

    A caller that already holds a point of P passes it instead of solving
    the same LP again.  It is checked to lie in P with an explicit raise, so
    the check also runs under python -O.
    """
    if vertex is None:
        return integral_feasible_point(P)
    if len(vertex) != P.nvars or not P.contains(vertex):
        raise CctuError(f"handed-down point {tuple(vertex)} is not in the polyhedron")
    return tuple(vertex)


def lp_range(P, d):
    """The range of d.x over P: None when P is empty, which one LP tells;
    otherwise (min, max), with None for an unbounded side."""
    lo = lp_optimize(P, d, "min")
    if lo.status == "infeasible":
        return None
    return lo.value, lp_optimize(P, d, "max").value


def width(P, d):
    """Exact integer width of P along d, or None when it is infinite.

    Over a TU system the LP optima are attained at integral points, so the
    integer width equals the LP width whenever both optima are finite.
    """
    span = lp_range(P, d)
    if span is None:
        raise InfeasibleRelaxationError("width of an empty polyhedron")
    lo, hi = span
    return None if lo is None or hi is None else hi - lo


@dataclass
class SolveResult:
    """The answer to an instance: status, a solution x, its objective value
    (with an objective), and the solver's statistics."""

    status: str  # "feasible" | "infeasible" | "unbounded" | "unsupported"
    x: tuple = None
    value: int = None
    stats: dict = field(default_factory=dict)


def oracle_solve(inst, budget=DEFAULT_ENUM_BUDGET, *, vertex=None):
    """Decide `inst` by scanning the proximity box around a relaxation point.

    Feasibility mode enumerates around any relaxation point: `vertex` when
    the caller hands one down (see `vertex_of`), else one found by LP.
    Optimization mode enumerates around an optimal relaxation vertex and
    returns the best box point, which the proximity bound makes globally
    optimal.  An unbounded relaxation with a feasible instance is reported
    "unbounded" when an objective is present.
    """
    if inst.c is not None:
        if vertex is not None:
            raise ValueError("an objective needs the optimal vertex, not a handed-down point")
        out = lp_optimize(inst.P, inst.c, "min")
        if out.status == "infeasible":
            return SolveResult("infeasible")
        if out.status == "unbounded":
            probe = oracle_solve(inst.without_objective(), budget)
            if probe.status == "feasible":
                return SolveResult("unbounded", x=probe.x)
            return SolveResult("infeasible")
        x0 = out.x
    else:
        x0 = vertex_of(inst.P, vertex)
        if x0 is None:
            return SolveResult("infeasible")
    if len(inst.R) == inst.m:
        val = inst.objective(x0) if inst.c is not None else None
        return SolveResult("feasible", x0, val)
    found, x, value = search_box(inst, x0, inst.m - len(inst.R), budget)
    if not found:
        return SolveResult("infeasible")
    return SolveResult("feasible", tuple(x), value if inst.c is not None else None)


def search_box(inst, center, radius, budget=DEFAULT_ENUM_BUDGET):
    """Kernel-backed scan of the l_inf ball around `center`.

    Returns (found, point, value); first feasible point in lexicographic
    order without an objective, best objective value with one.
    """
    n = inst.nvars
    if (2 * radius + 1) ** n > budget:
        raise ScaleError(f"box of {(2 * radius + 1) ** n} points exceeds budget {budget}")
    lo = [v - radius for v in center]
    hi = [v + radius for v in center]
    rmask = sum(1 << r for r in inst.R)
    found, x, value = kernels.box_search(
        inst.P.T.matrix.rows,
        list(inst.P.b),
        list(inst.gamma),
        inst.m,
        rmask,
        lo,
        hi,
        None if inst.c is None else list(inst.c),
    )
    return (found, tuple(x) if x is not None else None, value)
