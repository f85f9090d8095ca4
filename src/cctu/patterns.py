"""The recursive sum-decomposition solver.

A constraint matrix written as (A ef^T; gh^T B) splits the problem, for each
fixed pair of scalar products (alpha, beta) = (f.x_B, h.x_A), into an
A-problem and a B-problem coupled only through the target residues.  The
machinery here:

  * narrows (alpha, beta) to a hole-free box-shaped domain of at most
    (m-|R|+1)^2 cells (bounded scalar products + exact LP tightening);
  * computes the pattern: per cell, up to m-|R|+1 attainable B-side residues
    with witness solutions, found by recursive calls with shrinking targets;
  * tries direct combinations (covers the immediate and pigeonhole cases);
  * spawns, per cell with several residues, an A-problem whose target set
    grows (Cauchy-Davenport, prime modulus), and, for the remaining
    singleton cells, integrated instances built from linear sub-patterns
    with one variable eliminated through the equality row.

Sub-pattern selection is an exhaustive search over sub-boxes and coefficient
triples rather than the constructive case analysis; single-cell sub-patterns
always exist, so a small greedy cover handles every singleton cell that is
not already protected by a neighbouring multi-residue cell.
"""

from dataclasses import dataclass
from itertools import product

from .baseblocks import solve_base_block
from .errors import CctuError, ScaleError, SolutionCheckError, UnsupportedInstanceError
from .matrices import IntMatrix, TUMatrix
from .polyhedra import (
    DEFAULT_ENUM_BUDGET,
    Polyhedron,
    RCctufInstance,
    SolveResult,
    integral_feasible_point,
    lp_optimize,
    lp_range,
    oracle_solve,
    search_box,
)
from .seymour import classify, pivot_transform_instance
from .structure import bound_scalar_products, solve_r_minus_1


def residue_sumset(r1, r2, m):
    """{a + b mod m}; at least min(m, |R1|+|R2|-1) elements for prime m."""
    return frozenset((a + b) % m for a in r1 for b in r2)


def is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _checked(inst, x, what):
    """x, after checking that it solves `inst` exactly."""
    if not inst.is_feasible_point(x):
        raise SolutionCheckError(f"{what} point {x} does not solve its instance")
    return x


# ---------------------------------------------------------------------------
# the split view of a sum decomposition


@dataclass(frozen=True)
class Split:
    """A sum decomposition oriented for recursion (B is the smaller side),
    expressed through original row/column indices."""

    inst: RCctufInstance
    a_rows: tuple
    b_rows: tuple
    a_cols: tuple
    b_cols: tuple
    e: tuple  # len(a_rows)
    f: tuple  # len(b_cols)
    g: tuple  # len(b_rows)
    h: tuple  # len(a_cols)

    @property
    def n_a(self):
        return len(self.a_cols)

    def _direction(self, cols, coeffs):
        d = [0] * self.inst.nvars
        for j, v in zip(cols, coeffs):
            d[j] = v
        return tuple(d)

    def alpha_direction(self):
        return self._direction(self.b_cols, self.f)

    def beta_direction(self):
        return self._direction(self.a_cols, self.h)

    def _side_problem(self, rows, cols, coupling, shift, link, value, residues):
        """T_side x <= b_side - shift * coupling, link.x = value,
        gamma_side.x in residues."""
        mat = self.inst.P.T.matrix
        out = [tuple([mat[r, c] for c in cols]) for r in rows]
        rhs = [self.inst.P.b[r] - shift * cv for r, cv in zip(rows, coupling)]
        out.append(tuple(link))
        rhs.append(value)
        out.append(tuple([-v for v in link]))
        rhs.append(-value)
        gamma = tuple([self.inst.gamma[c] for c in cols])
        P = Polyhedron(TUMatrix.trusted(IntMatrix(tuple(out))), tuple(rhs))
        return RCctufInstance(P, gamma, self.inst.m, frozenset(residues))

    def a_problem(self, alpha, beta, residues):
        """A x_A <= b_A - alpha e, h.x_A = beta, gamma_A.x_A in residues."""
        return self._side_problem(self.a_rows, self.a_cols, self.e, alpha, self.h, beta, residues)

    def b_problem(self, alpha, beta, residues):
        """B x_B <= b_B - beta g, f.x_B = alpha, gamma_B.x_B in residues."""
        return self._side_problem(self.b_rows, self.b_cols, self.g, beta, self.f, alpha, residues)

    def combine(self, x_a, x_b):
        x = [0] * self.inst.nvars
        for j, v in zip(self.a_cols, x_a):
            x[j] = v
        for j, v in zip(self.b_cols, x_b):
            x[j] = v
        return tuple(x)

    def _residue(self, cols, x_side):
        return sum(self.inst.gamma[c] * v for c, v in zip(cols, x_side)) % self.inst.m

    def gamma_a(self, x_a):
        return self._residue(self.a_cols, x_a)

    def gamma_b(self, x_b):
        return self._residue(self.b_cols, x_b)


def split_instance(inst, dec):
    """Orient a SumDecomposition so the B side has at most half the columns
    and express it through original indices."""
    k_a = dec.A.nrows
    n_a = dec.A.ncols
    a_rows = dec.row_perm[:k_a]
    b_rows = dec.row_perm[k_a:]
    a_cols = dec.col_perm[:n_a]
    b_cols = dec.col_perm[n_a:]
    e, f, g, h = dec.e, dec.f, dec.g, dec.h
    if len(b_cols) > len(a_cols):
        a_rows, b_rows = b_rows, a_rows
        a_cols, b_cols = b_cols, a_cols
        e, f, g, h = g, h, e, f
    return Split(inst, tuple(a_rows), tuple(b_rows), tuple(a_cols), tuple(b_cols), e, f, g, h)


# ---------------------------------------------------------------------------
# domains and patterns


def narrowed_domain(inst, split):
    """(l0, u0, l1, u1, l2, u2): a hole-free box-shaped domain for
    (alpha, beta) that preserves feasibility.

    First bounds the three simultaneously appendable products into windows of
    width at most m-|R|, then tightens the alpha and beta bounds to the exact
    optimum over the augmented system, which eliminates holes.
    """
    d_alpha = split.alpha_direction()
    d_beta = split.beta_direction()
    d_sum = tuple([a + b for a, b in zip(d_alpha, d_beta)])
    windows, P = bound_scalar_products(inst, [d_alpha, d_beta, d_sum])
    # The alpha+beta window, added last, lies inside d_sum's range over the
    # polyhedron it is added to (from the LP minimum, cut off at the LP
    # maximum), so it is d_sum's exact range over P.  Later windows can
    # narrow alpha and beta, so those two are re-solved.
    out = list(windows[2])
    for d in (d_alpha, d_beta):
        span = lp_range(P, d)
        if span is None or None in span:
            raise CctuError(f"bounded scalar product has the LP range {span}")
        out.extend(span)
    return tuple(out)


def domain_cells(bounds):
    l0, u0, l1, u1, l2, u2 = bounds
    return [
        (a, b)
        for a in range(l1, u1 + 1)
        for b in range(l2, u2 + 1)
        if l0 <= a + b <= u0
    ]


@dataclass
class Pattern:
    """Attainable B-side residues per domain cell, with witnesses.

    cells maps (alpha, beta) to a tuple of (residue, x_B witness); at most
    m-|R|+1 entries each.  complete marks cells whose residue list is the
    whole attainable set (the recursion exhausted it)."""

    bounds: tuple
    cells: dict
    complete: dict
    a_points: dict  # cell -> A-problem relaxation point

    def residues(self, cell):
        return [r for r, _ in self.cells[cell]]

    def witness(self, cell, residue):
        for r, w in self.cells[cell]:
            if r == residue:
                return w
        return None


def compute_pattern(inst, split, solver, cap):
    """Pattern over the narrowed domain via recursive B-problem solves.

    Per cell: one A-relaxation point, then up to `cap` B-solves with target
    sets shrinking by the found residue.  Every domain cell must have
    feasible A- and B-relaxations (the domain is hole-free by construction;
    checked here).
    """
    bounds = narrowed_domain(inst, split)
    cells = {}
    complete = {}
    a_points = {}
    m = inst.m
    for cell in domain_cells(bounds):
        alpha, beta = cell
        a_prob = split.a_problem(alpha, beta, range(m))
        a_pt = integral_feasible_point(a_prob.P)
        if a_pt is None:
            raise CctuError(f"domain cell {cell} lost its A-relaxation")
        a_points[cell] = tuple(a_pt)
        found = []
        targets = frozenset(range(m))
        full = False
        while len(found) < cap:
            if not targets:
                full = True
                break
            x_b = solver(split.b_problem(alpha, beta, targets))
            if x_b is None:
                full = True
                break
            r = split.gamma_b(x_b)
            if r not in targets:
                raise SolutionCheckError(f"B-side point {x_b} has residue {r} off target")
            found.append((r, tuple(x_b)))
            targets = targets - {r}
        if not found:
            raise CctuError(f"domain cell {cell} lost its B-relaxation")
        cells[cell] = tuple(found)
        complete[cell] = full or not targets
    return Pattern(bounds, cells, complete, a_points)


# ---------------------------------------------------------------------------
# linear sub-patterns


@dataclass(frozen=True)
class SubPattern:
    """Residues r0 + r1*alpha + r2*beta (mod m) over a box-shaped sub-domain."""

    bounds: tuple  # (l0, u0, l1, u1, l2, u2)
    r0: int
    r1: int
    r2: int

    def value(self, cell, m):
        a, b = cell
        return (self.r0 + self.r1 * a + self.r2 * b) % m

    def contains(self, cell):
        l0, u0, l1, u1, l2, u2 = self.bounds
        a, b = cell
        return l0 <= a + b <= u0 and l1 <= a <= u1 and l2 <= b <= u2


def _sub_boxes(bounds):
    l0, u0, l1, u1, l2, u2 = bounds
    for a0 in range(l0, u0 + 1):
        for b0 in range(a0, u0 + 1):
            for a1 in range(l1, u1 + 1):
                for b1 in range(a1, u1 + 1):
                    for a2 in range(l2, u2 + 1):
                        for b2 in range(a2, u2 + 1):
                            yield (a0, b0, a1, b1, a2, b2)


def valid_subpatterns(pattern, m):
    """Every (sub-box, coefficient triple) whose linear map lands in the
    pattern's residue set on each covered cell, paired with its covered cell
    set.  Exhaustive: the domain has at most (m-|R|+1)^2 <= 9 cells and m^3
    triples."""
    out = []
    for bounds in _sub_boxes(pattern.bounds):
        covered = [c for c in pattern.cells if SubPattern(bounds, 0, 0, 0).contains(c)]
        if not covered:
            continue
        for r0, r1, r2 in product(range(m), repeat=3):
            sp = SubPattern(bounds, r0, r1, r2)
            if all(sp.value(c, m) in pattern.residues(c) for c in covered):
                out.append((sp, frozenset(covered)))
    return out


def find_linear_subpattern(pattern, m, danger=None):
    """Sub-patterns that jointly cover the given singleton cells.

    With `danger` None, covers all singleton cells.  Returns a (possibly
    empty) list; single-cell sub-patterns always validate, so full coverage
    is guaranteed.  The common outcome is one sub-pattern.
    """
    if not is_prime(m):
        raise UnsupportedInstanceError("sub-pattern search requires a prime modulus")
    if danger is None:
        danger = [c for c in pattern.cells if len(pattern.cells[c]) == 1]
    remaining = set(danger)
    if not remaining:
        return []
    options = valid_subpatterns(pattern, m)
    chosen = []
    while remaining:
        best = None
        for sp, covered in options:
            gain = len(covered & remaining)
            if gain == 0:
                continue
            key = (-gain, sp.bounds, (sp.r0, sp.r1, sp.r2))
            if best is None or key < best[0]:
                best = (key, sp, covered)
        if best is None:
            raise CctuError("sub-patterns left singleton cells uncovered")
        chosen.append(best[1])
        remaining -= best[2]
    return chosen


def integrate_subpattern(inst, split, pattern, sp):
    """The reduced problem capturing solutions covered by a sub-pattern.

    Variables (x_A, y1) after eliminating y2 = h.x_A through the equality
    row; the congruency absorbs the sub-pattern's linear residue map: the
    B side contributes r0 + r1*y1 + r2*(h.x_A), so gamma picks up r1 and
    r2*h and the targets become R - r0.
    Returns (reduced instance, lifter) where the lifter rebuilds a full
    solution from stored B-side witnesses.
    """
    l0, u0, l1, u1, l2, u2 = sp.bounds
    m = inst.m
    n_a = split.n_a
    mat = inst.P.T.matrix
    rows = []
    rhs = []
    for r, ev in zip(split.a_rows, split.e):
        rows.append(tuple([mat[r, c] for c in split.a_cols]) + (ev,))
        rhs.append(inst.P.b[r])
    h = tuple(split.h)
    rows.append(h + (1,))
    rhs.append(u0)
    rows.append(tuple([-v for v in h]) + (-1,))
    rhs.append(-l0)
    rows.append((0,) * n_a + (1,))
    rhs.append(u1)
    rows.append((0,) * n_a + (-1,))
    rhs.append(-l1)
    rows.append(h + (0,))
    rhs.append(u2)
    rows.append(tuple([-v for v in h]) + (0,))
    rhs.append(-l2)
    gamma = tuple([
        inst.gamma[c] + sp.r2 * hv for c, hv in zip(split.a_cols, split.h)
    ]) + (sp.r1,)
    targets = frozenset((r - sp.r0) % m for r in inst.R)
    reduced = RCctufInstance(
        Polyhedron(TUMatrix.trusted(IntMatrix(tuple(rows))), tuple(rhs)), gamma, m, targets
    )

    def lift(sol):
        x_a = sol[:n_a]
        y1 = sol[n_a]
        beta = sum(hv * v for hv, v in zip(split.h, x_a))
        cell = (y1, beta)
        r_b = sp.value(cell, m)
        witness = pattern.witness(cell, r_b)
        if witness is None:
            raise CctuError(f"sub-pattern cell {cell} has no witness of residue {r_b}")
        return _checked(inst, split.combine(x_a, witness), "sub-pattern lift")

    return reduced, lift


# ---------------------------------------------------------------------------
# one decomposition step


def decomp_progress_step(inst, split, solver):
    """Either a solution, or a family of strictly simpler instances whose
    feasibility is equivalent to the original's.

    ("solution", x) covers the direct-combination and pigeonhole cases;
    ("family", members, pattern) lists (instance, lift) pairs, where lift
    maps a solution of the instance to one of `inst`: per multi-residue cell
    one A-problem with a grown target set and, for unprotected singleton
    cells, integrated sub-pattern instances with one variable fewer.
    """
    m = inst.m
    ell = len(inst.R)
    cap = m - ell + 1
    pattern = compute_pattern(inst, split, solver, cap)
    # direct combinations: any stored pair that lands in R
    for cell in sorted(pattern.cells):
        a_pt = pattern.a_points[cell]
        ga = split.gamma_a(a_pt)
        for r_b, witness in pattern.cells[cell]:
            if (ga + r_b) % m in inst.R:
                return ("solution", _checked(inst, split.combine(a_pt, witness), "combined"))
        if len(pattern.cells[cell]) >= cap:
            raise CctuError(f"pigeonhole cell {cell} did not combine")
    members = []
    multi = [c for c in sorted(pattern.cells) if len(pattern.cells[c]) >= 2]
    for cell in multi:
        if not pattern.complete[cell]:
            raise CctuError(f"multi-residue cell {cell} is not complete")
        pi = frozenset(pattern.residues(cell))
        grown = residue_sumset(inst.R, frozenset((-r) % m for r in pi), m)
        if len(grown) < ell + 1:
            raise CctuError("target growth needs a prime modulus")
        alpha, beta = cell
        sub = split.a_problem(alpha, beta, grown)

        def lift_multi(sol, cell=cell, pi=pi):
            ga = split.gamma_a(sol)
            for r_b in sorted(pi):
                if (ga + r_b) % m in inst.R:
                    x = split.combine(sol, pattern.witness(cell, r_b))
                    return _checked(inst, x, "grown-target lift")
            raise SolutionCheckError(f"A-side point {sol} has residue {ga} off the grown targets")

        members.append((sub, lift_multi))
    singleton = [c for c in sorted(pattern.cells) if len(pattern.cells[c]) == 1]
    protected = set()
    dirs = ((1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1))
    for cell in singleton:
        for d in dirs:
            n1 = (cell[0] + d[0], cell[1] + d[1])
            n2 = (cell[0] + 2 * d[0], cell[1] + 2 * d[1])
            if n1 in pattern.cells and n2 in pattern.cells and len(pattern.cells[n1]) >= 2:
                protected.add(cell)
                break
    danger = [c for c in singleton if c not in protected]
    for sp in find_linear_subpattern(pattern, m, danger):
        members.append(integrate_subpattern(inst, split, pattern, sp))
    return ("family", members, pattern)


# ---------------------------------------------------------------------------
# the full solver


MAX_DEPTH = 64  # recursion depth at which the solver hands over to the oracle


def solve_rcctuf(inst, budget=DEFAULT_ENUM_BUDGET):
    """Full solver: dispatch on |R|, decompose through the classifier, and
    handle objectives through the proximity box around an optimal relaxation
    vertex (complete by the proximity bound).

    Over a TU system the optimal relaxation vertex is integral, and its value
    bounds c.x from below on every integer point.  So when its residue is
    already in R it is optimal, and it is returned without a feasibility
    solve or a box scan.

    Scale-cap classifier or terminal failures, and recursion past MAX_DEPTH,
    fall back to the enumeration oracle, flagged in stats["oracle_fallback"].
    """
    stats = {"subproblems": 0, "max_depth": 0, "oracle_fallback": False, "pattern_recursions": 0}
    supported = (
        len(inst.R) >= inst.m - 1 or (len(inst.R) >= inst.m - 2 and is_prime(inst.m))
    )
    if not supported:
        return SolveResult("unsupported", stats=stats)
    out = lp_optimize(inst.P, inst.c, "min") if inst.c is not None else None
    if out is not None and out.status == "infeasible":
        return SolveResult("infeasible", stats=stats)
    if out is not None and out.status == "optimal" and inst.residue(out.x) in inst.R:
        x = _checked(inst, out.x, "optimal vertex")
        return SolveResult("feasible", x, inst.objective(x), stats)

    def feasible_point(inst, depth):
        """A solution of the objective-free `inst`, or None."""
        stats["subproblems"] += 1
        stats["max_depth"] = max(stats["max_depth"], depth)
        m = inst.m
        ell = len(inst.R)
        if ell == m:
            return integral_feasible_point(inst.P)
        if ell == m - 1:
            return solve_r_minus_1(inst)
        if ell < m - 2 or not is_prime(m):
            raise UnsupportedInstanceError(f"unsupported combination m={m}, |R|={ell}")
        x0 = integral_feasible_point(inst.P)
        if x0 is None:
            return None
        cap = m - ell + 1
        calls = 0

        def solver(sub):
            nonlocal calls
            calls += 1
            if calls >= 3 * cap * cap:
                raise CctuError(f"a decomposition step reached {calls} pattern recursions")
            stats["pattern_recursions"] += 1
            return feasible_point(sub, depth + 1)

        try:
            if depth >= MAX_DEPTH:
                raise ScaleError(f"recursion depth {depth} reached MAX_DEPTH")
            cls = classify(inst.P.T.matrix)
            if cls.tag in ("network", "transposed_network", "constant_core"):
                return solve_base_block(inst, cls, budget, vertex=x0)
            if cls.tag == "sum":
                step = decomp_progress_step(inst, split_instance(inst, cls.sum), solver)
        except ScaleError:
            stats["oracle_fallback"] = True
            out = oracle_solve(inst, budget, vertex=x0)
            return out.x if out.status == "feasible" else None
        if cls.tag == "pivot_then_sum":
            transformed, Q = pivot_transform_instance(inst, *cls.pivot_at)
            sol = feasible_point(transformed, depth + 1)
            return None if sol is None else _checked(inst, Q.mul_vec(sol), "pivot map-back")
        if step[0] == "solution":
            return step[1]
        for sub, lift in step[1]:
            sol = feasible_point(sub, depth + 1)
            if sol is not None:
                return lift(sol)
        return None

    x = feasible_point(inst.without_objective(), 0)
    del feasible_point  # it refers to itself through its closure; free it without the GC
    if x is None:
        return SolveResult("infeasible", stats=stats)
    _checked(inst, x, "feasibility")
    if out is None:
        return SolveResult("feasible", x, stats=stats)
    if out.status == "unbounded":
        return SolveResult("unbounded", x, stats=stats)
    found, best, value = search_box(inst, out.x, inst.m - len(inst.R), budget)
    if not found:
        raise CctuError("feasible instance has no solution in the proximity box")
    return SolveResult("feasible", best, value, stats)
