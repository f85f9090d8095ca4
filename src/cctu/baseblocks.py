"""Base-block solvers: problems whose constraint matrix is a network matrix,
the transpose of one, or reduces to one of the two special 5x5 cores.

Base blocks decide feasibility only: each pipeline returns some solution or
None, and objectives stay with the caller (`patterns.solve_rcctuf` optimizes
over the proximity box around an optimal relaxation vertex).

Pipelines, each run once per solve for the whole target residue set R:

  network:     normalize -> congruency-constrained circulation -> enumerate
  transposed:  normalize -> constrained tree cuts -> level labeling -> enumerate
  const core:  normalize -> guess core scalar products -> network pipeline

`solve_base_block` normalizes once and hands the result to the pipeline; the
const-core pipeline's entry point is `solve_const_core(norm)`.

One terminal search over R is exact because the proximity bound does not
depend on the residue: every residue in R that has a solution has one inside
the same box around the shifted origin (|y_j| and |(Ty)_i| at most m-1,
levels in {0..m-1}, guesses in (-m, m)^l), so a search of that box for any
residue in R finds a solution whenever one exists.

Normalizing only shifts, so the classifier's representation of T serves the
normalized problem and no matrix is recognized twice.  The circulation has
one signed edge per tree arc and one per column arc, whose flow is the
shifted variable y_j itself.  The tree-cut instance subdivides each tree arc
of T's transposed representation, so that y_j is the difference of two level
drops that are each nonnegative.

Both terminal enumerations are phrased as integer box searches: circulations
are parametrized by their values on non-forest edges of the flow graph
(forest values follow from conservation), and level labelings are vectors in
{0..m-1}^V with difference constraints, kept as the plain tuple the search
returns.  That lets the shared kernel do the heavy scanning with
row-interval pruning, with R as its residue mask.
"""

from dataclasses import dataclass
from itertools import product

from . import kernels
from .errors import CctuError, InfeasibleRelaxationError, ScaleError, SolutionCheckError
from .matrices import IntMatrix, TUMatrix, kept_indices
from .polyhedra import DEFAULT_ENUM_BUDGET, Polyhedron, RCctufInstance, vertex_of
from .seymour import recognize_network_matrix, reduce_to_core, tree_adjacency, tree_path

CORE_COL_CAP = 5  # largest core, in columns, whose scalar products are guessed

# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormalizedCctu:
    """Ty <= b, gamma.y mod m in R over free integers y, with the origin
    feasible for the relaxation.  Obtained from a general problem by shifting
    a relaxation vertex x0 to the origin, which shifts each target residue by
    -gamma.x0; `lift` undoes the shift."""

    T: IntMatrix
    b: tuple
    gamma: tuple
    m: int
    R: frozenset
    x0: tuple

    def lift(self, y):
        return tuple([x0v + yv for x0v, yv in zip(self.x0, y)])


def normalize(inst, *, vertex=None):
    """Normalize `inst` for its whole target set: one LP and one shift.

    A caller that holds a point of the relaxation passes it as `vertex`,
    which is then checked and shifted to the origin instead of solving the
    LP.  Raises InfeasibleRelaxationError when the relaxation is empty, and
    ValueError when `inst` has an objective (base blocks decide feasibility
    only).  The constraint matrix is kept as it is, so its base-block
    structure and its representation carry over unchanged.
    """
    if inst.c is not None:
        raise ValueError("base blocks take feasibility instances; the caller owns the objective")
    x0 = vertex_of(inst.P, vertex)
    if x0 is None:
        raise InfeasibleRelaxationError("relaxation is infeasible")
    shift = sum(g * v for g, v in zip(inst.gamma, x0))
    mat = inst.P.T.matrix
    return NormalizedCctu(
        mat,
        tuple([bv - tv for bv, tv in zip(inst.P.b, mat.mul_vec(x0))]),
        inst.gamma,
        inst.m,
        frozenset([(r - shift) % inst.m for r in inst.R]),
        x0,
    )


# ---------------------------------------------------------------------------
# congruency-constrained circulations


@dataclass(frozen=True)
class CccInstance:
    """Find a circulation f with lo <= f <= hi on every edge and
    sum(eta(e) f(e)) mod m in R.  Flows are signed: a negative flow runs
    from an edge's head to its tail."""

    nvertices: int
    edges: tuple  # (tail, head)
    lo: tuple
    hi: tuple
    eta: tuple  # residue weights, reduced mod m
    m: int
    R: frozenset  # target residues, reduced mod m


def cctu_to_ccc(norm, rep):
    """The circulation instance of a normalized network-matrix problem.

    Edges: every tree arc, of weight zero and flow in [-(m-1), min(b, m-1)],
    which carries its row's value (Ty)_i; then every column arc reversed, of
    weight gamma mod m and flow in [-(m-1), m-1], which carries y_j.
    """
    if rep.rebuild().rows != norm.T.rows:
        raise ValueError("representation does not rebuild the constraint matrix")
    top = norm.m - 1
    ncols = len(rep.col_arcs)
    return CccInstance(
        rep.nvertices,
        rep.tree_arcs + tuple([(w, v) for v, w in rep.col_arcs]),
        (-top,) * (len(rep.tree_arcs) + ncols),
        tuple([min(bv, top) for bv in norm.b]) + (top,) * ncols,
        (0,) * len(rep.tree_arcs) + tuple([g % norm.m for g in norm.gamma]),
        norm.m,
        norm.R,
    )


def solve_ccc(ccc, budget=DEFAULT_ENUM_BUDGET):
    """A circulation whose residue lies in the target set, or None.

    Deterministic bounded enumeration behind the terminal-solver interface,
    one kernel box search for all targets; returns the flow per edge.  Free
    (non-forest) edge flows are the box variables; forest flows are linear
    in them, so their bounds become constraint rows, and the residue vector
    folds the forest contributions into per-variable coefficients.
    """
    edges = ccc.edges
    forest = []
    free = []
    comp = list(range(ccc.nvertices))

    def root(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for e in sorted(range(len(edges)), key=edges.__getitem__):
        a, b = root(edges[e][0]), root(edges[e][1])
        if a != b:
            comp[a] = b
            forest.append(e)
        else:
            free.append(e)
    free.sort()
    # fundamental-cycle coefficients of each free edge on each forest edge
    adj = tree_adjacency(ccc.nvertices, [edges[t] for t in forest])
    coeff = {t: [0] * len(free) for t in forest}
    for pos, e in enumerate(free):
        for (f, sgn) in tree_path(adj, edges[e][1], edges[e][0]):
            coeff[forest[f]][pos] = sgn
    size = 1
    for e in free:
        size *= ccc.hi[e] - ccc.lo[e] + 1
        if size > budget:
            raise ScaleError(f"circulation enumeration of {size}+ points exceeds budget")
    rows = []
    rhs = []
    for t in forest:
        rows.append(tuple(coeff[t]))
        rhs.append(ccc.hi[t])
        rows.append(tuple([-v for v in coeff[t]]))
        rhs.append(-ccc.lo[t])
    rho = []
    for pos, e in enumerate(free):
        s = ccc.eta[e]
        for t in forest:
            if coeff[t][pos]:
                s += coeff[t][pos] * ccc.eta[t]
        rho.append(s % ccc.m)
    found, z, _ = kernels.box_search(
        rows,
        rhs,
        rho,
        ccc.m,
        sum(1 << r for r in ccc.R),
        [ccc.lo[e] for e in free],
        [ccc.hi[e] for e in free],
        None,
    )
    if not found:
        return None
    flows = [0] * len(edges)
    for pos, e in enumerate(free):
        flows[e] = z[pos]
    for t in forest:
        flows[t] = sum(cv * zv for cv, zv in zip(coeff[t], z))
    return tuple(flows)


def circulation_residue(ccc, flows):
    return sum(e * f for e, f in zip(ccc.eta, flows)) % ccc.m


def check_circulation(ccc, flows):
    """Conservation and bound check; reduction invariants lean on this."""
    if any(not lo <= f <= hi for f, lo, hi in zip(flows, ccc.lo, ccc.hi)):
        return False
    balance = [0] * ccc.nvertices
    for (a, b), f in zip(ccc.edges, flows):
        balance[a] -= f
        balance[b] += f
    return not any(balance)


# ---------------------------------------------------------------------------
# constrained tree cuts and level labelings


@dataclass(frozen=True)
class CtcInstance:
    """Directed tree cut problem: pick a chain of in-arc-free sets S_1..S_l
    with per-arc coverage differences bounded by b and the alpha-weighted
    residue in the target set R.  A labeling's value on a tree arc is the
    level drop from its tail to its head, which must be nonnegative."""

    nvertices: int
    tree_arcs: tuple  # two per variable: (a, z_j) for all j, then (b, z_j)
    extra_arcs: tuple  # one per constraint row
    b: tuple
    alpha: tuple  # per vertex; sums to zero
    R: frozenset  # target residues, reduced mod m
    m: int


def cctu_to_ctc(norm, rep):
    """Build the tree-cut instance of a normalized transposed-network problem.

    `rep` realizes the transpose: its tree arcs are indexed by the problem's
    variables, its column arcs by the constraint rows.  Each tree arc
    j = (a, b) is subdivided by a fresh vertex z_j into the arcs (a, z_j)
    and (b, z_j), whose level drops, each nonnegative, differ by
    y_j = level(a) - level(b).  The vertex weight alpha(v) is the
    gamma-weighted out-minus-in degree of v in rep's tree, zero on the fresh
    vertices, so it sums to zero.
    """
    if rep.rebuild().transpose().rows != norm.T.rows:
        raise ValueError("representation does not rebuild the transposed matrix")
    nv = rep.nvertices
    alpha = [0] * (nv + len(rep.tree_arcs))
    for g, (a, b) in zip(norm.gamma, rep.tree_arcs):
        alpha[a] += g
        alpha[b] -= g
    if sum(alpha) != 0:
        raise CctuError("tree-cut vertex weights do not sum to zero")
    plus = [(a, nv + j) for j, (a, _) in enumerate(rep.tree_arcs)]
    minus = [(b, nv + j) for j, (_, b) in enumerate(rep.tree_arcs)]
    return CtcInstance(
        len(alpha),
        tuple(plus + minus),
        rep.col_arcs,
        norm.b,
        tuple(alpha),
        norm.R,
        norm.m,
    )


def solve_ctc_chain(ctc, budget=DEFAULT_ENUM_BUDGET):
    """A chain labeling whose residue lies in the target set, or None.

    The labeling is the tuple of vertex levels in {0..m-1}; it encodes the
    chain of cuts S_i = {v : level(v) >= i}, i = 1..m-1.  The chain bound
    comes with the encoding: at most m-1 distinct nonempty cuts.  Solved as
    a box search with difference-constraint rows.
    """
    nv = ctc.nvertices
    m = ctc.m
    if m ** nv > budget:
        raise ScaleError(f"labeling enumeration of {m ** nv} points exceeds budget")
    rows = []
    rhs = []
    for (a, b) in ctc.tree_arcs:
        row = [0] * nv
        row[b] += 1
        row[a] -= 1
        rows.append(tuple(row))
        rhs.append(0)
    for (v, w), bv in zip(ctc.extra_arcs, ctc.b):
        row = [0] * nv
        row[v] += 1
        row[w] -= 1
        rows.append(tuple(row))
        rhs.append(bv)
    found, levels, _ = kernels.box_search(
        rows,
        rhs,
        list(ctc.alpha),
        m,
        sum(1 << r for r in ctc.R),
        [0] * nv,
        [m - 1] * nv,
        None,
    )
    if not found:
        return None
    return tuple(levels)


def labeling_to_solution(ctc, levels):
    """level(tail) - level(head) per tree arc: the chain-cut sum."""
    return tuple([levels[a] - levels[b] for (a, b) in ctc.tree_arcs])


# ---------------------------------------------------------------------------
# pipelines


def _network_solve(norm, rep, budget):
    ccc = cctu_to_ccc(norm, rep)
    flows = solve_ccc(ccc, budget)
    if flows is None:
        return None
    if not check_circulation(ccc, flows):
        raise SolutionCheckError("circulation violates conservation or bounds")
    if circulation_residue(ccc, flows) not in ccc.R:
        raise SolutionCheckError("circulation misses the target residues")
    return norm.lift(flows[len(rep.tree_arcs):])


def solve_network_cctu(inst, rep, budget=DEFAULT_ENUM_BUDGET):
    """Solve `inst` over a network constraint matrix via the circulation
    reduction, for all of inst.R at once; `rep` realizes the constraint
    matrix.  Returns a feasible point or None."""
    return _network_solve(normalize(inst), rep, budget)


def _transposed_solve(norm, rep, budget):
    ctc = cctu_to_ctc(norm, rep)
    levels = solve_ctc_chain(ctc, budget)
    if levels is None:
        return None
    drops = labeling_to_solution(ctc, levels)
    if any(v < 0 for v in drops):
        raise SolutionCheckError("level labeling rises along a tree arc")
    n = len(norm.gamma)
    return norm.lift([p - q for p, q in zip(drops[:n], drops[n:])])


def _stems(mat, log):
    """Per row and per column of `mat`, the (core index, sign) it stems from,
    or None, where (core, log) = reduce_to_core(mat)."""
    stems = {}
    for axis, kept in zip(("row", "col"), kept_indices(mat, log)):
        for t, i in enumerate(kept):
            stems[axis, i] = (t, 1)
    for op in reversed(log):
        base = None if op.reason == "unit" else stems[op.axis, op.partner]
        if base is not None:
            base = (base[0], base[1] if op.reason == "dup" else -base[1])
        stems[op.axis, op.index] = base
    return (
        [stems["row", i] for i in range(mat.nrows)],
        [stems["col", j] for j in range(mat.ncols)],
    )


def solve_const_core(norm, budget=DEFAULT_ENUM_BUDGET):
    """Solve the normalized instance `norm`, for all of norm.R at once, when
    its constraint matrix has a small core, by guessing the core-column
    scalar products.  Returns a point of the original instance, or None.

    Each guess pins s_i.y for the stem-support rows s_i, which determines the
    rows stemming from the core; replacing them by the guess rows yields a
    system over the same n free variables that is a network matrix (and a
    transposed one), solved by the circulation pipeline.  (2m-1)^l guesses
    for an l-column core, all inside the proximity box, so one pass serves
    every target residue.  Only the right-hand side depends on the guess, so
    the guessed matrix is built and recognized once.
    """
    core, log = reduce_to_core(norm.T)
    ell = core.ncols
    if ell > CORE_COL_CAP:
        raise ScaleError(f"{ell}-column core exceeds the guessing cap")
    row_stems, col_stems = _stems(norm.T, log)
    n = norm.T.ncols
    s_rows = []
    for i in range(ell):
        s_rows.append(
            tuple([
                (col_stems[j][1] if col_stems[j] is not None and col_stems[j][0] == i else 0)
                for j in range(n)
            ])
        )
    stem_rows = [t for t in range(norm.T.nrows) if row_stems[t] is not None]
    other_rows = [t for t in range(norm.T.nrows) if row_stems[t] is None]
    rows = []
    for s_row in s_rows:
        rows.append(s_row)
        rows.append(tuple([-v for v in s_row]))
    for t in stem_rows:
        rows.append(tuple([0 if col_stems[j] is not None else norm.T[t, j] for j in range(n)]))
    for t in other_rows:
        rows.append(norm.T.rows[t])
    guessed_T = TUMatrix.trusted(IntMatrix(tuple(rows), n))
    rep = recognize_network_matrix(guessed_T.matrix, *reduce_to_core(guessed_T.matrix))
    if rep is None:
        raise ScaleError("guessed constant-core system is not a network matrix")
    fixed_rhs = tuple([norm.b[t] for t in other_rows])
    for sigma in product(range(-norm.m + 1, norm.m), repeat=ell):
        rhs = []
        for sv in sigma:
            rhs.append(sv)
            rhs.append(-sv)
        for t in stem_rows:
            p, sgn = row_stems[t]
            rhs.append(norm.b[t] - sgn * sum(core[p, i] * sigma[i] for i in range(ell)))
        guessed = RCctufInstance(
            Polyhedron(guessed_T, tuple(rhs) + fixed_rhs),
            norm.gamma,
            norm.m,
            norm.R,
        )
        try:
            y = solve_network_cctu(guessed, rep, budget)
        except InfeasibleRelaxationError:
            continue
        if y is not None:
            return norm.lift(y)
    return None


def solve_base_block(inst, cls, budget=DEFAULT_ENUM_BUDGET, *, vertex=None):
    """Dispatch a base-block R-CCTUF/CCTU instance through its reduction.

    Normalizes once and runs one reduction and one terminal search for the
    whole target set, returning the first solution found; None means
    infeasible.  `inst` must have no objective, and `vertex`, a point of
    the relaxation the caller already holds, goes to `normalize`.
    """
    if cls.tag not in ("network", "transposed_network", "constant_core"):
        raise ValueError(f"not a base-block classification: {cls.tag}")
    try:
        norm = normalize(inst, vertex=vertex)
    except InfeasibleRelaxationError:
        return None
    if cls.tag == "network":
        x = _network_solve(norm, cls.network, budget)
    elif cls.tag == "transposed_network":
        x = _transposed_solve(norm, cls.network, budget)
    else:
        x = solve_const_core(norm, budget)
    if x is not None and not inst.is_feasible_point(x):
        raise SolutionCheckError(f"base-block point {x} is infeasible")
    return x
