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
the same box (split variables and levels in {0..m-1}, guesses in (-m, m)^l),
so a search of that box for any residue in R finds a solution whenever one
exists.

The network and transposed pipelines start from the classifier's
representation: the split x = x+ - x- turns T into [T | -T], whose
representation follows from T's by reversing column arcs (network) or by
subdividing each tree arc (transposed), so no matrix is recognized twice.

Both terminal enumerations are phrased as integer box searches: circulations
are parametrized by their values on non-forest edges of the flow graph
(forest values follow from conservation), and level labelings are vectors in
{0..m-1}^V with difference constraints, kept as the plain tuple the search
returns.  That lets the shared kernel do the heavy scanning with
row-interval pruning, with R as its residue mask.

Circulation canonicalization: antiparallel arc pairs whose residue weights
cancel mod m are merged into one signed edge, which is exactly the freedom
used by the flow-cancellation step in the reduction's forward mapping.
"""

from dataclasses import dataclass
from itertools import product

from . import kernels
from .errors import CctuError, InfeasibleRelaxationError, ScaleError, SolutionCheckError
from .matrices import IntMatrix, TUMatrix, kept_indices
from .polyhedra import DEFAULT_ENUM_BUDGET, Polyhedron, RCctufInstance, vertex_of
from .seymour import (
    NetworkRepresentation,
    recognize_network_matrix,
    reduce_to_core,
    tree_adjacency,
    tree_path,
)

CORE_COL_CAP = 5  # largest core, in columns, whose scalar products are guessed

# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormalizedCctu:
    """Tx <= b, x >= 0 (implicit), gamma.x mod m in R, with the origin
    feasible for the relaxation.  Obtained from a general problem by shifting
    a relaxation vertex x0 to the origin, which shifts each target residue by
    -gamma.x0, and splitting x = x+ - x-; `lift` undoes both."""

    T: IntMatrix
    b: tuple
    gamma: tuple
    m: int
    R: frozenset
    x0: tuple
    n_orig: int

    def lift(self, xhat):
        n = self.n_orig
        return tuple([x0v + xhat[i] - xhat[n + i] for i, x0v in enumerate(self.x0)])


def normalize(inst, *, vertex=None):
    """Normalize `inst` for its whole target set: one LP, one shift, one split.

    A caller that holds a point of the relaxation passes it as `vertex`,
    which is then checked and shifted to the origin instead of solving the
    LP.  Raises InfeasibleRelaxationError when the relaxation is empty, and
    ValueError when `inst` has an objective (base blocks decide feasibility
    only).  The split doubles the variables; base-block structure survives
    because column copies, column sign flips, and unit rows map to parallel
    arcs, reversed arcs, and leaf arcs.
    """
    if inst.c is not None:
        raise ValueError("base blocks take feasibility instances; the caller owns the objective")
    x0 = vertex_of(inst.P, vertex)
    if x0 is None:
        raise InfeasibleRelaxationError("relaxation is infeasible")
    shift = sum(g * v for g, v in zip(inst.gamma, x0))
    shifted_b = tuple([bv - tv for bv, tv in zip(inst.P.b, inst.P.T.matrix.mul_vec(x0))])
    mat = inst.P.T.matrix
    split_rows = tuple([row + tuple([-v for v in row]) for row in mat.rows])
    return NormalizedCctu(
        IntMatrix(split_rows, 2 * inst.nvars),
        shifted_b,
        inst.gamma + tuple([-v for v in inst.gamma]),
        inst.m,
        frozenset([(r - shift) % inst.m for r in inst.R]),
        x0,
        inst.nvars,
    )


def _nonneg_rows(n):
    return tuple([tuple([-1 if j == i else 0 for j in range(n)]) for i in range(n)])


# ---------------------------------------------------------------------------
# congruency-constrained circulations


@dataclass(frozen=True)
class CccInstance:
    """Find a circulation with sum(eta(a) f(a)) mod m in R."""

    nvertices: int
    arcs: tuple  # (tail, head)
    u: tuple  # capacities, nonnegative
    eta: tuple  # residue weights, reduced mod m
    m: int
    R: frozenset  # target residues, reduced mod m


def cctu_to_ccc(norm, rep):
    """The circulation instance of a normalized network-matrix problem.

    Arcs: every tree arc and its reverse (weight zero, capacity min(b, m-1)
    forward and m-1 backward), plus the reverse of every column arc
    (weight = gamma mod m, capacity m-1).
    """
    if rep.rebuild().rows != norm.T.rows:
        raise ValueError("representation does not rebuild the constraint matrix")
    arcs = []
    caps = []
    eta = []
    mm = norm.m
    for i, (a, b) in enumerate(rep.tree_arcs):
        arcs.append((a, b))
        caps.append(min(norm.b[i], mm - 1))
        eta.append(0)
    for i, (a, b) in enumerate(rep.tree_arcs):
        arcs.append((b, a))
        caps.append(mm - 1)
        eta.append(0)
    for j, (v, w) in enumerate(rep.col_arcs):
        arcs.append((w, v))
        caps.append(mm - 1)
        eta.append(norm.gamma[j] % mm)
    return CccInstance(rep.nvertices, tuple(arcs), tuple(caps), tuple(eta), mm, norm.R)


@dataclass(frozen=True)
class _FlowEdge:
    tail: int
    head: int
    lo: int
    hi: int
    eta: int
    fwd_arc: int  # arc index carrying positive net flow
    rev_arc: int = None  # antiparallel partner carrying negative net, if merged


def _merge_arcs(ccc):
    """Signed edges from arcs, merging cancellable antiparallel pairs.

    A pair cancels when the residue weights sum to zero mod m.
    """
    n = len(ccc.arcs)
    used = [False] * n
    edges = []
    for a in range(n):
        if used[a]:
            continue
        partner = None
        for b in range(a + 1, n):
            if used[b]:
                continue
            if ccc.arcs[b] != (ccc.arcs[a][1], ccc.arcs[a][0]):
                continue
            if (ccc.eta[a] + ccc.eta[b]) % ccc.m != 0:
                continue
            partner = b
            break
        used[a] = True
        tail, head = ccc.arcs[a]
        if partner is None:
            edges.append(_FlowEdge(tail, head, 0, ccc.u[a], ccc.eta[a], a))
        else:
            used[partner] = True
            edges.append(_FlowEdge(tail, head, -ccc.u[partner], ccc.u[a], ccc.eta[a], a, partner))
    return edges


def _solve_flow_box(nvertices, edges, m, rmask, budget):
    """Enumerate circulations through the kernel box search.

    Free (non-forest) edge nets are the box variables; forest nets are linear
    in them, so capacity windows become constraint rows.  The residue vector
    folds the forest contributions into per-variable coefficients.
    Returns the net flow per edge of a circulation, or None.
    """
    forest = []
    free = []
    adj_order = sorted(range(len(edges)), key=lambda e: (edges[e].tail, edges[e].head))
    comp = list(range(nvertices))

    def root(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for e in adj_order:
        a, b = root(edges[e].tail), root(edges[e].head)
        if a != b and edges[e].tail != edges[e].head:
            comp[a] = b
            forest.append(e)
        else:
            free.append(e)
    free.sort()
    # fundamental-cycle coefficients of each free edge on each forest edge
    adj = tree_adjacency(nvertices, [(edges[t].tail, edges[t].head) for t in forest])
    coeff = {t: [0] * len(free) for t in forest}
    for pos, e in enumerate(free):
        for (f, sgn) in tree_path(adj, edges[e].head, edges[e].tail):
            coeff[forest[f]][pos] = sgn
    size = 1
    lo = []
    hi = []
    for e in free:
        lo.append(edges[e].lo)
        hi.append(edges[e].hi)
        size *= edges[e].hi - edges[e].lo + 1
        if size > budget:
            raise ScaleError(f"circulation enumeration of {size}+ points exceeds budget")
    rows = []
    rhs = []
    for t in forest:
        rows.append(tuple(coeff[t]))
        rhs.append(edges[t].hi)
        rows.append(tuple([-v for v in coeff[t]]))
        rhs.append(-edges[t].lo)
    rho = []
    for pos, e in enumerate(free):
        s = edges[e].eta
        for t in forest:
            if coeff[t][pos]:
                s += coeff[t][pos] * edges[t].eta
        rho.append(s % m)
    found, z, _ = kernels.box_search(
        rows,
        rhs,
        rho,
        m,
        rmask,
        lo,
        hi,
        None,
    )
    if not found:
        return None
    nets = [0] * len(edges)
    for pos, e in enumerate(free):
        nets[e] = z[pos]
    for t in forest:
        nets[t] = sum(cv * zv for cv, zv in zip(coeff[t], z))
    return nets


def solve_ccc(ccc, budget=DEFAULT_ENUM_BUDGET):
    """A circulation whose residue lies in the target set, or None.

    Deterministic bounded enumeration behind the terminal-solver interface,
    one box search for all targets; returns flows per arc.
    """
    edges = _merge_arcs(ccc)
    nets = _solve_flow_box(ccc.nvertices, edges, ccc.m, sum(1 << r for r in ccc.R), budget)
    if nets is None:
        return None
    return _nets_to_flows(ccc, edges, nets)


def _nets_to_flows(ccc, edges, nets):
    flows = [0] * len(ccc.arcs)
    for e, edge in enumerate(edges):
        net = nets[e]
        if edge.rev_arc is None:
            flows[edge.fwd_arc] = net
        else:
            flows[edge.fwd_arc] = max(net, 0)
            flows[edge.rev_arc] = max(-net, 0)
    return tuple(flows)


def circulation_residue(ccc, flows):
    return sum(e * f for e, f in zip(ccc.eta, flows)) % ccc.m


def check_circulation(ccc, flows):
    """Conservation and capacity check; reduction invariants lean on this."""
    if any(f < 0 or f > u for f, u in zip(flows, ccc.u)):
        return False
    balance = [0] * ccc.nvertices
    for (a, b), f in zip(ccc.arcs, flows):
        balance[a] -= f
        balance[b] += f
    return not any(balance)


# ---------------------------------------------------------------------------
# constrained tree cuts and level labelings


@dataclass(frozen=True)
class CtcInstance:
    """Directed tree cut problem: pick a family of in-arc-free sets S_1..S_l
    with per-arc coverage differences bounded by b and the alpha-weighted
    residue in the target set R."""

    nvertices: int
    tree_arcs: tuple  # one per variable of the originating problem
    extra_arcs: tuple  # one per constraint row
    b: tuple
    alpha: tuple  # per vertex; sums to zero
    R: frozenset  # target residues, reduced mod m
    m: int


def cctu_to_ctc(norm, rep):
    """Build the tree-cut instance of a normalized transposed-network problem.

    `rep` realizes the transpose: its tree arcs are indexed by the problem's
    variables, its column arcs by the constraint rows.  The
    vertex weight alpha(v) is the gamma-weighted out-minus-in degree, which
    sums to zero over the tree.
    """
    if rep.rebuild().transpose().rows != norm.T.rows:
        raise ValueError("representation does not rebuild the transposed matrix")
    alpha = [0] * rep.nvertices
    for j, (a, b) in enumerate(rep.tree_arcs):
        alpha[a] += norm.gamma[j]
        alpha[b] -= norm.gamma[j]
    if sum(alpha) != 0:
        raise CctuError("tree-cut vertex weights do not sum to zero")
    return CtcInstance(
        rep.nvertices,
        rep.tree_arcs,
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
    """x(u) = level(tail) - level(head) per tree arc; the chain-cut sum."""
    return tuple([levels[a] - levels[b] for (a, b) in ctc.tree_arcs])


# ---------------------------------------------------------------------------
# pipelines


def _split_network(rep):
    """The representation of [T | -T] from one of T: the column arcs, then
    each column arc reversed."""
    return NetworkRepresentation(
        rep.nvertices, rep.tree_arcs, rep.col_arcs + tuple([(w, v) for v, w in rep.col_arcs])
    )


def _split_transposed(rep):
    """The representation of [T | -T]^T from one of T^T: tree arc j = (a, b)
    becomes (a, z_j) and the row of x-_j the arc (b, z_j) for a fresh vertex
    z_j, so every path through (a, b) crosses the pair with opposite signs."""
    nv = rep.nvertices
    plus = [(a, nv + j) for j, (a, _) in enumerate(rep.tree_arcs)]
    minus = [(b, nv + j) for j, (_, b) in enumerate(rep.tree_arcs)]
    return NetworkRepresentation(nv + len(plus), tuple(plus + minus), rep.col_arcs)


def _network_solve(norm, rep, budget):
    ccc = cctu_to_ccc(norm, rep)
    flows = solve_ccc(ccc, budget)
    if flows is None:
        return None
    if not check_circulation(ccc, flows):
        raise SolutionCheckError("circulation violates conservation or capacities")
    if circulation_residue(ccc, flows) not in ccc.R:
        raise SolutionCheckError("circulation misses the target residues")
    ntree = len(rep.tree_arcs)
    return norm.lift(tuple([flows[2 * ntree + j] for j in range(len(norm.gamma))]))


def solve_network_cctu(inst, rep, budget=DEFAULT_ENUM_BUDGET):
    """Solve `inst` over a network constraint matrix via the circulation
    reduction, for all of inst.R at once; `rep` realizes the constraint
    matrix.  Returns a feasible point or None."""
    return _network_solve(normalize(inst), _split_network(rep), budget)


def _transposed_solve(norm, rep, budget):
    ctc = cctu_to_ctc(norm, rep)
    levels = solve_ctc_chain(ctc, budget)
    if levels is None:
        return None
    xhat = labeling_to_solution(ctc, levels)
    if any(v < 0 for v in xhat):
        raise SolutionCheckError("level labeling gives a negative split variable")
    return norm.lift(xhat)


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

    Each guess pins s_i.x for the stem-support rows s_i, which determines the
    rows stemming from the core; replacing them by the guess rows yields a
    system that is a network matrix (and a transposed one), solved by the
    circulation pipeline.  (2m-1)^l guesses for an l-column core, all inside
    the proximity box, so one pass serves every target residue.  Only the
    right-hand side depends on the guess, so the guessed matrix is built and
    recognized once.
    """
    core, log = reduce_to_core(norm.T)
    ell = core.ncols
    if ell > CORE_COL_CAP:
        raise ScaleError(f"{ell}-column core exceeds the guessing cap")
    row_stems, col_stems = _stems(norm.T, log)
    nhat = len(norm.gamma)
    khat = norm.T.nrows
    s_rows = []
    for i in range(ell):
        s_rows.append(
            tuple([
                (col_stems[j][1] if col_stems[j] is not None and col_stems[j][0] == i else 0)
                for j in range(nhat)
            ])
        )
    stem_rows = [t for t in range(khat) if row_stems[t] is not None]
    other_rows = [t for t in range(khat) if row_stems[t] is None]
    rows = []
    for s_row in s_rows:
        rows.append(s_row)
        rows.append(tuple([-v for v in s_row]))
    for t in stem_rows:
        rows.append(tuple([0 if col_stems[j] is not None else norm.T[t, j] for j in range(nhat)]))
    for t in other_rows:
        rows.append(norm.T.rows[t])
    rows.extend(_nonneg_rows(nhat))
    guessed_T = TUMatrix.trusted(IntMatrix(tuple(rows), nhat))
    rep = recognize_network_matrix(guessed_T.matrix, *reduce_to_core(guessed_T.matrix))
    if rep is None:
        raise ScaleError("guessed constant-core system is not a network matrix")
    fixed_rhs = tuple([norm.b[t] for t in other_rows]) + (0,) * nhat
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
            xhat = solve_network_cctu(guessed, rep, budget)
        except InfeasibleRelaxationError:
            continue
        if xhat is not None:
            return norm.lift(xhat)
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
        x = _network_solve(norm, _split_network(cls.network), budget)
    elif cls.tag == "transposed_network":
        x = _transposed_solve(norm, _split_transposed(cls.network), budget)
    else:
        x = solve_const_core(norm, budget)
    if x is not None and not inst.is_feasible_point(x):
        raise SolutionCheckError(f"base-block point {x} is infeasible")
    return x
