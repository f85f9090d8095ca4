"""Base-block solvers: problems whose constraint matrix is a network matrix,
the transpose of one, or reduces to one of the two special 5x5 cores.

Pipelines (one target residue at a time):

  network:     normalize -> congruency-constrained circulation -> enumerate
  transposed:  normalize -> constrained tree cuts -> level labeling -> enumerate
  const core:  normalize -> guess core scalar products -> network pipeline

Both terminal enumerations are phrased as integer box searches: circulations
are parametrized by their values on non-forest edges of the flow graph
(forest values follow from conservation), and level labelings are vectors in
{0..m-1}^V with difference constraints.  That lets the shared kernel do the
heavy scanning with row-interval pruning.

Circulation canonicalization: antiparallel arc pairs whose lengths cancel
exactly and whose residue weights cancel mod m are merged into one signed
edge, which is exactly the freedom used by the flow-cancellation step in the
reduction's forward mapping.
"""

from dataclasses import dataclass

from . import kernels
from .errors import InfeasibleRelaxationError, ScaleError
from .matrices import IntMatrix, TUMatrix
from .polyhedra import DEFAULT_ENUM_BUDGET, Polyhedron, RCctufInstance, lp_optimize
from .seymour import recognize_network_matrix, tree_path

CORE_COL_CAP = 5  # largest core, in columns, whose scalar products are guessed

# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormalizedCctu:
    """min c.x over Tx <= b, x >= 0 (implicit), gamma.x = r (mod m), with the
    origin optimal for the relaxation.  Obtained from a general single-residue
    problem by shifting an optimal relaxation vertex to the origin and
    splitting x = x+ - x-; `lift` undoes both."""

    T: IntMatrix
    b: tuple
    gamma: tuple
    m: int
    r: int
    c: tuple  # all zeros when the source problem had no objective
    x0: tuple
    n_orig: int

    def lift(self, xhat):
        n = self.n_orig
        return tuple([x0v + xhat[i] - xhat[n + i] for i, x0v in enumerate(self.x0)])


def normalize(inst, r):
    """Normalize the single-residue problem (inst restricted to residue r).

    Requires a feasible, bounded relaxation (callers deal with unboundedness
    before reducing).  The split doubles the variables; base-block structure
    survives because column copies, column sign flips, and unit rows map to
    parallel arcs, reversed arcs, and leaf arcs.
    """
    c = inst.c if inst.c is not None else (0,) * inst.nvars
    out = lp_optimize(inst.P, c, "min")
    if out.tag == "infeasible":
        raise InfeasibleRelaxationError("relaxation is infeasible")
    if out.tag == "unbounded":
        raise ValueError("cannot normalize an unbounded relaxation")
    x0 = out.vertex
    shifted_b = tuple([bv - tv for bv, tv in zip(inst.P.b, inst.P.T.matrix.mul_vec(x0))])
    mat = inst.P.T.matrix
    split_rows = tuple([row + tuple([-v for v in row]) for row in mat.rows])
    return NormalizedCctu(
        IntMatrix(split_rows, 2 * inst.nvars),
        shifted_b,
        inst.gamma + tuple([-v for v in inst.gamma]),
        inst.m,
        (r - sum(g * v for g, v in zip(inst.gamma, x0))) % inst.m,
        c + tuple([-v for v in c]),
        x0,
        inst.nvars,
    )


def _nonneg_rows(n):
    return tuple([tuple([-1 if j == i else 0 for j in range(n)]) for i in range(n)])


# ---------------------------------------------------------------------------
# congruency-constrained circulations


@dataclass(frozen=True)
class CccInstance:
    """Find a minimum-length circulation with sum(eta(a) f(a)) = r (mod m)."""

    nvertices: int
    arcs: tuple  # (tail, head)
    u: tuple  # capacities, nonnegative
    lengths: tuple
    eta: tuple  # residue weights, reduced mod m
    m: int
    r: int


def cctu_to_ccc(norm, rep):
    """The circulation instance of a normalized network-matrix problem.

    Arcs: every tree arc and its reverse (length and weight zero, capacity
    min(b, m-1) forward and m-1 backward), plus the reverse of every column
    arc (length = objective coefficient, weight = gamma mod m, capacity m-1).
    """
    if rep.rebuild().rows != norm.T.rows:
        raise ValueError("representation does not rebuild the constraint matrix")
    arcs = []
    caps = []
    lengths = []
    eta = []
    mm = norm.m
    for i, (a, b) in enumerate(rep.tree_arcs):
        arcs.append((a, b))
        caps.append(min(norm.b[i], mm - 1))
        lengths.append(0)
        eta.append(0)
    for i, (a, b) in enumerate(rep.tree_arcs):
        arcs.append((b, a))
        caps.append(mm - 1)
        lengths.append(0)
        eta.append(0)
    for j, (v, w) in enumerate(rep.col_arcs):
        arcs.append((w, v))
        caps.append(mm - 1)
        lengths.append(norm.c[j])
        eta.append(norm.gamma[j] % mm)
    return CccInstance(
        rep.nvertices, tuple(arcs), tuple(caps), tuple(lengths), tuple(eta), mm, norm.r % mm
    )


@dataclass(frozen=True)
class _FlowEdge:
    tail: int
    head: int
    lo: int
    hi: int
    eta: int
    length: int
    fwd_arc: int  # arc index carrying positive net flow
    rev_arc: int = None  # antiparallel partner carrying negative net, if merged


def _merge_arcs(ccc):
    """Signed edges from arcs, merging cancellable antiparallel pairs.

    A pair cancels when the lengths sum to zero and the residue weights sum
    to zero mod m.
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
            if ccc.lengths[a] + ccc.lengths[b] != 0:
                continue
            if (ccc.eta[a] + ccc.eta[b]) % ccc.m != 0:
                continue
            partner = b
            break
        used[a] = True
        tail, head = ccc.arcs[a]
        if partner is None:
            edges.append(_FlowEdge(tail, head, 0, ccc.u[a], ccc.eta[a], ccc.lengths[a], a))
        else:
            used[partner] = True
            edges.append(
                _FlowEdge(tail, head, -ccc.u[partner], ccc.u[a], ccc.eta[a], ccc.lengths[a], a, partner)
            )
    return edges


def _solve_flow_box(nvertices, edges, m, rmask, budget):
    """Enumerate circulations through the kernel box search.

    Free (non-forest) edge nets are the box variables; forest nets are linear
    in them, so capacity windows become constraint rows.  The residue vector
    and objective fold the forest contributions into per-variable
    coefficients.
    Returns the net flow per edge of a minimum-length circulation, or None.
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
    adj = {v: [] for v in range(nvertices)}
    for t in forest:
        adj[edges[t].tail].append((edges[t].head, t, 1))
        adj[edges[t].head].append((edges[t].tail, t, -1))
    coeff = {t: [0] * len(free) for t in forest}
    for pos, e in enumerate(free):
        for (t, sgn) in tree_path(adj, edges[e].head, edges[e].tail):
            coeff[t][pos] = sgn
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
    kappa = []
    for pos, e in enumerate(free):
        s = edges[e].eta
        c = edges[e].length
        for t in forest:
            if coeff[t][pos]:
                s += coeff[t][pos] * edges[t].eta
                c += coeff[t][pos] * edges[t].length
        rho.append(s % m)
        kappa.append(c)
    flat = [v for row in rows for v in row]
    use_cost = any(kappa)
    found, z, _ = kernels.box_search(
        flat,
        len(rows),
        len(free),
        rhs,
        rho,
        m,
        rmask,
        lo,
        hi,
        kappa if use_cost else None,
        use_cost,
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
    """Minimum-length circulation meeting the congruency target, or None.

    Deterministic bounded enumeration behind the terminal-solver interface;
    returns flows per arc.
    """
    edges = _merge_arcs(ccc)
    nets = _solve_flow_box(ccc.nvertices, edges, ccc.m, 1 << (ccc.r % ccc.m), budget)
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


def solution_to_circulation(ccc, rep, xhat):
    """Forward mapping: a normalized solution (entries in {0..m-1}) to a
    feasible circulation of equal length and residue.

    Routes x(e) units along the reverse column arc and its tree path, then
    cancels flow on antiparallel tree-arc pairs; feasibility of x within the
    proximity box makes the capacities work out.
    """
    ntree = len(rep.tree_arcs)
    flows = [0] * len(ccc.arcs)
    adj = {v: [] for v in range(rep.nvertices)}
    for idx, (a, b) in enumerate(rep.tree_arcs):
        adj[a].append((b, idx, 1))
        adj[b].append((a, idx, -1))
    for j, (v, w) in enumerate(rep.col_arcs):
        x = xhat[j]
        flows[2 * ntree + j] += x  # reverse column arc (w, v)
        for idx, sgn in tree_path(adj, v, w):
            if sgn == 1:
                flows[idx] += x
            else:
                flows[ntree + idx] += x
    for idx in range(ntree):
        cancel = min(flows[idx], flows[ntree + idx])
        flows[idx] -= cancel
        flows[ntree + idx] -= cancel
    return tuple(flows)


def circulation_value(ccc, flows):
    return sum(l * f for l, f in zip(ccc.lengths, flows))


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
    minimizing the total out-cut cost, with per-arc coverage differences
    bounded by b and a congruency constraint on the alpha-weights."""

    nvertices: int
    tree_arcs: tuple  # one per variable of the originating problem
    extra_arcs: tuple  # one per (deduplicated) constraint row
    b: tuple
    costs: tuple  # per tree arc
    alpha: tuple  # per vertex; sums to zero
    r: int
    m: int


@dataclass(frozen=True)
class LevelLabeling:
    """Encodes the chain S_i = {v : level(v) >= i}, i = 1..m-1."""

    levels: tuple
    m: int

    def cuts(self):
        top = max(self.levels, default=0)
        return [frozenset(v for v, l in enumerate(self.levels) if l >= i) for i in range(1, top + 1)]


def cctu_to_ctc(norm, rep):
    """Build the tree-cut instance of a normalized transposed-network problem.

    `rep` realizes the transpose: its tree arcs are indexed by the problem's
    variables, its column arcs by the (deduplicated) constraint rows.  The
    vertex weight alpha(v) is the gamma-weighted out-minus-in degree, which
    sums to zero over the tree.
    """
    if rep.rebuild().transpose().rows != norm.T.rows:
        raise ValueError("representation does not rebuild the transposed matrix")
    alpha = [0] * rep.nvertices
    for j, (a, b) in enumerate(rep.tree_arcs):
        alpha[a] += norm.gamma[j]
        alpha[b] -= norm.gamma[j]
    assert sum(alpha) == 0
    return CtcInstance(
        rep.nvertices,
        rep.tree_arcs,
        rep.col_arcs,
        norm.b,
        norm.c,
        tuple(alpha),
        norm.r % norm.m,
        norm.m,
    )


def solve_ctc_chain(ctc, budget=DEFAULT_ENUM_BUDGET):
    """Minimum-cost chain labeling (levels in {0..m-1}), or None.

    The chain bound comes with the encoding: at most m-1 distinct nonempty
    cuts.  Solved as a box search with difference-constraint rows.
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
    cvec = [0] * nv
    for (a, b), cost in zip(ctc.tree_arcs, ctc.costs):
        cvec[a] += cost
        cvec[b] -= cost
    use_cost = any(cvec)
    flat = [v for row in rows for v in row]
    found, levels, _ = kernels.box_search(
        flat,
        len(rows),
        nv,
        rhs,
        list(ctc.alpha),
        m,
        1 << (ctc.r % m),
        [0] * nv,
        [m - 1] * nv,
        cvec if use_cost else None,
        use_cost,
    )
    if not found:
        return None
    return LevelLabeling(tuple(levels), m)


def labeling_to_solution(ctc, labeling):
    """x(u) = level(tail) - level(head) per tree arc; the chain-cut sum."""
    return tuple([labeling.levels[a] - labeling.levels[b] for (a, b) in ctc.tree_arcs])


def labeling_cost(ctc, labeling):
    return sum(c * x for c, x in zip(ctc.costs, labeling_to_solution(ctc, labeling)))


# ---------------------------------------------------------------------------
# single-residue pipelines


def _internal_limits():
    from .seymour import SearchLimits

    # recognition here runs on normalized (split) matrices whose row counts
    # exceed the public default; cost is governed by the core size, not rows
    return SearchLimits(sum_total_dim=14, tree_rows=7, recognize_rows=64)


def _retarget(norm, r):
    """The normalization is residue-independent except for the target."""
    rhat = (r - sum(g * v for g, v in zip(norm.gamma[: norm.n_orig], norm.x0))) % norm.m
    return NormalizedCctu(
        norm.T, norm.b, norm.gamma, norm.m, rhat, norm.c, norm.x0, norm.n_orig
    )


def _network_pipeline(inst):
    norm = normalize(inst, 0)
    rep = recognize_network_matrix(norm.T, _internal_limits())
    if rep is None:
        raise ScaleError("normalized matrix lost the network structure")
    return norm, rep


def _network_solve_for(inst, norm, rep, r, budget):
    norm = _retarget(norm, r)
    ccc = cctu_to_ccc(norm, rep)
    flows = solve_ccc(ccc, budget)
    if flows is None:
        return None
    assert check_circulation(ccc, flows)
    assert circulation_residue(ccc, flows) == ccc.r
    ncols = len(norm.gamma)
    ntree = len(rep.tree_arcs)
    xhat = tuple([flows[2 * ntree + j] for j in range(ncols)])
    x = norm.lift(xhat)
    # objective identity of the reduction, checked on every solve
    if inst.c is not None:
        shift = sum(cv * xv for cv, xv in zip(inst.c, norm.x0))
        assert circulation_value(ccc, flows) + shift == sum(
            cv * xv for cv, xv in zip(inst.c, x)
        )
    return x


def solve_network_cctu(inst, r, budget=DEFAULT_ENUM_BUDGET):
    """Solve the residue-r problem over a network constraint matrix via the
    circulation reduction; returns a feasible/optimal point or None."""
    norm, rep = _network_pipeline(inst)
    return _network_solve_for(inst, norm, rep, r, budget)


def _dedup_rows(mat, b):
    seen = {}
    order = []
    for row, bv in zip(mat.rows, b):
        if not any(row):
            continue  # vacuous under b >= 0 (normalized)
        if row in seen:
            seen[row] = min(seen[row], bv)
        else:
            seen[row] = bv
            order.append(row)
    return IntMatrix(tuple(order), mat.ncols), tuple([seen[row] for row in order])


def _transposed_pipeline(inst):
    norm = normalize(inst, 0)
    mat, b = _dedup_rows(norm.T, norm.b)
    norm = NormalizedCctu(mat, b, norm.gamma, norm.m, norm.r, norm.c, norm.x0, norm.n_orig)
    rep = recognize_network_matrix(norm.T.transpose(), _internal_limits())
    if rep is None:
        raise ScaleError("normalized matrix lost the transposed-network structure")
    return norm, rep


def _transposed_solve_for(inst, norm, rep, r, budget):
    norm = _retarget(norm, r)
    ctc = cctu_to_ctc(norm, rep)
    labeling = solve_ctc_chain(ctc, budget)
    if labeling is None:
        return None
    xhat = labeling_to_solution(ctc, labeling)
    assert all(v >= 0 for v in xhat)
    x = norm.lift(xhat)
    if inst.c is not None:
        shift = sum(cv * xv for cv, xv in zip(inst.c, norm.x0))
        assert labeling_cost(ctc, labeling) + shift == sum(
            cv * xv for cv, xv in zip(inst.c, x)
        )
    return x


def _stems(core, log):
    """Forward-replay stem tracking: per row/column of the full matrix, the
    (core index, sign) it stems from, or None."""
    row_stems = [(i, 1) for i in range(core.nrows)]
    col_stems = [(j, 1) for j in range(core.ncols)]
    for op in reversed(log):
        stems = row_stems if op.axis == "row" else col_stems
        if op.reason == "unit":
            stems.insert(op.index, None)
        else:
            base = stems[op.partner]
            if base is None:
                stems.insert(op.index, None)
            else:
                flip = 1 if op.reason == "dup" else -1
                stems.insert(op.index, (base[0], base[1] * flip))
    return row_stems, col_stems


def solve_const_core(inst, r, budget=DEFAULT_ENUM_BUDGET):
    """Solve the residue-r problem for a constraint matrix with a small core
    by guessing the core-column scalar products.

    Each guess pins s_i.x for the stem-support rows s_i, which determines the
    rows stemming from the core; replacing them by the guess rows yields a
    system that is a network matrix (and a transposed one), solved by the
    circulation pipeline.  (2m-1)^l guesses for an l-column core.
    """
    from itertools import product as iproduct

    from .seymour import reduce_to_core

    norm = normalize(inst, r)
    core, log = reduce_to_core(norm.T)
    ell = core.ncols
    if ell > CORE_COL_CAP:
        raise ScaleError(f"{ell}-column core exceeds the guessing cap")
    row_stems, col_stems = _stems(core, log)
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
    best = None
    for sigma in iproduct(range(-norm.m + 1, norm.m), repeat=ell):
        rows = []
        rhs = []
        for i in range(ell):
            rows.append(s_rows[i])
            rhs.append(sigma[i])
            rows.append(tuple([-v for v in s_rows[i]]))
            rhs.append(-sigma[i])
        valid = True
        for t in stem_rows:
            p, sgn = row_stems[t]
            tau = sgn * sum(core[p, i] * sigma[i] for i in range(ell))
            zeroed = tuple([
                0 if col_stems[j] is not None else norm.T[t, j] for j in range(nhat)
            ])
            rows.append(zeroed)
            rhs.append(norm.b[t] - tau)
        for t in other_rows:
            rows.append(norm.T.row(t))
            rhs.append(norm.b[t])
        for nn in _nonneg_rows(nhat):
            rows.append(nn)
            rhs.append(0)
        guessed = RCctufInstance(
            Polyhedron(TUMatrix.trusted(IntMatrix(tuple(rows), nhat)), tuple(rhs)),
            norm.gamma,
            norm.m,
            frozenset({norm.r}),
            norm.c if any(norm.c) else None,
        )
        try:
            xhat = solve_network_cctu(guessed, norm.r, budget)
        except InfeasibleRelaxationError:
            continue
        if xhat is None:
            continue
        x = norm.lift(xhat)
        if inst.c is None:
            return x
        val = sum(cv * xv for cv, xv in zip(inst.c, x))
        if best is None or val < best[0]:
            best = (val, x)
    return None if best is None else best[1]


def solve_base_block(inst, cls, budget=DEFAULT_ENUM_BUDGET):
    """Dispatch a base-block R-CCTUF/CCTU instance through its reduction.

    Feasibility instances return the first solution over the target residues;
    optimization instances return the best.  None means infeasible.  The
    relaxation must be bounded when an objective is present.
    """
    c = inst.c if inst.c is not None else (0,) * inst.nvars
    out = lp_optimize(inst.P, c, "min")
    if out.tag == "infeasible":
        return None
    if out.tag == "unbounded":
        raise ValueError("base-block solvers require a bounded relaxation")
    if len(inst.R) == inst.m:
        return out.vertex
    if cls.tag == "network":
        norm, rep = _network_pipeline(inst)

        def solver(r):
            return _network_solve_for(inst, norm, rep, r, budget)

    elif cls.tag == "transposed_network":
        norm, rep = _transposed_pipeline(inst)

        def solver(r):
            return _transposed_solve_for(inst, norm, rep, r, budget)

    elif cls.tag == "constant_core":

        def solver(r):
            return solve_const_core(inst, r, budget)

    else:
        raise ValueError(f"not a base-block classification: {cls.tag}")
    best = None
    for r in sorted(inst.R):
        x = solver(r)
        if x is None:
            continue
        assert inst.is_feasible_point(x)
        if inst.c is None:
            return x
        val = inst.objective(x)
        if best is None or val < best[0]:
            best = (val, x)
    return None if best is None else best[1]
