"""Sum decompositions of TU matrices, pivoting, network-matrix recognition,
core reduction, and the desk-scale classifier.

Recognition strategy: a matrix is a network matrix iff its core is, because
unit/duplicate/negated rows and columns map to leaf arcs, subdivisions,
parallel arcs, and reversals on the graph side.  So we strip the matrix to
its core (logging each deletion), brute-force a tree representation of the
small core over Pruefer-enumerated trees with an orientation parity check,
and replay the log backwards to extend the representation to the full
matrix.  Every positive answer is certified by an exact rebuild.

Classification runs from most to least structured: network matrix or
transpose, constant core, 1-/2-/3-sum separation (exhaustive bipartition
search within a budget), then one pivot followed by a sum separation.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import DimensionError, ScaleError
from .matrices import IntMatrix, TUMatrix, is_totally_unimodular
from .polyhedra import Polyhedron, RCctufInstance
from .structure import bound_scalar_products


@dataclass(frozen=True)
class SearchLimits:
    sum_total_dim: int = 14  # row+column budget for bipartition search
    tree_rows: int = 7  # core rows for the spanning-tree enumeration
    recognize_rows: int = 10  # overall row cap for recognition


DEFAULT_LIMITS = SearchLimits()

SPECIAL_CORES = (
    IntMatrix(
        (
            (1, -1, 0, 0, -1),
            (-1, 1, -1, 0, 0),
            (0, -1, 1, -1, 0),
            (0, 0, -1, 1, -1),
            (-1, 0, 0, -1, 1),
        )
    ),
    IntMatrix(
        (
            (1, 1, 1, 1, 1),
            (1, 1, 1, 0, 0),
            (1, 0, 1, 1, 0),
            (1, 0, 0, 1, 1),
            (1, 1, 0, 0, 1),
        )
    ),
)


# ---------------------------------------------------------------------------
# pivoting and sums


def pivot(mat, i, j):
    """Pivot on entry (i, j), which must be +-1.

    Permutes the entry to position (1,1), applies
    (eps, p^T; q, C) -> (-eps, eps p^T; eps q, C - eps q p^T), and permutes
    back.  Pivoting preserves total unimodularity in both directions.
    """
    eps = mat[i, j]
    if eps not in (-1, 1):
        raise ValueError("pivot entry must be +1 or -1")
    k, n = mat.nrows, mat.ncols
    out = [[0] * n for _ in range(k)]
    for r in range(k):
        for c in range(n):
            if r == i and c == j:
                out[r][c] = -eps
            elif r == i:
                out[r][c] = eps * mat[i, c]
            elif c == j:
                out[r][c] = eps * mat[r, j]
            else:
                out[r][c] = mat[r, c] - eps * mat[r, j] * mat[i, c]
    return IntMatrix(tuple([tuple(row) for row in out]))


@dataclass(frozen=True)
class SumDecomposition:
    """Witness that a matrix is a k-sum (A ef^T; gh^T B) up to permutations.

    row_perm[r] / col_perm[c] give the original index of composed row r /
    column c.  For kind 1 all of e, f, g, h are zero; for kind 2, g and h
    are zero.
    """

    kind: int
    A: IntMatrix
    B: IntMatrix
    e: tuple
    f: tuple
    g: tuple
    h: tuple
    row_perm: tuple
    col_perm: tuple

    @property
    def n_A(self):
        return self.A.ncols

    @property
    def n_B(self):
        return self.B.ncols

    def first_summand(self):
        """The bordered left block whose TU-ness certifies the sum."""
        if self.kind == 1:
            return self.A
        if self.kind == 2:
            return IntMatrix(tuple([r + (ev,) for r, ev in zip(self.A.rows, self.e)]))
        rows = tuple([r + (ev, ev) for r, ev in zip(self.A.rows, self.e)])
        return IntMatrix(rows + (self.h + (0, 1),))

    def second_summand(self):
        if self.kind == 1:
            return self.B
        if self.kind == 2:
            return IntMatrix((self.f,) + self.B.rows)
        rows = ((0, 1) + self.f,)
        return IntMatrix(rows + tuple([(gv, gv) + r for gv, r in zip(self.g, self.B.rows)]))


def k_sum(parts):
    """Compose a SumDecomposition back into the original matrix."""
    A, B, e, f, g, h = parts.A, parts.B, parts.e, parts.f, parts.g, parts.h
    ka, na = A.nrows, A.ncols
    kb, nb = B.nrows, B.ncols
    if len(e) != ka or len(f) != nb or len(g) != kb or len(h) != na:
        raise DimensionError("border vector lengths do not match the blocks")
    comp = [[0] * (na + nb) for _ in range(ka + kb)]
    for r in range(ka):
        for c in range(na):
            comp[r][c] = A[r, c]
        for c in range(nb):
            comp[r][na + c] = e[r] * f[c]
    for r in range(kb):
        for c in range(na):
            comp[ka + r][c] = g[r] * h[c]
        for c in range(nb):
            comp[ka + r][na + c] = B[r, c]
    k, n = ka + kb, na + nb
    out = [[0] * n for _ in range(k)]
    for r in range(k):
        for c in range(n):
            out[parts.row_perm[r]][parts.col_perm[c]] = comp[r][c]
    return IntMatrix(tuple([tuple(row) for row in out]))


def _rank1_factor(block):
    """(u, v) with block = u v^T over {-1,0,1} entries, or None."""
    k = block.nrows
    n = block.ncols
    if k == 0 or n == 0 or all(v == 0 for v in block.flat()):
        return ((0,) * k, (0,) * n)
    jc = next(j for j in range(n) if any(block[r, j] for r in range(k)))
    u = block.col(jc)
    v = [0] * n
    for j in range(n):
        col = block.col(j)
        if all(x == 0 for x in col):
            continue
        if col == u:
            v[j] = 1
        elif col == tuple([-x for x in u]):
            v[j] = -1
        else:
            return None
    return (u, tuple(v))


def find_sum_decomposition(mat, limits=DEFAULT_LIMITS):
    """Exhaustive 1-/2-/3-sum separation with n_A, n_B >= 2.

    Scans row and column bipartitions in bitmask order, factors the
    off-diagonal blocks as rank-one products, and verifies total
    unimodularity of both bordered summands.  None when no separation
    exists; ScaleError above the dimension budget.
    """
    k, n = mat.nrows, mat.ncols
    if k + n > limits.sum_total_dim:
        raise ScaleError(f"separation search over {k}+{n} dimensions exceeds budget")
    if n < 4 or k < 2:
        return None
    best = {}
    for rmask in range(0, 1 << k):
        rows1 = [i for i in range(k) if rmask >> i & 1]
        rows2 = [i for i in range(k) if not rmask >> i & 1]
        if not rows1 or not rows2:
            continue
        for csize in range(2, n - 1):
            for cols1 in combinations(range(n), csize):
                cols2 = tuple([j for j in range(n) if j not in cols1])
                dec = _try_separation(mat, rows1, rows2, cols1, cols2)
                if dec is not None:
                    if dec.kind == 1:
                        return dec
                    best.setdefault(dec.kind, dec)
    for kind in (2, 3):
        if kind in best:
            return best[kind]
    return None


def _try_separation(mat, rows1, rows2, cols1, cols2):
    top_right = mat.submatrix(rows1, cols2)
    bottom_left = mat.submatrix(rows2, cols1)
    f1 = _rank1_factor(top_right)
    f2 = _rank1_factor(bottom_left)
    if f1 is None or f2 is None:
        return None
    e, f = f1
    g, h = f2
    tr_zero = all(v == 0 for v in top_right.flat())
    bl_zero = all(v == 0 for v in bottom_left.flat())
    if tr_zero and bl_zero:
        kind = 1
    elif bl_zero:
        kind = 2
    elif tr_zero:
        # mirror layout: swap the blocks so the zero block sits bottom-left
        return _try_separation(mat, rows2, rows1, cols2, cols1)
    else:
        kind = 3
    dec = SumDecomposition(
        kind,
        mat.submatrix(rows1, cols1),
        mat.submatrix(rows2, cols2),
        e,
        f,
        g,
        h,
        tuple(rows1) + tuple(rows2),
        tuple(cols1) + tuple(cols2),
    )
    if kind >= 2 and not is_totally_unimodular(dec.first_summand()):
        return None
    if kind >= 2 and not is_totally_unimodular(dec.second_summand()):
        return None
    return dec


# ---------------------------------------------------------------------------
# core reduction


@dataclass(frozen=True)
class CoreOp:
    """One deletion: axis 'row'/'col', position at deletion time, the deleted
    values, why it was deletable, and (for unit/duplicate deletions) the
    index of the partner row/column in the matrix after the deletion."""

    axis: str
    index: int
    values: tuple
    reason: str  # "unit" | "dup" | "negdup"
    partner: int = None
    sign: int = 0  # nonzero entry sign for "unit" deletions


def reduce_to_core(mat):
    """Iteratively delete unit rows/columns (at most one nonzero) and
    duplicate or negated-duplicate rows/columns; returns (core, op_log)."""
    rows = [list(r) for r in mat.rows]
    ncols = mat.ncols
    log = []
    changed = True
    while changed:
        changed = False
        k = len(rows)
        # unit rows
        for i in range(k):
            nz = [j for j in range(ncols) if rows[i][j] != 0]
            if len(nz) <= 1:
                partner = nz[0] if nz else None
                sign = rows[i][nz[0]] if nz else 0
                log.append(CoreOp("row", i, tuple(rows[i]), "unit", partner, sign))
                del rows[i]
                changed = True
                break
        if changed:
            continue
        # unit columns
        for j in range(ncols):
            nz = [i for i in range(len(rows)) if rows[i][j] != 0]
            if len(nz) <= 1:
                partner = nz[0] if nz else None
                sign = rows[nz[0]][j] if nz else 0
                log.append(CoreOp("col", j, tuple([r[j] for r in rows]), "unit", partner, sign))
                for r in rows:
                    del r[j]
                ncols -= 1
                changed = True
                break
        if changed:
            continue
        # duplicate / negated rows (delete the later twin)
        found = _find_twin([tuple(r) for r in rows])
        if found:
            keep, drop, reason = found
            log.append(CoreOp("row", drop, tuple(rows[drop]), reason, keep))
            del rows[drop]
            changed = True
            continue
        cols = [tuple([r[j] for r in rows]) for j in range(ncols)]
        found = _find_twin(cols)
        if found:
            keep, drop, reason = found
            log.append(CoreOp("col", drop, cols[drop], reason, keep))
            for r in rows:
                del r[drop]
            ncols -= 1
            changed = True
            continue
    core = IntMatrix(tuple([tuple(r) for r in rows]), ncols)
    return core, tuple(log)


def _find_twin(vecs):
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if vecs[b] == vecs[a]:
                return (a, b, "dup")
            if vecs[b] == tuple([-v for v in vecs[a]]):
                return (a, b, "negdup")
    return None


def replay_core_ops(core, log):
    """Undo a deletion log: re-insert rows/columns newest-first.  Recovers the
    original matrix exactly; the round trip is the correctness check for
    reduce_to_core."""
    rows = [list(r) for r in core.rows]
    ncols = core.ncols
    for op in reversed(log):
        if op.axis == "row":
            assert len(op.values) == ncols
            rows.insert(op.index, list(op.values))
        else:
            assert len(op.values) == len(rows)
            for i, r in enumerate(rows):
                r.insert(op.index, op.values[i])
            ncols += 1
    return IntMatrix(tuple([tuple(r) for r in rows]), ncols)


def matches_special_core(core):
    """True iff `core` equals one of the two closing 5x5 matrices up to row
    and column permutations and sign changes."""
    if core.nrows != 5 or core.ncols != 5:
        return False

    def signnorm(vec):
        nz = next((v for v in vec if v != 0), 1)
        return tuple([x * (1 if nz > 0 else -1) for x in vec])

    for target in SPECIAL_CORES:
        target_rows = sorted(signnorm(r) for r in target.rows)
        for perm in _permutations5():
            for signs in product((1, -1), repeat=5):
                variant_rows = []
                for r in core.rows:
                    variant_rows.append(signnorm(tuple([r[p] * s for p, s in zip(perm, signs)])))
                if sorted(variant_rows) == target_rows:
                    return True
    return False


def _permutations5():
    from itertools import permutations

    return permutations(range(5))


# ---------------------------------------------------------------------------
# network matrices


@dataclass(frozen=True)
class NetworkRepresentation:
    """Directed spanning tree plus column arcs realizing a matrix.

    Row i corresponds to tree_arcs[i], column j to col_arcs[j]; entry (i, j)
    is the signed crossing of tree arc i by the tree path between the
    endpoints of column arc j.  Self-loop column arcs give zero columns.
    """

    nvertices: int
    tree_arcs: tuple
    col_arcs: tuple

    def rebuild(self):
        adj = {v: [] for v in range(self.nvertices)}
        for idx, (a, b) in enumerate(self.tree_arcs):
            adj[a].append((b, idx, 1))
            adj[b].append((a, idx, -1))
        rows = len(self.tree_arcs)
        cols = []
        for (v, w) in self.col_arcs:
            col = [0] * rows
            for idx, sgn in tree_path(adj, v, w):
                col[idx] = sgn
            cols.append(col)
        return IntMatrix(
            tuple([tuple([col[i] for col in cols]) for i in range(rows)]), len(self.col_arcs)
        )


def tree_path(adj, v, w):
    """The (arc index, sign) steps of the forest path from v to w, in order;
    sign 1 walks an arc tail to head.  `adj` maps every vertex to its
    (neighbour, arc index, sign) entries."""
    if v == w:
        return []
    parent = {v: None}
    stack = [v]
    while stack:
        u = stack.pop()
        if u == w:
            break
        for (nb, idx, sgn) in adj[u]:
            if nb not in parent:
                parent[nb] = (u, idx, sgn)
                stack.append(nb)
    path = []
    u = w
    while parent[u] is not None:
        pu, idx, sgn = parent[u]
        path.append((idx, sgn))
        u = pu
    path.reverse()
    return path


def _pruefer_trees(nv):
    """All labeled trees on nv vertices as edge lists (undirected)."""
    if nv == 1:
        yield []
        return
    if nv == 2:
        yield [(0, 1)]
        return
    import heapq

    for seq in product(range(nv), repeat=nv - 2):
        degree = [1] * nv
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = [v for v in range(nv) if degree[v] == 1]
        heapq.heapify(leaves)
        seq_list = list(seq)
        for v in seq_list:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((u, w))
        yield edges


def _core_network_representation(mat, limits):
    """Brute-force tree search for a small core; exact, exponential in rows."""
    k, n = mat.nrows, mat.ncols
    if k == 0:
        return NetworkRepresentation(1, (), tuple([(0, 0) for _ in range(n)]))
    if k > limits.tree_rows:
        raise ScaleError(f"tree search over {k}-row core exceeds the cap")
    nv = k + 1
    cols = [mat.col(j) for j in range(n)]
    for edges in _pruefer_trees(nv):
        rep = _orient_tree_for(mat, cols, edges, nv)
        if rep is not None:
            return rep
    return None


def _orient_tree_for(mat, cols, edges, nv):
    """Try to realize `mat` on the given undirected tree.

    Each column's support must induce a path; arc orientations and column
    traversal directions must then satisfy parity constraints, solved by
    union-find with parity.  Verified by a final rebuild.
    """
    k = len(edges)
    n = len(cols)
    incident = {v: [] for v in range(nv)}
    for idx, (a, b) in enumerate(edges):
        incident[a].append((b, idx))
        incident[b].append((a, idx))
    # union-find with parity over k edge-orientation variables + n column flips
    parent = list(range(k + n))
    par = [0] * (k + n)

    def find(x):
        trail = []
        while parent[x] != x:
            trail.append(x)
            x = parent[x]
        p = 0
        for t in reversed(trail):
            p ^= par[t]
            parent[t] = x
            par[t] = p
        return x

    def parity(x):
        find(x)
        return par[x] if parent[x] != x else 0

    def union(x, y, rel):
        rx, ry = find(x), find(y)
        px = par[x] if parent[x] != x else 0
        py = par[y] if parent[y] != y else 0
        if rx == ry:
            return (px ^ py) == rel
        parent[rx] = ry
        par[rx] = px ^ py ^ rel
        return True

    col_paths = []
    for j, col in enumerate(cols):
        support = [i for i in range(k) if col[i] != 0]
        if not support:
            col_paths.append(None)
            continue
        path = _support_path(support, edges, incident)
        if path is None:
            return None
        col_paths.append(path)
        for (edge_idx, forward_along) in path[1]:
            # orientation variable o[edge]: 0 means the arc is (a, b) as stored.
            # entry +1 wants traversal direction == arc direction
            desired = 0 if mat[edge_idx, j] == 1 else 1
            rel = (0 if forward_along else 1) ^ desired
            if not union(edge_idx, k + j, rel):
                return None
    tree_arcs = []
    for idx, (a, b) in enumerate(edges):
        tree_arcs.append((a, b) if parity(idx) == 0 else (b, a))
    col_arcs = []
    for j, info in enumerate(col_paths):
        if info is None:
            col_arcs.append((0, 0))
            continue
        (u, w), _ = info
        col_arcs.append((u, w) if parity(k + j) == 0 else (w, u))
    rep = NetworkRepresentation(nv, tuple(tree_arcs), tuple(col_arcs))
    if rep.rebuild().rows != mat.rows:
        return None
    return rep


def _support_path(support, edges, incident):
    """If the support edges form a path, return ((u, w), [(edge, forward)]):
    endpoints and the edge sequence walked from u to w with per-edge
    direction flags (forward = traversed tail-to-head as stored)."""
    sset = set(support)
    degree = {}
    for i in support:
        for v in edges[i]:
            degree[v] = degree.get(v, 0) + 1
    ends = [v for v, d in degree.items() if d == 1]
    if len(support) == 1:
        a, b = edges[support[0]]
        return ((a, b), [(support[0], True)])
    if len(ends) != 2 or any(d > 2 for d in degree.values()):
        return None
    u, w = min(ends), max(ends)
    seq = []
    cur = u
    used = set()
    while cur != w:
        step = None
        for (nb, idx) in incident[cur]:
            if idx in sset and idx not in used:
                step = (nb, idx)
                break
        if step is None:
            return None
        nb, idx = step
        a, b = edges[idx]
        seq.append((idx, (a, b) == (cur, nb)))
        used.add(idx)
        cur = nb
    if len(seq) != len(support):
        return None  # support is disconnected
    return ((u, w), seq)


def _extend_representation(rep, op):
    """Insert one logged deletion back into a network representation."""
    nv = rep.nvertices
    tree = list(rep.tree_arcs)
    cols = list(rep.col_arcs)
    if op.axis == "row":
        if op.reason == "unit":
            z = nv
            nv += 1
            if op.partner is None:
                # zero row: a leaf arc no column path can cross
                tree.insert(op.index, (0, z))
            else:
                # reroute the partner column's tail through a fresh leaf arc
                v, w = cols[op.partner]
                tree.insert(op.index, (z, v) if op.sign == 1 else (v, z))
                cols[op.partner] = (z, w)
        else:
            # duplicate or negated row: subdivide the kept twin's arc;
            # the kept row's index is unchanged by deleting the later twin
            a, b = tree[op.partner]
            z = nv
            nv += 1
            tree[op.partner] = (a, z)
            tree.insert(op.index, (z, b) if op.reason == "dup" else (b, z))
    else:
        if op.reason == "unit":
            if op.partner is None:
                cols.insert(op.index, (0, 0))
            else:
                a, b = tree[op.partner]
                cols.insert(op.index, (a, b) if op.sign == 1 else (b, a))
        else:
            v, w = cols[op.partner]
            cols.insert(op.index, (v, w) if op.reason == "dup" else (w, v))
    return NetworkRepresentation(nv, tuple(tree), tuple(cols))


def recognize_network_matrix(mat, limits=DEFAULT_LIMITS):
    """A NetworkRepresentation whose rebuild equals `mat`, or None.

    Entries must lie in {-1, 0, 1}.  Reduces to the core, solves the core by
    tree enumeration, replays the reduction log as graph extensions, and
    certifies the result by rebuilding.
    """
    if any(v not in (-1, 0, 1) for v in mat.flat()):
        return None
    if mat.nrows > limits.recognize_rows:
        raise ScaleError(f"{mat.nrows} rows exceed the recognition cap")
    core, log = reduce_to_core(mat)
    rep = _core_network_representation(core, limits)
    if rep is None:
        return None
    for op in reversed(log):
        rep = _extend_representation(rep, op)
    if rep.rebuild().rows != mat.rows:
        return None
    return rep


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    tag: str  # "network" | "transposed_network" | "constant_core" | "sum" | "pivot_then_sum"
    network: NetworkRepresentation = None
    core: IntMatrix = None
    core_log: tuple = None
    sum: SumDecomposition = None
    pivot_at: tuple = None


def classify(tu, limits=DEFAULT_LIMITS):
    """Structural classification of a TU matrix with a verifiable witness.

    Raises ScaleError when the instance defeats every desk-scale search; the
    top-level solver routes those to the brute-force oracle.
    """
    mat = tu.matrix if isinstance(tu, TUMatrix) else tu
    try:
        rep = recognize_network_matrix(mat, limits)
    except ScaleError:
        rep = None
    if rep is not None:
        return Classification("network", network=rep)
    try:
        rep_t = recognize_network_matrix(mat.transpose(), limits)
    except ScaleError:
        rep_t = None
    if rep_t is not None:
        return Classification("transposed_network", network=rep_t)
    core, log = reduce_to_core(mat)
    if matches_special_core(core):
        return Classification("constant_core", core=core, core_log=log)
    dec = find_sum_decomposition(mat, limits)
    if dec is not None:
        return Classification("sum", sum=dec)
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            if mat[i, j] in (-1, 1):
                dec = find_sum_decomposition(pivot(mat, i, j), limits)
                if dec is not None:
                    return Classification("pivot_then_sum", sum=dec, pivot_at=(i, j))
    raise ScaleError("classification failed within desk-scale search budgets")


# ---------------------------------------------------------------------------
# pivot transformation of instances


@dataclass(frozen=True)
class PivotMaps:
    """x = Q y for the unimodular column-operation matrix Q."""

    Q: IntMatrix
    Qinv: IntMatrix

    def to_original(self, y):
        return self.Q.mul_vec(y)

    def to_pivoted(self, x):
        return self.Qinv.mul_vec(x)


def pivot_transform_instance(inst, i, j):
    """Rewrite the instance over the pivoted matrix with one extra variable
    bound, preserving solutions bijectively.

    Substitutes x = Q y where Q clears the pivot row to a unit row; the extra
    bound on y_j comes from the bounded-scalar-product window for the unit
    direction e_j, which keeps feasibility unchanged.
    """
    mat = inst.P.T.matrix
    n = mat.ncols
    eps = mat[i, j]
    if eps not in (-1, 1):
        raise ValueError("pivot entry must be +1 or -1")
    d = tuple([1 if t == j else 0 for t in range(n)])
    bounds, _ = bound_scalar_products(inst, [d])
    (_, u), = bounds.bounds
    # Q: column j scaled by eps; column c (c != j) gets -eps*T[i,c] in row j
    Q = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    Qinv = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    Q[j][j] = eps
    Qinv[j][j] = eps
    for c in range(n):
        if c != j:
            Q[j][c] = -eps * mat[i, c]
            Qinv[j][c] = mat[i, c]
    Qm = IntMatrix(tuple([tuple(r) for r in Q]))
    Qinvm = IntMatrix(tuple([tuple(r) for r in Qinv]))
    new_rows = []
    for r in range(mat.nrows):
        new_rows.append(tuple([sum(mat[r, t] * Qm[t, c] for t in range(n)) for c in range(n)]))
    bound_row = tuple([eps if c == j else -eps * mat[i, c] for c in range(n)])
    new_rows.append(bound_row)
    new_b = inst.P.b + (u,)
    new_gamma = tuple([sum(inst.gamma[t] * Qm[t, c] for t in range(n)) for c in range(n)])
    new_c = None
    if inst.c is not None:
        new_c = tuple([sum(inst.c[t] * Qm[t, c] for t in range(n)) for c in range(n)])
    new_P = Polyhedron(TUMatrix.trusted(IntMatrix(tuple(new_rows))), new_b)
    transformed = RCctufInstance(new_P, new_gamma, inst.m, inst.R, new_c)
    return transformed, PivotMaps(Qm, Qinvm)
