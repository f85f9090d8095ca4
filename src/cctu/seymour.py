"""Sum decompositions of TU matrices, pivoting, network-matrix recognition,
and the desk-scale classifier.  Core reduction (`reduce_to_core`,
`kept_indices`) lives in `matrices`, which certifies TU-ness on the core;
it is imported here, where recognition and classification use it.

Recognition strategy: a matrix is a network matrix iff its core is, because
unit/duplicate/negated rows and columns map to leaf arcs, subdivisions,
parallel arcs, and reversals on the graph side.  So we strip the matrix to
its core, brute-force a tree representation of the small core over
Pruefer-enumerated trees with an orientation parity check, and extend it to
the full matrix from the reduction log: each entry names a deleted row or
column of the input and the input line it stems from, so re-adding the
entries newest first assigns that line's arc by index.  Every positive
answer is certified by an exact rebuild.

Per tree, each column's support is a bitmask of tree edges.  `_path_ends`
tests it against per-vertex incidence masks: the edges form one path iff no
vertex meets more than two of them and exactly two vertices meet one, and
those two are the path's ends.  A tree on which some support is not a path
is skipped.  Otherwise each column is walked from end to end by `tree_path`,
the same walk that rebuilds a matrix from its representation (and that the
generators use to draw network matrices), and its steps give the parity
constraints.

Classification runs from most to least structured: network matrix or
transpose, constant core, 1-/2-/3-sum separation (exhaustive bipartition
search within a budget), then one pivot followed by a sum separation.  The
separation search judges each bipartition on sign-normalised column keys and
runs TU checks only on candidates that could be returned.
"""

import heapq
from dataclasses import dataclass
from itertools import combinations, permutations, product

from . import lp
from .errors import DimensionError, ScaleError
from .matrices import IntMatrix, TUMatrix, is_totally_unimodular, kept_indices, reduce_to_core
from .polyhedra import Polyhedron, RCctufInstance
from .structure import bound_scalar_products


SUM_TOTAL_DIM = 14  # row+column budget for bipartition search
TREE_ROWS = 7  # core rows for the spanning-tree enumeration; bounds recognition cost

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
    back.  `lp.pivot` computes every column but j, which is then set to
    (-eps; eps q).
    Pivoting preserves total unimodularity in both directions.
    """
    eps = mat[i, j]
    if eps not in (-1, 1):
        raise ValueError("pivot entry must be +1 or -1")
    rows = [list(r) for r in mat.rows]
    lp.pivot(rows, i, j)
    for r, row in enumerate(rows):
        row[j] = -eps if r == i else eps * mat[r, j]
    return IntMatrix(tuple([tuple(row) for row in rows]))


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


def find_sum_decomposition(mat):
    """Exhaustive 1-/2-/3-sum separation with n_A, n_B >= 2.

    Scans row bipartitions in bitmask order and column bipartitions in
    `combinations` order.  An off-diagonal block is zero or rank one iff the
    sign-normalised keys of its nonzero columns agree, so each candidate is
    judged on per-row-mask column keys, without building a submatrix.  The
    first 1-sum is returned at once.  Otherwise the 2-sum candidates, then
    the 3-sum candidates, are built in scan order, and the first whose
    bordered summands are both TU is returned: TU checks run only on
    candidates that could be returned.  None when no separation exists;
    ScaleError above the dimension budget.
    """
    k, n = mat.nrows, mat.ncols
    if k + n > SUM_TOTAL_DIM:
        raise ScaleError(f"separation search over {k}+{n} dimensions exceeds budget")
    if n < 4 or k < 2:
        return None
    splits = []
    for csize in range(2, n - 1):
        for cols1 in combinations(range(n), csize):
            cols2 = tuple([j for j in range(n) if j not in cols1])
            splits.append((cols1, cols2, sum([1 << j for j in cols1])))
    later = {2: [], 3: []}
    for rmask in range(1, (1 << k) - 1):
        rows1 = [i for i in range(k) if rmask >> i & 1]
        rows2 = [i for i in range(k) if not rmask >> i & 1]
        nz1, class1 = _column_classes(mat, rows1)
        nz2, class2 = _column_classes(mat, rows2)
        for cols1, cols2, cmask in splits:
            top_right = nz1 & ~cmask
            if top_right and top_right & ~class1[top_right & -top_right]:
                continue
            bottom_left = nz2 & cmask
            if bottom_left and bottom_left & ~class2[bottom_left & -bottom_left]:
                continue
            if not bottom_left:
                if not top_right:
                    return _sum_at(mat, 1, rows1, rows2, cols1, cols2)
                later[2].append((rows1, rows2, cols1, cols2))
            elif not top_right:
                # mirror layout: swap the blocks so the zero block sits bottom-left
                later[2].append((rows2, rows1, cols2, cols1))
            else:
                later[3].append((rows1, rows2, cols1, cols2))
    for kind in (2, 3):
        for parts in later[kind]:
            dec = _sum_at(mat, kind, *parts)
            if is_totally_unimodular(dec.first_summand()) and is_totally_unimodular(
                dec.second_summand()
            ):
                return dec
    return None


def _column_classes(mat, rows):
    """(nonzero, classes) for the columns of `mat` restricted to `rows`:
    `nonzero` is the bitmask of nonzero columns, and `classes` maps each
    nonzero column's bit to the bitmask of the columns with the same
    sign-normalised key (equal or negated entries)."""
    keys = {}
    bits = []
    for j in range(mat.ncols):
        col = tuple([mat.rows[i][j] for i in rows])
        lead = next((v for v in col if v), 0)
        if lead:
            key = col if lead > 0 else tuple([-v for v in col])
            keys[key] = keys.get(key, 0) | 1 << j
            bits.append((1 << j, key))
    return sum([bit for bit, _ in bits]), {bit: keys[key] for bit, key in bits}


def _sum_at(mat, kind, rows1, rows2, cols1, cols2):
    """The SumDecomposition of `kind` on the given row and column split."""
    e, f = _rank1_factor(mat.submatrix(rows1, cols2))
    g, h = _rank1_factor(mat.submatrix(rows2, cols1))
    return SumDecomposition(
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
        for perm in permutations(range(5)):
            for signs in product((1, -1), repeat=5):
                variant_rows = []
                for r in core.rows:
                    variant_rows.append(signnorm(tuple([r[p] * s for p, s in zip(perm, signs)])))
                if sorted(variant_rows) == target_rows:
                    return True
    return False


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
        adj = tree_adjacency(self.nvertices, self.tree_arcs)
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


def tree_adjacency(nv, arcs):
    """Each vertex's (neighbour, arc index, sign) entries, the form
    `tree_path` walks; sign 1 leaves an arc's tail."""
    adj = [[] for _ in range(nv)]
    for idx, (a, b) in enumerate(arcs):
        adj[a].append((b, idx, 1))
        adj[b].append((a, idx, -1))
    return adj


def _incidence_masks(nv, edges):
    """incident[v]: the bitmask of the edges at vertex v."""
    incident = [0] * nv
    for idx, (a, b) in enumerate(edges):
        incident[a] |= 1 << idx
        incident[b] |= 1 << idx
    return incident


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


def _core_network_representation(mat):
    """Brute-force tree search for a small core; exact, exponential in rows."""
    k, n = mat.nrows, mat.ncols
    if k == 0:
        return NetworkRepresentation(1, (), tuple([(0, 0) for _ in range(n)]))
    if k > TREE_ROWS:
        raise ScaleError(f"tree search over {k}-row core exceeds the cap")
    nv = k + 1
    cols = [mat.col(j) for j in range(n)]
    # row bitmasks of the supports that need a path of two or more tree edges
    supports = {sum([1 << i for i in range(k) if col[i]]) for col in cols}
    supports = [s for s in supports if s & (s - 1)]
    for edges in _pruefer_trees(nv):
        incident = _incidence_masks(nv, edges)
        if not all(_path_ends(s, incident) for s in supports):
            continue
        rep = _orient_tree_for(mat, cols, edges, nv)
        if rep is not None:
            return rep
    return None


def _path_ends(support, incident):
    """The two ends, ascending, of the path that the tree edges in the bitmask
    `support` form, or None when they form no path.  In a forest they form
    one iff no vertex meets more than two of them and exactly two vertices
    meet one; `incident[v]` is the bitmask of edges at v."""
    ends = []
    for v, edges_at in enumerate(incident):
        d = (edges_at & support).bit_count()
        if d == 1:
            ends.append(v)
        elif d > 2:
            return None
    return tuple(ends) if len(ends) == 2 else None


def _orient_tree_for(mat, cols, edges, nv):
    """Try to realize `mat` on the given undirected tree.

    Each column's support must induce a path; arc orientations and column
    traversal directions must then satisfy parity constraints, solved by
    union-find with parity.  Verified by a final rebuild.
    """
    k = len(edges)
    n = len(cols)
    incident = _incidence_masks(nv, edges)
    adj = tree_adjacency(nv, edges)
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

    col_ends = []
    for j, col in enumerate(cols):
        support = sum([1 << i for i in range(k) if col[i]])
        if not support:
            col_ends.append(None)
            continue
        if support & (support - 1):
            ends = _path_ends(support, incident)  # walked from its lower end
        else:
            ends = edges[support.bit_length() - 1]  # one edge, walked as stored
        if ends is None:
            return None
        col_ends.append(ends)
        for (edge_idx, sgn) in tree_path(adj, *ends):
            # orientation variable o[edge]: 0 means the arc is (a, b) as stored.
            # entry +1 wants traversal direction == arc direction
            desired = 0 if mat[edge_idx, j] == 1 else 1
            rel = (0 if sgn == 1 else 1) ^ desired
            if not union(edge_idx, k + j, rel):
                return None
    tree_arcs = []
    for idx, (a, b) in enumerate(edges):
        tree_arcs.append((a, b) if parity(idx) == 0 else (b, a))
    col_arcs = []
    for j, ends in enumerate(col_ends):
        if ends is None:
            col_arcs.append((0, 0))
        else:
            u, w = ends
            col_arcs.append((u, w) if parity(k + j) == 0 else (w, u))
    rep = NetworkRepresentation(nv, tuple(tree_arcs), tuple(col_arcs))
    if rep.rebuild().rows != mat.rows:
        return None
    return rep


def _extend_representation(rep, mat, log):
    """Extend a network representation of the core of `mat` to `mat` itself
    by re-adding the logged deletions newest first, keyed by input index."""
    kept_rows, kept_cols = kept_indices(mat, log)
    nv = rep.nvertices
    tree = dict(zip(kept_rows, rep.tree_arcs))
    cols = dict(zip(kept_cols, rep.col_arcs))
    for op in reversed(log):
        if op.axis == "row":
            z = nv
            nv += 1
            if op.reason != "unit":
                # duplicate or negated row: subdivide the earlier twin's arc
                a, b = tree[op.partner]
                tree[op.partner] = (a, z)
                tree[op.index] = (z, b) if op.reason == "dup" else (b, z)
            elif op.partner is None:
                # zero row: a leaf arc no column path can cross
                tree[op.index] = (0, z)
            else:
                # reroute the partner column's tail through a fresh leaf arc
                v, w = cols[op.partner]
                tree[op.index] = (z, v) if op.sign == 1 else (v, z)
                cols[op.partner] = (z, w)
        elif op.reason != "unit":
            v, w = cols[op.partner]
            cols[op.index] = (v, w) if op.reason == "dup" else (w, v)
        elif op.partner is None:
            cols[op.index] = (0, 0)
        else:
            a, b = tree[op.partner]
            cols[op.index] = (a, b) if op.sign == 1 else (b, a)
    return NetworkRepresentation(
        nv,
        tuple([tree[i] for i in range(mat.nrows)]),
        tuple([cols[j] for j in range(mat.ncols)]),
    )


def recognize_network_matrix(mat):
    """A NetworkRepresentation whose rebuild equals `mat`, or None.

    Entries must lie in {-1, 0, 1}.  Reduces to the core, solves the core by
    tree enumeration, re-adds the logged deletions as graph extensions, and
    certifies the result by rebuilding.  Raises ScaleError when the core has
    more than TREE_ROWS rows.
    """
    if any(v not in (-1, 0, 1) for v in mat.flat()):
        return None
    core, log = reduce_to_core(mat)
    rep = _core_network_representation(core)
    if rep is None:
        return None
    rep = _extend_representation(rep, mat, log)
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
    sum: SumDecomposition = None
    pivot_at: tuple = None


def classify(mat):
    """Structural classification of a TU `IntMatrix` with a verifiable witness.

    Raises ScaleError when the instance defeats every desk-scale search; the
    top-level solver routes those to the brute-force oracle.
    """
    try:
        rep = recognize_network_matrix(mat)
    except ScaleError:
        rep = None
    if rep is not None:
        return Classification("network", network=rep)
    try:
        rep_t = recognize_network_matrix(mat.transpose())
    except ScaleError:
        rep_t = None
    if rep_t is not None:
        return Classification("transposed_network", network=rep_t)
    core, _ = reduce_to_core(mat)
    if matches_special_core(core):
        return Classification("constant_core", core=core)
    dec = find_sum_decomposition(mat)
    if dec is not None:
        return Classification("sum", sum=dec)
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            if mat[i, j] in (-1, 1):
                dec = find_sum_decomposition(pivot(mat, i, j))
                if dec is not None:
                    return Classification("pivot_then_sum", sum=dec, pivot_at=(i, j))
    raise ScaleError("classification failed within desk-scale search budgets")


# ---------------------------------------------------------------------------
# pivot transformation of instances


def pivot_transform_instance(inst, i, j):
    """Rewrite the instance over the pivoted matrix with one extra variable
    bound, preserving solutions bijectively.

    Substitutes x = Q y where Q clears the pivot row to a unit row; the extra
    bound on y_j comes from the bounded-scalar-product window for the unit
    direction e_j, which keeps feasibility unchanged.  Returns (transformed
    instance, Q); a solution y of the transformed instance maps back to the
    solution Q.mul_vec(y) of `inst`.  Q is unimodular: its integer inverse is
    the identity with row j replaced by the pivot row.  Raises ValueError
    when `inst` has an objective: the caller owns it.
    """
    if inst.c is not None:
        raise ValueError("pivoting takes feasibility instances; the caller owns the objective")
    mat = inst.P.T.matrix
    n = mat.ncols
    # pivoting (T; gamma) on (i, j) gives T Q and gamma Q, except that row i
    # of T Q is e_j; Q is the identity with row j replaced by the negated
    # pivot row, which is also the bound row on y_j
    pivoted = pivot(IntMatrix(mat.rows + (inst.gamma,), n), i, j).rows
    q_row = tuple([-v for v in pivoted[i]])
    eye = IntMatrix.identity(n).rows
    ((_, u),), _ = bound_scalar_products(inst, [eye[j]])
    Q = IntMatrix(eye[:j] + (q_row,) + eye[j + 1:], n)
    new_rows = pivoted[:i] + (eye[j],) + pivoted[i + 1:-1] + (q_row,)
    new_P = Polyhedron(TUMatrix.trusted(IntMatrix(new_rows, n)), inst.P.b + (u,))
    transformed = RCctufInstance(new_P, pivoted[-1], inst.m, inst.R)
    return transformed, Q
