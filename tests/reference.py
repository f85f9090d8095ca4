"""Reference implementations that the tests compare the solver against.

Brute-force definitions of TU-appendable rows and elementary vectors, the
circulation reduction's forward map, and `certified`, which wraps a matrix
the tests build by hand once it is checked TU.  The library never calls
them; they are oracles, kept next to the tests that use them.
"""

from itertools import product

from cctu.errors import DimensionError, ScaleError
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular
from cctu.seymour import tree_adjacency, tree_path

ELEMENTARY_ENUM_CAP = 14  # hard cap on 3^n candidate-row enumeration


def certified(mat):
    """`TUMatrix.trusted(mat)` once `mat` is checked TU; raises ValueError
    on a matrix that is not."""
    if not is_totally_unimodular(mat):
        raise ValueError("matrix is not totally unimodular")
    return TUMatrix.trusted(mat)


def is_tu_appendable(tu, d):
    """True iff appending the row d^T to `tu` keeps the matrix TU."""
    mat = tu.matrix if isinstance(tu, TUMatrix) else tu
    if len(d) != mat.ncols:
        raise DimensionError("appended row length mismatch")
    if any(v not in (-1, 0, 1) for v in d):
        return False
    return is_totally_unimodular(IntMatrix(mat.rows + (tuple(d),), mat.ncols))


def tu_appendable_rows(tu):
    """All rows d in {-1,0,1}^n that are TU-appendable, in lexicographic order;
    capped at ELEMENTARY_ENUM_CAP columns."""
    mat = tu.matrix if isinstance(tu, TUMatrix) else tu
    n = mat.ncols
    if n > ELEMENTARY_ENUM_CAP:
        raise ScaleError(f"3^{n} candidate rows exceeds the enumeration cap")
    return [d for d in product((-1, 0, 1), repeat=n) if is_tu_appendable(mat, d)]


def is_elementary(tu, x):
    """True iff d^T x is in {-1, 0, 1} for every TU-appendable row d.

    Decided by enumerating candidate rows in {-1,0,1}^n and filtering by
    TU-appendability, capped at ELEMENTARY_ENUM_CAP variables.
    """
    mat = tu.matrix if isinstance(tu, TUMatrix) else tu
    if len(x) != mat.ncols:
        raise DimensionError("vector length mismatch")
    n = len(x)
    if n > ELEMENTARY_ENUM_CAP:
        raise ScaleError(f"3^{n} candidate rows exceeds the enumeration cap")
    for d in product((-1, 0, 1), repeat=n):
        if sum(a * v for a, v in zip(d, x)) in (-1, 0, 1):
            continue
        if is_tu_appendable(mat, d):
            return False
    return True


def solution_to_circulation(ccc, rep, xhat):
    """Forward mapping: a normalized solution (entries in {0..m-1}) to a
    feasible circulation of equal residue.

    Routes x(e) units along the reverse column arc and its tree path, then
    cancels flow on antiparallel tree-arc pairs; feasibility of x within the
    proximity box makes the capacities work out.
    """
    ntree = len(rep.tree_arcs)
    flows = [0] * len(ccc.arcs)
    adj = tree_adjacency(rep.nvertices, rep.tree_arcs)
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
