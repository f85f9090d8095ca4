"""Reference implementations that the tests compare the solver against.

A Laplace-expansion determinant, brute-force definitions of TU-appendable
rows and elementary vectors, the special-core match, the core-reduction
scan as it first stood, a scan of a whole box and the optimum over the LP
bounding box that it gives, and `certified`, which wraps a matrix the tests
build by hand once it is checked TU.  The library never calls them; they
are oracles, kept next to the tests that use them.
"""

from functools import lru_cache
from itertools import permutations, product
from operator import mul

from cctu.errors import DimensionError, ScaleError
from cctu.matrices import CoreOp, IntMatrix, TUMatrix, is_totally_unimodular
from cctu.polyhedra import lp_range
from cctu.seymour import SPECIAL_CORES

ELEMENTARY_ENUM_CAP = 14  # hard cap on 3^n candidate-row enumeration


def certified(mat):
    """`TUMatrix.trusted(mat)` once `mat` is checked TU; raises ValueError
    on a matrix that is not."""
    if not is_totally_unimodular(mat):
        raise ValueError("matrix is not totally unimodular")
    return TUMatrix.trusted(mat)


@lru_cache(maxsize=100_000)
def cofactor_det(mat):
    """Independent determinant oracle: Laplace expansion along the first row,
    memoized on the matrix so that the minors of one matrix are expanded
    once."""
    n = mat.nrows
    if n == 0:
        return 1
    if n == 1:
        return mat[0, 0]
    total = 0
    cols = list(range(n))
    for j in range(n):
        minor = mat.submatrix(range(1, n), [cc for cc in cols if cc != j])
        total += (-1) ** j * mat[0, j] * cofactor_det(minor)
    return total


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


def _signnorm(vec):
    nz = next((v for v in vec if v != 0), 1)
    return tuple([x * (1 if nz > 0 else -1) for x in vec])


@lru_cache(maxsize=None)
def _special_core_forms():
    # every column permutation and column signing of each special core, as
    # its sorted sign-normalised rows (which forget row order and row signs)
    forms = set()
    for target in SPECIAL_CORES:
        for perm in permutations(range(5)):
            for signs in product((1, -1), repeat=5):
                forms.add(
                    tuple(sorted(_signnorm(tuple([r[p] * s for p, s in zip(perm, signs)])) for r in target.rows))
                )
    return frozenset(forms)


def matches_special_core(core):
    """True iff `core` equals one of the two special 5x5 cores up to row and
    column permutations and sign changes.

    Brute force over all 2 x 120 x 32 signed column permutations with no
    pruning.  They are applied to the special cores, once, rather than to
    `core`; signed permutations form a group, so the answer is the same.
    """
    if core.nrows != 5 or core.ncols != 5:
        return False
    return tuple(sorted(_signnorm(r) for r in core.rows)) in _special_core_forms()


def scan_lines(axis, lines, live, across, log):
    """`matrices._scan` with each line's sign found from its first nonzero
    and one sign-normalised key per kept line; the library's scan must log
    the same deletions."""
    kept = []
    seen = {}
    for i in live:
        line = lines[i]
        vec = line if len(line) == len(across) else tuple([line[j] for j in across])
        if len(vec) - vec.count(0) <= 1:
            t = next((t for t, v in enumerate(vec) if v), None)
            if t is None:
                log.append(CoreOp(axis, i, "unit"))
            else:
                log.append(CoreOp(axis, i, "unit", across[t], vec[t]))
            continue
        sign = 1 if next(v for v in vec if v) > 0 else -1
        key = vec if sign == 1 else tuple([-v for v in vec])
        twin = seen.get(key)
        if twin is None:
            seen[key] = (i, sign)
            kept.append(i)
        else:
            log.append(CoreOp(axis, i, "dup" if twin[1] == sign else "negdup", twin[0]))
    return kept


def full_box(rows, b, gamma, m, rmask, lo, hi, c):
    """Every point of the box in lexicographic order: the first feasible one
    without `c`, the first of the cheapest with it."""
    best = (False, None, 0)
    for x in product(*[range(lv, hv + 1) for lv, hv in zip(lo, hi)]):
        if any(sum(map(mul, r, x)) > bv for r, bv in zip(rows, b)):
            continue
        if not (rmask >> (sum(map(mul, gamma, x)) % m)) & 1:
            continue
        if c is None:
            return (True, list(x), 0)
        value = sum(map(mul, c, x))
        if not best[0] or value < best[2]:
            best = (True, list(x), value)
    return best


def full_box_optimum(inst):
    """The answer to an objective instance over a bounded relaxation, by
    scanning its LP bounding box (`lp_range` of each coordinate) point by
    point: ("feasible", value) or ("infeasible", None).  Rests on no
    proximity bound."""
    n = inst.nvars
    spans = [lp_range(inst.P, tuple([int(i == j) for j in range(n)])) for i in range(n)]
    if None in spans:
        return ("infeasible", None)
    if any(lo is None or hi is None for lo, hi in spans):
        raise ValueError("the relaxation is unbounded")
    rmask = sum(1 << r for r in inst.R)
    found, _x, value = full_box(
        inst.P.T.matrix.rows, inst.P.b, inst.gamma, inst.m, rmask,
        [lo for lo, _ in spans], [hi for _, hi in spans], inst.c,
    )
    return ("feasible", value) if found else ("infeasible", None)
