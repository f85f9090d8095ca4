"""Exact integer matrices and total-unimodularity certification.

Conventions:
  - matrices are immutable, row-major tuples of tuples of Python ints;
  - a matrix is TU iff every square submatrix has determinant in {-1, 0, 1};
  - certification is exact.  Entries are checked first: all must lie in
    {-1, 0, 1}.  The matrix is then reduced to its core (`reduce_to_core`):
    deleting a row or column with at most one nonzero entry, or one that
    repeats or negates another, leaves TU-ness unchanged (Schrijver 1986,
    Theory of Linear and Integer Programming, 19.1).  The reduction log
    names input indices, so the core is the submatrix on the rows and
    columns the log does not name (`kept_indices`).  The core gets the
    exhaustive subdeterminant scan when its smaller dimension is at most
    EXHAUSTIVE_CAP, the Ghouila-Houri signing criterion beyond that.  The
    entry check must come first, since the reduction would delete a unit
    row such as (2, 0).

TU verdicts are memoized on the entry tuple; the fuzz harness re-checks the
same small matrices constantly.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import kernels
from .errors import DimensionError

EXHAUSTIVE_CAP = 8  # exhaustive subdeterminant scan up to this order


@dataclass(frozen=True)
class IntMatrix:
    """Dense exact integer matrix of shape nrows x ncols.

    `rows` is kept as given, a tuple of tuples of Python ints (`fileio`
    turns text into ints); other rows raise TypeError.  `ncols` defaults to
    the length of the first row; pass it whenever the row list can be empty,
    so that a 0 x n matrix keeps its width.
    """

    rows: tuple
    ncols: int = None

    def __post_init__(self):
        rows = self.rows
        if type(rows) is not tuple or not all(type(r) is tuple for r in rows):
            raise TypeError("matrix rows must be a tuple of tuples")
        n = self.ncols
        if n is None:
            n = len(rows[0]) if rows else 0
            object.__setattr__(self, "ncols", n)
        if any(len(r) != n for r in rows):
            raise DimensionError(f"rows of a matrix with {n} columns differ in length")

    @property
    def nrows(self):
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return tuple([r[j] for r in self.rows])

    def flat(self):
        return [v for r in self.rows for v in r]

    def transpose(self):
        return IntMatrix(tuple([self.col(j) for j in range(self.ncols)]), self.nrows)

    def submatrix(self, row_idx, col_idx):
        return IntMatrix(
            tuple([tuple([self.rows[i][j] for j in col_idx]) for i in row_idx]), len(col_idx)
        )

    def mul_vec(self, x):
        if len(x) != self.ncols:
            raise DimensionError("vector length mismatch")
        return tuple([sum(map(mul, r, x)) for r in self.rows])

    @staticmethod
    def identity(n):
        return IntMatrix(
            tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)]), n
        )


# ---------------------------------------------------------------------------
# core reduction


class CoreOp(NamedTuple):
    """One deletion from `reduce_to_core`.  `index` is the deleted row or
    column of the input; `partner` is the input index of the line it stems
    from: the sole nonzero's column (row) of a "unit" row (column), with that
    entry's `sign`, or the earlier copy a "dup"/"negdup" line repeats or
    negates.  A unit line with no nonzero has no partner."""

    axis: str  # "row" | "col"
    index: int
    reason: str  # "unit" | "dup" | "negdup"
    partner: int = None
    sign: int = 0


def reduce_to_core(mat):
    """Delete unit rows/columns (at most one nonzero) and rows/columns that
    repeat or negate an earlier one until none is left; returns (core, log).

    Each scan looks at every live row, or every live column, on the live
    lines of the other axis; rows and columns alternate until a scan deletes
    nothing.  The core is the submatrix on the indices the log does not name
    (`kept_indices`), and the log lists the deletions in the order made.
    """
    # rows and columns as tuples; zip over no rows would drop the columns
    lines = (mat.rows, list(zip(*mat.rows)) if mat.nrows else [()] * mat.ncols)
    live = [list(range(mat.nrows)), list(range(mat.ncols))]
    log = []
    axis, first = 0, True
    while True:
        kept = _scan(("row", "col")[axis], lines[axis], live[axis], live[1 - axis], log)
        if len(kept) == len(live[axis]) and not first:
            break
        live[axis] = kept
        axis, first = 1 - axis, False
    return (mat.submatrix(*live) if log else mat), tuple(log)


def _scan(axis, lines, live, across, log):
    """Log the unit lines among `live` and each line whose entries on
    `across` repeat or negate an earlier one's; returns the other lines."""
    kept = []
    seen = {}  # both orientations of each kept line -> (index, reason)
    for i in live:
        line = lines[i]
        # `across` is ascending, so at full length it is every index
        vec = line if len(line) == len(across) else tuple([line[j] for j in across])
        if len(vec) - vec.count(0) <= 1:
            for t, v in enumerate(vec):
                if v:
                    log.append(CoreOp(axis, i, "unit", across[t], v))
                    break
            else:
                log.append(CoreOp(axis, i, "unit"))
            continue
        twin = seen.get(vec)
        if twin is None:
            seen[vec] = (i, "dup")
            seen[tuple([-v for v in vec])] = (i, "negdup")
            kept.append(i)
        else:
            log.append(CoreOp(axis, i, twin[1], twin[0]))
    return kept


def kept_indices(mat, log):
    """The input rows and columns that `log` does not delete, as two
    ascending lists: the core is `mat.submatrix(*kept_indices(mat, log))`."""
    gone = {(op.axis, op.index) for op in log}
    return (
        [i for i in range(mat.nrows) if ("row", i) not in gone],
        [j for j in range(mat.ncols) if ("col", j) not in gone],
    )


# ---------------------------------------------------------------------------
# total unimodularity


@lru_cache(maxsize=200_000)
def _tu_cached(rows):
    if not set().union(*rows) <= {-1, 0, 1}:
        return False
    core, _ = reduce_to_core(IntMatrix(rows, len(rows[0]) if rows else 0))
    k, n = core.nrows, core.ncols
    if k == 0 or n == 0:
        return True
    if min(k, n) <= EXHAUSTIVE_CAP:
        return kernels.find_non_unit_subdet(core.rows) is None
    # Ghouila-Houri on the smaller dimension (TU is transpose-invariant).
    return kernels.ghouila_houri_ok(core.rows if k <= n else core.transpose().rows)


def is_totally_unimodular(mat):
    """True iff every square subdeterminant of `mat` lies in {-1, 0, 1}."""
    return _tu_cached(mat.rows)


def non_tu_witness(mat):
    """A violating (rows, cols, det) triple, or None for TU matrices.

    Matrices within the exhaustive-scan cap are scanned whole.  Past the cap,
    an entry outside {-1, 0, 1} is its own 1x1 witness; otherwise the core is
    scanned when it fits the cap, and its witness is mapped back to the
    input's row and column indices (the core is a submatrix of the input).
    A non-TU matrix whose core is past the cap gets None.
    """
    k, n = mat.nrows, mat.ncols
    if min(k, n) <= EXHAUSTIVE_CAP:
        return kernels.find_non_unit_subdet(mat.rows)
    for i, r in enumerate(mat.rows):
        for j, v in enumerate(r):
            if v not in (-1, 0, 1):
                return ((i,), (j,), v)
    core, log = reduce_to_core(mat)
    if min(core.nrows, core.ncols) > EXHAUSTIVE_CAP:
        return None
    found = kernels.find_non_unit_subdet(core.rows)
    if found is None:
        return None
    kept_rows, kept_cols = kept_indices(mat, log)
    rows, cols, det = found
    return (tuple([kept_rows[i] for i in rows]), tuple([kept_cols[j] for j in cols]), det)


@dataclass(frozen=True)
class TUMatrix:
    """An IntMatrix known to be totally unimodular."""

    matrix: IntMatrix

    @staticmethod
    def trusted(mat):
        """Wrap without verification; the caller certified `mat` or built it TU."""
        return TUMatrix(mat)

    @property
    def nrows(self):
        return self.matrix.nrows

    @property
    def ncols(self):
        return self.matrix.ncols
