"""Exact integer matrices and total-unimodularity certification.

Conventions:
  - matrices are immutable, row-major tuples of tuples of Python ints;
  - a matrix is TU iff every square submatrix has determinant in {-1, 0, 1};
  - certification is exact: exhaustive subdeterminant scan up to
    EXHAUSTIVE_CAP on the smaller dimension, the Ghouila-Houri signing
    criterion beyond that.

TU verdicts are memoized on the entry tuple; the fuzz harness re-checks the
same small matrices constantly.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import kernels
from .errors import DimensionError, ScaleError

EXHAUSTIVE_CAP = 8  # exhaustive subdeterminant scan up to this order
ELEMENTARY_ENUM_CAP = 14  # hard cap on 3^n candidate-row enumeration


@dataclass(frozen=True)
class IntMatrix:
    """Dense exact integer matrix of shape nrows x ncols.

    `ncols` defaults to the length of the first row; pass it whenever the
    row list can be empty, so that a 0 x n matrix keeps its width.
    """

    rows: tuple
    ncols: int = None

    def __post_init__(self):
        rows = self.rows
        # Rows that already are tuples of ints are kept, not copied.
        if type(rows) is not tuple or not all(
            type(r) is tuple and all(type(v) is int for v in r) for r in rows
        ):
            rows = tuple([tuple([int(v) for v in r]) for r in rows])
            object.__setattr__(self, "rows", rows)
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

    def row(self, i):
        return self.rows[i]

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

    def with_row(self, extra):
        if len(extra) != self.ncols:
            raise DimensionError("row length mismatch")
        return IntMatrix(self.rows + (tuple([int(v) for v in extra]),), self.ncols)

    def mul_vec(self, x):
        if len(x) != self.ncols:
            raise DimensionError("vector length mismatch")
        return tuple([sum(a * v for a, v in zip(r, x)) for r in self.rows])

    @staticmethod
    def identity(n):
        return IntMatrix(
            tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)]), n
        )


def determinant(mat):
    """Exact determinant of a square IntMatrix (fraction-free elimination)."""
    if mat.nrows != mat.ncols:
        raise DimensionError(f"determinant of a {mat.nrows}x{mat.ncols} matrix")
    return kernels.det_bareiss(mat.flat(), mat.nrows)


@lru_cache(maxsize=200_000)
def _tu_cached(rows):
    k = len(rows)
    n = len(rows[0]) if rows else 0
    if k == 0 or n == 0:
        return True
    flat = [v for r in rows for v in r]
    if any(v not in (-1, 0, 1) for v in flat):
        return False
    if min(k, n) <= EXHAUSTIVE_CAP:
        return kernels.find_non_unit_subdet(flat, k, n) is None
    # Ghouila-Houri on the smaller dimension (TU is transpose-invariant).
    if k <= n:
        return kernels.ghouila_houri_ok(flat, k, n)
    t = [rows[i][j] for j in range(n) for i in range(k)]
    return kernels.ghouila_houri_ok(t, n, k)


def is_totally_unimodular(mat):
    """True iff every square subdeterminant of `mat` lies in {-1, 0, 1}."""
    return _tu_cached(mat.rows)


def non_tu_witness(mat):
    """A violating (rows, cols, det) triple, or None for TU matrices.

    Only defined for matrices within the exhaustive-scan cap; larger ones get
    a verdict without a witness.
    """
    if min(mat.nrows, mat.ncols) > EXHAUSTIVE_CAP:
        return None
    return kernels.find_non_unit_subdet(mat.flat(), mat.nrows, mat.ncols)


@dataclass(frozen=True)
class TUMatrix:
    """An IntMatrix known to be totally unimodular."""

    matrix: IntMatrix

    @staticmethod
    def certify(mat):
        """Verify TU-ness and wrap; raises ValueError on non-TU input."""
        if not is_totally_unimodular(mat):
            raise ValueError("matrix is not totally unimodular")
        return TUMatrix(mat)

    @staticmethod
    def trusted(mat):
        """Wrap without verification (generator-constructed matrices)."""
        return TUMatrix(mat)

    @property
    def nrows(self):
        return self.matrix.nrows

    @property
    def ncols(self):
        return self.matrix.ncols


def is_tu_appendable(tu, d):
    """True iff appending the row d^T to `tu` keeps the matrix TU."""
    mat = tu.matrix if isinstance(tu, TUMatrix) else tu
    if len(d) != mat.ncols:
        raise DimensionError("appended row length mismatch")
    if any(v not in (-1, 0, 1) for v in d):
        return False
    return _tu_cached(mat.with_row(d).rows)


def tu_appendable_rows(tu):
    """All rows d in {-1,0,1}^n that are TU-appendable, in lexicographic order.

    Enumeration support for tests; capped at ELEMENTARY_ENUM_CAP columns.
    """
    mat = tu.matrix if isinstance(tu, TUMatrix) else tu
    n = mat.ncols
    if n > ELEMENTARY_ENUM_CAP:
        raise ScaleError(f"3^{n} candidate rows exceeds the enumeration cap")
    return [d for d in product((-1, 0, 1), repeat=n) if is_tu_appendable(mat, d)]


def is_elementary(tu, x):
    """True iff d^T x is in {-1, 0, 1} for every TU-appendable row d.

    Decided by enumerating candidate rows in {-1,0,1}^n and filtering by
    TU-appendability; a test-support operation, capped at
    ELEMENTARY_ENUM_CAP variables.
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
