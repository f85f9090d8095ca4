"""Integral decomposition into elementary extremal rays.

Given two points of a TU system, writes their difference as an integral
nonnegative combination of elementary vectors such that dropping any
sub-collection of terms stays feasible (the free-subsum property).  The
procedure is fully constructive: shift to the origin, add
orthant-sign rows so the cone is pointed, flip rows to put the target in the
cone, then peel off one elementary extremal ray per iteration with an exact
min-ratio step length.

No LP is solved.  Each ray comes from purifying the current point itself
(Schrijver 1986, section 8): it moves along null directions of its tight
rows, each not parallel to the point, until n - 1 independent cone rows are
tight, and then spans an extremal ray of its face.  The cone matrix is TU,
so that ray is elementary and the step along it is integral; each step
makes one more row tight, so at most n rays are taken.

All arithmetic is on integers.  Ranks and null directions use the unit-pivot
elimination of `lp`; a point is rescaled to a primitive integer vector after
each move, and ratios are compared by cross-products.
"""

from dataclasses import dataclass

from . import lp
from .errors import CctuError, DimensionError
from .matrices import IntMatrix


@dataclass(frozen=True)
class ElementaryDecomposition:
    """y - x0 = sum(coeffs[i] * rays[i]) with elementary rays and free subsums."""

    x0: tuple
    y: tuple
    rays: tuple  # n integer vectors
    coeffs: tuple  # n nonnegative integers

    def point_for(self, mu):
        """x0 + sum(mu[i] * rays[i]) for 0 <= mu <= coeffs."""
        x = list(self.x0)
        for m_i, ray in zip(mu, self.rays):
            for i in range(len(x)):
                x[i] += m_i * ray[i]
        return tuple(x)


def _row_rank(rows):
    if not rows:
        return 0
    return len(lp.eliminate(rows, len(rows[0]))[1])


def _extremal_ray(rows, x):
    """The primitive extremal ray of the pointed cone {z : rows * z <= 0}
    that purifying its point x != 0 reaches, in the smallest face holding x.

    While the rows tight at x leave more than one free column, x steps
    along the null vector of a free column f, taking f with x[f] == 0 when
    there is one: that vector is not parallel to x.  The step stops where
    the first new row binds, so every tight row stays tight and the rank of
    the tight rows grows.  With one free column left, x spans the ray.
    """
    n = len(x)
    while True:
        prods = [sum([a * v for a, v in zip(r, x)]) for r in rows]
        work, pivots = lp.eliminate([r for r, p in zip(rows, prods) if p == 0], n)
        free = [j for j in range(n) if j not in pivots]
        if len(free) == 1:
            return lp._primitive(x)
        f = next((j for j in free if x[j] == 0), free[0])
        null = [0] * n
        null[f] = 1
        for j, i in pivots.items():
            null[j] = -work[i][f]
        step = None  # (slack, rd): the step length along d is slack / rd
        for sgn in (1, -1):
            d = [sgn * v for v in null]
            for r, p in zip(rows, prods):
                rd = sum([a * v for a, v in zip(r, d)])
                if rd > 0 and (step is None or -p * step[1] < step[0] * rd):
                    step = (-p, rd)
            if step is not None:
                break
        if step is None:
            raise CctuError("face unbounded along a null direction; cone is not pointed")
        # x + (sl / rd) * d, scaled by rd
        sl, rd = step
        x = lp._primitive([rd * v + sl * dv for v, dv in zip(x, d)])


EXTRACTION_SLACK = 2  # ray extractions allowed beyond n before giving up


def decompose_pointed_tu_cone(mat, y):
    """Write y (with mat y <= 0, cone pointed) as an integral nonnegative
    combination of elementary extremal rays of {x : mat x <= 0}, for a TU
    `IntMatrix` mat.

    Returns (rays, coeffs), padded with zero-coefficient entries to exactly n
    terms.  Raises CctuError when the cone is not pointed or y is outside.
    """
    n = mat.ncols
    if len(y) != n:
        raise DimensionError("point length mismatch")
    if _row_rank(mat.rows) < n:
        raise CctuError("cone is not pointed (matrix lacks full column rank)")
    if any(v > 0 for v in mat.mul_vec(y)):
        raise CctuError("point outside the cone")

    y_cur = list(y)
    rays = []
    coeffs = []
    for _ in range(n + EXTRACTION_SLACK):
        if not any(y_cur):
            break
        ray = _extremal_ray(mat.rows, y_cur)
        if not any(ray):
            raise CctuError("extremal ray must be nonzero")
        # step length: exact min ratio over rows the ray pushes toward tightness
        best = None  # (-p, a): the step length is -p / a
        for r, p in zip(mat.rows, mat.mul_vec(y_cur)):
            a = -sum(rv * qv for rv, qv in zip(r, ray))
            if a > 0 and (best is None or -p * best[1] < best[0] * a):
                best = (-p, a)
        if best is None:
            raise CctuError("ray escapes every strict constraint; cone not pointed")
        lam, rem = divmod(*best)
        if rem or lam <= 0:
            raise CctuError(f"non-integral or nonpositive step length {best[0]}/{best[1]}")
        rays.append(ray)
        coeffs.append(lam)
        for i in range(n):
            y_cur[i] -= lam * ray[i]
    else:
        raise CctuError("ray extraction failed to terminate")

    pad_ray = rays[-1] if rays else (0,) * n
    while len(rays) < n:
        rays.append(pad_ray)
        coeffs.append(0)
    return tuple(rays), tuple(coeffs)


def decompose_solutions(P, x0, y):
    """Rays and integral coefficients for y - x0 over T x <= b.

    Shifts x0 to the origin, adds orthant-sign rows matching y - x0, flips
    rows with positive product so the shifted target lies in a pointed TU
    cone, and delegates to the cone decomposition.
    """
    mat = P.T.matrix
    n = mat.ncols
    if not P.contains(x0) or not P.contains(y):
        raise CctuError("both points must satisfy the system")
    diff = tuple([yv - xv for yv, xv in zip(y, x0)])
    sign_rows = tuple([
        tuple([(-1 if diff[i] >= 0 else 1) if j == i else 0 for j in range(n)]) for i in range(n)
    ])
    flipped = []
    for row in mat.rows + sign_rows:
        prod = sum(rv * dv for rv, dv in zip(row, diff))
        flipped.append(row if prod <= 0 else tuple([-v for v in row]))
    cone_matrix = IntMatrix(tuple(flipped))
    rays, coeffs = decompose_pointed_tu_cone(cone_matrix, diff)
    return ElementaryDecomposition(tuple(x0), tuple(y), rays, coeffs)
