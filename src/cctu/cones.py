"""Integral decomposition into elementary extremal rays.

Given two points of a TU system, writes their difference as an integral
nonnegative combination of elementary vectors such that dropping any
sub-collection of terms stays feasible (the free-subsum property).  The
procedure is fully constructive: shift to the origin, add
orthant-sign rows so the cone is pointed, flip rows to put the target in the
cone, then peel off one elementary extremal ray per iteration with an exact
min-ratio step length.

No LP is solved.  Each ray comes from purifying the current point itself:
it moves along null directions of its tight rows, on the slice of its face
where a functional positive on the cone keeps its value, until n - 1
independent cone rows are tight (Schrijver 1986, section 8).  The cone
matrix is TU, so that vertex spans an elementary ray and the step along it
is integral; each step makes one more row tight, so at most n rays are
taken.

All arithmetic is on integers.  Ranks and null directions use the
fraction-free elimination of `lp`; points with fractional coordinates are
carried as integer numerators over one positive denominator, and ratios are
compared by cross-products.
"""

from dataclasses import dataclass
from math import gcd

from . import lp
from .errors import CctuError, DimensionError
from .matrices import IntMatrix, TUMatrix


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


def _vertex_of_optimal_face(rows, rhs, x, q):
    """Purify a point x / q of {rows * x <= rhs} to a vertex of its face.

    Repeatedly moves along a null direction of the tight rows until a new
    constraint binds, so every row tight at x stays tight; requires the
    feasible set to be bounded along every such direction, which holds for
    the sliced cones used here.
    Works on integer numerators over the positive denominator q and returns
    the vertex in the same form, (numerators, denominator).
    """
    x = list(x)
    n = len(x)
    while True:
        # slack of each row, scaled by q
        slacks = [bv * q - sum(a * v for a, v in zip(r, x)) for r, bv in zip(rows, rhs)]
        tight = [r for r, sl in zip(rows, slacks) if sl == 0]
        null = _null_direction(tight, n)
        if null is None:
            return x, q
        step = None  # (slack, rd): the step length along d is slack / (q * rd)
        for sgn in (1, -1):
            d = [sgn * v for v in null]
            # largest step keeping every constraint satisfied
            for r, sl in zip(rows, slacks):
                rd = sum(a * v for a, v in zip(r, d))
                if rd > 0 and (step is None or sl * step[1] < step[0] * rd):
                    step = (sl, rd)
            if step is not None:
                break
        if step is None:
            raise CctuError("optimal face unbounded; cone is not pointed")
        # x / q + (sl / (q * rd)) * d == (rd * x + sl * d) / (q * rd)
        sl, rd = step
        x = [rd * v + sl * dv for v, dv in zip(x, d)]
        q *= rd
        g = gcd(q, *x)
        if g > 1:
            x = [v // g for v in x]
            q //= g


def _null_direction(rows, n):
    """A nonzero integer vector orthogonal to all rows, or None."""
    work, pivots, den = lp.eliminate(rows, n)
    if len(pivots) == n:
        return None
    free = next(j for j in range(n) if j not in pivots)
    d = [0] * n
    d[free] = den
    for j, i in pivots.items():
        d[j] = -work[i][free]
    return d


EXTRACTION_SLACK = 2  # ray extractions allowed beyond n before giving up


def decompose_pointed_tu_cone(T, y):
    """Write y (with Ty <= 0, cone pointed) as an integral nonnegative
    combination of elementary extremal rays of {x : Tx <= 0}.

    Returns (rays, coeffs), padded with zero-coefficient entries to exactly n
    terms.  Raises CctuError when the cone is not pointed or y is outside.
    """
    mat = T.matrix if isinstance(T, TUMatrix) else T
    n = mat.ncols
    if len(y) != n:
        raise DimensionError("point length mismatch")
    if _row_rank(mat.rows) < n:
        raise CctuError("cone is not pointed (matrix lacks full column rank)")
    if any(v > 0 for v in mat.mul_vec(y)):
        raise CctuError("point outside the cone")

    # positive on the pointed cone minus the origin, so it slices every face
    sigma = tuple([-sum(col) for col in zip(*mat.rows)])
    zeros = (0,) * len(mat.rows)
    y_cur = list(y)
    rays = []
    coeffs = []
    for _ in range(n + EXTRACTION_SLACK):
        if not any(y_cur):
            break
        # purify y_cur within its face, cut at sigma.x == sigma.y_cur: the
        # vertex has n - 1 independent tight cone rows, so it spans an
        # extremal ray of that face and hence of the cone
        s = sum(a * v for a, v in zip(sigma, y_cur))
        vertex, _ = _vertex_of_optimal_face(mat.rows + (sigma,), zeros + (s,), y_cur, 1)
        if not any(vertex):
            raise CctuError("extremal ray must be nonzero")
        ray = lp._primitive(vertex)
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
