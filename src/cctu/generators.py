"""Seeded random instance generators, one per structural class.

Instances keep right-hand sides and residue weights small (desk scale) and
always admit some integer hitting the target residues (no gcd obstruction),
so the flatness argument's terminal case stays constructive.
"""

import random
from dataclasses import dataclass

from .errors import ScaleError
from .matrices import IntMatrix, TUMatrix, is_totally_unimodular
from .polyhedra import Polyhedron, RCctufInstance
from .seymour import SPECIAL_CORES, NetworkRepresentation, SumDecomposition, k_sum, pivot
from .structure import solve_unconstrained_congruence

KINDS = ("network", "transposed", "sum1", "sum2", "sum3", "pivoted", "const_core")


def random_network_matrix(rng, k, n):
    """Network matrix from a random directed tree on k+1 vertices with n
    random path-incidence columns."""
    nv = k + 1
    order = list(range(1, nv))
    rng.shuffle(order)
    parent = {v: rng.randrange(v) for v in order}
    arcs = [(parent[v], v) if rng.random() < 0.5 else (v, parent[v]) for v in order]
    ends = [tuple(rng.sample(range(nv), 2)) if nv >= 2 else (0, 0) for _ in range(n)]
    return NetworkRepresentation(nv, tuple(arcs), tuple(ends)).rebuild()


@dataclass(frozen=True)
class GeneratedInstance:
    instance: RCctufInstance


def _random_sum_matrix(rng, kind, size):
    half = max(2, size // 2)
    for _ in range(200):
        A = random_network_matrix(rng, rng.randint(2, half + 1), half)
        B = random_network_matrix(rng, rng.randint(2, half + 1), half)
        ka, kb = A.nrows, B.nrows
        if kind == 1:
            e = (0,) * ka
            f = (0,) * half
            g = (0,) * kb
            h = (0,) * half
        elif kind == 2:
            e = tuple([rng.choice((-1, 0, 1)) for _ in range(ka)])
            f = tuple([rng.choice((-1, 0, 1)) for _ in range(half)])
            g = (0,) * kb
            h = (0,) * half
            if not any(e) or not any(f):
                continue
        else:
            e = tuple([rng.choice((-1, 0, 1)) for _ in range(ka)])
            f = tuple([rng.choice((-1, 0, 1)) for _ in range(half)])
            g = tuple([rng.choice((-1, 0, 1)) for _ in range(kb)])
            h = tuple([rng.choice((-1, 0, 1)) for _ in range(half)])
            if not (any(e) and any(f) and any(g) and any(h)):
                continue
        dec = SumDecomposition(
            kind,
            A,
            B,
            e,
            f,
            g,
            h,
            tuple(range(ka + kb)),
            tuple(range(2 * half)),
        )
        if kind >= 2 and not is_totally_unimodular(dec.first_summand()):
            continue
        if kind >= 2 and not is_totally_unimodular(dec.second_summand()):
            continue
        mat = k_sum(dec)
        if is_totally_unimodular(mat):
            return mat
    raise ScaleError(f"could not draw a TU {kind}-sum of size {size}")


def _const_core_matrix(rng, size):
    mat = SPECIAL_CORES[rng.randrange(2)]
    for _ in range(size):
        op = rng.randrange(6)
        rows = [list(r) for r in mat.rows]
        k = len(rows)
        n = len(rows[0])
        if op == 0:  # append a unit row
            j = rng.randrange(n)
            row = [0] * n
            row[j] = rng.choice((-1, 1))
            rows.append(row)
        elif op == 1:  # append a unit column
            i = rng.randrange(k)
            for t, r in enumerate(rows):
                r.append(rng.choice((-1, 1)) if t == i else 0)
        elif op == 2:  # duplicate a row
            rows.append(list(rows[rng.randrange(k)]))
        elif op == 3:  # duplicate a column
            j = rng.randrange(n)
            for r in rows:
                r.append(r[j])
        elif op == 4:  # flip a row sign
            i = rng.randrange(k)
            rows[i] = [-v for v in rows[i]]
        else:  # flip a column sign
            j = rng.randrange(n)
            for r in rows:
                r[j] = -r[j]
        mat = IntMatrix(tuple([tuple(r) for r in rows]))
    return mat


def generate(kind, size, m, r_size, seed, with_c=False):
    """Deterministic random instance of the requested structural class.

    size steers the matrix dimensions; r_size the number of target residues.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    rng = random.Random(seed)
    if kind == "network":
        mat = random_network_matrix(rng, max(1, size), max(1, size))
    elif kind == "transposed":
        mat = random_network_matrix(rng, max(1, size), max(1, size)).transpose()
    elif kind in ("sum1", "sum2", "sum3"):
        mat = _random_sum_matrix(rng, int(kind[-1]), max(4, size))
    elif kind == "pivoted":
        mat = _random_sum_matrix(rng, 3, max(4, size))
        spots = [
            (i, j) for i in range(mat.nrows) for j in range(mat.ncols) if mat[i, j] in (-1, 1)
        ]
        mat = pivot(mat, *rng.choice(spots))
    else:
        mat = _const_core_matrix(rng, max(0, size - 5))
    n = mat.ncols
    r_size = max(1, min(m, r_size))
    for _ in range(200):
        gamma = tuple([rng.randint(-5, 5) for _ in range(n)])
        R = frozenset(rng.sample(range(m), r_size))
        if solve_unconstrained_congruence(gamma, m, R) is not None:
            break
    else:
        raise ScaleError("could not draw a gcd-solvable residue target")
    b = tuple([rng.randint(-5, 5) for _ in range(mat.nrows)])
    c = tuple([rng.randint(-3, 3) for _ in range(n)]) if with_c else None
    inst = RCctufInstance(Polyhedron(TUMatrix.trusted(mat), b), gamma, m, R, c)
    return GeneratedInstance(inst)
