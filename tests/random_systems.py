"""Seeded random TU matrices and instances shared by the test modules.

Kept out of conftest.py so that `perfbench/tests/conftest.py`, which pytest
also imports under the module name `conftest`, cannot shadow these names.
"""

from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron, RCctufInstance


def boxed(tu, b, bound):
    """The polyhedron tu x <= b with every variable in [-bound, bound]."""
    eye = IntMatrix.identity(tu.ncols).rows
    rows = eye + tuple([tuple([-v for v in r]) for r in eye])
    return Polyhedron(tu, b).with_rows(rows, [bound] * len(rows))


def random_tu_matrix(rng, k, n):
    """Random network-style TU matrix: rows are tree arcs of a path/tree on
    n+1-ish vertices, columns are path incidence vectors.  Cheap to generate
    and certified by construction, re-verified in tests where it matters.
    """
    nv = k + 1
    parent = [None] * nv
    order = list(range(1, nv))
    rng.shuffle(order)
    for v in order:
        parent[v] = rng.randrange(v)
    arcs = []
    for v in order:
        if rng.random() < 0.5:
            arcs.append((parent[v], v))
        else:
            arcs.append((v, parent[v]))
    cols = []
    for _ in range(n):
        v, w = rng.sample(range(nv), 2) if nv >= 2 else (0, 0)
        cols.append(_tree_path_column(arcs, parent_of=parent, v=v, w=w))
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(k))
    return IntMatrix(rows)


def _tree_path_column(arcs, parent_of, v, w):
    # walk v->root and w->root, splice at the meeting point
    def chain(u):
        seq = [u]
        while parent_of[u] is not None:
            u = parent_of[u]
            seq.append(u)
        return seq

    cv, cw = chain(v), chain(w)
    sv, sw = set(cv), set(cw)
    meet = next(u for u in cv if u in sw)
    path = cv[: cv.index(meet) + 1] + list(reversed(cw[: cw.index(meet)]))
    col = []
    for (a, bnode) in arcs:
        val = 0
        for p, q in zip(path, path[1:]):
            if (a, bnode) == (p, q):
                val = 1
            elif (a, bnode) == (q, p):
                val = -1
        col.append(val)
    return col


def random_instance(rng, n_max=4, m_choices=(2, 3, 5), with_c=False, r_size=None):
    n = rng.randint(1, n_max)
    k = rng.randint(1, n + 2)
    T = random_tu_matrix(rng, k, n)
    m = rng.choice(list(m_choices))
    b = tuple(rng.randint(-5, 5) for _ in range(k))
    gamma = tuple(rng.randint(-4, 4) for _ in range(n))
    size = r_size if r_size is not None else rng.randint(1, m)
    size = max(1, min(m, size))
    R = frozenset(rng.sample(range(m), size))
    c = tuple(rng.randint(-3, 3) for _ in range(n)) if with_c else None
    return RCctufInstance(Polyhedron(TUMatrix.trusted(T), b), gamma, m, R, c)


def polyhedron_with_implicit_equalities(rng):
    """A seeded TU system around an integer point x*, with negated-row pairs
    (some pinning a row to its value at x*, some leaving width 1) and pinned
    or narrow box rows appended in shuffled order; one in eight right-hand
    sides is redrawn at random, so some systems are empty."""
    n = rng.randint(2, 4)
    T = random_tu_matrix(rng, rng.randint(1, n + 1), n)
    star = [rng.randint(-3, 3) for _ in range(n)]
    rows = list(T.rows)
    rhs = [v + rng.choice((0, 0, 1, 2)) for v in T.mul_vec(star)]
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(T.rows)
        value = sum(a * v for a, v in zip(row, star))
        rows += [row, tuple([-a for a in row])]
        rhs += [value + rng.choice((0, 0, 1)), -value]
    for i in rng.sample(range(n), rng.randint(0, n)):
        unit = tuple([1 if t == i else 0 for t in range(n)])
        rows += [unit, tuple([-a for a in unit])]
        rhs += [star[i] + rng.choice((0, 1, 3)), -star[i]]
    order = list(range(len(rows)))
    rng.shuffle(order)
    if rng.random() < 0.125:
        rhs = [rng.randint(-3, 3) for _ in rhs]
    P = Polyhedron(
        TUMatrix.trusted(IntMatrix(tuple([rows[t] for t in order]), n)),
        tuple([rhs[t] for t in order]),
    )
    m = rng.choice((2, 3, 5))
    R = frozenset(rng.sample(range(m), rng.choice((m - 1, m - 1, rng.randint(1, m)))))
    return RCctufInstance(P, tuple([rng.randint(-3, 3) for _ in range(n)]), m, R)
