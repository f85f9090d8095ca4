"""Seeded request corpora for the solve benchmark.

Every workload draws instances from `cctu.generators.generate` and hands the
solver only their serialized text, so a request is exactly what `cctu solve`
reads from a file.  Each workload is chosen so that one group of layers does
most of the work on it and little on another workload.

Draws are balanced: the structural cell with its size, and whether an
objective is present, are dealt from shuffled blocks that hold each option in
its stated proportion.  A run serves whole blocks of cells, so every run has
the same mix whatever the seed, and run-to-run spread comes from the instances
themselves rather than from how many of each kind a seed happened to draw.
Where the modulus barely moves the cost (rminus1_boxed), (m, |R|) is dealt
from a deck of its own, which keeps the block of cells short.
"""

import random

from cctu.errors import ScaleError
from cctu.fileio import serialize_instance
from cctu.generators import KINDS, generate
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron

BOX = 3  # rminus1_boxed keeps every variable in [-BOX, BOX]
SLACK = 2  # and pins each right-hand side at most SLACK above a box point


class Balanced:
    """Deals `options` in shuffled blocks: each block of len(options)
    consecutive draws holds every option exactly as often as listed."""

    def __init__(self, rng, options):
        self.rng = rng
        self.options = list(options)
        self.block = []

    def draw(self):
        if not self.block:
            self.block = self.options[:]
            self.rng.shuffle(self.block)
        return self.block.pop()


def _objective_share(percent):
    return [True] * (percent // 10) + [False] * (10 - percent // 10)


def _pinned_box(inst, rng):
    """Appends the rows +-x_i <= BOX and moves b to at most SLACK above
    T x* for a random integer x* in the box, so the relaxation is bounded
    and feasible and the solve runs the optimisation path."""
    n = inst.nvars
    center = [rng.randint(-BOX, BOX) for _ in range(n)]
    b = tuple(v + rng.randint(0, SLACK) for v in inst.P.T.matrix.mul_vec(center))
    units = []
    for i in range(n):
        for sign in (1, -1):
            row = [0] * n
            row[i] = sign
            units.append(tuple(row))
    # Unit rows keep a TU matrix TU; parse_instance certifies it again.
    mat = IntMatrix(inst.P.T.matrix.rows + tuple(units))
    return inst.replaced(P=Polyhedron(TUMatrix.trusted(mat), b + (BOX,) * len(units)))


class Workload:
    """A named request distribution: structural cells (kind, (m, |R|)) with
    multiplicities, each crossed with every size, and an objective share.
    With `moduli`, cells are bare kinds and (m, |R|) comes from that deck.
    Sizes stay at most 5, which keeps every instance at most 5 variables."""

    def __init__(self, name, why, cells, sizes, objective_percent, moduli=None, pinned_box=False):
        self.name = name
        self.why = why
        self.cells = [(cell[0], size) + cell[1:] for cell in cells for size in sizes]
        self.moduli = moduli or [()]
        self.objective_percent = objective_percent
        self.pinned_box = pinned_box

    @property
    def block(self):
        """Requests in one block of cells."""
        return len(self.cells)

    def requests(self, seed):
        """Endless stream of requests as (kind, text) pairs; the same seed
        gives the same texts.  A cell the generator cannot fill is redrawn
        with a new instance seed, so the balance of cells is kept."""
        rng = random.Random(f"{self.name}:{seed}")
        cells = Balanced(rng, self.cells)
        moduli = Balanced(rng, self.moduli)
        objectives = Balanced(rng, _objective_share(self.objective_percent))
        while True:
            kind, size, *shape = cells.draw()
            m, r_size = shape or moduli.draw()
            with_c = objectives.draw()
            while True:
                try:
                    inst = generate(kind, size, m, r_size, rng.randrange(1 << 30), with_c).instance
                    break
                except ScaleError:
                    continue
            if self.pinned_box:
                inst = _pinned_box(inst, rng)
            yield kind, serialize_instance(inst)


def _fuzz_cells():
    # `cctu fuzz` draws m from {2, 3, 5}, then |R| from [max(1, m-2), m-1, m]
    # and the kind uniformly.  Constant cores with |R| = m-2 are left out:
    # their guessing costs 0.08 s to 27 s a request, so a run's throughput
    # would be set by which few of them its seed drew.
    return [
        (kind, m, r)
        for kind in KINDS
        for m in (2, 3, 5)
        for r in (max(1, m - 2), m - 1, m)
        if not (kind == "const_core" and r == m - 2)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fuzz_mix",
            "cctu fuzz traffic: m in 2,3,5, every kind and |R| except const-core guessing; lp via "
            "normalize and elimination, network base blocks, flatness, TU checks",
            _fuzz_cells(),
            sizes=range(2, 6),
            objective_percent=30,
        ),
        Workload(
            "rminus1_boxed",
            "|R|=m-1, m in 2..7, boxed and pinned feasible, objective on every request: lp to "
            "optimality, elimination, flatness, cones, shortening, TU checks of tall matrices",
            [(kind,) for kind in KINDS],
            sizes=range(2, 6),
            objective_percent=100,
            moduli=[(m, m - 1) for m in range(2, 8)],
            pinned_box=True,
        ),
        Workload(
            "prime_decomp",
            "|R|=m-2, prime m in 3,5,7, sum3 and pivoted 4-variable matrices: seymour "
            "classification and separation search, pattern recursion, oracle fallbacks",
            [(kind, m, m - 2) for kind in ("sum3", "pivoted") for m in (3, 5, 7)],
            sizes=range(4, 6),
            objective_percent=30,
        ),
    )
}
