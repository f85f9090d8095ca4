"""Shortening residue sums and transforming solutions toward a relaxation point.

A solution y decomposes over elementary rays as y = x0 + sum(lambda_i y^i);
grouping equal terms gives an ordered list of (residue, multiplicity) chunks.
Some mu <= lambda with at most m-|R| terms keeps the residue in R (Cook,
Gerards, Schrijver & Tardos 1986), and every such mu gives a feasible point,
since the decomposition is a sum of conformal rays.  So the fewest terms are
found by one exact scan over the chunks, with at most m residues each.
"""

from dataclasses import dataclass

from .cones import decompose_solutions
from .errors import CctuError, SolutionCheckError


@dataclass(frozen=True)
class ResidueGroups:
    """Ordered chunks of identical residues with multiplicities.  Fields are
    kept as given; a field of another type raises TypeError."""

    groups: tuple  # ((residue, multiplicity), ...) residues in 0..m-1
    m: int
    R: frozenset  # target residues in 0..m-1

    def __post_init__(self):
        if type(self.groups) is not tuple or type(self.R) is not frozenset:
            raise TypeError("groups must be a tuple and R a frozenset")
        if any(mult < 0 for _, mult in self.groups):
            raise ValueError("negative multiplicity")
        if any(not 0 <= r < self.m for r in self.R | {r for r, _ in self.groups}):
            raise ValueError("residues outside {0..m-1}")

    @property
    def total_residue(self):
        return sum(r * mult for r, mult in self.groups) % self.m


def shorten_residue_sum(g):
    """Multiplicities mu <= lambda with at most m-|R| terms and sum in R mod m.

    A sum of at most m-|R| terms comes back unchanged.  A longer one is
    scanned group by group, keeping for each reachable residue the first
    prefix with the fewest terms (never more than m-|R|); the answer is the
    fewest-term mu whose residue lies in R.
    """
    m, R = g.m, g.R
    if g.total_residue not in R:
        raise CctuError("initial residue sum is not in the target set")
    budget = m - len(R)
    lam = tuple([mult for _, mult in g.groups])
    if sum(lam) <= budget:
        return lam
    best = {0: (0, ())}  # residue -> (terms, first fewest-term prefix)
    for r, mult in g.groups:
        nxt = {}
        for res, (used, mu) in best.items():
            for t in range(min(mult, budget - used) + 1):
                key = (res + t * r) % m
                if key not in nxt or used + t < nxt[key][0]:
                    nxt[key] = (used + t, mu + (t,))
        best = nxt
    hits = [best[res] for res in best if res in R]
    if not hits:
        raise CctuError("no sum of at most m-|R| terms lands in the target set")
    return min(hits)[1]


def transform_solution(inst, y, x0):
    """Move a feasible solution next to a relaxation point.

    Returns y~ feasible for `inst` with d.(y~ - x0) <= m - |R| for every
    TU-appendable d; when x0 minimizes inst.c over the relaxation, also
    c.y~ <= c.y.
    """
    if not inst.is_feasible_point(y):
        raise CctuError("y is not feasible for the instance")
    if not inst.P.contains(x0):
        raise CctuError("x0 does not satisfy the relaxation")
    dec = decompose_solutions(inst.P, x0, y)
    shift = sum(gv * xv for gv, xv in zip(inst.gamma, x0)) % inst.m
    target = frozenset((r - shift) % inst.m for r in inst.R)
    groups = tuple([
        (sum(gv * rv for gv, rv in zip(inst.gamma, ray)) % inst.m, lam)
        for ray, lam in zip(dec.rays, dec.coeffs)
    ])
    mu = shorten_residue_sum(ResidueGroups(groups, inst.m, target))
    out = dec.point_for(mu)
    if not inst.is_feasible_point(out):
        raise SolutionCheckError("transformed point lost feasibility")
    return out
