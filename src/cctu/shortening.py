"""Shortening residue sums and transforming solutions toward a relaxation point.

A solution y decomposes over elementary rays as y = x0 + sum(lambda_i y^i);
grouping equal terms gives an ordered list of (residue, multiplicity) chunks.
As long as more than m-|R| terms remain, some consecutive run can be deleted
while keeping the total in the target set; deleting maximum-size runs keeps
the number of deletion steps small.  Each candidate run is located by the
pair of chunks holding its endpoints, enumerating the two in-chunk offsets
directly (the three-variable integer programs collapse to a modular check).
Only each offset mod m changes the removed residue, so the best run takes
one of the m longest choices at each end, and the scan costs O(m^2) per
chunk pair whatever the multiplicities.
"""

from dataclasses import dataclass

from .cones import decompose_solutions
from .errors import CctuError, SolutionCheckError


@dataclass(frozen=True)
class ResidueGroups:
    """Ordered chunks of identical residues with multiplicities."""

    groups: tuple  # ((residue, multiplicity), ...) residues normalized mod m
    m: int
    R: frozenset  # target residues

    def __post_init__(self):
        norm = tuple([(int(r) % self.m, int(mult)) for r, mult in self.groups])
        if any(mult < 0 for _, mult in norm):
            raise ValueError("negative multiplicity")
        object.__setattr__(self, "groups", norm)
        object.__setattr__(self, "R", frozenset(int(r) % self.m for r in self.R))

    @property
    def total_residue(self):
        return sum(r * mult for r, mult in self.groups) % self.m


@dataclass(frozen=True)
class Interval:
    """Consecutive positions {first..last} (1-based over the expanded sum)."""

    first: int
    last: int
    removed_residue: int


def max_removable_interval(g, S, allow_singleton=False):
    """Largest interval (at least two positions) whose removal leaves the sum
    in S mod m; ties broken by smallest chunk pair, then smallest start.

    Returns an Interval or None.  `allow_singleton` admits one-position
    intervals; the shortening procedure needs them in corner cases where no
    two-position interval lands in the target set (the interval IPs behind
    this search bound the offsets by x <= y, not x < y).
    """
    m = g.m
    S = {int(s) % m for s in S}
    total = g.total_residue
    live = [(idx, r, mult) for idx, (r, mult) in enumerate(g.groups) if mult > 0]
    prefix = {}
    acc = 0
    for idx, (r, mult) in enumerate(g.groups):
        prefix[idx] = acc
        acc += mult
    best = None  # (-size, jpos, kpos, first) for lexicographic tie-breaking
    best_iv = None
    for jpos in range(len(live)):
        j, rj, lj = live[jpos]
        for kpos in range(jpos, len(live)):
            k, rk, lk = live[kpos]
            # the removed residue depends on the run lengths at each end only
            # mod m, so a longer valid run lies m positions further out unless
            # the chunk ends first: the best run starts at one of the first m
            # offsets of chunk j and ends at one of the last m of chunk k
            if kpos == jpos:
                # both endpoints inside one chunk: removed sum is a run of rj,
                # and a run of length y starts earliest at offset 1
                for y in range(max(1 if allow_singleton else 2, lj - m + 1), lj + 1):
                    removed = y * rj
                    if (total - removed) % m in S:
                        cand = (-y, j, k, prefix[j] + 1)
                        if best is None or cand < best:
                            best = cand
                            best_iv = Interval(prefix[j] + 1, prefix[j] + y, removed % m)
            else:
                mid = sum(mult for t, _, mult in live[jpos + 1:kpos])
                mid_res = sum(r * mult for t, r, mult in live[jpos + 1:kpos])
                for x in range(1, min(lj, m) + 1):
                    for y in range(max(1, lk - m + 1), lk + 1):
                        removed = (lj - x + 1) * rj + mid_res + y * rk
                        if (total - removed) % m in S:
                            size = (lj - x + 1) + mid + y
                            cand = (-size, j, k, prefix[j] + x)
                            if best is None or cand < best:
                                best = cand
                                best_iv = Interval(prefix[j] + x, prefix[k] + y, removed % m)
    return best_iv


def _delete_interval(groups, iv):
    """Apply an interval deletion to a multiplicity list (positions 1-based)."""
    out = []
    pos = 0
    for r, mult in groups:
        lo, hi = pos + 1, pos + mult
        cut = max(0, min(hi, iv.last) - max(lo, iv.first) + 1)
        out.append((r, mult - cut))
        pos = hi
    return tuple(out)


@dataclass
class ShorteningStats:
    phase1_steps: int = 0
    phase2_steps: int = 0


def shorten_residue_sum(g, stats=None):
    """Multiplicities mu <= lambda with at most m-|R| terms and sum in R mod m.

    Phase one deletes zero-sum runs (single-residue target) while more than
    m-1 terms remain; phase two deletes runs against the shifted target set
    until at most m-|R| terms remain.
    """
    if g.total_residue not in g.R:
        raise CctuError("initial residue sum is not in the target set")
    if stats is None:
        stats = ShorteningStats()
    if len(g.R) == g.m:
        # full target set: the empty sum qualifies, and a one-term sum could
        # otherwise never shrink (intervals need two positions)
        return tuple([0 for _ in g.groups])
    cur = g.groups
    budget = g.m - len(g.R)

    def count(groups):
        return sum(mult for _, mult in groups)

    while count(cur) > g.m - 1:
        state = ResidueGroups(cur, g.m, g.R)
        iv = max_removable_interval(state, {state.total_residue}, allow_singleton=True)
        if iv is None:
            raise CctuError("no zero-sum interval despite more than m-1 terms")
        cur = _delete_interval(cur, iv)
        stats.phase1_steps += 1
    while count(cur) > budget:
        state = ResidueGroups(cur, g.m, g.R)
        iv = max_removable_interval(state, g.R, allow_singleton=True)
        if iv is None:
            raise CctuError("no interval into the target set despite excess terms")
        cur = _delete_interval(cur, iv)
        stats.phase2_steps += 1
    return tuple([mult for _, mult in cur])


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
