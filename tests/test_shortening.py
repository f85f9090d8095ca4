import random
from itertools import product

import pytest

from cctu import shortening
from cctu.errors import CctuError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron, RCctufInstance, lp_optimize, oracle_solve
from cctu.shortening import (
    ResidueGroups,
    max_removable_interval,
    shorten_residue_sum,
    transform_solution,
)
from random_systems import random_instance


def test_interval_removing_whole_triple():
    g = ResidueGroups(((1, 3),), 3, frozenset({0}))
    iv = max_removable_interval(g, {0})
    assert (iv.first, iv.last) == (1, 3)


def test_no_interval_on_single_term():
    g = ResidueGroups(((1, 1),), 3, frozenset({1}))
    assert max_removable_interval(g, {1}) is None


def test_interval_spanning_two_chunks():
    # chunks (2,2),(1,2): total 6 = 0 mod 3; the whole sum is the best removal
    g = ResidueGroups(((2, 2), (1, 2)), 3, frozenset({0}))
    iv = max_removable_interval(g, {0})
    assert (iv.first, iv.last) == (1, 4) and iv.last - iv.first + 1 == 4


def exhaustive_best_interval(groups, m, S):
    seq = [r for r, mult in groups for _ in range(mult)]
    total = sum(seq) % m
    best = None
    for first in range(1, len(seq) + 1):
        for last in range(first, len(seq) + 1):
            removed = sum(seq[first - 1:last])
            if (total - removed) % m in S:
                size = last - first + 1
                if best is None or size > best:
                    best = size
    return best


def test_interval_size_matches_exhaustive_scan():
    rng = random.Random(41)
    for _ in range(120):
        m = rng.choice((2, 3, 5, 7))
        ngroups = rng.randint(1, 4)
        groups = tuple((rng.randrange(m), rng.randint(0, 4)) for _ in range(ngroups))
        S = set(rng.sample(range(m), rng.randint(1, m)))
        g = ResidueGroups(groups, m, frozenset(S))
        iv = max_removable_interval(g, S)
        best = exhaustive_best_interval(groups, m, S)
        if best is None:
            assert iv is None
        else:
            assert iv is not None and iv.last - iv.first + 1 == best


def test_shorten_keeps_short_sums():
    g = ResidueGroups(((1, 1), (0, 1)), 5, frozenset({1}))
    assert shorten_residue_sum(g) == (1, 1)


def test_shorten_five_ones_mod_3():
    g = ResidueGroups(((1, 5),), 3, frozenset({2}))
    assert shorten_residue_sum(g) == (2,)


def test_shorten_three_ones_to_empty():
    g = ResidueGroups(((1, 3),), 3, frozenset({0}))
    assert shorten_residue_sum(g) == (0,)


def test_shorten_rejects_bad_precondition():
    with pytest.raises(CctuError):
        shorten_residue_sum(ResidueGroups(((1, 1),), 3, frozenset({0})))


def subset_check(groups, m, R, budget):
    """Exhaustive oracle: some mu <= lambda with <= budget terms sums into R."""
    ranges = [range(mult + 1) for _, mult in groups]
    ok = []
    for mu in product(*ranges):
        if sum(mu) <= budget and sum(m_i * r for m_i, (r, _) in zip(mu, groups)) % m in R:
            ok.append(mu)
    return ok


def test_shorten_output_bound_and_membership_random(monkeypatch):
    # phase one searches against the one-residue target {total}; phase two
    # against R, and with |R| = 1 phase two never runs, so a one-residue
    # target that equals the current total marks a zero-sum deletion
    zero_sum_deletions = []
    search = shortening.max_removable_interval

    def counted(g, S):
        iv = search(g, S)
        if set(S) == {g.total_residue} and iv is not None:
            zero_sum_deletions.append(iv)
        return iv

    monkeypatch.setattr(shortening, "max_removable_interval", counted)
    rng = random.Random(43)
    done = 0
    while done < 150:
        m = rng.choice((2, 3, 5, 7, 11))
        ngroups = rng.randint(1, 5)
        groups = tuple((rng.randrange(m), rng.randint(0, 10)) for _ in range(ngroups))
        R = frozenset(rng.sample(range(m), rng.randint(1, m)))
        total = sum(r * mult for r, mult in groups) % m
        if total not in R:
            continue
        del zero_sum_deletions[:]
        mu = shorten_residue_sum(ResidueGroups(groups, m, R))
        assert sum(mu) <= m - len(R)
        assert sum(m_i * r for m_i, (r, _) in zip(mu, groups)) % m in R
        assert all(0 <= m_i <= mult for m_i, (_, mult) in zip(mu, groups))
        assert len(zero_sum_deletions) <= ngroups
        done += 1


def test_shorten_cross_checked_against_subset_enumeration():
    rng = random.Random(47)
    done = 0
    while done < 60:
        m = rng.choice((2, 3, 5))
        ngroups = rng.randint(1, 4)
        groups = tuple((rng.randrange(m), rng.randint(0, 3)) for _ in range(ngroups))
        if sum(mult for _, mult in groups) > 12:
            continue
        R = frozenset(rng.sample(range(m), rng.randint(1, m)))
        if sum(r * mult for r, mult in groups) % m not in R:
            continue
        mu = shorten_residue_sum(ResidueGroups(groups, m, R))
        witnesses = subset_check(groups, m, R, m - len(R))
        assert tuple(mu) in set(witnesses)
        done += 1


def box_instance(lo, hi, gamma, m, R, c=None):
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (-lo, hi))
    return RCctufInstance(P, gamma, m, frozenset(R), c)


def test_transform_identity():
    inst = box_instance(0, 10, (1,), 3, {0})
    assert transform_solution(inst, (3,), (3,)) == (3,)


def test_transform_pulls_solution_toward_relaxation_point():
    inst = box_instance(0, 10, (1,), 3, {2})
    out = transform_solution(inst, (8,), (0,))
    assert out == (2,)


def test_transform_properties_random(rng):
    done = 0
    while done < 60:
        inst = random_instance(rng, n_max=3)
        ora = oracle_solve(inst)
        if ora.status != "feasible":
            continue
        y = ora.x
        out0 = lp_optimize(inst.P, (0,) * inst.nvars, "min")
        x0 = out0.x
        tilde = transform_solution(inst, y, x0)
        assert inst.is_feasible_point(tilde)
        bound = inst.m - len(inst.R)
        # one-sided product bound for rows of T and +-unit rows
        for row in inst.P.T.matrix.rows:
            assert sum(a * (t - x) for a, t, x in zip(row, tilde, x0)) <= bound
        for i in range(inst.nvars):
            assert abs(tilde[i] - x0[i]) <= bound
        done += 1


def test_transform_cost_monotone_when_x0_optimal(rng):
    done = 0
    while done < 40:
        inst = random_instance(rng, n_max=3, with_c=True)
        out = lp_optimize(inst.P, inst.c, "min")
        if out.status != "optimal":
            continue
        ora = oracle_solve(inst)
        if ora.status != "feasible":
            continue
        y = ora.x
        tilde = transform_solution(inst, y, out.x)
        assert inst.objective(tilde) <= inst.objective(y)
        done += 1


def reference_max_removable_interval(g, S):
    """The interval search by full enumeration of both in-chunk offsets,
    O(multiplicity^2) per chunk pair; returns (first, last) or None."""
    m = g.m
    total = g.total_residue
    live = [(idx, r, mult) for idx, (r, mult) in enumerate(g.groups) if mult > 0]
    prefix = [sum(mult for _, mult in g.groups[:idx]) for idx in range(len(g.groups))]
    best = None
    for jpos, (j, rj, lj) in enumerate(live):
        for kpos in range(jpos, len(live)):
            k, rk, lk = live[kpos]
            between = live[jpos + 1:kpos]
            for x in range(1, lj + 1):
                for y in range(1, (lj if k == j else lk) + 1):
                    if k == j:
                        if y < x:
                            continue
                        size, removed, last = y - x + 1, (y - x + 1) * rj, prefix[j] + y
                    else:
                        size = (lj - x + 1) + sum(mult for _, _, mult in between) + y
                        removed = (lj - x + 1) * rj + sum(r * mult for _, r, mult in between) + y * rk
                        last = prefix[k] + y
                    if (total - removed) % m in S:
                        cand = (-size, j, k, prefix[j] + x, last)
                        if best is None or cand < best:
                            best = cand
    return None if best is None else best[3:]


def test_interval_scan_of_the_top_offsets_matches_full_enumeration():
    rng = random.Random(53)
    for _ in range(1500):
        m = rng.choice((2, 3, 4, 5, 7))
        groups = tuple(
            (rng.randrange(m), rng.randint(0, rng.choice((3, 9, 16))))
            for _ in range(rng.randint(1, 4))
        )
        S = frozenset(rng.sample(range(m), rng.randint(1, m)))
        iv = max_removable_interval(ResidueGroups(groups, m, S), S)
        got = None if iv is None else (iv.first, iv.last)
        assert got == reference_max_removable_interval(ResidueGroups(groups, m, S), S)


def test_multiplicity_of_a_million_shortens_at_once():
    # 10^6 ones then 10^6 twos mod 3: the whole sum is 0, so removing it
    # all leaves residue 0; with one two fewer the sum is 1, and a single
    # term is left
    big = 10**6
    g = ResidueGroups(((1, big), (2, big)), 3, frozenset({0}))
    iv = max_removable_interval(g, {0})
    assert (iv.first, iv.last) == (1, 2 * big)
    mu = shorten_residue_sum(ResidueGroups(((1, big), (2, big - 1)), 3, frozenset({1, 2})))
    assert sum(mu) <= 1 and (mu[0] + 2 * mu[1]) % 3 in (1, 2)
