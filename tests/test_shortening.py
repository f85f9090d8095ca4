import random
from itertools import combinations_with_replacement, product

import pytest

from cctu.errors import CctuError
from cctu.matrices import IntMatrix
from cctu.polyhedra import Polyhedron, RCctufInstance, lp_optimize, oracle_solve
from cctu.shortening import ResidueGroups, shorten_residue_sum, transform_solution
from random_systems import random_instance
from reference import certified


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


def test_shorten_output_bound_and_membership_random():
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
        mu = shorten_residue_sum(ResidueGroups(groups, m, R))
        assert sum(mu) <= m - len(R)
        assert sum(m_i * r for m_i, (r, _) in zip(mu, groups)) % m in R
        assert all(0 <= m_i <= mult for m_i, (_, mult) in zip(mu, groups))
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


def fewest_terms(groups, m, R):
    """Brute force: the least k such that some mu <= lambda with k terms
    sums into R, trying every multiset of k chunk indices."""
    for k in range(sum(mult for _, mult in groups) + 1):
        for picks in combinations_with_replacement(range(len(groups)), k):
            if all(picks.count(i) <= mult for i, (_, mult) in enumerate(groups)):
                if sum(groups[i][0] for i in picks) % m in R:
                    return k
    return None


def test_shorten_keeps_the_fewest_terms():
    # residue 2 is one term of the fourth chunk; a shortening that deletes
    # runs of consecutive terms keeps three
    groups = ((4, 6), (4, 2), (0, 6), (2, 5), (4, 5))
    assert shorten_residue_sum(ResidueGroups(groups, 5, frozenset({2}))) == (0, 0, 0, 1, 0)


def test_shorten_matches_the_fewest_terms_by_brute_force():
    rng = random.Random(59)
    done = 0
    while done < 500:
        m = rng.choice((2, 3, 4, 5, 7, 11))
        groups = tuple((rng.randrange(m), rng.randint(0, 6)) for _ in range(rng.randint(1, 5)))
        R = frozenset(rng.sample(range(m), rng.randint(1, m)))
        if sum(r * mult for r, mult in groups) % m not in R:
            continue
        lam = tuple(mult for _, mult in groups)
        mu = shorten_residue_sum(ResidueGroups(groups, m, R))
        if sum(lam) <= m - len(R):
            assert mu == lam
        else:
            assert sum(mu) == fewest_terms(groups, m, R)
            assert sum(mi * r for mi, (r, _) in zip(mu, groups)) % m in R
            assert all(0 <= mi <= mult for mi, mult in zip(mu, lam))
        done += 1


def test_residue_groups_keep_what_they_are_given():
    g = ResidueGroups(((4, 2), (0, 1)), 5, frozenset({3}))
    assert g.groups == ((4, 2), (0, 1)) and g.R == frozenset({3})
    with pytest.raises(TypeError):
        ResidueGroups([(4, 2)], 5, frozenset({3}))
    with pytest.raises(TypeError):
        ResidueGroups(((4, 2),), 5, {3})
    for groups, R in ((((5, 1),), {0}), (((-1, 1),), {0}), (((1, 1),), {5}), (((1, 1),), {-1})):
        with pytest.raises(ValueError):
            ResidueGroups(groups, 5, frozenset(R))
    with pytest.raises(ValueError):
        ResidueGroups(((1, -1),), 5, frozenset({0}))


def box_instance(lo, hi, gamma, m, R, c=None):
    P = Polyhedron(certified(IntMatrix(((-1,), (1,)))), (-lo, hi))
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


def test_multiplicity_of_a_million_shortens_at_once():
    # 10^6 ones then 10^6 - 1 twos mod 3 sum to 1; with R = {1, 2} a
    # single term is left, and the scan never walks a multiplicity past it
    big = 10**6
    mu = shorten_residue_sum(ResidueGroups(((1, big), (2, big - 1)), 3, frozenset({1, 2})))
    assert sum(mu) <= 1 and (mu[0] + 2 * mu[1]) % 3 in (1, 2)
