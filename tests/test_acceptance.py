"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s or -rA to see them on success).

All checks are exact; there are no tolerances to tune.  Corpora are seeded
and fixed; sizes follow the stated budgets (n <= 6, right-hand sides in
[-5, 5], m in {2, 3, 5}).
"""

import random
from itertools import combinations

from cctu.cones import decompose_solutions
from cctu.errors import InfeasibleRelaxationError, ScaleError
from cctu.generators import KINDS, generate, random_network_matrix
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular
from cctu.patterns import residue_sumset, solve_rcctuf
from cctu.polyhedra import (
    Polyhedron,
    RCctufInstance,
    integral_feasible_point,
    lp_optimize,
    oracle_solve,
    width,
)
from cctu.seymour import classify, find_sum_decomposition, k_sum, pivot
from cctu.shortening import ResidueGroups, shorten_residue_sum
from cctu.structure import find_flat_or_solve, proximal_solution
from random_systems import boxed
from reference import is_elementary, tu_appendable_rows

PASS = "ACCEPTANCE {num}: PASS - {what}"


def report(num, what):
    print(PASS.format(num=num, what=what))


def seeded_corpus(m, r_size, count, seed, with_c_rate=0.3, narrow_rate=0.0):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(KINDS)
        gen = generate(
            kind,
            rng.randint(2, 5),
            m,
            r_size,
            rng.randrange(1 << 30),
            with_c=rng.random() < with_c_rate,
        )
        inst = gen.instance
        if inst.nvars > 6:
            continue
        if rng.random() < narrow_rate:
            # pin the right-hand side just above a random integer point, so
            # the relaxation stays feasible but every width collapses
            x_star = tuple(rng.randint(-2, 2) for _ in range(inst.nvars))
            prods = inst.P.T.matrix.mul_vec(x_star)
            slack = [rng.randint(0, max(1, m - r_size - 1)) for _ in prods]
            b = tuple(p + s for p, s in zip(prods, slack))
            inst = inst.replaced(P=Polyhedron(inst.P.T, b))
        out.append(inst)
    return out


def test_criterion_1_oracle_equivalence():
    """Feasibility status and optimal values match the proximity-box oracle
    on 500 seeded instances per (m, |R|) configuration."""
    configs = []
    for m in (2, 3, 5):
        sizes = {max(1, m - 2), m - 1, m}
        for r_size in sorted(sizes):
            configs.append((m, r_size))
    total = 0
    for m, r_size in configs:
        corpus = seeded_corpus(m, r_size, 500, seed=90_000 + 97 * m + r_size)
        for inst in corpus:
            res = solve_rcctuf(inst)
            ora = oracle_solve(inst)
            assert res.status != "unsupported"
            assert res.status == ora.status, (
                inst.P.T.matrix.rows,
                inst.P.b,
                inst.gamma,
                inst.m,
                sorted(inst.R),
                inst.c,
                res.status,
                ora.status,
            )
            if res.status == "feasible":
                assert inst.is_feasible_point(res.x)
                if inst.c is not None:
                    assert res.value == ora.value
            total += 1
    report(1, f"oracle equivalence on {total} instances over {len(configs)} configurations")


FUZZ_CORPUS_SPEC = (
    # (m, r_size, count, seed)
    (2, 1, 40, 71),
    (3, 1, 50, 72),
    (3, 2, 30, 73),
    (5, 3, 40, 74),
    (5, 4, 40, 75),
)


def blocked_corpus(m, r_size, count, seed):
    """Infeasible instances with feasible relaxations: bound the polyhedron
    into a tight box around an integer point and pick target residues from
    the complement of the residues attained over the box (while keeping the
    unconstrained congruence solvable, so a flat row must exist)."""
    from itertools import product as iproduct

    from cctu.structure import solve_unconstrained_congruence

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(KINDS)
        gen = generate(kind, rng.randint(2, 4), m, r_size, rng.randrange(1 << 30))
        inst = gen.instance
        n = inst.nvars
        if n > 4:
            continue
        x_star = tuple(rng.randint(-2, 2) for _ in range(n))
        w = rng.randint(0, max(0, m - r_size - 1))
        prods = inst.P.T.matrix.mul_vec(x_star)
        b = tuple(p + rng.randint(0, w) for p in prods)
        P = Polyhedron(inst.P.T, b).with_rows(
            [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            + [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)],
            [x_star[i] + w for i in range(n)] + [-(x_star[i] - w) for i in range(n)],
        )
        attained = set()
        for x in iproduct(*(range(x_star[i] - w, x_star[i] + w + 1) for i in range(n))):
            if P.contains(x):
                attained.add(sum(g * v for g, v in zip(inst.gamma, x)) % m)
        assert attained, "the anchor point itself is always in the box"
        free = [
            r
            for r in range(m)
            if r not in attained
            and solve_unconstrained_congruence(inst.gamma, m, frozenset({r})) is not None
        ]
        if len(free) < r_size:
            continue
        R = frozenset(rng.sample(free, r_size))
        out.append(RCctufInstance(P, inst.gamma, m, R))
    return out


def fuzz_corpus():
    out = []
    for m, r_size, count, seed in FUZZ_CORPUS_SPEC:
        out.extend(
            seeded_corpus(m, r_size, count, 80_000 + seed, with_c_rate=0.0, narrow_rate=0.5)
        )
        if r_size < m:
            out.extend(blocked_corpus(m, r_size, count // 2, 81_000 + seed))
    return out


def test_criterion_2_flatness():
    """Every infeasible corpus instance with a feasible relaxation yields a
    flat constraint row of verified width at most m-|R|-1; the tight
    one-variable family achieves the bound exactly."""
    checked = 0
    flats = 0
    for inst in fuzz_corpus():
        if oracle_solve(inst).status != "infeasible":
            continue
        checked += 1
        try:
            out = find_flat_or_solve(inst)
        except InfeasibleRelaxationError:
            continue  # no underlying polyhedron to have flat directions
        assert out.tag == "flat", (inst, out.tag)
        flats += 1
        bound = inst.m - len(inst.R) - 1
        assert out.width <= bound
        row = inst.P.T.matrix.rows[out.row_index]
        w = width(inst.P, row)
        assert w is not None and w <= bound
    assert flats > 0
    for m in range(2, 8):
        for ell in range(1, m):
            P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (0, m - ell - 1))
            inst = RCctufInstance(P, (1,), m, frozenset(range(m - ell, m)))
            out = find_flat_or_solve(inst)
            assert out.tag == "flat" and out.width == m - ell - 1
    report(2, f"flat rows on {flats}/{checked} infeasible instances + exact 1-D family widths")


def test_criterion_3_proximity():
    """For every feasible corpus instance: |x - x0|_inf <= m-|R| and
    d.(x - x0) <= m-|R| for the rows of T and all enumerated TU-appendable
    rows (n <= 6)."""
    checked = 0
    for inst in fuzz_corpus():
        ora = oracle_solve(inst)
        if ora.status != "feasible":
            continue
        x0 = lp_optimize(inst.P, (0,) * inst.nvars, "min").x
        x = proximal_solution(inst, x0, ora.x)
        bound = inst.m - len(inst.R)
        assert max(abs(a - b) for a, b in zip(x, x0)) <= bound
        for row in inst.P.T.matrix.rows:
            assert sum(a * (u - v) for a, u, v in zip(row, x, x0)) <= bound
        for d in tu_appendable_rows(inst.P.T):
            assert sum(a * (u - v) for a, u, v in zip(d, x, x0)) <= bound
        checked += 1
    assert checked > 0
    report(3, f"proximity bounds verified on {checked} feasible instances")


def test_criterion_4_elementary_decomposition():
    """300 random (T, b, x0, y): reconstruction, integrality, elementarity,
    and 100 random free-subsum feasibility checks each."""
    rng = random.Random(44_000)
    done = 0
    while done < 300:
        n = rng.randint(1, 6)
        k = rng.randint(1, n + 2)
        T = random_network_matrix(rng, k, n)
        b = tuple(rng.randint(-5, 5) for _ in range(k))
        P = boxed(TUMatrix.trusted(T), b, 6)
        x0 = integral_feasible_point(P)
        if x0 is None:
            continue
        c = tuple(rng.randint(-2, 2) for _ in range(n))
        out = lp_optimize(P, c, "max")
        y = out.x if out.status == "optimal" else x0
        dec = decompose_solutions(P, x0, y)
        assert dec.point_for(dec.coeffs) == dec.y
        for lam, ray in zip(dec.coeffs, dec.rays):
            assert all(isinstance(v, int) for v in ray) and lam >= 0
            if lam:
                assert is_elementary(P.T, ray), (P.T.matrix.rows, ray)
        for _ in range(100):
            mu = tuple(rng.randint(0, l) for l in dec.coeffs)
            assert P.contains(dec.point_for(mu))
        done += 1
    report(4, "decomposition contract on 300 random solution pairs")


def test_criterion_5_residue_shortening():
    """Output size <= m-|R| with residue in R for random inputs up to
    sum(lambda) = 50, m <= 11; exhaustive subset cross-check up to 12."""
    rng = random.Random(55_000)
    done = 0
    while done < 400:
        m = rng.choice((2, 3, 5, 7, 11))
        ngroups = rng.randint(1, 6)
        weights = [rng.randint(0, 12) for _ in range(ngroups)]
        while sum(weights) > 50:
            weights[weights.index(max(weights))] //= 2
        groups = tuple((rng.randrange(m), w) for w in weights)
        R = frozenset(rng.sample(range(m), rng.randint(1, m)))
        if sum(r * w for r, w in groups) % m not in R:
            continue
        mu = shorten_residue_sum(ResidueGroups(groups, m, R))
        assert sum(mu) <= m - len(R)
        assert sum(mi * r for mi, (r, _) in zip(mu, groups)) % m in R
        assert all(0 <= mi <= w for mi, (_, w) in zip(mu, groups))
        done += 1
    done = 0
    while done < 150:
        m = rng.choice((2, 3, 5, 7))
        ngroups = rng.randint(1, 4)
        groups = tuple((rng.randrange(m), rng.randint(0, 3)) for _ in range(ngroups))
        if sum(w for _, w in groups) > 12:
            continue
        R = frozenset(rng.sample(range(m), rng.randint(1, m)))
        if sum(r * w for r, w in groups) % m not in R:
            continue
        mu = shorten_residue_sum(ResidueGroups(groups, m, R))
        from itertools import product as iproduct

        witnesses = {
            cand
            for cand in iproduct(*(range(w + 1) for _, w in groups))
            if sum(cand) <= m - len(R)
            and sum(ci * r for ci, (r, _) in zip(cand, groups)) % m in R
        }
        assert tuple(mu) in witnesses
        done += 1
    report(5, "shortening bound on 400 random inputs + 150 exhaustive cross-checks")


def test_criterion_6_reduction_roundtrips():
    """Sum and pivot reconstructions are bit-exact; the circulation and
    tree-cut reductions agree with the oracle on feasibility and return
    feasible points (their circulation and labeling checks run inside the
    solvers on every solve)."""
    rng = random.Random(66_000)
    sums = 0
    for seed in range(40):
        kind = rng.choice(("sum1", "sum2", "sum3"))
        gen = generate(kind, 4, 3, 1, seed)
        mat = gen.instance.P.T.matrix
        dec = find_sum_decomposition(mat)
        if dec is None:
            continue
        assert k_sum(dec).rows == mat.rows
        sums += 1
    assert sums >= 20
    pivots = 0
    for _ in range(100):
        mat = random_network_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))
        spots = [
            (i, j) for i in range(mat.nrows) for j in range(mat.ncols) if mat[i, j] in (-1, 1)
        ]
        if not spots:
            continue
        i, j = rng.choice(spots)
        twice = pivot(pivot(mat, i, j), i, j)
        for r in range(mat.nrows):
            for c in range(mat.ncols):
                expect = mat[r, c] if (r == i) == (c == j) else -mat[r, c]
                assert twice[r, c] == expect
        assert is_totally_unimodular(pivot(mat, i, j))
        pivots += 1
    assert pivots >= 50
    # base-block solves run the reductions' feasibility checks internally
    solved = 0
    tries = 0
    while solved < 60 and tries < 400:
        tries += 1
        m = rng.choice((2, 3, 5))
        kind = rng.choice(("network", "transposed"))
        gen = generate(kind, rng.randint(2, 4), m, 1, rng.randrange(1 << 30))
        inst = gen.instance
        if inst.nvars > 5:
            continue
        try:
            cls = classify(inst.P.T.matrix)
        except ScaleError:
            continue
        if cls.tag not in ("network", "transposed_network"):
            continue
        from cctu.baseblocks import solve_base_block

        try:
            sol = solve_base_block(inst, cls)
        except ScaleError:
            continue
        ora = oracle_solve(inst)
        assert (sol is None) == (ora.status == "infeasible")
        if sol is not None:
            assert inst.is_feasible_point(sol)
        solved += 1
    assert solved >= 30
    report(6, f"bit-exact reconstructions + oracle agreement on {solved} base-block solves")


def test_criterion_7_pattern_theory():
    """Domain completeness, multi-residue propagation, linear fits on
    all-singleton patterns, and exhaustive Cauchy-Davenport."""
    for m in (2, 3, 5, 7):
        universe = list(range(m))
        subsets = [frozenset(c) for s in range(1, m + 1) for c in combinations(universe, s)]
        for r1 in subsets:
            for r2 in subsets:
                assert len(residue_sumset(r1, r2, m)) >= min(m, len(r1) + len(r2) - 1)
    from cctu.patterns import compute_pattern, split_instance, valid_subpatterns
    from cctu.polyhedra import integral_feasible_point as ifp

    rng = random.Random(77_000)
    patterns = 0
    singletons_fitted = 0
    tries = 0
    while patterns < 25 and tries < 300:
        tries += 1
        kind = rng.choice(("sum1", "sum2", "sum3"))
        m = rng.choice((3, 5))
        gen = generate(kind, 4, m, rng.choice((max(1, m - 2), m - 1)), rng.randrange(1 << 30))
        inst = gen.instance
        dec = find_sum_decomposition(inst.P.T.matrix)
        if dec is None or ifp(inst.P) is None:
            continue
        split = split_instance(inst, dec)

        def solver(sub):
            out = oracle_solve(sub)
            return out.x if out.status == "feasible" else None

        try:
            pattern = compute_pattern(inst, split, solver, m)
        except InfeasibleRelaxationError:
            continue
        patterns += 1
        # domain completeness: every cell has both relaxations (compute_pattern
        # asserts this internally); re-check the box shape is hole-free
        l0, u0, l1, u1, l2, u2 = pattern.bounds
        for a in range(l1, u1 + 1):
            for b in range(l2, u2 + 1):
                assert ((a, b) in pattern.cells) == (l0 <= a + b <= u0)
        dirs = ((1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1))
        for cell in pattern.cells:
            for d in dirs:
                n1 = (cell[0] + d[0], cell[1] + d[1])
                n2 = (cell[0] + 2 * d[0], cell[1] + 2 * d[1])
                if n1 in pattern.cells and n2 in pattern.cells:
                    if len(pattern.cells[cell]) >= 2:
                        assert len(pattern.cells[n1]) >= 2, (pattern.cells, cell, d)
        if all(len(v) == 1 for v in pattern.cells.values()):
            full = [
                sp
                for sp, covered in valid_subpatterns(pattern, m)
                if covered == frozenset(pattern.cells)
            ]
            assert full
            singletons_fitted += 1
    assert patterns >= 25
    report(
        7,
        f"pattern properties on {patterns} computed patterns "
        f"({singletons_fitted} all-singleton fits) + exhaustive Cauchy-Davenport",
    )


def unbounded_test_set():
    """50 hand-constructed instances with known unboundedness verdicts."""
    cases = []
    # family A: min -x over x >= 0 with gamma = g, target {0}: unbounded iff
    # the congruence admits a solution on the ray lattice (always, g free)
    for g in range(1, 11):
        P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (0,))
        cases.append((RCctufInstance(P, (g % 3,), 3, frozenset({0}), (-1,)), True))
    # family B: bounded boxes are never unbounded
    for hi in range(10):
        P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (0, hi))
        cases.append((RCctufInstance(P, (1,), 2, frozenset({0}), (-1,)), False))
    # family C: unbounded relaxation, unattainable congruence
    for r in (1, 2):
        for pad in range(5):
            P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (pad,))
            cases.append((RCctufInstance(P, (0,), 3, frozenset({r}), (-1,)), False))
    # family D: two variables, objective unbounded along a congruent ray
    for t in range(10):
        T = IntMatrix(((-1, 0), (0, -1), (1, -1)))
        P = Polyhedron(TUMatrix.certify(T), (0, 0, t))
        cases.append((RCctufInstance(P, (1, 1), 2, frozenset({0}), (0, -1)), True))
    # family E: objective bounded despite an unbounded polyhedron
    for t in range(10):
        P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,),))), (t,))
        cases.append((RCctufInstance(P, (1,), 2, frozenset({0}), (1,)), False))
    assert len(cases) == 50
    return cases


def test_criterion_8_unboundedness():
    """The structural solver and the oracle both report "unbounded" exactly
    on the instances of the directed 50-instance set that are feasible with
    an unbounded relaxation."""
    for inst, expected in unbounded_test_set():
        assert (solve_rcctuf(inst).status == "unbounded") == expected, inst
        assert (oracle_solve(inst).status == "unbounded") == expected, inst
        # cross-check against the definition
        relax_unbounded = lp_optimize(inst.P, inst.c, "min").status == "unbounded"
        feasible = oracle_solve(inst.without_objective()).status == "feasible"
        assert expected == (relax_unbounded and feasible)
    report(8, "unboundedness or its absence on all 50 directed instances")
