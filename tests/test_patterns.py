import random
from itertools import combinations, product

import pytest

from cctu.errors import UnsupportedInstanceError
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular
from cctu.patterns import (
    Pattern,
    SolverConfig,
    compute_pattern,
    decomp_progress_step,
    domain_cells,
    find_linear_subpattern,
    integrate_subpattern,
    is_prime,
    narrowed_domain,
    residue_sumset,
    solve_rcctuf,
    split_instance,
    valid_subpatterns,
)
from cctu.polyhedra import Polyhedron, RCctufInstance, lp_optimize, oracle_solve
from cctu.seymour import find_sum_decomposition
from random_systems import random_instance, random_tu_matrix


def test_cauchy_davenport_exhaustive():
    for m in (2, 3, 5, 7):
        universe = list(range(m))
        subsets = [frozenset(c) for size in range(1, m + 1) for c in combinations(universe, size)]
        for r1 in subsets:
            for r2 in subsets:
                assert len(residue_sumset(r1, r2, m)) >= min(m, len(r1) + len(r2) - 1)


def test_is_prime_small():
    assert [m for m in range(2, 12) if is_prime(m)] == [2, 3, 5, 7, 11]


def sum_instance(rng, m=3, rsize=1, n_each=2, k_each=2, with_c=False):
    """Random instance whose matrix splits as a 1- or 2-sum.

    Bounded enough for brute-force windows through small right-hand sides;
    kept within the separation-search budget (no explicit box rows).
    """
    A = random_tu_matrix(rng, k_each, n_each)
    B = random_tu_matrix(rng, k_each, n_each)
    n = 2 * n_each
    e = tuple(rng.choice((0, 1, -1)) for _ in range(k_each))
    f = tuple(rng.choice((0, 1)) for _ in range(n_each))
    rows = tuple(
        ar + tuple(ev * fv for fv in f) for ar, ev in zip(A.rows, e)
    ) + tuple((0,) * n_each + br for br in B.rows)
    mat = IntMatrix(rows)
    if not is_totally_unimodular(mat):
        rows = tuple(ar + (0,) * n_each for ar in A.rows) + tuple(
            (0,) * n_each + br for br in B.rows
        )
        mat = IntMatrix(rows)
    b = tuple(rng.randint(-2, 3) for _ in range(2 * k_each))
    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
    R = frozenset(rng.sample(range(m), rsize))
    c = tuple(rng.randint(-2, 2) for _ in range(n)) if with_c else None
    P = Polyhedron(TUMatrix.trusted(mat), b)
    return RCctufInstance(P, gamma, m, R, c)


def oriented_split(inst):
    dec = find_sum_decomposition(inst.P.T.matrix)
    assert dec is not None
    return split_instance(inst, dec)


def test_split_combines_to_feasible_points(rng):
    done = 0
    while done < 20:
        inst = sum_instance(rng)
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").tag != "optimal":
            continue
        split = oriented_split(inst)
        assert split.n_b <= split.n_a
        # residue split: gamma splits exactly across the two sides
        x = tuple(rng.randint(-1, 1) for _ in range(inst.nvars))
        xa = tuple(x[c] for c in split.a_cols)
        xb = tuple(x[c] for c in split.b_cols)
        assert (split.gamma_a(xa) + split.gamma_b(xb)) % inst.m == inst.residue(x)
        done += 1


def test_narrowed_domain_bounds_and_no_holes(rng):
    done = 0
    while done < 15:
        inst = sum_instance(rng, m=rng.choice((3, 5)), rsize=rng.choice((1, 2)))
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").tag != "optimal":
            continue
        split = oriented_split(inst)
        from cctu.errors import InfeasibleRelaxationError

        try:
            bounds = narrowed_domain(inst, split)
        except InfeasibleRelaxationError:
            continue
        l0, u0, l1, u1, l2, u2 = bounds
        slack = inst.m - len(inst.R)
        assert u0 - l0 <= slack and u1 - l1 <= slack and u2 - l2 <= slack
        # every cell of the emitted box has feasible A- and B-relaxations
        from cctu.polyhedra import integral_feasible_point

        for (a, b) in domain_cells(bounds):
            assert integral_feasible_point(split.a_problem(a, b, range(inst.m)).P) is not None
            assert integral_feasible_point(split.b_problem(a, b, range(inst.m)).P) is not None
        done += 1


def oracle_as_solver(sub):
    out = oracle_solve(sub)
    return out.x if out.status == "feasible" else None


def test_pattern_matches_bruteforce_residue_scan(rng):
    done = 0
    while done < 12:
        inst = sum_instance(rng, m=3, rsize=1)
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").tag != "optimal":
            continue
        split = oriented_split(inst)
        from cctu.errors import InfeasibleRelaxationError

        try:
            pattern = compute_pattern(inst, split, oracle_as_solver, inst.m)
        except InfeasibleRelaxationError:
            continue
        for cell, listed in pattern.cells.items():
            alpha, beta = cell
            # brute force over a window: every windowed residue must be
            # listed; every listed residue carries a verifying witness
            sub = split.b_problem(alpha, beta, range(inst.m))
            windowed = set()
            for x in product(range(-5, 6), repeat=split.n_b):
                if sub.P.contains(x):
                    windowed.add(split.gamma_b(x))
            assert pattern.complete[cell]
            listed_res = set(r for r, _ in listed)
            assert windowed <= listed_res
            for r, w in listed:
                assert sub.P.contains(w) and split.gamma_b(w) == r
        done += 1


def test_pushing_twos_on_computed_patterns(rng):
    done = 0
    while done < 12:
        inst = sum_instance(rng, m=rng.choice((3, 5)), rsize=1)
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").tag != "optimal":
            continue
        split = oriented_split(inst)
        from cctu.errors import InfeasibleRelaxationError

        try:
            pattern = compute_pattern(inst, split, oracle_as_solver, inst.m)
        except InfeasibleRelaxationError:
            continue
        dirs = ((1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1))
        for cell in pattern.cells:
            for d in dirs:
                n1 = (cell[0] + d[0], cell[1] + d[1])
                n2 = (cell[0] + 2 * d[0], cell[1] + 2 * d[1])
                if n1 in pattern.cells and n2 in pattern.cells:
                    if len(pattern.cells[cell]) >= 2:
                        assert len(pattern.cells[n1]) >= 2
        done += 1


def test_linear_fit_exists_for_all_singleton_patterns(rng):
    done = 0
    while done < 12:
        inst = sum_instance(rng, m=3, rsize=1)
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").tag != "optimal":
            continue
        split = oriented_split(inst)
        from cctu.errors import InfeasibleRelaxationError

        try:
            pattern = compute_pattern(inst, split, oracle_as_solver, inst.m)
        except InfeasibleRelaxationError:
            continue
        if any(len(v) != 1 for v in pattern.cells.values()):
            continue
        # an all-singleton pattern admits a full-domain linear fit
        full = [
            sp
            for sp, covered in valid_subpatterns(pattern, inst.m)
            if covered == frozenset(pattern.cells)
        ]
        assert full, f"no full-domain fit for {pattern.cells}"
        done += 1


FIGURE_PATTERN = {
    (-1, 1): (0, 1),
    (0, 1): (1,),
    (-1, 0): (0,),
    (0, 0): (0, 1),
    (0, -1): (0,),
}


def test_figure_pattern_has_a_valid_subpattern():
    # the displayed non-linear pattern: a valid sub-box/coefficient pair exists
    cells = {cell: tuple((r, None) for r in rs) for cell, rs in FIGURE_PATTERN.items()}
    pattern = Pattern(
        bounds=(-1, 1, -1, 0, -1, 1),
        cells=cells,
        complete={c: True for c in cells},
        a_points={c: None for c in cells},
    )
    m = 3
    singletons = [c for c, v in pattern.cells.items() if len(v) == 1]
    subs = find_linear_subpattern(pattern, m, singletons)
    assert subs
    covered = set()
    for sp in subs:
        for c in pattern.cells:
            if sp.contains(c):
                assert sp.value(c, m) in pattern.residues(c)
                covered.add(c)
    assert set(singletons) <= covered


def test_constant_pattern_fits_with_zero_slopes():
    cells = {(0, 0): ((1, None),), (1, 0): ((1, None),), (0, 1): ((1, None),)}
    pattern = Pattern((0, 1, 0, 1, 0, 1), cells, {c: True for c in cells}, {c: None for c in cells})
    subs = find_linear_subpattern(pattern, 3)
    full = [sp for sp in subs if all(sp.contains(c) for c in cells)]
    assert any(sp.r1 == 0 and sp.r2 == 0 for sp in full)


def test_subpattern_search_requires_prime_modulus():
    pattern = Pattern((0, 0, 0, 0, 0, 0), {(0, 0): ((1, None),)}, {(0, 0): True}, {(0, 0): None})
    with pytest.raises(UnsupportedInstanceError):
        find_linear_subpattern(pattern, 4)


def test_integrated_instance_matrix_is_tu_and_lifts(rng):
    done = 0
    while done < 8:
        inst = sum_instance(rng, m=3, rsize=1)
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").tag != "optimal":
            continue
        split = oriented_split(inst)
        from cctu.errors import InfeasibleRelaxationError

        try:
            pattern = compute_pattern(inst, split, oracle_as_solver, inst.m)
        except InfeasibleRelaxationError:
            continue
        singles = [c for c, v in pattern.cells.items() if len(v) == 1]
        if not singles:
            continue
        for sp in find_linear_subpattern(pattern, inst.m, singles):
            reduced, lift = integrate_subpattern(inst, split, pattern, sp)
            assert reduced.nvars == split.n_a + 1
            assert is_totally_unimodular(reduced.P.T.matrix)
            out = oracle_solve(reduced)
            if out.status == "feasible":
                x = lift(out.x)
                assert inst.is_feasible_point(x)
        done += 1


def test_solver_matches_oracle_on_one_sums(rng):
    done = 0
    while done < 40:
        m = rng.choice((3, 5))
        rsize = rng.choice((max(1, m - 2), m - 1, m))
        inst = sum_instance(rng, m=m, rsize=rsize)
        res = solve_rcctuf(inst)
        ora = oracle_solve(inst)
        assert res.status in ("feasible", "infeasible")
        assert (res.status == "feasible") == (ora.status == "feasible"), (
            inst.P.T.matrix.rows,
            inst.P.b,
            inst.gamma,
            inst.m,
            sorted(inst.R),
        )
        if res.status == "feasible":
            assert inst.is_feasible_point(res.x)
        done += 1


def test_solver_matches_oracle_on_general_instances(rng):
    done = 0
    while done < 120:
        m = rng.choice((2, 3, 5))
        sizes = [max(1, m - 2), m - 1, m]
        inst = random_instance(rng, n_max=4, m_choices=(m,), r_size=rng.choice(sizes))
        res = solve_rcctuf(inst)
        ora = oracle_solve(inst)
        assert res.status in ("feasible", "infeasible")
        assert (res.status == "feasible") == (ora.status == "feasible"), (
            inst.P.T.matrix.rows,
            inst.P.b,
            inst.gamma,
            inst.m,
            sorted(inst.R),
        )
        if res.status == "feasible":
            assert inst.is_feasible_point(res.x)
        done += 1


def test_solver_optimization_matches_oracle(rng):
    done = 0
    while done < 50:
        m = rng.choice((2, 3, 5))
        sizes = [max(1, m - 2), m - 1, m]
        inst = random_instance(rng, n_max=3, m_choices=(m,), r_size=rng.choice(sizes), with_c=True)
        res = solve_rcctuf(inst)
        ora = oracle_solve(inst)
        assert res.status == ora.status, (inst, res.status, ora.status)
        if res.status == "feasible":
            assert res.value == ora.value
            assert inst.is_feasible_point(res.x)
            assert inst.objective(res.x) == res.value
        done += 1


def test_solver_unsupported_combination():
    from cctu.matrices import IntMatrix, TUMatrix

    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (5, 0))
    inst = RCctufInstance(P, (1,), 4, frozenset({0, 1}))  # m=4 non-prime, |R|=m-2
    assert solve_rcctuf(inst).status == "unsupported"


def test_paper_family_infeasible_for_all_sizes():
    from cctu.matrices import IntMatrix, TUMatrix

    for m in range(2, 8):
        for ell in range(1, m):
            if ell < m - 2 or (ell == m - 2 and not is_prime(m)):
                continue
            P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (0, m - ell - 1))
            inst = RCctufInstance(P, (1,), m, frozenset(range(m - ell, m)))
            assert solve_rcctuf(inst).status == "infeasible"


def test_full_residue_set_returns_relaxation_vertex(rng):
    inst = random_instance(rng, n_max=3, m_choices=(3,), r_size=3)
    res = solve_rcctuf(inst)
    if res.status == "feasible":
        assert inst.P.contains(res.x)


def test_averaging_routine_properties(rng):
    from cctu.patterns import averaging_solutions
    from cctu.polyhedra import integral_feasible_point

    done = 0
    while done < 15:
        inst = sum_instance(rng, m=3, rsize=1)
        split_dec = find_sum_decomposition(inst.P.T.matrix)
        if split_dec is None:
            continue
        split = split_instance(inst, split_dec)
        d_alpha = split.alpha_direction()
        d_beta = split.beta_direction()
        pts = []
        for c in ((1,) * inst.nvars, (-1,) * inst.nvars, tuple(rng.choice((-1, 0, 1)) for _ in range(inst.nvars))):
            out = lp_optimize(inst.P, c, "min")
            if out.tag == "optimal":
                pts.append(out.vertex)
        if len(pts) < 2:
            continue
        x1, x2 = pts[0], pts[1]
        x3, x4 = averaging_solutions(split, x1, x2)
        assert tuple(a + b for a, b in zip(x1, x2)) == tuple(a + b for a, b in zip(x3, x4))
        assert inst.P.contains(x3) and inst.P.contains(x4)

        def prods(x):
            return (
                sum(d * v for d, v in zip(d_alpha, x)),
                sum(d * v for d, v in zip(d_beta, x)),
            )

        a1, b1 = prods(x1)
        a2, b2 = prods(x2)
        for x in (x3, x4):
            a, b = prods(x)
            assert (a1 + a2) // 2 <= a <= -(-(a1 + a2) // 2)
            assert (b1 + b2) // 2 <= b <= -(-(b1 + b2) // 2)
            s = a + b
            tot = a1 + b1 + a2 + b2
            assert tot // 2 <= s <= -(-tot // 2)
        done += 1


# ---------------------------------------------------------------------------
# family-branch regression: instances built around the special 5x5 cores are
# the desk-scale cases where direct combinations fail and the step must emit
# family members (grown target sets / integrated sub-patterns) and lift their
# solutions back


def _core_plus_block_instance(seed):
    from cctu.generators import random_network_matrix
    from cctu.seymour import SPECIAL_CORES

    rng = random.Random(seed)
    S = SPECIAL_CORES[rng.randrange(2)]
    B = random_network_matrix(rng, rng.randint(2, 3), 3)
    n = 8
    rows = tuple(r + (0,) * 3 for r in S.rows) + tuple((0,) * 5 + r for r in B.rows)
    rows += tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    rows += tuple(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))
    w = rng.randint(1, 2)
    b = tuple(rng.randint(0, 3) for _ in range(5 + B.nrows)) + (w,) * n + (w,) * n
    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
    return RCctufInstance(
        Polyhedron(TUMatrix.trusted(IntMatrix(rows)), b), gamma, 3, frozenset({rng.randrange(3)})
    )


def _block_diag_witness(inst, n_a=5):
    from cctu.seymour import SumDecomposition

    mat = inst.P.T.matrix
    n = mat.ncols
    a_rows = [i for i in range(mat.nrows) if all(mat[i, j] == 0 for j in range(n_a, n))]
    b_rows = [i for i in range(mat.nrows) if i not in a_rows]
    return SumDecomposition(
        1,
        mat.submatrix(a_rows, range(n_a)),
        mat.submatrix(b_rows, range(n_a, n)),
        (0,) * len(a_rows),
        (0,) * (n - n_a),
        (0,) * len(b_rows),
        (0,) * n_a,
        tuple(a_rows) + tuple(b_rows),
        tuple(range(n)),
    )


FAMILY_SEEDS_SUBPATTERN = (603994827, 30325366, 873529949, 706370394, 527777210)
FAMILY_SEEDS_MULTI = (1028587104,)


@pytest.mark.parametrize("seed", FAMILY_SEEDS_SUBPATTERN + FAMILY_SEEDS_MULTI)
def test_family_branches_end_to_end(seed):
    from cctu.patterns import SolverConfig

    inst = _core_plus_block_instance(seed)
    split = split_instance(inst, _block_diag_witness(inst))
    config = SolverConfig()

    def solver(sub):
        res = solve_rcctuf(sub, config)
        return res.x if res.status == "feasible" else None

    step = decomp_progress_step(inst, split, solver)
    assert step[0] == "family"
    members = step[1]
    assert members
    kinds = {"cell" if mem.note.startswith("cell") else "sub" for mem in members}
    if seed in FAMILY_SEEDS_MULTI:
        assert "cell" in kinds
    lifted = None
    for mem in members:
        res = solve_rcctuf(mem.instance, config)
        if res.status == "feasible":
            lifted = mem.lift(res.x)
            break
    ora = oracle_solve(inst, budget=8_000_000)
    if lifted is None:
        assert ora.status == "infeasible"
    else:
        assert inst.is_feasible_point(lifted)
        assert ora.status == "feasible"


SUM3_LIFT_INSTANCE = """rows 5
cols 4
T
 0  0  0 -1
-1 -1  0 -1
-1  0  0 -1
 0  0  0  1
-1 -1 -1  0
b 4 -4 -3 -4 4
gamma 1 1 0 5
m 3
R 2
"""


def test_sum3_subpattern_lift_lands_in_target_residues():
    """The integrated sub-pattern instance must target R - r0: its lift adds
    the B-side residue r0 + r1*alpha + r2*beta back.  With R + r0 the
    reduced solution lifted to a point of residue 0 instead of 2."""
    from cctu.fileio import parse_instance

    inst = parse_instance(SUM3_LIFT_INSTANCE)
    assert oracle_solve(inst).status == "feasible"
    res = solve_rcctuf(inst)
    assert res.status == "feasible"
    assert inst.is_feasible_point(res.x)
