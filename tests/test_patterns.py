import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

import cctu.baseblocks as bb
import cctu.lp as lp
import cctu.patterns as patterns
import cctu.structure as structure
from cctu.errors import CctuError, ScaleError, UnsupportedInstanceError
from cctu.fileio import parse_instance
from cctu.generators import generate
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular
from cctu.patterns import (
    Pattern,
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
from cctu.seymour import (
    classify,
    find_sum_decomposition,
    pivot_transform_instance,
    recognize_network_matrix,
)
from cctu.structure import eliminate_tight_variable, solve_r_minus_1
from cctu.verify import verify_solution
from random_systems import polyhedron_with_implicit_equalities, random_instance, random_tu_matrix


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
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").status != "optimal":
            continue
        split = oriented_split(inst)
        assert len(split.b_cols) <= split.n_a
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
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").status != "optimal":
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
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").status != "optimal":
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
            for x in product(range(-5, 6), repeat=len(split.b_cols)):
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
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").status != "optimal":
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
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").status != "optimal":
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
        if lp_optimize(inst.P, (0,) * inst.nvars, "min").status != "optimal":
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


@pytest.mark.parametrize(
    "entry, R",
    [
        (bb.normalize, {1}),
        (lambda inst: bb.solve_base_block(inst, classify(inst.P.T.matrix)), {1}),
        (lambda inst: bb.solve_network_cctu(inst, recognize_network_matrix(inst.P.T.matrix)), {1}),
        (lambda inst: bb.solve_const_core(bb.normalize(inst)), {1}),
        (eliminate_tight_variable, {1}),
        (lambda inst: pivot_transform_instance(inst, 0, 0), {1}),
        # |R| = m - 1, so the residue-count check cannot fire first; one
        # variable, so the objective must be refused before the univariate solve
        (solve_r_minus_1, {1, 2}),
    ],
    ids=[
        "normalize",
        "solve_base_block",
        "solve_network_cctu",
        "solve_const_core",
        "eliminate_tight_variable",
        "pivot_transform_instance",
        "solve_r_minus_1",
    ],
)
def test_feasibility_layers_reject_objectives(entry, R):
    """Base blocks, elimination, pivoting and the |R| = m-1 solver decide
    feasibility only; given an objective they raise instead of dropping it.
    So the driver's objective tests above also show that solve_rcctuf never
    passes an objective down."""
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (2, 0))
    inst = RCctufInstance(P, (1,), 3, frozenset(R), (1,))
    with pytest.raises(ValueError, match="the caller owns the objective"):
        entry(inst)


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
    inst = _core_plus_block_instance(seed)
    split = split_instance(inst, _block_diag_witness(inst))

    def solver(sub):
        res = solve_rcctuf(sub)
        return res.x if res.status == "feasible" else None

    step = decomp_progress_step(inst, split, solver)
    assert step[0] == "family"
    members = step[1]
    assert members
    # a grown-target A-problem keeps the n_a A-side variables; an integrated
    # sub-pattern instance adds one
    kinds = {"cell" if sub.nvars == split.n_a else "sub" for sub, _ in members}
    if seed in FAMILY_SEEDS_MULTI:
        assert "cell" in kinds
    lifted = None
    for sub, lift in members:
        res = solve_rcctuf(sub)
        if res.status == "feasible":
            lifted = lift(res.x)
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
    inst = parse_instance(SUM3_LIFT_INSTANCE)
    assert oracle_solve(inst).status == "feasible"
    res = solve_rcctuf(inst)
    assert res.status == "feasible"
    assert inst.is_feasible_point(res.x)


OPTIMIZED_LIFT_CHECK = """
import cctu.patterns as patterns
from cctu.errors import SolutionCheckError
from cctu.fileio import parse_instance

inst = parse_instance(%r)
split = patterns.split_instance(inst, patterns.classify(inst.P.T.matrix).sum)

def solver(sub):
    res = patterns.solve_rcctuf(sub)
    return res.x if res.status == "feasible" else None

tag, members, _ = patterns.decomp_progress_step(inst, split, solver)
((sub, lift),) = members
sol = patterns.solve_rcctuf(sub).x
# every lifted point now lands far outside the polyhedron
patterns.Split.combine = lambda self, x_a, x_b: (10**6,) * self.inst.nvars
try:
    print(tag, "returned", lift(sol))
except SolutionCheckError as exc:
    print(tag, "raised", type(exc).__name__)
""" % SUM3_LIFT_INSTANCE


def test_lift_checks_survive_python_O():
    """A lifted point that fails its instance raises SolutionCheckError, also
    under python -O, which strips assert statements."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_LIFT_CHECK], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["family", "raised", "SolutionCheckError"], proc.stdout


# ---------------------------------------------------------------------------
# the driver: answers and stats of one recursive instance, and every source
# of an oracle fallback

# |R| = m-2 over m = 7: classified as a sum; the pattern recursion solves nine
# B-problems, all at depth 1.
RECURSIVE = """\
rows 4
cols 6
T
-1  1 -1 -1  0  1
 1 -1  0  1  0 -1
 0  0  0  1  0  0
-1  1 -1  0 -1  0
b -3 5 4 -4
gamma 5 2 -5 3 1 -1
m 7
R 2 3 4 5 6
"""


def test_driver_answer_and_stats_on_a_recursive_instance():
    res = solve_rcctuf(parse_instance(RECURSIVE))
    assert (res.status, res.x, res.value) == ("feasible", (3, 0, 0, 0, 1, 0), None)
    assert res.stats == {
        "subproblems": 10,
        "max_depth": 1,
        "oracle_fallback": False,
        "pattern_recursions": 9,
    }


def _scale_error(*args, **kwargs):
    raise ScaleError("forced")


@pytest.mark.parametrize(
    "source", ["classify", "solve_base_block", "decomp_progress_step", "MAX_DEPTH"]
)
def test_every_fallback_source_reaches_the_oracle(source, monkeypatch):
    monkeypatch.setattr(patterns, source, 0 if source == "MAX_DEPTH" else _scale_error)
    inst = parse_instance(RECURSIVE)
    res = solve_rcctuf(inst)
    assert res.stats["oracle_fallback"] is True
    assert res.status == oracle_solve(inst).status
    assert inst.is_feasible_point(res.x)


def test_decomposition_step_recursion_budget_is_checked(monkeypatch):
    """One decomposition step may recurse fewer than 3 * cap^2 times."""

    def greedy(inst, split, solver):
        while True:
            solver(split.b_problem(0, 0, range(inst.m)))

    monkeypatch.setattr(patterns, "decomp_progress_step", greedy)
    with pytest.raises(CctuError, match="pattern recursions"):
        solve_rcctuf(parse_instance(RECURSIVE))


# ---------------------------------------------------------------------------
# the relaxation vertex: an optimal vertex of the relaxation whose residue is
# in R is optimal for the whole problem, and a feasible vertex in R solves an
# |R| = m-1 instance


def supported_shapes():
    for m in range(2, 8):
        for ell in (m, m - 1, m - 2):
            if ell >= 1 and (ell >= m - 1 or is_prime(m)):
                yield m, ell


def test_relaxation_vertex_in_R_is_optimal_on_every_supported_shape(rng, monkeypatch):
    scans = []
    real_scan = patterns.search_box

    def counted_scan(*args, **kwargs):
        scans.append(args)
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(patterns, "search_box", counted_scan)
    qualifying = scanned = 0
    for m, ell in supported_shapes():
        for _ in range(30):
            inst = random_instance(rng, n_max=3, m_choices=(m,), r_size=ell, with_c=True)
            out = lp_optimize(inst.P, inst.c, "min")
            del scans[:]
            res = solve_rcctuf(inst)
            ora = oracle_solve(inst)
            assert (res.status, res.value) == (ora.status, ora.value), (inst, res, ora)
            if res.status == "feasible":
                assert verify_solution(inst, res.x).ok
            if out.status == "optimal" and inst.residue(out.x) in inst.R:
                qualifying += 1
                assert (res.x, res.stats["subproblems"], scans) == (out.x, 0, [])
            elif res.status == "feasible":
                # the vertex misses R: the proximity box around it decides
                scanned += 1
                assert res.stats["subproblems"] >= 1 and len(scans) == 1
                assert scans[0][1] == out.x
    assert qualifying > 0 and scanned > 0


def counting_lps(monkeypatch):
    calls = []
    real = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    return calls


def box_instance(R):
    """Minimize x over 0 <= x <= 2 with x in R (mod 3)."""
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (2, 0))
    return RCctufInstance(P, (1,), 3, frozenset(R), (1,))


def test_a_vertex_in_R_costs_one_lp(monkeypatch):
    lps = counting_lps(monkeypatch)
    # the optimal vertex x = 0 has residue 0
    res = solve_rcctuf(box_instance({0}))
    assert (res.status, res.x, res.value) == ("feasible", (0,), 0)
    assert res.stats["subproblems"] == 0 and len(lps) == 1
    # the |R| = m-1 solver: a pinned point is the only vertex, of residue 2
    del lps[:]
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1, 0), (-1, 0), (0, 1), (0, -1)))), (1, -1, 1, -1))
    assert solve_r_minus_1(RCctufInstance(P, (1, 1), 3, frozenset({1, 2}))) == (1, 1)
    assert len(lps) == 1
    # the optimal vertex x = 0 misses R = {1, 2}: the whole path runs
    del lps[:]
    res = solve_rcctuf(box_instance({1, 2}))
    assert (res.status, res.x, res.value) == ("feasible", (1,), 1)
    assert res.stats["subproblems"] >= 1 and len(lps) > 1


def base_block_instances(rng, count):
    """Seeded prime |R| = m-2 feasibility instances whose matrix classifies
    as a base block, so that depth 0 hands its vertex to normalize."""
    out = []
    while len(out) < count:
        m = rng.choice((3, 5, 7))
        kind = rng.choice(("network", "transposed"))
        inst = generate(kind, rng.randint(2, 4), m, m - 2, rng.randrange(1 << 30)).instance
        if classify(inst.P.T.matrix).tag in ("network", "transposed_network", "constant_core"):
            out.append(inst)
    return out


def test_no_lp_is_solved_twice_in_one_solve(monkeypatch):
    """The vertex and the implicit-equality verdicts of the |R| = m-1 path,
    and the depth-0 vertex of a prime base block, are handed down rather
    than solved again.  Feasibility instances only: an objective that equals
    a tight row, or is zero, repeats the objective LP by coincidence."""
    lps = counting_lps(monkeypatch)
    flat_calls = []
    real_flat = structure.find_flat_or_solve

    def counted_flat(*args, **kwargs):
        flat_calls.append(args)
        return real_flat(*args, **kwargs)

    monkeypatch.setattr(structure, "find_flat_or_solve", counted_flat)
    rng = random.Random(2033)
    rminus1 = []
    for _ in range(300):
        inst = polyhedron_with_implicit_equalities(rng)
        rminus1.append(inst.replaced(R=frozenset(rng.sample(range(inst.m), inst.m - 1))))
    past_vertex = 0
    for inst in rminus1 + base_block_instances(rng, 60):
        del lps[:]
        res = solve_rcctuf(inst)
        keys = [(tuple(map(tuple, rows)), tuple(b), tuple(c), sense) for rows, b, c, sense in lps]
        assert len(keys) == len(set(keys)), inst
        assert res.status == oracle_solve(inst).status
        past_vertex += len(inst.R) == inst.m - 1 and res.status == "feasible" and len(lps) > 1
    assert past_vertex > 30 and len(flat_calls) > 10


OPTIMIZED_VERTEX_CHECK = """
import cctu.patterns as patterns
from cctu.errors import SolutionCheckError
from cctu.fileio import parse_instance
from cctu.lp import LpResult

inst = parse_instance("rows 2\\ncols 1\\nT\\n1\\n-1\\nb 2 0\\ngamma 1\\nm 3\\nR 1\\nc 1\\n")
# a "vertex" of residue 1, far outside 0 <= x <= 2
patterns.lp_optimize = lambda P, c, sense="min": LpResult("optimal", (10**6,), 10**6)
try:
    print("returned", patterns.solve_rcctuf(inst).x)
except SolutionCheckError as exc:
    print("raised", type(exc).__name__)
"""


def test_vertex_shortcut_check_survives_python_O():
    """The vertex answered without a feasibility solve is still checked
    against its instance, also under python -O."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_VERTEX_CHECK], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "SolutionCheckError"], proc.stdout
