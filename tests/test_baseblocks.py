import os
import random
import subprocess
import sys
from pathlib import Path

import cctu.baseblocks as bb
from cctu.baseblocks import (
    CccInstance,
    _split_network,
    _split_transposed,
    cctu_to_ccc,
    check_circulation,
    circulation_residue,
    labeling_to_solution,
    normalize,
    solve_base_block,
    solve_ccc,
    solve_ctc_chain,
)
from cctu.generators import random_network_matrix
from cctu.matrices import IntMatrix, TUMatrix
from cctu.patterns import solve_rcctuf
from cctu.polyhedra import Polyhedron, RCctufInstance, oracle_solve
from cctu.seymour import SPECIAL_CORES, classify, recognize_network_matrix, reduce_to_core
from random_systems import boxed, random_tu_matrix
from reference import is_tu_appendable, solution_to_circulation


def test_normalize_shifts_and_splits():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (0, 5))
    inst = RCctufInstance(P, (1,), 3, frozenset({2}))
    norm = normalize(inst)
    assert norm.x0 == (0,)
    assert norm.R == frozenset({2})
    assert all(v >= 0 for v in norm.b)
    assert norm.T.ncols == 2
    assert norm.lift((3, 1)) == (2,)


def test_normalized_matrix_stays_network():
    rng = random.Random(3)
    for _ in range(10):
        T = random_tu_matrix(rng, 3, 2)
        P = Polyhedron(TUMatrix.trusted(T), (2,) * 3)
        inst = RCctufInstance(P, (1, 1), 3, frozenset({1}))
        norm = normalize(inst)
        rep = recognize_network_matrix(norm.T)
        assert rep is not None and rep.rebuild().rows == norm.T.rows
        # and with the nonnegativity unit rows appended explicitly
        n = norm.T.ncols
        with_units = IntMatrix(
            norm.T.rows + tuple(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))
        )
        rep2 = recognize_network_matrix(with_units)
        assert rep2 is not None and rep2.rebuild().rows == with_units.rows


def split(mat):
    return IntMatrix(tuple([row + tuple([-v for v in row]) for row in mat.rows]), 2 * mat.ncols)


def test_split_representations_rebuild_the_split_matrix():
    """The classifier's representation of T (or of T^T) yields one of the
    normalized matrix [T | -T] (or of its transpose) without recognition."""
    rng = random.Random(5)
    for _ in range(40):
        N = random_network_matrix(rng, rng.randint(0, 6), rng.randint(0, 5))
        rep = recognize_network_matrix(N)
        assert _split_network(rep).rebuild() == split(N)
        # rep realizes T^T for T = N^T
        assert _split_transposed(rep).rebuild().transpose() == split(N.transpose())


def two_cycle_ccc():
    # two vertices, arcs both ways
    return CccInstance(
        2,
        ((0, 1), (1, 0)),
        (2, 2),
        (1, 0),
        3,
        frozenset({2}),
    )


def test_solve_ccc_two_cycle():
    flows = solve_ccc(two_cycle_ccc())
    assert flows == (2, 2)
    ccc = two_cycle_ccc()
    assert check_circulation(ccc, flows)
    assert circulation_residue(ccc, flows) == 2


def test_solve_ccc_zero_target_trivial():
    ccc = CccInstance(2, ((0, 1), (1, 0)), (2, 2), (1, 0), 3, frozenset({0}))
    flows = solve_ccc(ccc)
    assert flows == (0, 0)


def test_solve_ccc_single_arc_infeasible():
    ccc = CccInstance(2, ((0, 1),), (5,), (1,), 3, frozenset({2}))
    assert solve_ccc(ccc) is None


def random_ccc(rng):
    nv = rng.randint(2, 4)
    arcs = []
    for _ in range(rng.randint(2, 6)):
        a = rng.randrange(nv)
        b = rng.randrange(nv)
        if a != b:
            arcs.append((a, b))
    if not arcs:
        arcs = [(0, 1), (1, 0)]
    m = rng.choice((2, 3, 5))
    return CccInstance(
        nv,
        tuple(arcs),
        tuple(rng.randint(0, m - 1) for _ in arcs),
        tuple(rng.randrange(m) for _ in arcs),
        m,
        frozenset({rng.randrange(m)}),
    )


def brute_force_ccc(ccc):
    """Whether some capacity-respecting circulation hits the target set."""
    from itertools import product

    return any(
        check_circulation(ccc, flows) and circulation_residue(ccc, flows) in ccc.R
        for flows in product(*(range(u + 1) for u in ccc.u))
    )


def test_solve_ccc_matches_bruteforce(rng):
    for _ in range(60):
        ccc = random_ccc(rng)
        flows = solve_ccc(ccc)
        assert (flows is not None) == brute_force_ccc(ccc)
        if flows is not None:
            assert check_circulation(ccc, flows)
            assert circulation_residue(ccc, flows) in ccc.R


def test_ctc_path_tree_labeling():
    from cctu.baseblocks import CtcInstance, labeling_to_solution, solve_ctc_chain

    # two-vertex path, alpha = (1, -1), target residue 1 mod 3: the labeling
    # must separate the vertices by exactly one level
    ctc = CtcInstance(
        nvertices=2,
        tree_arcs=((0, 1),),
        extra_arcs=(),
        b=(),
        alpha=(1, -1),
        R=frozenset({1}),
        m=3,
    )
    levels = solve_ctc_chain(ctc)
    assert levels is not None
    assert (levels[0] - levels[1]) % 3 == 1
    assert labeling_to_solution(ctc, levels) == (levels[0] - levels[1],)
    # R = {0} admits the zero labeling, found first
    zero = solve_ctc_chain(CtcInstance(2, ((0, 1),), (), (), (1, -1), frozenset({0}), 3))
    assert zero == (0, 0)


def network_instance(rng, n=3, k=3, m=3, rsize=1):
    T = random_tu_matrix(rng, k, n)
    b = tuple(rng.randint(0, 4) for _ in range(k))
    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
    R = frozenset(rng.sample(range(m), rsize))
    P = boxed(TUMatrix.trusted(T), b, 4)
    return RCctufInstance(P, gamma, m, R)


def test_network_path_matches_oracle(rng):
    done = 0
    while done < 100:
        m = rng.choice((2, 3, 5))
        inst = network_instance(
            rng, n=rng.randint(1, 3), k=rng.randint(1, 3), m=m, rsize=rng.randint(1, m - 1)
        )
        cls = classify(inst.P.T.matrix)
        if cls.tag != "network":
            continue
        sol = solve_base_block(inst, cls)
        ora = oracle_solve(inst)
        if sol is None:
            assert ora.status == "infeasible"
        else:
            assert inst.is_feasible_point(sol)
            assert ora.status == "feasible"
        done += 1


def transposed_instance(rng, n=2, k=3, m=3):
    T = random_tu_matrix(rng, n, k).transpose()  # k x n transpose of network
    b = tuple(rng.randint(0, 3) for _ in range(k))
    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
    P = boxed(TUMatrix.trusted(T), b, 3)
    return RCctufInstance(P, gamma, m, frozenset(rng.sample(range(m), rng.randint(1, m - 1))))


def test_transposed_path_matches_oracle(rng):
    done = 0
    while done < 100:
        inst = transposed_instance(rng, n=rng.randint(1, 2), k=rng.randint(1, 3), m=rng.choice((2, 3)))
        cls = classify(inst.P.T.matrix)
        if cls.tag not in ("network", "transposed_network"):
            continue
        sol = solve_base_block(inst, cls)
        ora = oracle_solve(inst)
        assert (sol is None) == (ora.status == "infeasible")
        if sol is not None:
            assert inst.is_feasible_point(sol)
        done += 1


def test_infeasible_network_instance_runs_one_terminal_search(monkeypatch):
    """All target residues share one terminal box search, so an infeasible
    instance costs one search, not one per residue."""
    calls = []
    box_search = bb.kernels.box_search

    def counting(*args):
        calls.append(args)
        return box_search(*args)

    monkeypatch.setattr(bb.kernels, "box_search", counting)
    # x in {0, 1} reaches residues 0 and 1 only
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (1, 0))
    inst = RCctufInstance(P, (1,), 5, frozenset({2, 3}))
    cls = classify(inst.P.T.matrix)
    assert cls.tag == "network"
    assert solve_base_block(inst, cls) is None
    assert len(calls) == 1
    assert oracle_solve(inst).status == "infeasible"


def test_const_core_instance_matches_oracle():
    rng = random.Random(99)
    for trial in range(100):
        base = SPECIAL_CORES[trial % 2]
        b = tuple(rng.randint(0, 2) for _ in range(5))
        gamma = tuple(rng.randint(-2, 2) for _ in range(5))
        m = 3
        P = boxed(TUMatrix.trusted(base), b, 2)
        inst = RCctufInstance(P, gamma, m, frozenset({rng.randrange(m)}))
        cls = classify(inst.P.T.matrix)
        assert cls.tag == "constant_core"
        sol = solve_base_block(inst, cls, budget=20_000_000)
        ora = oracle_solve(inst)
        assert (sol is None) == (ora.status == "infeasible")
        if sol is not None:
            assert inst.is_feasible_point(sol)


def test_const_core_recognizes_the_guessed_matrix_once(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat)
        return recognize_network_matrix(mat)

    monkeypatch.setattr(bb, "recognize_network_matrix", counting)
    P = boxed(TUMatrix.trusted(SPECIAL_CORES[0]), (1, 2, 0, 1, 2), 2)
    inst = RCctufInstance(P, (1, -2, 0, 2, 1), 3, frozenset({0, 2}))
    cls = classify(inst.P.T.matrix)
    assert cls.tag == "constant_core"
    x = solve_base_block(inst, cls)
    assert len(calls) == 1
    assert (x is None) == (oracle_solve(inst).status == "infeasible")
    if x is not None:
        assert inst.is_feasible_point(x)


def test_solver_reaches_const_core_through_its_module_binding(monkeypatch):
    """solve_rcctuf reaches the const-core pipeline through the module
    attribute, which is what a tracer rebinds."""
    calls = []
    solve_const_core = bb.solve_const_core

    def counting(norm, budget):
        calls.append(norm)
        return solve_const_core(norm, budget)

    monkeypatch.setattr(bb, "solve_const_core", counting)
    P = boxed(TUMatrix.trusted(SPECIAL_CORES[0]), (1, 2, 0, 1, 2), 2)
    inst = RCctufInstance(P, (1, -2, 0, 2, 1), 3, frozenset({2}))
    assert classify(inst.P.T.matrix).tag == "constant_core"
    res = solve_rcctuf(inst)
    assert len(calls) == 1
    assert res.status == oracle_solve(inst).status == "feasible"
    assert inst.is_feasible_point(res.x)


def test_stems_name_the_core_line_and_sign_of_every_line():
    """SPECIAL_CORES[0] padded with four columns (zero, unit, a copy of
    column 2, the negation of column 4) and four rows (zero, unit, a copy of
    row 1, the negation of row 3)."""
    core_rows = SPECIAL_CORES[0].rows
    rows = [r + (0, -1 if i == 0 else 0, r[2], -r[4]) for i, r in enumerate(core_rows)]
    rows += [(0,) * 9, (0, -1) + (0,) * 7, rows[1], tuple([-v for v in rows[3]])]
    mat = IntMatrix(tuple(rows))
    core, log = reduce_to_core(mat)
    assert core.rows == core_rows
    row_stems, col_stems = bb._stems(mat, log)
    assert row_stems == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), None, None, (1, 1), (3, -1)]
    assert col_stems == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), None, None, (2, 1), (4, -1)]


OPTIMIZED_CHECK = """
import cctu.baseblocks as bb
from cctu.errors import CctuError
from cctu.matrices import IntMatrix, TUMatrix
from cctu.patterns import solve_rcctuf
from cctu.polyhedra import Polyhedron, RCctufInstance
from cctu.seymour import classify

bb.check_circulation = lambda ccc, flows: False
P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (2, 0))
inst = RCctufInstance(P, (1,), 3, frozenset({1}))
cls = classify(inst.P.T.matrix)
try:
    x = bb.solve_base_block(inst, cls)
    print(cls.tag, "returned", x)
except CctuError as exc:
    print(cls.tag, "raised", type(exc).__name__)
"""


def test_base_block_checks_survive_python_O():
    """The reduction's invariant checks are explicit, so python -O keeps them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["network", "raised"], proc.stdout


def test_infeasible_relaxation_returns_none(rng):
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))
    inst = RCctufInstance(P, (1,), 3, frozenset({0}))
    cls = classify(inst.P.T.matrix)
    assert solve_base_block(inst, cls) is None


def test_circulation_solution_roundtrip(rng):
    """Forward and backward mappings between box solutions and circulations
    preserve feasibility and residue."""
    from itertools import product as iproduct

    done = 0
    while done < 15:
        inst = network_instance(rng, n=rng.randint(1, 2), k=rng.randint(1, 2), m=3, rsize=1)
        try:
            norm = normalize(inst)
        except Exception:
            continue
        rep = recognize_network_matrix(norm.T)
        if rep is None:
            continue
        ccc = cctu_to_ccc(norm, rep)
        ncols = len(norm.gamma)
        # forward: every box point of the normalized problem maps to a
        # feasible circulation of equal residue
        for xhat in iproduct(range(norm.m), repeat=ncols):
            if any(a > bv for a, bv in zip(norm.T.mul_vec(xhat), norm.b)):
                continue
            prods = norm.T.mul_vec(xhat)
            if any(abs(p) > norm.m - 1 for p in prods):
                continue
            flows = solution_to_circulation(ccc, rep, xhat)
            assert check_circulation(ccc, flows), (xhat, flows)
            assert circulation_residue(ccc, flows) == (
                sum(gv * xv for gv, xv in zip(norm.gamma, xhat)) % norm.m
            )
            # backward: reading the column flows reproduces the solution
            ntree = len(rep.tree_arcs)
            back = tuple(flows[2 * ntree + j] for j in range(ncols))
            assert back == tuple(xhat)
        done += 1


def test_three_sum_border_rows_are_tu_appendable():
    """The three coupling rows of a 3-sum can be appended simultaneously."""
    from cctu.generators import generate
    from cctu.matrices import is_totally_unimodular
    from cctu.seymour import find_sum_decomposition

    found = 0
    for seed in range(30):
        gen = generate("sum3", 4, 3, 1, seed)
        mat = gen.instance.P.T.matrix
        dec = find_sum_decomposition(mat)
        if dec is None or dec.kind != 3:
            continue
        n = mat.ncols
        d_f = [0] * n
        for j, fv in zip(dec.col_perm[dec.A.ncols:], dec.f):
            d_f[j] = fv
        d_h = [0] * n
        for j, hv in zip(dec.col_perm[:dec.A.ncols], dec.h):
            d_h[j] = hv
        d_hf = [a + b for a, b in zip(d_f, d_h)]
        stacked = mat
        for d in (d_f, d_h, d_hf):
            assert is_tu_appendable(stacked, d)
            stacked = IntMatrix(stacked.rows + (tuple(d),), stacked.ncols)
        assert is_totally_unimodular(stacked)
        found += 1
    assert found >= 3
