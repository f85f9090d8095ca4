import random

from cctu.baseblocks import (
    CccInstance,
    cctu_to_ccc,
    check_circulation,
    circulation_residue,
    circulation_value,
    labeling_to_solution,
    normalize,
    solve_base_block,
    solve_ccc,
    solve_ctc_chain,
)
from cctu.matrices import IntMatrix, TUMatrix
from cctu.polyhedra import Polyhedron, RCctufInstance, oracle_solve
from cctu.seymour import SPECIAL_CORES, classify, recognize_network_matrix
from random_systems import random_tu_matrix


def test_normalize_shifts_and_splits():
    P = Polyhedron(TUMatrix.certify(IntMatrix(((-1,), (1,)))), (0, 5))
    inst = RCctufInstance(P, (1,), 3, frozenset({2}), (1,))
    norm = normalize(inst, 2)
    assert norm.x0 == (0,)
    assert all(v >= 0 for v in norm.b)
    assert norm.T.ncols == 2
    assert norm.lift((3, 1)) == (2,)


def test_normalized_matrix_stays_network():
    rng = random.Random(3)
    for _ in range(10):
        T = random_tu_matrix(rng, 3, 2)
        P = Polyhedron(TUMatrix.trusted(T), (2,) * 3)
        inst = RCctufInstance(P, (1, 1), 3, frozenset({1}))
        norm = normalize(inst, 1)
        from cctu.baseblocks import _internal_limits

        rep = recognize_network_matrix(norm.T, _internal_limits())
        assert rep is not None and rep.rebuild().rows == norm.T.rows
        # and with the nonnegativity unit rows appended explicitly
        n = norm.T.ncols
        with_units = IntMatrix(
            norm.T.rows + tuple(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))
        )
        rep2 = recognize_network_matrix(with_units, _internal_limits())
        assert rep2 is not None and rep2.rebuild().rows == with_units.rows


def two_cycle_ccc():
    # two vertices, arcs both ways
    return CccInstance(
        2,
        ((0, 1), (1, 0)),
        (2, 2),
        (0, 0),
        (1, 0),
        3,
        2,
    )


def test_solve_ccc_two_cycle():
    flows = solve_ccc(two_cycle_ccc())
    assert flows == (2, 2)
    ccc = two_cycle_ccc()
    assert check_circulation(ccc, flows)
    assert circulation_residue(ccc, flows) == 2


def test_solve_ccc_zero_target_trivial():
    ccc = CccInstance(2, ((0, 1), (1, 0)), (2, 2), (1, 1), (1, 0), 3, 0)
    flows = solve_ccc(ccc)
    assert flows == (0, 0)


def test_solve_ccc_single_arc_infeasible():
    ccc = CccInstance(2, ((0, 1),), (5,), (0,), (1,), 3, 2)
    assert solve_ccc(ccc) is None


def test_solve_ccc_min_cost():
    # two parallel ways around, one expensive
    ccc = CccInstance(
        2,
        ((0, 1), (1, 0), (0, 1)),
        (2, 4, 2),
        (5, 0, 1),
        (1, 0, 1),
        3,
        2,
    )
    flows = solve_ccc(ccc)
    assert flows is not None and check_circulation(ccc, flows)
    assert circulation_residue(ccc, flows) == 2
    assert circulation_value(ccc, flows) == 2  # two units around the cheap arc


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
        tuple(rng.randint(-2, 2) for _ in arcs),
        tuple(rng.randrange(m) for _ in arcs),
        m,
        rng.randrange(m),
    )


def brute_force_ccc(ccc):
    from itertools import product

    best = None
    for flows in product(*(range(u + 1) for u in ccc.u)):
        if not check_circulation(ccc, flows):
            continue
        if circulation_residue(ccc, flows) != ccc.r % ccc.m:
            continue
        val = circulation_value(ccc, flows)
        if best is None or val < best:
            best = val
    return best


def test_solve_ccc_matches_bruteforce(rng):
    for _ in range(60):
        ccc = random_ccc(rng)
        flows = solve_ccc(ccc)
        best = brute_force_ccc(ccc)
        if flows is None:
            assert best is None
        else:
            assert check_circulation(ccc, flows)
            assert circulation_residue(ccc, flows) == ccc.r % ccc.m
            assert circulation_value(ccc, flows) == best


def test_ctc_path_tree_labeling():
    from cctu.baseblocks import CtcInstance, labeling_to_solution, solve_ctc_chain

    # two-vertex path, alpha = (1, -1), target residue 1 mod 3: the labeling
    # must separate the vertices by exactly one level
    ctc = CtcInstance(
        nvertices=2,
        tree_arcs=((0, 1),),
        extra_arcs=(),
        b=(),
        costs=(0,),
        alpha=(1, -1),
        r=1,
        m=3,
    )
    lab = solve_ctc_chain(ctc)
    assert lab is not None
    assert (lab.levels[0] - lab.levels[1]) % 3 == 1
    assert labeling_to_solution(ctc, lab) == (lab.levels[0] - lab.levels[1],)
    # r = 0 admits the zero labeling at cost zero
    zero = solve_ctc_chain(CtcInstance(2, ((0, 1),), (), (), (1,), (1, -1), 0, 3))
    assert zero is not None and set(zero.levels) == {0}


def network_instance(rng, n=3, k=3, m=3, rsize=1, with_c=False):
    T = random_tu_matrix(rng, k, n)
    b = tuple(rng.randint(0, 4) for _ in range(k))
    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
    R = frozenset(rng.sample(range(m), rsize))
    c = tuple(rng.randint(-2, 2) for _ in range(n)) if with_c else None
    P = Polyhedron(TUMatrix.trusted(T), b).with_rows(
        [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        + [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)],
        [4] * (2 * n),
    )
    return RCctufInstance(P, gamma, m, R, c)


def test_network_path_matches_oracle(rng):
    done = 0
    while done < 100:
        inst = network_instance(
            rng, n=rng.randint(1, 3), k=rng.randint(1, 3), m=rng.choice((2, 3, 5)),
            rsize=1, with_c=rng.random() < 0.5
        )
        cls = classify(inst.P.T)
        if cls.tag != "network":
            continue
        sol = solve_base_block(inst, cls)
        ora = oracle_solve(inst)
        if sol is None:
            assert ora.status == "infeasible"
        else:
            assert inst.is_feasible_point(sol)
            assert ora.status == "feasible"
            if inst.c is not None:
                assert inst.objective(sol) == ora.value
        done += 1


def transposed_instance(rng, n=2, k=3, m=3):
    T = random_tu_matrix(rng, n, k).transpose()  # k x n transpose of network
    b = tuple(rng.randint(0, 3) for _ in range(k))
    gamma = tuple(rng.randint(-3, 3) for _ in range(n))
    P = Polyhedron(TUMatrix.trusted(T), b).with_rows(
        [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        + [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)],
        [3] * (2 * n),
    )
    return RCctufInstance(P, gamma, m, frozenset({rng.randrange(m)}))


def test_transposed_path_matches_oracle(rng):
    done = 0
    while done < 100:
        inst = transposed_instance(rng, n=rng.randint(1, 2), k=rng.randint(1, 3), m=rng.choice((2, 3)))
        cls = classify(inst.P.T)
        if cls.tag not in ("network", "transposed_network"):
            continue
        sol = solve_base_block(inst, cls)
        ora = oracle_solve(inst)
        assert (sol is None) == (ora.status == "infeasible")
        if sol is not None:
            assert inst.is_feasible_point(sol)
        done += 1


def test_const_core_instance_matches_oracle():
    rng = random.Random(99)
    for trial in range(100):
        base = SPECIAL_CORES[trial % 2]
        b = tuple(rng.randint(0, 2) for _ in range(5))
        gamma = tuple(rng.randint(-2, 2) for _ in range(5))
        m = 3
        P = Polyhedron(TUMatrix.trusted(base), b).with_rows(
            [tuple(1 if j == i else 0 for j in range(5)) for i in range(5)]
            + [tuple(-1 if j == i else 0 for j in range(5)) for i in range(5)],
            [2] * 10,
        )
        inst = RCctufInstance(P, gamma, m, frozenset({rng.randrange(m)}))
        cls = classify(inst.P.T)
        assert cls.tag == "constant_core"
        sol = solve_base_block(inst, cls, budget=20_000_000)
        ora = oracle_solve(inst)
        assert (sol is None) == (ora.status == "infeasible")
        if sol is not None:
            assert inst.is_feasible_point(sol)


def test_full_residue_set_passthrough(rng):
    inst = network_instance(rng, m=3, rsize=3)
    cls = classify(inst.P.T)
    sol = solve_base_block(inst, cls)
    assert sol is not None and inst.P.contains(sol)


def test_infeasible_relaxation_returns_none(rng):
    P = Polyhedron(TUMatrix.certify(IntMatrix(((1,), (-1,)))), (-1, 0))
    inst = RCctufInstance(P, (1,), 3, frozenset({0}))
    cls = classify(inst.P.T)
    assert solve_base_block(inst, cls) is None


def test_circulation_solution_roundtrip(rng):
    """Forward and backward mappings between box solutions and circulations
    preserve feasibility, cost, and residue."""
    from cctu.baseblocks import _internal_limits, solution_to_circulation
    from itertools import product as iproduct

    done = 0
    while done < 15:
        inst = network_instance(
            rng, n=rng.randint(1, 2), k=rng.randint(1, 2), m=3, rsize=1, with_c=True
        )
        try:
            norm = normalize(inst, next(iter(inst.R)))
        except Exception:
            continue
        rep = recognize_network_matrix(norm.T, _internal_limits())
        if rep is None:
            continue
        ccc = cctu_to_ccc(norm, rep)
        ncols = len(norm.gamma)
        # forward: every box point of the normalized problem maps to a
        # feasible circulation of equal length and residue
        for xhat in iproduct(range(norm.m), repeat=ncols):
            if any(a > bv for a, bv in zip(norm.T.mul_vec(xhat), norm.b)):
                continue
            prods = norm.T.mul_vec(xhat)
            if any(abs(p) > norm.m - 1 for p in prods):
                continue
            flows = solution_to_circulation(ccc, rep, xhat)
            assert check_circulation(ccc, flows), (xhat, flows)
            assert circulation_value(ccc, flows) == sum(
                cv * xv for cv, xv in zip(norm.c, xhat)
            )
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
    import random as _r

    from cctu.generators import generate
    from cctu.matrices import is_tu_appendable, is_totally_unimodular
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
        for j, fv in zip(dec.col_perm[dec.n_A:], dec.f):
            d_f[j] = fv
        d_h = [0] * n
        for j, hv in zip(dec.col_perm[:dec.n_A], dec.h):
            d_h[j] = hv
        d_hf = [a + b for a, b in zip(d_f, d_h)]
        stacked = mat
        for d in (d_f, d_h, d_hf):
            assert is_tu_appendable(stacked, d)
            stacked = stacked.with_row(d)
        assert is_totally_unimodular(stacked)
        found += 1
    assert found >= 3
