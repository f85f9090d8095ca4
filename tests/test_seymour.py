import random

from cctu.generators import random_network_matrix
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular
from cctu.polyhedra import oracle_solve
from cctu.seymour import (
    SPECIAL_CORES,
    SumDecomposition,
    classify,
    find_sum_decomposition,
    k_sum,
    matches_special_core,
    pivot,
    pivot_transform_instance,
    recognize_network_matrix,
    reduce_to_core,
    replay_core_ops,
)
from random_systems import random_instance, random_tu_matrix


def test_pivot_direct_formula():
    assert pivot(IntMatrix(((1, 1), (1, 0))), 0, 0).rows == ((-1, 1), (1, -1))


def test_pivot_twice_negates_off_pivot_row_and_column():
    rng = random.Random(3)
    for _ in range(20):
        mat = random_tu_matrix(rng, 3, 3)
        spots = [(i, j) for i in range(3) for j in range(3) if mat[i, j] in (-1, 1)]
        if not spots:
            continue
        i, j = spots[0]
        twice = pivot(pivot(mat, i, j), i, j)
        for r in range(3):
            for c in range(3):
                if r == i and c == j:
                    assert twice[r, c] == mat[r, c]
                elif r == i or c == j:
                    assert twice[r, c] == -mat[r, c]
                else:
                    assert twice[r, c] == mat[r, c]


def test_pivot_preserves_tu():
    rng = random.Random(5)
    done = 0
    while done < 100:
        mat = random_tu_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))
        spots = [(i, j) for i in range(mat.nrows) for j in range(mat.ncols) if mat[i, j]]
        if not spots:
            continue
        i, j = spots[done % len(spots)]
        assert is_totally_unimodular(pivot(mat, i, j))
        done += 1


def test_one_sum_composition():
    dec = SumDecomposition(
        1,
        IntMatrix(((1,),)),
        IntMatrix(((1,),)),
        (0,),
        (0,),
        (0,),
        (0,),
        (0, 1),
        (0, 1),
    )
    assert k_sum(dec).rows == ((1, 0), (0, 1))


def test_two_sum_composition():
    dec = SumDecomposition(
        2,
        IntMatrix(((1,),)),
        IntMatrix(((1,),)),
        (1,),
        (1,),
        (0,),
        (0,),
        (0, 1),
        (0, 1),
    )
    assert k_sum(dec).rows == ((1, 1), (0, 1))


def test_reduce_identity_to_empty_core():
    core, log = reduce_to_core(IntMatrix.identity(4))
    assert core.nrows == 0 and core.ncols == 0
    assert replay_core_ops(core, log).rows == IntMatrix.identity(4).rows


def test_special_matrices_are_their_own_cores():
    for mat in SPECIAL_CORES:
        core, log = reduce_to_core(mat)
        assert core.rows == mat.rows and not log
        assert matches_special_core(core)


def test_core_reduction_strips_appended_junk():
    base = SPECIAL_CORES[1]
    rows = list(base.rows)
    rows.append((0, 1, 0, 0, 0))  # unit row
    rows.append(rows[2])  # duplicate row
    mat = IntMatrix(tuple(rows))
    core, log = reduce_to_core(mat)
    assert core.rows == base.rows
    assert replay_core_ops(core, log).rows == mat.rows


def test_core_replay_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        mat = random_tu_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        core, log = reduce_to_core(mat)
        assert replay_core_ops(core, log).rows == mat.rows


def test_special_core_detection_modulo_transforms():
    rng = random.Random(11)
    base = SPECIAL_CORES[0]
    perm_r = list(range(5))
    perm_c = list(range(5))
    rng.shuffle(perm_r)
    rng.shuffle(perm_c)
    signs_r = [rng.choice((1, -1)) for _ in range(5)]
    signs_c = [rng.choice((1, -1)) for _ in range(5)]
    rows = tuple(
        tuple(base[perm_r[r], perm_c[c]] * signs_r[r] * signs_c[c] for c in range(5))
        for r in range(5)
    )
    assert matches_special_core(IntMatrix(rows))
    assert not matches_special_core(IntMatrix.identity(5))


def test_identity_is_network():
    rep = recognize_network_matrix(IntMatrix.identity(3))
    assert rep is not None
    assert rep.rebuild().rows == IntMatrix.identity(3).rows


def test_non_tu_matrix_is_not_network():
    assert recognize_network_matrix(IntMatrix(((1, 1), (-1, 1)))) is None


def test_interval_matrix_recognized():
    mat = IntMatrix(((1, 0), (1, 1), (0, 1)))
    rep = recognize_network_matrix(mat)
    assert rep is not None and rep.rebuild().rows == mat.rows


def test_random_network_matrices_recognized(rng):
    for _ in range(25):
        mat = random_tu_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rep = recognize_network_matrix(mat)
        assert rep is not None
        assert rep.rebuild().rows == mat.rows


def test_tall_network_matrices_with_small_cores_recognized():
    """Recognition cost is bounded by the core's rows, not the matrix's: a
    two-column matrix has a core of at most two rows, however tall it is."""
    rng = random.Random(12)
    tall = [IntMatrix.identity(11)] + [random_network_matrix(rng, 12, 2) for _ in range(5)]
    for mat in tall:
        rep = recognize_network_matrix(mat)
        assert rep is not None and rep.rebuild() == mat


def test_special_cores_are_not_network():
    for mat in SPECIAL_CORES:
        assert recognize_network_matrix(mat) is None
        assert recognize_network_matrix(mat.transpose()) is None


def test_classify_identity_network():
    cls = classify(TUMatrix.certify(IntMatrix.identity(3)))
    assert cls.tag == "network"


def test_classify_special_cores():
    for mat in SPECIAL_CORES:
        cls = classify(TUMatrix.certify(mat))
        assert cls.tag == "constant_core"


def test_classify_block_diagonal_sum():
    rng = random.Random(13)
    A = random_tu_matrix(rng, 2, 2)
    B = random_tu_matrix(rng, 2, 2)
    rows = tuple(r + (0, 0) for r in A.rows) + tuple((0, 0) + r for r in B.rows)
    mat = IntMatrix(rows)
    # a block diagonal can be a network matrix too; force the sum branch
    dec = find_sum_decomposition(mat)
    assert dec is not None and dec.kind == 1
    assert k_sum(dec).rows == mat.rows


def test_sum_reconstruction_roundtrip_random(rng):
    found = 0
    tries = 0
    while found < 10 and tries < 60:
        tries += 1
        mat = random_tu_matrix(rng, rng.randint(2, 4), rng.randint(4, 6))
        dec = find_sum_decomposition(mat)
        if dec is None:
            continue
        assert dec.n_A >= 2 and dec.n_B >= 2
        assert k_sum(dec).rows == mat.rows
        assert is_totally_unimodular(dec.first_summand())
        assert is_totally_unimodular(dec.second_summand())
        found += 1
    assert found > 0


def test_pivot_transform_equivalence(rng):
    done = 0
    while done < 25:
        inst = random_instance(rng, n_max=3)
        mat = inst.P.T.matrix
        spots = [(i, j) for i in range(mat.nrows) for j in range(mat.ncols) if mat[i, j]]
        if not spots or oracle_solve(inst).status == "infeasible" and done % 2:
            continue
        i, j = spots[0]
        try:
            transformed, maps = pivot_transform_instance(inst, i, j)
        except Exception as exc:
            from cctu.errors import InfeasibleRelaxationError

            assert isinstance(exc, InfeasibleRelaxationError)
            continue
        # solution maps are inverse bijections
        for _ in range(10):
            x = tuple(rng.randint(-4, 4) for _ in range(inst.nvars))
            assert maps.to_original(maps.to_pivoted(x)) == x
            # residues transfer exactly
            y = maps.to_pivoted(x)
            assert inst.residue(x) == transformed.residue(y)
        # feasibility equivalence against the oracle
        assert oracle_solve(inst).status == oracle_solve(transformed).status
        # solutions transfer
        out = oracle_solve(transformed)
        if out.status == "feasible":
            assert inst.is_feasible_point(maps.to_original(out.x))
        done += 1
