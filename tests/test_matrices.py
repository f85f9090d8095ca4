import random
from itertools import combinations, product

import pytest

from cctu.errors import DimensionError, ScaleError
from cctu.matrices import (
    IntMatrix,
    TUMatrix,
    determinant,
    is_elementary,
    is_totally_unimodular,
    is_tu_appendable,
    non_tu_witness,
    tu_appendable_rows,
)
from random_systems import random_tu_matrix

# the two special 5x5 matrices that close Seymour's base-block case
SPECIAL_A = IntMatrix(
    (
        (1, -1, 0, 0, -1),
        (-1, 1, -1, 0, 0),
        (0, -1, 1, -1, 0),
        (0, 0, -1, 1, -1),
        (-1, 0, 0, -1, 1),
    )
)
SPECIAL_B = IntMatrix(
    (
        (1, 1, 1, 1, 1),
        (1, 1, 1, 0, 0),
        (1, 0, 1, 1, 0),
        (1, 0, 0, 1, 1),
        (1, 1, 0, 0, 1),
    )
)


def cofactor_det(mat):
    """Independent determinant oracle: Laplace expansion along the first row."""
    n = mat.nrows
    if n == 0:
        return 1
    if n == 1:
        return mat[0, 0]
    total = 0
    cols = list(range(n))
    for j in range(n):
        minor = mat.submatrix(range(1, n), [cc for cc in cols if cc != j])
        total += (-1) ** j * mat[0, j] * cofactor_det(minor)
    return total


def test_determinant_identity():
    assert determinant(IntMatrix.identity(2)) == 1


def test_determinant_direct_2x2():
    assert determinant(IntMatrix(((1, 1), (-1, 1)))) == 2


def test_determinant_matches_cofactor_oracle_on_special_matrix():
    assert determinant(SPECIAL_A) == cofactor_det(SPECIAL_A)
    assert determinant(SPECIAL_B) == cofactor_det(SPECIAL_B)


def test_determinant_random_vs_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)))
        assert determinant(mat) == cofactor_det(mat)


def test_determinant_rejects_nonsquare():
    with pytest.raises(DimensionError):
        determinant(IntMatrix(((1, 0),)))


def test_identity_is_tu():
    for n in (1, 3, 6):
        assert is_totally_unimodular(IntMatrix.identity(n))


def test_det2_matrix_is_not_tu():
    assert not is_totally_unimodular(IntMatrix(((1, 1), (-1, 1))))


def test_special_5x5_matrices_are_tu():
    assert is_totally_unimodular(SPECIAL_A)
    assert is_totally_unimodular(SPECIAL_B)


def exhaustive_tu(mat):
    """Oracle: enumerate every square submatrix outright."""
    for order in range(1, min(mat.nrows, mat.ncols) + 1):
        for rows in combinations(range(mat.nrows), order):
            for cols in combinations(range(mat.ncols), order):
                if cofactor_det(mat.submatrix(rows, cols)) not in (-1, 0, 1):
                    return False
    return True


def test_tu_matches_exhaustive_enumeration_up_to_6x6():
    rng = random.Random(11)
    for _ in range(80):
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = IntMatrix(tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(k)))
        assert is_totally_unimodular(mat) == exhaustive_tu(mat)
    for _ in range(6):
        mat = random_tu_matrix(rng, 6, 6)
        assert is_totally_unimodular(mat) == exhaustive_tu(mat) == True


def test_ghouila_houri_branch_on_9x12_matrices():
    # min dimension 9 forces the Ghouila-Houri branch
    rows = tuple(
        tuple(1 if c % 4 in (r % 4, (r + 1) % 4) else 0 for c in range(12)) for r in range(9)
    )
    tall = IntMatrix(rows)  # consecutive-ones interval matrix, hence TU
    assert min(tall.nrows, tall.ncols) == 9
    assert is_totally_unimodular(tall)
    # flip one entry to plant a 2x2 submatrix with determinant 2
    spoiled = [list(r) for r in rows]
    spoiled[0][2] = -1
    assert not is_totally_unimodular(IntMatrix(tuple(tuple(r) for r in spoiled)))


def test_non_tu_witness_names_a_violating_submatrix():
    mat = IntMatrix(((1, 1), (-1, 1)))
    rows, cols, det = non_tu_witness(mat)
    assert abs(det) > 1
    assert cofactor_det(mat.submatrix(rows, cols)) == det


def test_subdeterminant_scan_does_not_call_the_public_det_bareiss(monkeypatch):
    # A tracer rebinds every module attribute that is kernels.det_bareiss;
    # the scan must not reach its per-submatrix determinants through it.
    from cctu import kernels, matrices

    # incidence matrix of a 5-cycle: the full 5x5 is the first violation (det 2)
    odd_cycle = IntMatrix(
        tuple(tuple(1 if j in (i, (i + 1) % 5) else 0 for j in range(5)) for i in range(5))
    )
    witness = non_tu_witness(odd_cycle)
    assert witness is not None and witness[2] == 2

    def boom(flat, n):
        raise AssertionError("scan called kernels.det_bareiss")

    monkeypatch.setattr(kernels, "det_bareiss", boom)
    matrices._tu_cached.cache_clear()
    assert is_totally_unimodular(SPECIAL_A)
    assert non_tu_witness(odd_cycle) == witness


def test_unit_rows_are_tu_appendable():
    rng = random.Random(3)
    for _ in range(10):
        mat = random_tu_matrix(rng, 3, 4)
        tu = TUMatrix.certify(mat)
        for i in range(4):
            e = tuple(1 if j == i else 0 for j in range(4))
            assert is_tu_appendable(tu, e)
            assert is_tu_appendable(tu, tuple(-v for v in e))


def test_rows_of_t_are_tu_appendable():
    rng = random.Random(5)
    for _ in range(10):
        mat = random_tu_matrix(rng, 4, 3)
        tu = TUMatrix.certify(mat)
        for row in mat.rows:
            assert is_tu_appendable(tu, row)


def test_entry_outside_unit_range_is_not_appendable():
    tu = TUMatrix.certify(IntMatrix(((1,),)))
    assert not is_tu_appendable(tu, (2,))


def test_zero_vector_is_elementary():
    tu = TUMatrix.certify(IntMatrix.identity(3))
    assert is_elementary(tu, (0, 0, 0))


def test_ones_vector_not_elementary_for_identity():
    tu = TUMatrix.certify(IntMatrix.identity(2))
    # d = (1, 1) is TU-appendable and has scalar product 2
    assert not is_elementary(tu, (1, 1))


def test_unit_vectors_are_elementary():
    rng = random.Random(13)
    mat = random_tu_matrix(rng, 3, 3)
    tu = TUMatrix.certify(mat)
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert is_elementary(tu, e)


def test_elementary_matches_bruteforce_definition():
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(1, 3)
        mat = random_tu_matrix(rng, rng.randint(1, 3), n)
        tu = TUMatrix.certify(mat)
        appendable = tu_appendable_rows(tu)
        for _ in range(6):
            x = tuple(rng.randint(-2, 2) for _ in range(n))
            brute = all(
                sum(a * v for a, v in zip(d, x)) in (-1, 0, 1) for d in appendable
            )
            assert is_elementary(tu, x) == brute


def test_elementary_scale_cap():
    tu = TUMatrix.trusted(IntMatrix.identity(15))
    with pytest.raises(ScaleError):
        is_elementary(tu, (0,) * 15)


def test_tu_appendable_dimension_guard():
    tu = TUMatrix.certify(IntMatrix.identity(2))
    with pytest.raises(DimensionError):
        is_tu_appendable(tu, (1, 0, 0))
