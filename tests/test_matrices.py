import random
from itertools import combinations

import pytest

from cctu.errors import DimensionError, ScaleError
from cctu.kernels import det_bareiss
from cctu.matrices import IntMatrix, TUMatrix, is_totally_unimodular, non_tu_witness, reduce_to_core
from random_systems import random_tu_matrix
from reference import certified, cofactor_det, is_elementary, is_tu_appendable, tu_appendable_rows

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


def test_determinant_identity():
    assert det_bareiss(IntMatrix.identity(2).rows) == 1


def test_determinant_direct_2x2():
    assert det_bareiss(((1, 1), (-1, 1))) == 2


def test_determinant_matches_cofactor_oracle_on_special_matrix():
    assert det_bareiss(SPECIAL_A.rows) == cofactor_det(SPECIAL_A)
    assert det_bareiss(SPECIAL_B.rows) == cofactor_det(SPECIAL_B)


def test_determinant_random_vs_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)))
        assert det_bareiss(mat.rows) == cofactor_det(mat)


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


def test_tu_verdicts_on_9x12_matrices():
    # Columns c and c+4 are twins, so the core is 4x4 and gets the
    # subdeterminant scan; the Ghouila-Houri branch has its own tests below.
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


def interval_matrix():
    """9x15 consecutive-ones matrix (hence TU): one column per interval of
    length 2 or 3 on nine points.  No row or column is a unit vector and none
    repeats or negates another, so the matrix is its own core."""
    intervals = [(a, a + 1) for a in range(8)] + [(a, a + 2) for a in range(7)]
    return IntMatrix(
        tuple(tuple(1 if lo <= r <= hi else 0 for lo, hi in intervals) for r in range(9))
    )


def spoiled_interval_matrix():
    # rows 0 and 1 on the columns [0, 1] and [0, 2] become ((1, 1), (-1, 1)), det 2
    rows = [list(r) for r in interval_matrix().rows]
    rows[1][0] = -1
    return IntMatrix(tuple(tuple(r) for r in rows))


def test_ghouila_houri_branch_on_a_core_past_the_cap(monkeypatch):
    from cctu import kernels, matrices

    calls = []
    original = kernels.ghouila_houri_ok

    def counted(rows):
        calls.append((len(rows), len(rows[0])))
        return original(rows)

    monkeypatch.setattr(kernels, "ghouila_houri_ok", counted)
    matrices._tu_cached.cache_clear()
    for mat, verdict in ((interval_matrix(), True), (spoiled_interval_matrix(), False)):
        core, _ = reduce_to_core(mat)
        assert (core.nrows, core.ncols) == (9, 15)
        assert is_totally_unimodular(mat) is verdict
        assert is_totally_unimodular(mat.transpose()) is verdict
    assert calls == [(9, 15)] * 4


def test_tall_matrices_with_small_cores_skip_ghouila_houri(monkeypatch):
    from cctu import kernels, matrices

    def boom(rows):
        raise AssertionError("Ghouila-Houri ran on a core within the cap")

    monkeypatch.setattr(kernels, "ghouila_houri_ok", boom)
    matrices._tu_cached.cache_clear()
    ident = IntMatrix.identity(12)
    rows = ident.rows
    for i in range(12):
        rows += (ident.rows[i], tuple([-v for v in ident.rows[11 - i]]))
    tall = IntMatrix(rows, 12)
    assert (tall.nrows, tall.ncols) == (36, 12)
    assert is_totally_unimodular(tall)
    # the same padding around a 5-cycle incidence matrix: 5x5 core, det 2
    cycle = [[1 if j in (i, (i + 1) % 5) else 0 for j in range(12)] for i in range(5)]
    bad = IntMatrix(tuple(tuple(r) for r in cycle + [list(r) for r in tall.rows]))
    assert min(bad.nrows, bad.ncols) == 12
    assert not is_totally_unimodular(bad)


def pad_with_core_ops(rng, mat, count):
    """Inserts zero, unit, duplicate and negated rows and columns at random
    positions; none of them changes whether the matrix is TU."""
    rows = [list(r) for r in mat.rows]
    for _ in range(count):
        transpose = rng.random() < 0.5
        if transpose:
            rows = [list(c) for c in zip(*rows)]
        n = len(rows[0])
        kind = rng.choice(("zero", "unit", "dup", "neg"))
        if kind == "zero":
            new = [0] * n
        elif kind == "unit":
            new = [0] * n
            new[rng.randrange(n)] = rng.choice((-1, 1))
        else:
            src = rng.choice(rows)
            new = list(src) if kind == "dup" else [-v for v in src]
        rows.insert(rng.randint(0, len(rows)), new)
        if transpose:
            rows = [list(c) for c in zip(*rows)]
    return IntMatrix(tuple(tuple(r) for r in rows))


def test_core_verdict_matches_the_full_scan_on_padded_matrices():
    rng = random.Random(19)
    bases = [random_tu_matrix(rng, rng.randint(2, 4), rng.randint(2, 4)) for _ in range(12)]
    while len(bases) < 24:
        k, n = rng.randint(2, 4), rng.randint(2, 4)
        mat = IntMatrix(tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(k)))
        if not exhaustive_tu(mat):
            bases.append(mat)
    verdicts = set()
    for base in bases:
        mat = pad_with_core_ops(rng, base, rng.randint(1, 3))
        assert min(mat.nrows, mat.ncols) <= 6
        verdict = exhaustive_tu(mat)
        assert verdict == exhaustive_tu(base)
        assert is_totally_unimodular(mat) == verdict
        witness = non_tu_witness(mat)
        if verdict:
            assert witness is None
        else:
            rows, cols, det = witness
            assert abs(det) > 1 and cofactor_det(mat.submatrix(rows, cols)) == det
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_bad_entries_in_unit_rows_and_columns_are_not_tu():
    # the core reduction would delete these unit rows and columns outright
    assert not is_totally_unimodular(IntMatrix(((2, 0), (0, 1))))
    assert not is_totally_unimodular(IntMatrix(((2, 0), (0, 1))).transpose())
    eye = IntMatrix.identity(3).rows
    tall = IntMatrix(eye + tuple([eye[i % 3] for i in range(9)]), 3)
    rows = [list(r) for r in tall.rows]
    rows[7][1] = 2  # row 7 is the unit row (0, 1, 0): now (0, 2, 0)
    bad = IntMatrix(tuple(tuple(r) for r in rows))
    assert (bad.nrows, bad.ncols) == (12, 3)
    assert not is_totally_unimodular(bad)
    assert not is_totally_unimodular(bad.transpose())
    assert non_tu_witness(bad) == ((7,), (1,), 2)
    # past the cap on both sides, the bad entry is its own witness
    wide = [list(r) for r in IntMatrix.identity(12).rows]
    wide[4][4] = -3
    wide = IntMatrix(tuple(tuple(r) for r in wide))
    assert not is_totally_unimodular(wide)
    assert non_tu_witness(wide) == ((4,), (4,), -3)


def test_non_tu_witness_past_the_cap_comes_from_the_core():
    """10x10, non-TU, with a 5x5 core: the core's witness is mapped back to
    the input's indices and checked against the input itself."""
    rng = random.Random(23)
    rows = [[1 if j in (i, (i + 1) % 5) else 0 for j in range(10)] for i in range(5)]
    rows += [[1 if j == 5 + i else 0 for j in range(10)] for i in range(4)]
    rows.append([-v for v in rows[2]])
    order_r, order_c = list(range(10)), list(range(10))
    rng.shuffle(order_r)
    rng.shuffle(order_c)
    mat = IntMatrix(tuple(tuple(rows[i][j] for j in order_c) for i in order_r))
    core, _ = reduce_to_core(mat)
    assert (core.nrows, core.ncols) == (5, 5)
    assert not is_totally_unimodular(mat)
    rows_w, cols_w, det = non_tu_witness(mat)
    assert list(rows_w) == sorted(rows_w) and list(cols_w) == sorted(cols_w)
    assert abs(det) > 1
    assert cofactor_det(mat.submatrix(rows_w, cols_w)) == det
    assert non_tu_witness(IntMatrix.identity(10)) is None


def test_non_tu_witness_is_none_when_the_core_is_past_the_cap():
    assert not is_totally_unimodular(spoiled_interval_matrix())
    assert non_tu_witness(spoiled_interval_matrix()) is None


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

    def boom(rows):
        raise AssertionError("scan called kernels.det_bareiss")

    monkeypatch.setattr(kernels, "det_bareiss", boom)
    matrices._tu_cached.cache_clear()
    assert is_totally_unimodular(SPECIAL_A)
    assert non_tu_witness(odd_cycle) == witness


def test_unit_rows_are_tu_appendable():
    rng = random.Random(3)
    for _ in range(10):
        mat = random_tu_matrix(rng, 3, 4)
        tu = certified(mat)
        for i in range(4):
            e = tuple(1 if j == i else 0 for j in range(4))
            assert is_tu_appendable(tu, e)
            assert is_tu_appendable(tu, tuple(-v for v in e))


def test_rows_of_t_are_tu_appendable():
    rng = random.Random(5)
    for _ in range(10):
        mat = random_tu_matrix(rng, 4, 3)
        tu = certified(mat)
        for row in mat.rows:
            assert is_tu_appendable(tu, row)


def test_entry_outside_unit_range_is_not_appendable():
    tu = certified(IntMatrix(((1,),)))
    assert not is_tu_appendable(tu, (2,))


def test_zero_vector_is_elementary():
    tu = certified(IntMatrix.identity(3))
    assert is_elementary(tu, (0, 0, 0))


def test_ones_vector_not_elementary_for_identity():
    tu = certified(IntMatrix.identity(2))
    # d = (1, 1) is TU-appendable and has scalar product 2
    assert not is_elementary(tu, (1, 1))


def test_unit_vectors_are_elementary():
    rng = random.Random(13)
    mat = random_tu_matrix(rng, 3, 3)
    tu = certified(mat)
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert is_elementary(tu, e)


def test_elementary_matches_bruteforce_definition():
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(1, 3)
        mat = random_tu_matrix(rng, rng.randint(1, 3), n)
        tu = certified(mat)
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
    tu = certified(IntMatrix.identity(2))
    with pytest.raises(DimensionError):
        is_tu_appendable(tu, (1, 0, 0))


def test_rows_that_are_not_a_tuple_of_tuples_raise_type_error():
    """Rows are kept as given, so lists where tuples belong are refused, not
    copied; rows of the wrong width still raise DimensionError."""
    for rows in ([[1, 0]], ([1, 0],), [(1, 0)]):
        with pytest.raises(TypeError):
            IntMatrix(rows)
    with pytest.raises(DimensionError):
        IntMatrix(((1, 0), (1,)))
    rows = ((1, 0), (0, 1))
    assert IntMatrix(rows).rows is rows
