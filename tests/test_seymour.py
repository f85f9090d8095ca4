import random
import sys
from itertools import combinations

from cctu import seymour
from cctu.errors import ScaleError
from cctu.generators import generate, random_network_matrix
from cctu.matrices import IntMatrix, is_totally_unimodular, kept_indices
from cctu.polyhedra import oracle_solve
from cctu.seymour import (
    SPECIAL_CORES,
    SUM_TOTAL_DIM,
    TREE_ROWS,
    NetworkRepresentation,
    SumDecomposition,
    _extend_representation,
    _orient_tree_for,
    _path_ends,
    _pruefer_trees,
    _rank1_factor,
    classify,
    find_sum_decomposition,
    k_sum,
    matches_special_core,
    pivot,
    pivot_transform_instance,
    recognize_network_matrix,
    reduce_to_core,
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


def _line(mat, axis, i, across):
    """Entries of row (or column) i of `mat` on the column (or row) indices
    `across`."""
    if axis == "row":
        return tuple([mat[i, j] for j in across])
    return tuple([mat[j, i] for j in across])


def check_core_log(mat, core, log):
    """Check a reduction log against the input it was made from: re-add the
    deletions newest first, and check that each was valid on the lines live
    when it was made, that each index is kept or deleted once, and that the
    core is the submatrix on the kept indices."""
    rows, cols = kept_indices(mat, log)
    assert core.rows == mat.submatrix(rows, cols).rows and core.ncols == len(cols)
    live = {"row": set(rows), "col": set(cols)}
    size = {"row": mat.nrows, "col": mat.ncols}
    for op in reversed(log):
        other = "col" if op.axis == "row" else "row"
        assert 0 <= op.index < size[op.axis] and op.index not in live[op.axis]
        across = sorted(live[other])
        vec = _line(mat, op.axis, op.index, across)
        if op.reason == "unit":
            nonzero = [(j, v) for j, v in zip(across, vec) if v]
            expected = [(op.partner, op.sign)] if op.partner is not None else []
            assert nonzero == expected
        else:
            assert op.partner in live[op.axis] and op.partner < op.index
            twin = _line(mat, op.axis, op.partner, across)
            flip = {"dup": 1, "negdup": -1}[op.reason]
            assert vec == tuple([flip * v for v in twin])
        live[op.axis].add(op.index)
    assert live == {"row": set(range(mat.nrows)), "col": set(range(mat.ncols))}
    for lines in (core.rows, core.transpose().rows):
        normed = set()
        for line in lines:
            assert len(line) - line.count(0) >= 2
            first = next(v for v in line if v)
            normed.add(tuple([v * first for v in line]))
        assert len(normed) == len(lines)


def test_reduce_identity_to_empty_core():
    core, log = reduce_to_core(IntMatrix.identity(4))
    assert core.nrows == 0 and core.ncols == 0
    check_core_log(IntMatrix.identity(4), core, log)


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
    check_core_log(mat, core, log)


def test_core_replay_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        mat = random_tu_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        core, log = reduce_to_core(mat)
        check_core_log(mat, core, log)


def _matrix_with_twins(rng):
    """A random {-1, 0, 1} matrix, 0 to 7 rows and columns, with a few
    repeated or negated rows and columns spliced in."""
    k, n = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.choice((0.2, 0.5, 0.8))
    rows = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)] for _ in range(k)]
    for _ in range(rng.randint(0, 2) if rows else 0):
        copy = [rng.choice((1, -1)) * v for v in rng.choice(rows)]
        rows.insert(rng.randint(0, len(rows)), copy)
    for _ in range(rng.randint(0, 2) if rows and n else 0):
        j, sign, at = rng.randrange(len(rows[0])), rng.choice((1, -1)), rng.randint(0, len(rows[0]))
        for r in rows:
            r.insert(at, sign * r[j])
    return IntMatrix(tuple([tuple(r) for r in rows]), len(rows[0]) if rows else n)


def test_core_log_is_valid_on_seeded_matrices():
    rng = random.Random(12)
    shapes = set()
    for _ in range(2000):
        mat = _matrix_with_twins(rng)
        for m in (mat, mat.transpose()):
            core, log = reduce_to_core(m)
            check_core_log(m, core, log)
            shapes.add((m.nrows == 0, m.ncols == 0))
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def test_core_keeps_the_same_lines_whatever_the_deletion_order():
    """Kept indices pinned on inputs where the order of deletions matters to
    the log; the values are those of the reduction that deleted one line at a
    time, rescanning from row 0 after each deletion."""
    c = SPECIAL_CORES[0].rows
    # rows 0 and 2 repeat each other; row 0 turns unit once the columns 0 and
    # 1, which repeat each other, go
    twin_turns_unit = IntMatrix(
        ((1, 1) + (0,) * 5, (0, 0) + c[0], (1, 1) + (0,) * 5)
        + tuple([(0, 0) + r for r in c[1:]])
    )
    # rows 2, 4 and 6 negate, repeat and negate row 0; column 4 negates
    # column 1, and column 6 repeats column 4
    v = c[2]
    neg = tuple([-x for x in v])
    rows = [list(r) for r in (v, c[0], neg, c[1], v, c[3], neg, c[4])]
    for r in rows:
        r.insert(1, -r[3])
        r.append(r[4])
    negated_chain = IntMatrix(tuple([tuple(r) for r in rows]))
    # row 2 repeats row 1, which repeats row 0 once column 0 (unit, nonzero
    # in row 0) goes
    x = c[3]
    earlier_copy_deleted = IntMatrix(
        ((1,) + x, (0,) + x, (0,) + x) + tuple([(0,) + c[i] for i in (0, 1, 2, 4)])
    )
    pinned = (
        (twin_turns_unit, [1, 3, 4, 5, 6], [2, 3, 4, 5, 6]),
        (negated_chain, [0, 1, 3, 5, 7], [0, 1, 2, 3, 5]),
        (earlier_copy_deleted, [0, 3, 4, 5, 6], [1, 2, 3, 4, 5]),
    )
    for mat, rows_kept, cols_kept in pinned:
        core, log = reduce_to_core(mat)
        check_core_log(mat, core, log)
        assert kept_indices(mat, log) == (rows_kept, cols_kept)
        assert matches_special_core(core)


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
    cls = classify(IntMatrix.identity(3))
    assert cls.tag == "network"


def test_classify_special_cores():
    for mat in SPECIAL_CORES:
        cls = classify(mat)
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
        assert dec.A.ncols >= 2 and dec.B.ncols >= 2
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
            transformed, Q = pivot_transform_instance(inst, i, j)
        except Exception as exc:
            from cctu.errors import InfeasibleRelaxationError

            assert isinstance(exc, InfeasibleRelaxationError)
            continue
        # Q's integer inverse is the identity with row j replaced by the
        # pivot row, so x = Q y is a bijection on integer points
        eye = IntMatrix.identity(inst.nvars).rows
        Qinv = IntMatrix(eye[:j] + (mat.rows[i],) + eye[j + 1:], inst.nvars)
        for _ in range(10):
            x = tuple(rng.randint(-4, 4) for _ in range(inst.nvars))
            y = Qinv.mul_vec(x)
            assert Q.mul_vec(y) == x
            # residues transfer exactly
            assert inst.residue(x) == transformed.residue(y)
        # feasibility equivalence against the oracle
        assert oracle_solve(inst).status == oracle_solve(transformed).status
        # solutions transfer
        out = oracle_solve(transformed)
        if out.status == "feasible":
            assert inst.is_feasible_point(Q.mul_vec(out.x))
        done += 1


# ---------------------------------------------------------------------------
# reference searches: one submatrix and rank-one factoring per candidate with
# TU checks in the scan, and the tree loop without the path filter


def reference_sum_decomposition(mat):
    k, n = mat.nrows, mat.ncols
    if k + n > SUM_TOTAL_DIM:
        raise ScaleError("over budget")
    if n < 4 or k < 2:
        return None
    best = {}
    for rmask in range(0, 1 << k):
        rows1 = [i for i in range(k) if rmask >> i & 1]
        rows2 = [i for i in range(k) if not rmask >> i & 1]
        if not rows1 or not rows2:
            continue
        for csize in range(2, n - 1):
            for cols1 in combinations(range(n), csize):
                cols2 = tuple([j for j in range(n) if j not in cols1])
                dec = _reference_separation(mat, rows1, rows2, cols1, cols2)
                if dec is not None:
                    if dec.kind == 1:
                        return dec
                    best.setdefault(dec.kind, dec)
    for kind in (2, 3):
        if kind in best:
            return best[kind]
    return None


def _reference_separation(mat, rows1, rows2, cols1, cols2):
    top_right = mat.submatrix(rows1, cols2)
    bottom_left = mat.submatrix(rows2, cols1)
    f1 = _rank1_factor(top_right)
    f2 = _rank1_factor(bottom_left)
    if f1 is None or f2 is None:
        return None
    e, f = f1
    g, h = f2
    tr_zero = all(v == 0 for v in top_right.flat())
    bl_zero = all(v == 0 for v in bottom_left.flat())
    if tr_zero and bl_zero:
        kind = 1
    elif bl_zero:
        kind = 2
    elif tr_zero:
        return _reference_separation(mat, rows2, rows1, cols2, cols1)
    else:
        kind = 3
    dec = SumDecomposition(
        kind,
        mat.submatrix(rows1, cols1),
        mat.submatrix(rows2, cols2),
        e,
        f,
        g,
        h,
        tuple(rows1) + tuple(rows2),
        tuple(cols1) + tuple(cols2),
    )
    if kind >= 2 and not is_totally_unimodular(dec.first_summand()):
        return None
    if kind >= 2 and not is_totally_unimodular(dec.second_summand()):
        return None
    return dec


def reference_network_matrix(mat):
    if any(v not in (-1, 0, 1) for v in mat.flat()):
        return None
    core, log = reduce_to_core(mat)
    k, n = core.nrows, core.ncols
    if k > TREE_ROWS:
        raise ScaleError("over the cap")
    rep = None
    if k == 0:
        rep = NetworkRepresentation(1, (), tuple([(0, 0) for _ in range(n)]))
    cols = [core.col(j) for j in range(n)]
    for edges in _pruefer_trees(k + 1) if k else ():
        rep = _orient_tree_for(core, cols, edges, k + 1)
        if rep is not None:
            break
    if rep is None:
        return None
    rep = _extend_representation(rep, mat, log)
    return rep if rep.rebuild().rows == mat.rows else None


def _equivalence_corpus():
    """Generated sum3 and pivoted matrices with their transposes, and seeded
    random {-1, 0, 1} matrices, all with k + n <= 11."""
    rng = random.Random(2024)
    mats = []
    for seed in range(14):
        for kind in ("sum3", "pivoted"):
            mat = generate(kind, 4 + seed % 2, 5, 3, seed).instance.P.T.matrix
            mats += [mat, mat.transpose()]
    for _ in range(40):
        k = rng.randint(2, 6)
        n = rng.randint(2, 11 - k)
        density = rng.choice((0.3, 0.5, 0.8))
        rows = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)] for _ in range(k)]
        mats.append(IntMatrix(tuple([tuple(r) for r in rows]), n))
    return mats


def test_sum_search_matches_the_per_candidate_scan():
    found = set()
    for mat in _equivalence_corpus():
        dec = find_sum_decomposition(mat)
        assert repr(dec) == repr(reference_sum_decomposition(mat)), mat
        found.add(dec.kind if dec else None)
    assert found == {None, 1, 2, 3}


def test_tree_search_matches_the_unfiltered_tree_loop():
    found = 0
    for mat in _equivalence_corpus():
        rep = recognize_network_matrix(mat)
        assert repr(rep) == repr(reference_network_matrix(mat)), mat
        found += rep is not None
    assert found >= 20


def test_path_ends_agree_with_a_component_walk_on_small_trees():
    for nv in range(3, 7):
        for edges in _pruefer_trees(nv):
            masks = [0] * nv
            for idx, (a, b) in enumerate(edges):
                masks[a] |= 1 << idx
                masks[b] |= 1 << idx
            for support in range(1 << len(edges)):
                chosen = [edges[i] for i in range(len(edges)) if support >> i & 1]
                touched = {v for edge in chosen for v in edge}
                # walk the component of the lowest touched vertex over the chosen edges
                seen = set(sorted(touched)[:1])
                stack = list(seen)
                while stack:
                    u = stack.pop()
                    for a, b in chosen:
                        for x, y in ((a, b), (b, a)):
                            if x == u and y not in seen:
                                seen.add(y)
                                stack.append(y)
                degree = {v: sum([v in edge for edge in chosen]) for v in touched}
                expected = None
                if chosen and seen == touched and max(degree.values()) <= 2:
                    expected = tuple(sorted([v for v in touched if degree[v] == 1]))
                assert _path_ends(support, masks) == expected, (edges, chosen)


def test_tu_checks_run_only_on_candidates_that_could_be_returned(monkeypatch):
    calls = []
    tu = is_totally_unimodular

    def counted(mat):
        calls.append(mat)
        return tu(mat)

    monkeypatch.setattr(seymour, "is_totally_unimodular", counted)
    monkeypatch.setattr(sys.modules[__name__], "is_totally_unimodular", counted)
    A = IntMatrix(((1, 1), (0, 1)))
    block_diagonal = IntMatrix(tuple([r + (0, 0) for r in A.rows] + [(0, 0) + r for r in A.rows]))
    dec = find_sum_decomposition(block_diagonal)
    assert dec.kind == 1 and k_sum(dec) == block_diagonal and not calls
    mat = generate("sum3", 4, 5, 3, 0).instance.P.T.matrix
    dec = find_sum_decomposition(mat)
    deferred = len(calls)
    calls.clear()
    assert repr(reference_sum_decomposition(mat)) == repr(dec) and dec.kind >= 2
    assert 0 < deferred < len(calls)
