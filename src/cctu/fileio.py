"""Instance file format: explicit field names, decimal integers.

    # optional comments
    rows 2
    cols 1
    T
    -1
    1
    b 0 5
    gamma 1
    m 3
    R 2
    c 1        (optional objective)

Parsing round-trips serialization exactly.  The constraint matrix is
TU-verified on load unless `verify_tu=False`; violations name a violating
submatrix.
"""

from .errors import InputFormatError
from .matrices import IntMatrix, TUMatrix, is_totally_unimodular, non_tu_witness
from .polyhedra import Polyhedron, RCctufInstance


def serialize_instance(inst):
    mat = inst.P.T.matrix
    lines = [f"rows {mat.nrows}", f"cols {mat.ncols}", "T"]
    width = max((len(str(v)) for v in mat.flat()), default=1)
    if mat.ncols:  # the rows of a k x 0 matrix have no entry lines
        for row in mat.rows:
            lines.append(" ".join(str(v).rjust(width) for v in row))
    lines.append("b " + " ".join(str(v) for v in inst.P.b))
    lines.append("gamma " + " ".join(str(v) for v in inst.gamma))
    lines.append(f"m {inst.m}")
    lines.append("R " + " ".join(str(r) for r in sorted(inst.R)))
    if inst.c is not None:
        lines.append("c " + " ".join(str(v) for v in inst.c))
    return "\n".join(lines) + "\n"


def _ints(tokens, lineno, what):
    """Raise the error for the first token that is not an integer; called
    once converting the line as a whole has failed."""
    for t in tokens:
        try:
            int(t)
        except ValueError:
            raise InputFormatError(f"{what}: {t!r} is not an integer", lineno)


def parse_instance(text, verify_tu=True):
    # Each line is converted as a whole; `_ints` only words the error.  The
    # tuples are built from lists: tuple() over a map allocates and then
    # shrinks each one, which fragments the heap (a long benchmark run's
    # peak RSS grew by a tenth).
    fields = {}
    matrix_rows = []
    lines = text.splitlines()
    comments = "#" in text
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = lines[i].split("#", 1)[0] if comments else lines[i]
        i += 1
        tokens = line.split()
        if not tokens:
            continue
        head, *rest = tokens
        if head == "T":
            if "rows" not in fields or "cols" not in fields:
                raise InputFormatError("T must follow rows and cols", lineno)
            k = fields["rows"]
            n = fields["cols"]
            if n == 0:
                matrix_rows = [()] * k
            while len(matrix_rows) < k and i < len(lines):
                row = (lines[i].split("#", 1)[0] if comments else lines[i]).split()
                i += 1
                if not row:
                    continue
                try:
                    vals = tuple(list(map(int, row)))
                except ValueError:
                    _ints(row, i, "matrix entry")
                if len(vals) != n:
                    raise InputFormatError(f"expected {n} entries, got {len(vals)}", i)
                matrix_rows.append(vals)
            if len(matrix_rows) < k:
                raise InputFormatError(f"matrix ended after {len(matrix_rows)} of {k} rows", i)
            continue
        scalar = head in ("rows", "cols", "m")
        if not scalar and head not in ("b", "gamma", "R", "c"):
            raise InputFormatError(f"unknown field {head!r}", lineno)
        if scalar and len(rest) != 1:
            raise InputFormatError(f"{head} takes one integer", lineno)
        try:
            vals = tuple(list(map(int, rest)))
        except ValueError:
            _ints(rest, lineno, head)
        if not scalar:
            fields[head] = vals
            continue
        fields[head] = v = vals[0]
        if head in ("rows", "cols") and v < 0:
            raise InputFormatError(f"{head} must be nonnegative", lineno)
        if head == "m" and v <= 0:
            raise InputFormatError("m must be positive", lineno)
    for req in ("rows", "cols", "b", "gamma", "m", "R"):
        if req not in fields:
            raise InputFormatError(f"missing field {req!r}")
    k, n, m = fields["rows"], fields["cols"], fields["m"]
    if len(matrix_rows) != k:
        raise InputFormatError("missing matrix block T")
    if len(fields["b"]) != k:
        raise InputFormatError(f"b has {len(fields['b'])} entries, expected {k}")
    if len(fields["gamma"]) != n:
        raise InputFormatError(f"gamma has {len(fields['gamma'])} entries, expected {n}")
    if not fields["R"]:
        raise InputFormatError("R must be nonempty")
    for r in fields["R"]:
        if not 0 <= r < m:
            raise InputFormatError(f"residue {r} outside 0..{m - 1}")
    if "c" in fields and len(fields["c"]) != n:
        raise InputFormatError(f"c has {len(fields['c'])} entries, expected {n}")
    mat = IntMatrix(tuple(matrix_rows), n)
    if verify_tu and not is_totally_unimodular(mat):
        witness = non_tu_witness(mat)
        detail = ""
        if witness:
            rows, cols, det = witness
            detail = f": submatrix rows {list(rows)} cols {list(cols)} has determinant {det}"
        raise InputFormatError("constraint matrix is not totally unimodular" + detail)
    return RCctufInstance(
        Polyhedron(TUMatrix.trusted(mat), fields["b"]),
        fields["gamma"],
        m,
        frozenset(fields["R"]),
        fields.get("c"),
    )
