"""Source-level rules for the library code."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cctu"


def test_no_tuple_of_generator_expression():
    """tuple(<generator>) first allocates a tuple of a default size and then
    resizes it; when such a tuple dies it lands on CPython's free list for its
    final length, and those lists are only emptied by a full garbage
    collection.  On per-request paths that piles up megabytes of parked
    tuples and raises peak RSS.  Build the list first: tuple([...]) has the
    exact size from the start."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, (
        "tuple(<generator expression>) parks resized tuples on CPython's free "
        "lists and raises peak RSS; write tuple([...]) instead: " + ", ".join(offenders)
    )


def assert_lines(path):
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_library_has_no_assert_statements():
    """The solver checks reported points and its structural invariants on
    every solve; those checks must also run under python -O, which strips
    assert statements."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library modules under {SRC}"
    offenders = [f"{path.name}:{line}" for path in paths for line in assert_lines(path)]
    assert not offenders, (
        "assert statements vanish under python -O; raise a CctuError instead: "
        + ", ".join(offenders)
    )


def test_cli_has_no_assert_statements():
    """The CLI's checks on reported answers must also run under python -O,
    which strips assert statements."""
    lines = assert_lines(SRC / "cli.py")
    assert not lines, f"cli.py has assert statements on lines {lines}; raise a CctuError instead"


def test_baseblocks_has_no_assert_statements():
    """The base-block reductions check their invariants on every solve; those
    checks must also run under python -O."""
    lines = assert_lines(SRC / "baseblocks.py")
    assert not lines, f"baseblocks.py has assert statements on lines {lines}; raise a CctuError instead"


def test_patterns_has_no_assert_statements():
    """The recursive solver checks lifted points and its structural invariants
    on every solve; those checks must also run under python -O."""
    lines = assert_lines(SRC / "patterns.py")
    assert not lines, f"patterns.py has assert statements on lines {lines}; raise a CctuError instead"


def unused_imports(paths):
    """`file:line name` for every imported name that its module never reads."""
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    return offenders


def test_library_has_no_unused_imports():
    """Every name a module imports is used in it; an unused import is dead
    code that still couples the modules.  `__init__.py` re-exports names,
    so it is exempt."""
    offenders = unused_imports([path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"])
    assert not offenders, "unused imports: " + ", ".join(offenders)


def test_tests_have_no_unused_imports():
    """The same rule for the test modules and their helpers."""
    paths = sorted(TESTS.glob("*.py"))
    assert Path(__file__).resolve() in paths
    offenders = unused_imports(paths)
    assert not offenders, "unused imports: " + ", ".join(offenders)


def test_only_lp_optimize_solves_lps():
    """`lp.solve_lp` is referenced only where it is defined and in
    `polyhedra`, so every LP the solver runs goes through `lp_optimize`."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("lp.py", "polyhedra.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a Name, an Attribute, an imported alias or a definition
            if "solve_lp" in [getattr(node, key, None) for key in ("id", "attr", "name")]:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "call polyhedra.lp_optimize instead of lp.solve_lp: " + ", ".join(offenders)


def test_library_does_not_import_fractions():
    """Over TU data every pivot is +-1, so the exact kernel needs no
    rationals: points, values and rays are ints."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "the library computes on ints; drop the fractions import: " + ", ".join(offenders)


def test_library_does_not_branch_on_tu_matrix():
    """Each parameter takes one matrix type: code that holds a `TUMatrix`
    passes its `.matrix`, so no function asks which of the two it got."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and "TUMatrix" in ast.unparse(node.args[1])
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "pass an IntMatrix instead of testing for a TUMatrix: " + ", ".join(offenders)
