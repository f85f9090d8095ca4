"""Source-level rules for the library code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cctu"


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


def test_cli_has_no_assert_statements():
    """The CLI's checks on reported answers must also run under python -O,
    which strips assert statements."""
    path = SRC / "cli.py"
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not lines, f"cli.py has assert statements on lines {lines}; raise a CctuError instead"
