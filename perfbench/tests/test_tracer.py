"""Self-time arithmetic and function binding of the outside-in tracer."""

import itertools

import pytest

import cctu
from cctu import fileio, lp, patterns, polyhedra, seymour
from cctu.errors import ScaleError
from cctu.generators import generate
from perfbench import tracer as tr

# |R| = m-2 over m = 7: classified as a sum, then pattern recursion solves
# sub-instances, each classified again inside decomp_progress_step.
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


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None, None]


def ticking_clock():
    return itertools.count().__next__


def test_self_time_subtracts_nested_children():
    spans = [span("a", 0, 10), span("b", 1, 4, 0), span("c", 2, 3, 1), span("d", 5, 9, 0)]
    assert tr.self_times(spans) == [3, 2, 1, 4]
    assert tr.attributed_seconds(spans) == 10


def test_recursive_spans_charge_each_instant_once():
    spans = [span("f", 0, 8), span("f", 1, 6, 0), span("f", 2, 3, 1), span("g", 9, 10)]
    assert tr.layer_totals(spans, ["f", "g", "h"]) == {"f": (3, 8), "g": (1, 1), "h": (0, 0.0)}


def test_overlapping_children_are_covered_once():
    spans = [span("a", 0, 10), span("b", 1, 5, 0), span("c", 3, 7, 0)]
    assert tr.self_times(spans)[0] == 4


def test_solve_lp_max_calls_itself_as_a_child():
    with tr.Tracer(clock=ticking_clock()) as tracer:
        res = lp.solve_lp([(1, 0), (0, 1)], [2, 3], [1, 1], "max")
    assert res.status == "optimal" and res.value == 5
    outer, inner = tracer.spans
    assert outer[tr.NAME] == inner[tr.NAME] == "lp.solve_lp"
    assert (outer[tr.START], inner[tr.START], inner[tr.END], outer[tr.END]) == (0, 1, 2, 3)
    assert inner[tr.PARENT] == 0
    assert tr.self_times(tracer.spans) == [2, 1]
    assert tr.layer_totals(tracer.spans, ["lp.solve_lp"])["lp.solve_lp"] == (2, 3)


def test_pattern_recursion_self_times_partition_the_solve():
    inst = fileio.parse_instance(RECURSIVE)
    with tr.Tracer(clock=ticking_clock()) as tracer:
        res = patterns.solve_rcctuf(inst)
    assert res.status == "feasible" and res.stats["pattern_recursions"] > 0
    spans = tracer.spans

    def inside(i, name):
        p = spans[i][tr.PARENT]
        while p >= 0:
            if spans[p][tr.NAME] == name:
                return True
            p = spans[p][tr.PARENT]
        return False

    assert any(
        s[tr.NAME] == "seymour.classify" and inside(i, "patterns.decomp_progress_step")
        for i, s in enumerate(spans)
    )
    own = tr.self_times(spans)
    assert min(own) >= 1  # every span holds at least one tick of its own
    assert sum(own) == tr.attributed_seconds(spans)
    totals = tr.layer_totals(spans, [])
    assert sum(calls for calls, _ in totals.values()) == len(spans)
    assert sum(self_s for _, self_s in totals.values()) == sum(own)


def test_every_binding_is_wrapped_and_restored():
    original = seymour.classify
    with tr.Tracer() as tracer:
        assert seymour.classify is not original
        assert patterns.classify is seymour.classify is cctu.classify
        assert {"cctu.seymour.classify", "cctu.patterns.classify", "cctu.classify"} <= set(
            tracer.sites["seymour.classify"]
        )
        assert all(tracer.sites[f"{module}.{fn}"] for module, fn, _note in tr.TARGETS)
    assert seymour.classify is original and patterns.classify is original and cctu.classify is original


def test_exception_is_recorded_and_propagates():
    inst = generate("network", 3, 3, 2, seed=1).instance
    with tr.Tracer() as tracer:
        tracer.request = 5
        with pytest.raises(ScaleError):
            polyhedra.search_box(inst, (0,) * inst.nvars, 2, budget=10)
    (record,) = tracer.spans
    assert record[tr.NAME] == "polyhedra.search_box" and record[tr.REQUEST] == 5
    assert record[tr.EXC][0] == "ScaleError"
    assert record[tr.END] >= record[tr.START]
