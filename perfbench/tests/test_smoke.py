"""Tiny-corpus runs of every workload, and the benchmark's declared names."""

import dataclasses
import itertools
import json
import random

import pytest

from perfbench import run as bench
from perfbench.workloads import WORKLOADS, Balanced


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct(workload):
    report, result, ok = bench.run(workload, seed=1, seconds=0, trace=0, part_size=4, count=12)
    assert ok
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 12
    assert report["metrics"]["fail_ratio"] == 0
    assert list(result["metrics"]) == list(bench.RESULT_METRICS)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    report, result, _ok = bench.run("prime_decomp", seed=1, seconds=0, trace=1, part_size=4, count=12)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == bench.per_layer_names()
    assert 0 < metrics["trace.attributed_ratio"]["value"] <= 1
    assert metrics["lp.solve_lp.calls"]["value"] > 0
    assert metrics["fileio.parse_instance.calls"]["value"] == 12
    assert sum(report["composition"]["status"].values()) == 12


def test_check_counts_every_request_of_a_wrong_answer():
    corpus = list(itertools.islice(WORKLOADS["rminus1_boxed"].requests(1), 2))
    served = bench.serve(corpus, None, 4)
    assert bench.check(corpus, served) == (0, 0, [])
    inst, res, verified = served.answers[1]
    served.answers[1] = (inst, dataclasses.replace(res, status="infeasible", x=None), verified)
    failed, wrong, reasons = bench.check(corpus, served)
    assert failed == wrong == 2 and len(reasons) == 1 and "oracle feasible" in reasons[0]


def test_a_request_that_raises_fails_without_a_wrong_answer():
    corpus = list(itertools.islice(WORKLOADS["fuzz_mix"].requests(1), 2))
    served = bench.serve(corpus, None, 2)
    served.record(2, 1, None, "AssertionError: ")
    failed, wrong, reasons = bench.check(corpus, served)
    assert (failed, wrong) == (2, 0)
    assert reasons == [f"{corpus[1][0]} request 1: raised AssertionError: "]


def test_an_answer_that_changes_between_passes_fails():
    corpus = list(itertools.islice(WORKLOADS["fuzz_mix"].requests(1), 1))
    served = bench.serve(corpus, None, 1)
    inst, res, verified = served.answers[0]
    served.record(1, 0, (inst, dataclasses.replace(res, value=-999), verified), None)
    failed, wrong, reasons = bench.check(corpus, served)
    assert failed == wrong == 2 and "differs" in reasons[0]


def test_a_timed_run_stops_at_the_end_of_a_block():
    corpus = list(itertools.islice(WORKLOADS["prime_decomp"].requests(1), 4))
    served = bench.serve(corpus, 0, block=3)
    assert served.count == 3


def test_same_seed_same_corpus():
    workload = WORKLOADS["fuzz_mix"]

    def first(seed):
        return list(itertools.islice(workload.requests(seed), 20))

    assert first(7) == first(7)
    assert first(8) != first(7)


def test_balanced_blocks_hold_every_option():
    options = ["a", "b", "b", "c"]
    deal = Balanced(random.Random(3), options)
    for _block in range(3):
        assert sorted(deal.draw() for _ in options) == sorted(options)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    units = dict(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, units[name]) for name in bench.RESULT_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, bench.per_layer_unit(name)) for name in bench.per_layer_names()
    ]
