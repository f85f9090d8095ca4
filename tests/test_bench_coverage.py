"""The traced benchmark's self-check, held on the seed-7 corpora.

A traced `perfbench/run.py` run exits 1 when a layer listed in its
`EXPECTED` table never fires on a workload, or a traced function is bound
nowhere.  Serving each workload's corpus once under the tracer shows that
before a 30 s run does.  The oracle cross-check is left to the benchmark.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_expected_layer_fires_on_the_seed_7_corpus(workload):
    corpus, _part_s = bench.setup(workload, 7, bench.PART_BLOCKS[workload] * WORKLOADS[workload].block)
    with tr.Tracer() as tracer:
        served = bench.serve(corpus, None, len(corpus), tracer)
    assert bench.self_check(tracer, workload) == []
    assert served.raised == {} and served.problems == []
    assert bench.environment(workload, 7, 0, 1)["backend"] == "python"
