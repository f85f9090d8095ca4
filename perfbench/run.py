"""Solve-request benchmark for cctu.

A request is what `cctu solve` does without argparse and printing:
`parse_instance` (including TU certification), `solve_rcctuf`, and
`verify_solution` on a feasible answer.  Requests run back to back in this
one process (a closed loop with one client).  The corpus comes from the
seed; the library only ever sees instance texts.

    python3 perfbench/run.py --workload fuzz_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
serves the corpus untraced for half the time, then serves the same requests
again with every layer function wrapped, and reports per-layer call counts
and self times.  Either way every answer is then checked, outside the timed
loop, against `oracle_solve` and `verify_solution`.  The last line of
standard output is one JSON object; the line before it is a JSON report
with the environment and the workload composition.  A request that
raises or answers `unsupported` counts in `failed` and fail_ratio but
leaves `correct` true; a wrong answer sets `correct` to false.  The exit
code is 0 only if every answer was correct (and, traced, the tracer
self-check held).
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import cctu
    from cctu import fileio, kernels, matrices, patterns, verify
    from cctu.errors import ScaleError

    # Bound here, outside cctu, so the checks after the loop are never traced.
    from cctu.polyhedra import oracle_solve
    from cctu.verify import verify_solution
except ImportError as exc:
    sys.exit(f"error: cannot import cctu from {ROOT / 'src'}: {exc}")

from perfbench import tracer as tr  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# The corpus is generated in SETUP_PARTS parts of PART_BLOCKS blocks of cells
# each; a run that gets through it starts over from the first request.
PART_BLOCKS = {"fuzz_mix": 1, "rminus1_boxed": 1, "prime_decomp": 25}
SETUP_PARTS = 10
IMPORT_SAMPLES = 5  # fresh interpreters timed for the start-up part of setup_s
MIN_REQUESTS = 100  # so that ten latency samples lie beyond p90
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ips", "requests/s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("fallback_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Bounded end-to-end metrics; fail_ratio is the result line's failed count and
# fallback_ratio a per-layer metric, because both are 0 on some workloads.
RESULT_METRICS = ("setup_s", "throughput_ips", "solve_p50_ms", "solve_p90_ms", "peak_rss_mb")

# Which workloads each traced function must fire on; the traced run fails if
# it does not.  Each listed function fired at least 25 times in a traced run
# of 30 s.  Left out: seymour.pivot_transform_instance (about one
# prime_decomp request in 200), kernels.det_bareiss (no solver path calls
# it), kernels.ghouila_houri_ok (only past 8x8 on the smaller side), and
# baseblocks.solve_const_core with the solve_network_cctu calls it makes
# (const-core guessing is in no workload, see workloads.py).
ALL = ("fuzz_mix", "rminus1_boxed", "prime_decomp")
EXPECTED = {
    "lp.solve_lp": ALL,
    "polyhedra.lp_optimize": ALL,
    "polyhedra.integral_feasible_point": ALL,
    "polyhedra.search_box": ALL,
    "polyhedra.oracle_solve": ("prime_decomp",),
    "matrices.is_totally_unimodular": ALL,
    "kernels.find_non_unit_subdet": ALL,
    "kernels.box_search": ALL,
    "cones.decompose_solutions": ("fuzz_mix", "rminus1_boxed"),
    "shortening.transform_solution": ("fuzz_mix", "rminus1_boxed"),
    "structure.solve_r_minus_1": ALL,
    "structure.find_flat_or_solve": ("fuzz_mix", "rminus1_boxed"),
    "structure.eliminate_tight_variable": ALL,
    "structure.bound_scalar_products": ("prime_decomp",),
    "seymour.classify": ("fuzz_mix", "prime_decomp"),
    "seymour.find_sum_decomposition": ("prime_decomp",),
    "seymour.recognize_network_matrix": ("fuzz_mix", "prime_decomp"),
    "seymour.reduce_to_core": ("fuzz_mix", "prime_decomp"),
    "patterns.decomp_progress_step": ("prime_decomp",),
    "patterns.compute_pattern": ("prime_decomp",),
    "patterns.narrowed_domain": ("prime_decomp",),
    "baseblocks.solve_base_block": ("fuzz_mix", "prime_decomp"),
    "baseblocks.normalize": ("fuzz_mix", "prime_decomp"),
    "baseblocks.solve_ccc": ("fuzz_mix", "prime_decomp"),
    "baseblocks.solve_ctc_chain": ("prime_decomp",),
    "fileio.parse_instance": ALL,
    "verify.verify_solution": ALL,
}
# A ScaleError escaping one of these sends the request to the oracle.
FALLBACK_SOURCES = ("seymour.classify", "baseblocks.solve_base_block", "patterns.decomp_progress_step")
STATS_SUMS = ("subproblems", "max_depth", "pattern_recursions")


def per_layer_names():
    names = []
    for module, fn, _note in tr.TARGETS:
        names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    names += [
        "matrices.tu_cache.hit_ratio",
        "seymour.classify.scale_errors",
        "baseblocks.solve_base_block.scale_errors",
        "baseblocks.solve_network_cctu.useful_ratio",
    ]
    names += [f"patterns.{key}" for key in STATS_SUMS]
    names += ["patterns.oracle_fallback_ratio", "trace.attributed_ratio", "trace.overhead_ratio"]
    return names


def per_layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def clear_tu_cache():
    matrices._tu_cached.cache_clear()


def import_seconds(samples=IMPORT_SAMPLES):
    """Median wall time of a fresh interpreter that imports this benchmark
    and, through it, the library: the process start-up part of setup_s."""
    times = []
    for _sample in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import perfbench.run"], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup(workload, seed, part_size, parts=SETUP_PARTS):
    """Generate the corpus part by part, each from a cold TU cache; returns
    the corpus and the median time of a part.  The generators certify sum
    matrices, so the cache is cleared again before anything is served."""
    stream = WORKLOADS[workload].requests(seed)
    corpus, times = [], []
    for _part in range(parts):
        clear_tu_cache()
        start = time.perf_counter()
        corpus += itertools.islice(stream, part_size)
        times.append(time.perf_counter() - start)
    clear_tu_cache()
    return corpus, statistics.median(times)


def solve_request(text):
    """One request: parse and certify, solve, verify a feasible answer.
    Calls go through the modules so that a tracer sees them."""
    inst = fileio.parse_instance(text)
    res = patterns.solve_rcctuf(inst)
    verified = res.status != "feasible" or verify.verify_solution(inst, res.x).ok
    return inst, res, verified


class Served:
    """What one call of `serve` did.  Answers are kept once per corpus
    entry (a later serving of the same entry is compared with the first),
    so the process's memory does not grow with the number of requests."""

    def __init__(self):
        self.count = 0
        self.wall = 0.0
        self.latencies = array("d")
        self.times_served = Counter()  # corpus index -> requests
        self.answers = {}  # corpus index -> (instance, result, verified)
        self.raised = {}  # corpus index -> the exception a request raised
        self.problems = []  # (corpus index, reason) found while serving
        self.statuses = Counter()
        self.fallbacks = []  # request numbers the solver sent to the oracle
        self.stats = Counter()  # sums of SolveResult.stats
        self.tu_hits = 0
        self.tu_misses = 0

    def throughput(self):
        return self.count / self.wall

    def record(self, number, index, answer, error):
        self.count += 1
        self.times_served[index] += 1
        if error is not None:
            self.statuses["error"] += 1
            self.raised.setdefault(index, f"raised {error}")
            return
        inst, res, verified = answer
        self.statuses[res.status] += 1
        if res.stats.get("oracle_fallback"):
            self.fallbacks.append(number)
        for key in STATS_SUMS:
            self.stats[key] += res.stats.get(key, 0)
        _inst, first, first_verified = self.answers.setdefault(index, answer)
        if (res.status, res.value, res.x, verified) != (first.status, first.value, first.x, first_verified):
            self.problems.append((index, "answer differs from the first time it was served"))

    def count_tu_cache(self):
        info = matrices._tu_cached.cache_info()
        self.tu_hits += info.hits
        self.tu_misses += info.misses


def serve(corpus, seconds, count=None, tracer=None, block=1):
    """Serve requests in corpus order, starting over when the corpus runs
    out; every pass starts with a cold TU cache.  Stops at the end of a
    block of `block` requests once `seconds` have passed and at least
    MIN_REQUESTS are done (or twice `seconds` have passed), or after exactly
    `count` requests."""
    served = Served()
    clock = time.perf_counter
    clear_tu_cache()
    start = clock()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None:
            elapsed = clock() - start
            if i and not i % block and elapsed >= seconds and (i >= MIN_REQUESTS or elapsed >= 2 * seconds):
                break
        index = i % len(corpus)
        if i and not index:
            served.count_tu_cache()
            clear_tu_cache()
        if tracer is not None:
            tracer.request = i
        t = clock()
        try:
            answer, error = solve_request(corpus[index][1]), None
        except Exception as exc:  # a failed request is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        served.latencies.append(clock() - t)
        served.record(i, index, answer, error)
        i += 1
    served.wall = clock() - start
    served.count_tu_cache()
    return served


def check(corpus, served):
    """Cross-check every answer against the oracle and verify_solution.
    Returns (failed, wrong, reasons): the number of failed requests (every
    request of a failing corpus entry counts), how many of those returned
    a wrong answer rather than raising or refusing, and one reason per
    failing entry."""
    refused = dict(served.raised)
    wrong = dict(served.problems)
    for index, (inst, res, verified) in served.answers.items():
        if index in wrong:
            continue
        if res.status == "unsupported":
            refused[index] = "unsupported inside the solver's contract"
            continue
        try:
            ora = oracle_solve(inst)
        except ScaleError as exc:
            wrong[index] = f"oracle could not decide: {exc}"
            continue
        if res.status != ora.status:
            wrong[index] = f"status {res.status}, oracle {ora.status}"
        elif res.status == "feasible" and inst.c is not None and res.value != ora.value:
            wrong[index] = f"value {res.value}, oracle {ora.value}"
        elif not verified or (res.x is not None and not verify_solution(inst, res.x).ok):
            wrong[index] = f"point {res.x} fails verification"
    failed = sum(served.times_served[index] for index in {**refused, **wrong})
    reasons = [f"{corpus[index][0]} request {index}: {reason}" for index, reason in {**refused, **wrong}.items()]
    return failed, sum(served.times_served[index] for index in wrong), reasons


def fallback_ratio(served):
    return len(served.fallbacks) / served.count


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cctu": cctu.__version__,
    }


def end_to_end(served, setup_s, failed, rss_mb):
    lat_ms = sorted(t * 1000.0 for t in served.latencies)
    return {
        "setup_s": setup_s,
        "throughput_ips": served.throughput(),
        "solve_p50_ms": statistics.median(lat_ms),
        "solve_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
        "fail_ratio": failed / served.count,
        "fallback_ratio": fallback_ratio(served),
        "peak_rss_mb": rss_mb,
    }


def composition(corpus, served, spans):
    """What the traced requests were: status mix, classification tags,
    (m, |R|) shapes, and the ScaleError messages behind each fallback."""
    shapes = Counter()
    kinds = Counter()
    for index, times in served.times_served.items():
        kinds[corpus[index][0]] += times
        if index in served.answers:
            inst = served.answers[index][0]
            shapes[f"m={inst.m},|R|={len(inst.R)}"] += times
    tags = Counter()
    escaped = {}
    for span in spans:
        if span[tr.NAME] == "seymour.classify":
            tags[span[tr.NOTE] if span[tr.EXC] is None else span[tr.EXC][0]] += 1
        if span[tr.NAME] in FALLBACK_SOURCES and span[tr.EXC] and span[tr.EXC][0] == "ScaleError":
            escaped.setdefault(span[tr.REQUEST], set()).add(span[tr.EXC][1])
    reasons = Counter()
    for number in served.fallbacks:
        for message in escaped.get(number, {"depth limit (no ScaleError)"}):
            reasons[message] += 1
    return {
        "requests": served.count,
        "distinct": len(served.times_served),
        "status": dict(served.statuses),
        "kinds": dict(kinds),
        "shapes": dict(shapes),
        "classify_tags": dict(tags),
        "fallback_reasons": dict(reasons),
    }


def per_layer(tracer, served, untraced):
    spans = tracer.spans
    names = [f"{module}.{fn}" for module, fn, _note in tr.TARGETS]
    totals = tr.layer_totals(spans, names)
    out = {}
    for name in names:
        calls, self_s = totals[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    lookups = served.tu_hits + served.tu_misses
    out["matrices.tu_cache.hit_ratio"] = served.tu_hits / lookups if lookups else 0.0
    for name in ("seymour.classify", "baseblocks.solve_base_block"):
        out[f"{name}.scale_errors"] = sum(
            1 for s in spans if s[tr.NAME] == name and s[tr.EXC] and s[tr.EXC][0] == "ScaleError"
        )
    network = [s for s in spans if s[tr.NAME] == "baseblocks.solve_network_cctu"]
    out["baseblocks.solve_network_cctu.useful_ratio"] = (
        sum(1 for s in network if s[tr.NOTE]) / len(network) if network else 0.0
    )
    for key in STATS_SUMS:
        out[f"patterns.{key}"] = served.stats[key]
    out["patterns.oracle_fallback_ratio"] = fallback_ratio(served)
    out["trace.attributed_ratio"] = tr.attributed_seconds(spans) / served.wall
    out["trace.overhead_ratio"] = untraced.throughput() / served.throughput()
    return out


def self_check(tracer, workload):
    """Problems with the tracer's coverage: a function bound nowhere, or one
    that never fired on a workload it is expected to fire on."""
    fired = Counter(s[tr.NAME] for s in tracer.spans)
    problems = [f"{name}: patched at no binding site" for name, sites in tracer.sites.items() if not sites]
    problems += [
        f"{name}: never fired on {workload}"
        for name, workloads in EXPECTED.items()
        if workload in workloads and not fired[name]
    ]
    return problems


def run(workload, seed, seconds, trace, part_size=None, count=None):
    """One benchmark run in this process.  Returns (report, result, ok);
    ok is false if an answer was wrong or the tracer self-check failed.  A
    request that raised or refused counts as failed, not as wrong.
    `count` fixes the number of requests per pass instead of `seconds`."""
    block = WORKLOADS[workload].block
    corpus, part_s = setup(workload, seed, part_size or PART_BLOCKS[workload] * block)
    # Start-up plus the corpus generation time, each a median (generation as
    # SETUP_PARTS times the median part) so that one disturbed sample does
    # not move it.
    setup_s = import_seconds() + SETUP_PARTS * part_s
    report = {"environment": environment(workload, seed, seconds, trace)}
    problems = []
    if not trace:
        served = serve(corpus, seconds, count, block=block)
        rss_mb = peak_rss_mb()
        failed, wrong, reasons = check(corpus, served)
        metrics = end_to_end(served, setup_s, failed, rss_mb)
        report["metrics"] = metrics
        result_metrics = {name: metrics[name] for name in RESULT_METRICS}
        units = dict(END_TO_END)
    else:
        untraced = serve(corpus, seconds / 2, count, block=block)
        with tr.Tracer() as tracer:
            served = serve(corpus, None, untraced.count, tracer)
        failed, wrong, reasons = check(corpus, served)
        result_metrics = per_layer(tracer, served, untraced)
        units = {name: per_layer_unit(name) for name in result_metrics}
        problems = self_check(tracer, workload)
        report["binding_sites"] = tracer.sites
        report["composition"] = composition(corpus, served, tracer.spans)
    report["failures"] = reasons[:20]
    report["tracer_problems"] = problems
    result = {
        "correct": not wrong,
        "attempted": served.count,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result_metrics.items()},
    }
    return report, result, not wrong and not problems


def print_table(report, result):
    env = report["environment"]
    print(
        f"workload {env['workload']}  seed {env['seed']}  backend {env['backend']}  "
        f"python {env['python']}  nproc {env['nproc']}  requests {result['attempted']}"
    )
    print(f"  why: {env['why']}")
    rows = report.get("metrics")
    if rows is not None:
        for name, unit in END_TO_END:
            print(f"  {name:<16} {rows[name]:>14.6g} {unit}")
    else:
        for name, entry in result["metrics"].items():
            if entry["value"]:
                print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    for reason in report["failures"]:
        print(f"  FAIL {reason}")
    for problem in report["tracer_problems"]:
        print(f"  TRACER {problem}")


def run_all(args):
    """Every workload, each in a fresh process, one after another."""
    bad = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(argv).returncode != 0:
            bad.append(name)
    if bad:
        print(f"failed: {', '.join(bad)}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report, result, ok = run(args.workload, args.seed, args.seconds, args.trace)
    print_table(report, result)
    if result["failed"]:
        print(f"warning: {result['failed']} of {result['attempted']} requests failed", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
