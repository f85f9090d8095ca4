"""Differential fuzzing: structural solver against the proximity-box oracle.

Instances the solver declines as unsupported are counted apart: they lie
outside its (m, |R|) contract, so they are not wrong answers.  A
disagreement gets greedily minimized (drop rows, shrink right-hand sides,
zero residue weights) while it persists, then dumped as an instance file for
replay.
"""

import random

from .errors import ScaleError
from .fileio import serialize_instance
from .generators import KINDS, generate
from .matrices import IntMatrix, TUMatrix
from .patterns import solve_rcctuf
from .polyhedra import Polyhedron, oracle_solve


def _statuses(inst, budget):
    res = solve_rcctuf(inst, budget)
    ora = oracle_solve(inst, budget)
    agree = res.status == ora.status and (
        res.status != "feasible" or inst.c is None or res.value == ora.value
    )
    return agree, res, ora


def _shrinks(inst):
    """One-step shrinks of `inst` in the order the minimizer tries them:
    drop a row, move a right-hand side one step toward 0, zero a residue
    weight."""
    rows = inst.P.T.matrix.rows
    b = inst.P.b
    for i in range(len(rows)):
        mat = IntMatrix(rows[:i] + rows[i + 1:], inst.nvars)
        yield inst.replaced(P=Polyhedron(TUMatrix.trusted(mat), b[:i] + b[i + 1:]))
    for i, bv in enumerate(b):
        if bv != 0:
            smaller = bv - 1 if bv > 0 else bv + 1
            yield inst.replaced(P=Polyhedron(inst.P.T, b[:i] + (smaller,) + b[i + 1:]))
    for i, gv in enumerate(inst.gamma):
        if gv != 0:
            yield inst.replaced(gamma=inst.gamma[:i] + (0,) + inst.gamma[i + 1:])


def minimize_reproducer(inst, budget):
    """Greedy shrink preserving the solver/oracle disagreement: take the
    first shrink that keeps it, and start over, until none does."""

    def still_bad(candidate):
        try:
            agree, _, _ = _statuses(candidate, budget)
            return not agree
        except ScaleError:
            return False

    while True:
        smaller = next((cand for cand in _shrinks(inst) if still_bad(cand)), None)
        if smaller is None:
            return inst
        inst = smaller


def _draw_instance(task_seed, fixed_m):
    rng = random.Random(task_seed)
    m = fixed_m or rng.choice((2, 3, 5))
    sizes = [max(1, m - 2), m - 1, m]
    gen = generate(
        rng.choice(KINDS),
        rng.randint(2, 5),
        m,
        rng.choice(sizes),
        seed=rng.randrange(1 << 30),
        with_c=rng.random() < 0.3,
    )
    return gen.instance


def _fuzz_one(args):
    """One instance end to end; instances are independent, so fuzzing
    parallelizes across them."""
    task_seed, fixed_m, budget = args
    inst = _draw_instance(task_seed, fixed_m)
    if inst.nvars > 6:
        return ("skipped", None, False)
    try:
        agree, res, ora = _statuses(inst, budget)
    except ScaleError:
        return ("skipped", None, False)
    fallback = bool(res.stats.get("oracle_fallback"))
    if res.status == "unsupported":
        return ("unsupported", None, fallback)
    if agree:
        return (ora.status, None, fallback)
    return ("disagreement", task_seed, fallback)


def run_fuzz(n, seed, fixed_m=None, budget=4_000_000, output_prefix=None, jobs=1):
    """n seeded random instances; returns a summary dict.

    Each instance counts in exactly one of agreements, disagreements,
    unsupported and skipped (more than 6 variables, or a ScaleError), and
    each agreement in exactly one of feasible, infeasible and unbounded.

    With jobs > 1 the instances are checked by a process pool; results and
    reproducers are identical either way (the per-instance seeds are fixed
    up front).
    """
    rng = random.Random(seed)
    tasks = [(rng.randrange(1 << 30), fixed_m, budget) for _ in range(n)]
    summary = {
        "total": n,
        "agreements": 0,
        "feasible": 0,
        "infeasible": 0,
        "unbounded": 0,
        "fallbacks": 0,
        "disagreements": 0,
        "unsupported": 0,
        "skipped": 0,
        "reproducers": [],
        "seed": seed,
    }
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_fuzz_one, tasks)
    else:
        results = [_fuzz_one(t) for t in tasks]
    for i, (status, bad_seed, fallback) in enumerate(results):
        summary["fallbacks"] += fallback
        if status == "disagreement":
            summary["disagreements"] += 1
            inst = _draw_instance(bad_seed, fixed_m)
            small = minimize_reproducer(inst, budget)
            path = f"{output_prefix or 'cctu-repro'}-{i}.txt"
            with open(path, "w") as fh:
                fh.write(serialize_instance(small))
            summary["reproducers"].append(path)
        elif status in ("unsupported", "skipped"):
            summary[status] += 1
        else:
            summary["agreements"] += 1
            summary[status] += 1
    return summary
