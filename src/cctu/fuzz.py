"""Differential fuzzing: structural solver against the proximity-box oracle.

A disagreement gets greedily minimized (drop rows, shrink right-hand sides,
zero residue weights) while it persists, then dumped as an instance file for
replay.
"""

import random

from .errors import ScaleError
from .fileio import serialize_instance
from .generators import KINDS, generate
from .matrices import IntMatrix, TUMatrix
from .patterns import SolverConfig, solve_rcctuf
from .polyhedra import Polyhedron, oracle_solve


def _statuses(inst, budget):
    config = SolverConfig(budget=budget)
    res = solve_rcctuf(inst, config)
    ora = oracle_solve(inst, budget)
    solver_status = res.status
    value = res.value
    ora_value = ora.value
    agree = solver_status == ora.status and (
        solver_status != "feasible" or inst.c is None or value == ora_value
    )
    return agree, res, ora


def minimize_reproducer(inst, budget):
    """Greedy shrink preserving the solver/oracle disagreement."""

    def still_bad(candidate):
        try:
            agree, _, _ = _statuses(candidate, budget)
            return not agree
        except ScaleError:
            return False

    current = inst
    changed = True
    while changed:
        changed = False
        rows = current.P.T.matrix.rows
        for i in range(len(rows)):
            cand_rows = rows[:i] + rows[i + 1:]
            cand = current.replaced(
                P=Polyhedron(
                    TUMatrix.trusted(IntMatrix(cand_rows, current.nvars)),
                    current.P.b[:i] + current.P.b[i + 1:],
                )
            )
            if still_bad(cand):
                current = cand
                changed = True
                break
        if changed:
            continue
        for i, bv in enumerate(current.P.b):
            if bv == 0:
                continue
            smaller = bv - 1 if bv > 0 else bv + 1
            cand = current.replaced(
                P=Polyhedron(current.P.T, current.P.b[:i] + (smaller,) + current.P.b[i + 1:])
            )
            if still_bad(cand):
                current = cand
                changed = True
                break
        if changed:
            continue
        for i, gv in enumerate(current.gamma):
            if gv == 0:
                continue
            cand = current.replaced(gamma=current.gamma[:i] + (0,) + current.gamma[i + 1:])
            if still_bad(cand):
                current = cand
                changed = True
                break
    return current


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
    if agree:
        return (ora.status, None, fallback)
    return ("disagreement", task_seed, fallback)


def run_fuzz(n, seed, fixed_m=None, budget=4_000_000, output_prefix=None, jobs=1):
    """n seeded random instances; returns a summary dict.

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
        "fallbacks": 0,
        "disagreements": 0,
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
        elif status != "skipped":
            summary["agreements"] += 1
            if status in ("feasible", "infeasible"):
                summary[status] += 1
    return summary
