"""Command-line interface.

Subcommands: solve, oracle, check-tu, decompose, width, proximity, generate,
verify, fuzz; each accepts only the flags it reads.  Exit codes: 0 success,
1 infeasible (or negative verdict), 2 input error, 3 desk-scale budget
exceeded, 4 a reported solution failed its exact re-verification.
"""

import argparse
import json
import sys
import time

from .errors import (
    CctuError,
    InputFormatError,
    ScaleError,
    SolutionCheckError,
    UnsupportedInstanceError,
)
from .fileio import parse_instance, serialize_instance
from .fuzz import run_fuzz
from .generators import KINDS, generate
from .matrices import EXHAUSTIVE_CAP, is_totally_unimodular, non_tu_witness
from .patterns import solve_rcctuf
from .polyhedra import integral_feasible_point, oracle_solve, width
from .seymour import classify
from .structure import find_flat_or_solve, proximal_solution
from .verify import verify_solution

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_SCALE = 3
EXIT_CHECK = 4


def positive_int(text):
    """argparse type for counts and budgets that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def nonnegative_int(text):
    """argparse type for counts that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


# flags shared by several subcommands; each subcommand takes only those it reads
FLAGS = {
    "input": {"required": True, "help": "instance file"},
    "skip-tu-check": {"action": "store_true", "help": "trust the input matrix"},
    "max-enum": {"type": positive_int, "default": 4_000_000, "help": "enumeration budget"},
    "json": {"action": "store_true", "help": "machine-readable output"},
    "output": {"help": "write results/artifacts here"},
    "seed": {"type": int, "default": 0},
}


def make_parser():
    p = argparse.ArgumentParser(prog="cctu", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument("--" + flag, **FLAGS[flag])
        return sp

    solving = ("input", "skip-tu-check", "max-enum", "json", "output")
    command("solve", "run the structural solver", *solving)
    command("oracle", "run the proximity-box oracle", *solving)
    command("check-tu", "certify total unimodularity", "input", "json")
    command("decompose", "print the classification tree", "input")
    command("width", "row-direction widths of the polyhedron", "input", "skip-tu-check")
    command(
        "proximity",
        "pull a solution next to a relaxation point",
        "input",
        "skip-tu-check",
        "max-enum",
    )

    g = command("generate", "write a random instance of a structural class", "seed", "output")
    g.add_argument("--kind", choices=KINDS, required=True)
    g.add_argument("--size", type=positive_int, default=4)
    g.add_argument("--m", type=positive_int, default=3)
    g.add_argument("--residues", type=int, default=1, help="number of target residues")
    g.add_argument("--objective", action="store_true", help="attach a random objective")

    v = command("verify", "check a candidate solution", "input", "skip-tu-check")
    v.add_argument("--x", required=True, help="comma-separated solution vector")

    f = command(
        "fuzz", "cross-check solver against the oracle", "seed", "max-enum", "output", "json"
    )
    f.add_argument("-n", type=nonnegative_int, default=100, help="number of instances")
    f.add_argument("--m", type=nonnegative_int, default=0, help="fix the modulus (0 = mixed)")
    f.add_argument("--jobs", type=positive_int, default=1, help="parallel worker processes")
    return p


def _load(args, verify_tu=None):
    """The instance named by --input, TU-verified unless --skip-tu-check is
    given or `verify_tu` says otherwise."""
    if verify_tu is None:
        verify_tu = not args.skip_tu_check
    try:
        with open(args.input) as fh:
            return parse_instance(fh.read(), verify_tu=verify_tu)
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _emit(args, res, elapsed, solver):
    """Print a SolveResult with the solve's wall time and the solver's name,
    as JSON with --json, and copy it to --output when given."""
    if args.json:
        text = json.dumps(
            {
                "status": res.status,
                "x": list(res.x) if res.x is not None else None,
                "value": res.value,
                "stats": res.stats,
                "elapsed": round(elapsed, 6),
                "solver": solver,
            },
            sort_keys=True,
        )
    else:
        lines = [f"status: {res.status}"]
        if res.x is not None:
            lines.append("x: " + " ".join(str(v) for v in res.x))
        if res.value is not None:
            lines.append(f"value: {res.value}")
        if res.stats:
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(res.stats.items()))
            lines.append(f"stats: {pretty}")
        lines.append(f"elapsed: {elapsed:.3f}s")
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_solve(args):
    inst = _load(args)
    start = time.perf_counter()
    res = solve_rcctuf(inst, args.max_enum)
    elapsed = time.perf_counter() - start
    if res.status == "feasible":
        check = verify_solution(inst, res.x)
        if not check.ok:
            raise SolutionCheckError(f"reported solution fails verification: {check.describe()}")
    if res.status == "infeasible" and not args.json:
        try:
            out = find_flat_or_solve(inst.without_objective())
            if out.tag == "flat":
                res.stats["flat_row"] = out.row_index
                res.stats["flat_width"] = out.width
        except CctuError:
            pass
    _emit(args, res, elapsed, "structural")
    if res.status == "unsupported":
        return EXIT_INPUT
    return EXIT_OK if res.status in ("feasible", "unbounded") else EXIT_INFEASIBLE


def cmd_oracle(args):
    inst = _load(args)
    start = time.perf_counter()
    out = oracle_solve(inst, args.max_enum)
    _emit(args, out, time.perf_counter() - start, "oracle")
    return EXIT_OK if out.status in ("feasible", "unbounded") else EXIT_INFEASIBLE


def cmd_check_tu(args):
    inst = _load(args, verify_tu=False)
    mat = inst.P.T.matrix
    verdict = is_totally_unimodular(mat)
    if args.json:
        print('{"totally_unimodular": %s}' % ("true" if verdict else "false"))
    elif verdict:
        print(f"totally unimodular ({mat.nrows}x{mat.ncols})")
    else:
        witness = non_tu_witness(mat)
        if witness is None:
            cap = EXHAUSTIVE_CAP
            print(f"not totally unimodular (no witness past the {cap}x{cap} scan)")
        else:
            rows, cols, det = witness
            print(f"not totally unimodular: rows {list(rows)} cols {list(cols)} det {det}")
    return EXIT_OK if verdict else EXIT_INFEASIBLE


def cmd_decompose(args):
    inst = _load(args, verify_tu=True)

    def tree(mat, depth, label):
        pad = "  " * depth
        try:
            cls = classify(mat)
        except ScaleError:
            print(f"{pad}{label}: (search budget exceeded)")
            return
        if cls.tag == "sum":
            dec = cls.sum
            print(f"{pad}{label}: {dec.kind}-sum "
                  f"({dec.A.nrows}x{dec.A.ncols} + {dec.B.nrows}x{dec.B.ncols})")
            if depth < 3:
                tree(dec.A, depth + 1, "A")
                tree(dec.B, depth + 1, "B")
        elif cls.tag == "pivot_then_sum":
            print(f"{pad}{label}: pivot at {cls.pivot_at}, then {cls.sum.kind}-sum")
        elif cls.tag == "constant_core":
            print(f"{pad}{label}: constant core ({cls.core.nrows}x{cls.core.ncols})")
        else:
            print(f"{pad}{label}: {cls.tag.replace('_', ' ')}")

    tree(inst.P.T.matrix, 0, "T")
    return EXIT_OK


def cmd_width(args):
    inst = _load(args)
    if integral_feasible_point(inst.P) is None:
        print("polyhedron is empty")
        return EXIT_INFEASIBLE
    bound = inst.m - len(inst.R) - 1
    for i, row in enumerate(inst.P.T.matrix.rows):
        if not any(row):
            print(f"row {i}: zero row")
            continue
        w = width(inst.P, row)
        if w is None:
            print(f"row {i}: infinite")
        else:
            mark = "  <- flat" if w <= bound else ""
            print(f"row {i}: width {w}{mark}")
    return EXIT_OK


def cmd_proximity(args):
    inst = _load(args)
    x0 = integral_feasible_point(inst.P)
    if x0 is None:
        print("relaxation infeasible")
        return EXIT_INFEASIBLE
    plain = inst.without_objective()  # proximity ignores the objective
    out = oracle_solve(plain, args.max_enum, vertex=x0)
    if out.status != "feasible":
        print("instance infeasible")
        return EXIT_INFEASIBLE
    x = proximal_solution(plain, x0, out.x)
    dist = max((abs(a - b) for a, b in zip(x, x0)), default=0)
    print("x0: " + " ".join(str(v) for v in x0))
    print("x:  " + " ".join(str(v) for v in x))
    print(f"distance {dist} (bound {inst.m - len(inst.R)})")
    return EXIT_OK


def _input_error(problem):
    print(f"error: {problem}", file=sys.stderr)
    return EXIT_INPUT


def cmd_generate(args):
    if not 1 <= args.residues <= args.m:
        return _input_error(f"--residues must lie in 1..{args.m}, not {args.residues}")
    gen = generate(args.kind, args.size, args.m, args.residues, args.seed, args.objective)
    text = serialize_instance(gen.instance)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.kind} instance to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args):
    inst = _load(args)
    try:
        x = tuple([int(t) for t in args.x.replace(",", " ").split()])
    except ValueError:
        return _input_error("--x must be a comma- or space-separated integer vector")
    if len(x) != inst.nvars:
        return _input_error(f"expected {inst.nvars} coordinates")
    report = verify_solution(inst, x)
    print(report.describe())
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def cmd_fuzz(args):
    summary = run_fuzz(
        args.n, args.seed, args.m or None, args.max_enum, args.output, jobs=args.jobs
    )
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"{summary['agreements']}/{summary['total']} oracle-vs-solver agreements "
            f"({summary['feasible']} feasible, {summary['infeasible']} infeasible, "
            f"{summary['unbounded']} unbounded), {summary['unsupported']} unsupported, "
            f"{summary['skipped']} skipped, {summary['fallbacks']} oracle fallbacks"
        )
        if summary["disagreements"]:
            print(f"reproducers: {', '.join(summary['reproducers'])}")
    return EXIT_OK if not summary["disagreements"] else EXIT_INFEASIBLE


def main(argv=None):
    args = make_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "oracle": cmd_oracle,
        "check-tu": cmd_check_tu,
        "decompose": cmd_decompose,
        "width": cmd_width,
        "proximity": cmd_proximity,
        "generate": cmd_generate,
        "verify": cmd_verify,
        "fuzz": cmd_fuzz,
    }[args.command]
    try:
        return handler(args)
    except UnsupportedInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except SolutionCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
