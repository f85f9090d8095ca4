"""Outside-in layer tracing for the solve benchmark.

`Tracer` replaces each listed library function, at every place a loaded
`cctu.*` module binds it, by a wrapper that records one span per call:
name, start, end, parent span, request id, the exception that passed
through (if any) and an optional note about the return value.  Spans stay
in memory until the run ends; `layer_totals` turns them into per-function
call counts and self times.  Nothing inside the library changes.
"""

import sys
import time
from functools import wraps

# Span fields, kept as lists for speed and size.
NAME, START, END, PARENT, REQUEST, EXC, NOTE = range(7)


def _returned_point(out):
    return out is not None


def _classification_tag(out):
    return out.tag


# (module, function, note) for every traced function.  A note summarises the
# return value into the span: whether a point came back, or which
# classification fired.
TARGETS = (
    ("lp", "solve_lp", None),
    ("polyhedra", "lp_optimize", None),
    ("polyhedra", "integral_feasible_point", None),
    ("polyhedra", "search_box", None),
    ("polyhedra", "oracle_solve", None),
    ("matrices", "is_totally_unimodular", None),
    ("kernels", "find_non_unit_subdet", None),
    ("kernels", "ghouila_houri_ok", None),
    ("kernels", "det_bareiss", None),
    ("kernels", "box_search", None),
    ("cones", "decompose_solutions", None),
    ("shortening", "transform_solution", None),
    ("structure", "solve_r_minus_1", None),
    ("structure", "find_flat_or_solve", None),
    ("structure", "eliminate_tight_variable", None),
    ("structure", "bound_scalar_products", None),
    ("seymour", "classify", _classification_tag),
    ("seymour", "find_sum_decomposition", None),
    ("seymour", "recognize_network_matrix", None),
    ("seymour", "reduce_to_core", None),
    ("seymour", "pivot_transform_instance", None),
    ("patterns", "decomp_progress_step", None),
    ("patterns", "compute_pattern", None),
    ("patterns", "narrowed_domain", None),
    ("baseblocks", "solve_base_block", None),
    ("baseblocks", "solve_const_core", None),
    ("baseblocks", "solve_network_cctu", _returned_point),
    ("baseblocks", "normalize", None),
    ("baseblocks", "solve_ccc", None),
    ("baseblocks", "solve_ctc_chain", None),
    ("fileio", "parse_instance", None),
    ("verify", "verify_solution", None),
)


class Tracer:
    """Installs span-recording wrappers; use as a context manager so the
    original functions are always restored."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self.sites = {}  # "module.fn" -> binding sites patched
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, tracer.request, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[EXC] = (type(exc).__name__, str(exc))
                raise
            finally:
                stack.pop()
                span[END] = clock()
            if note is not None:
                span[NOTE] = note(out)
            return out

        return wrapper

    def install(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cctu" or key.startswith("cctu."))
        ]
        for module, fn_name, note in TARGETS:
            name = f"{module}.{fn_name}"
            home = sys.modules.get(f"cctu.{module}")
            fn = getattr(home, fn_name, None)
            sites = []
            if fn is not None:
                wrapper = self._wrap(name, fn, note)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
                            sites.append(f"{mod.__name__}.{attr}")
            self.sites[name] = sites

    def uninstall(self):
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per-span self time: duration minus the part of it that child spans
    cover.  A recursive call is a child of its caller, so each instant is
    charged to exactly one span."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        inside = [(max(k[START], start), min(k[END], end)) for k in kids]
        out.append(end - start - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def layer_totals(spans, names):
    """{name: (calls, self_s)} for every name, zero for names never called."""
    totals = {name: [0, 0.0] for name in names}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[NAME], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def attributed_seconds(spans):
    """Wall time inside some top-level span."""
    return _covered([(s[START], s[END]) for s in spans if s[PARENT] < 0])
