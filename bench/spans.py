"""In-memory spans around the public functions of quadexp, from outside it.

A :class:`Tracer` replaces each function listed in :data:`LAYERS` by a
wrapper, both on its defining module and wherever another quadexp
module imported the same object, so calls made inside the library are
caught as well as the benchmark's own.  Each wrapper records one span
(name, start, end, parent, op id); spans stay in memory until
:meth:`Tracer.dump`.  A layer's self time is the length of its spans
minus the time their child spans cover.

Run as a script to print the per-layer self-time table of a span file:

    python3 bench/spans.py .bench_out/spans-roundtrip-s1.json
"""

import functools
import json
import math
import sys
import time
from pathlib import Path

# layer name -> (module, attribute) pairs whose calls it covers; an
# attribute "Class.method" wraps the method on the class
LAYERS = {
    "model.ccr_two_point": [("quadexp.model", "ccr_two_point")],
    "model.laplace": [
        ("quadexp.model", "laplace_point"),
        ("quadexp.model", "laplace_lambda"),
        ("quadexp.model", "laplace_lambda_quadrature"),
    ],
    "measures.build_ccr_kernel": [("quadexp.measures", "build_ccr_kernel")],
    "measures.kernel_weighted_norm": [("quadexp.measures", "kernel_weighted_norm")],
    "measures.path_build": [
        ("quadexp.solvers", "corner_atom_path"),
        ("quadexp.solvers", "diagonal_lebesgue_path"),
    ],
    "lie.csk_log": [("quadexp.lie", "csk_log")],
    "lie.kernel_factor": [("quadexp.lie", "KernelSolver.__init__")],
    "lie.kernel_solve": [("quadexp.lie", "KernelSolver.solve_measure")],
    "lie.superop": [
        ("quadexp.lie", "ups_superop"),
        ("quadexp.lie", "sinhc_superop"),
        ("quadexp.lie", "mho_superop"),
    ],
    "lie.symplectic_residual": [
        ("quadexp.lie", "symplectic_residual_raw"),
        ("quadexp.lie", "symplectic_residual"),
    ],
    "solvers.forward": [
        ("quadexp.solvers", "forward_csk_evolution"),
        ("quadexp.solvers", "csk_path_from_midpoints"),
    ],
    "solvers.spde_fast": [("quadexp.solvers", "spde_fast_path")],
    "solvers.extract": [("quadexp.solvers", "qef_from_csk_path")],
    "solvers.inverse": [
        ("quadexp.solvers", "inverse_toe_measure"),
        ("quadexp.solvers", "staggered_inverse_measures"),
    ],
    "solvers.laplace_recover": [("quadexp.solvers", "laplace_recover_measure")],
    "fock.build": [("quadexp.fock", "build_single_time")],
    "fock.bracket_check": [("quadexp.fock", "oracle_bracket_check")],
    "fock.multitime": [("quadexp.fock", "oracle_multitime_check")],
    "cli.parse": [("quadexp.cli", "parse_scenario")],
    "cli.run": [("quadexp.cli", "run_scenario")],
}

# spans the benchmark opens around each op; their self time is glue
OP_SPAN = "bench.op"

# the solver falls back to least squares at or above this condition
LSTSQ_CONDITION = 1e12


def _after_path(counters, path, args):
    """Stored bytes and live (not identity) columns of a returned CskPath."""
    import numpy as np

    mats = path.mats
    size = mats.shape[1]
    eye = np.eye(size)
    live = sum(int((m != eye).any(axis=0).sum()) for m in mats)
    counters["solvers.csk_path.bytes"] += mats.nbytes
    counters["csk_path.columns"] += mats.shape[0] * size
    counters["csk_path.live_columns"] += live


def _after_solver(counters, result, args):
    condition = args[0].condition
    counters["lie.kernel_solve.max_condition"] = max(
        counters["lie.kernel_solve.max_condition"], condition
    )
    if not (math.isfinite(condition) and condition < LSTSQ_CONDITION):
        counters["lie.kernel_solve.lstsq_fallbacks"] += 1


def _after_midpoints(counters, result, args):
    counters["solvers.forward.steps"] += len(args[0])
    _after_path(counters, result, args)


def _after_extract(counters, result, args):
    counters["solvers.extract.nodes"] += len(result.node_indices)


def _after_fock(counters, result, args):
    counters["fock.max_dim"] = max(counters["fock.max_dim"], result.dimension)


# (module, attribute) -> bookkeeping run after the span closes
AFTER = {
    ("quadexp.lie", "KernelSolver.__init__"): _after_solver,
    ("quadexp.solvers", "csk_path_from_midpoints"): _after_midpoints,
    ("quadexp.solvers", "spde_fast_path"): _after_path,
    ("quadexp.solvers", "qef_from_csk_path"): _after_extract,
    ("quadexp.fock", "build_single_time"): _after_fock,
    ("quadexp.fock", "oracle_multitime_check"): _after_fock,
}

COUNTERS = (
    "lie.kernel_solve.max_condition",
    "lie.kernel_solve.lstsq_fallbacks",
    "solvers.forward.steps",
    "solvers.csk_path.bytes",
    "csk_path.columns",
    "csk_path.live_columns",
    "solvers.extract.nodes",
    "fock.max_dim",
)


class Tracer:
    """Span recorder; :meth:`install` wraps the library in place.

    Spans are lists [name, start, end, parent index, op id] with times
    from time.perf_counter; parent is -1 at top level.
    """

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack = []

    def install(self):
        """Wrap every function in LAYERS; call once per process."""
        quadexp_modules = [
            mod for name, mod in sys.modules.items()
            if name == "quadexp" or name.startswith("quadexp.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner, attr_name = getattr(owner, cls_name), method
                else:
                    attr_name = attr
                original = getattr(owner, attr_name)
                wrapped = self._wrap(layer, original, AFTER.get((module_name, attr)))
                setattr(owner, attr_name, wrapped)
                if owner is sys.modules[module_name]:
                    for mod in quadexp_modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def _wrap(self, name, fn, after):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, result, args)
            return result

        return wrapper

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) under one OP_SPAN tagged with op_id."""
        self.op = op_id
        return self._wrap(OP_SPAN, fn, None)(*args)

    def dump(self, path):
        Path(path).write_text(
            json.dumps({"counters": self.counters, "spans": self.spans}), encoding="ascii"
        )


def layer_totals(spans):
    """name -> [calls, total seconds, self seconds] over a span list.

    calls counts spans, so a layer whose functions call one another
    (solvers.forward, model.laplace) counts each nesting level, and its
    total double-counts the nested time; self seconds never do.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[idx]
    return totals


def coverage(totals):
    """Share of the ops' traced wall time that layer self times cover."""
    wall = totals.get(OP_SPAN, [0, 0.0, 0.0])[1]
    layered = sum(row[2] for name, row in totals.items() if name != OP_SPAN)
    return layered / wall if wall > 0.0 else 0.0


def format_table(data):
    """Per-layer self-time table of a dumped span file, as text lines."""
    totals = layer_totals(data["spans"])
    wall = totals.get(OP_SPAN, [0, 0.0, 0.0])[1]
    lines = [f"{'layer':<32} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        share = 100.0 * own / wall if wall > 0.0 else 0.0
        lines.append(f"{name:<32} {calls:>9d} {total:>10.4f} {own:>10.4f} {share:>6.1f}%")
    lines.append(f"traced op wall {wall:.4f} s; layers cover {100.0 * coverage(totals):.1f}%")
    for key, value in data.get("meta", {}).items():
        lines.append(f"{key} = {value}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/spans.py SPAN_FILE")
    print("\n".join(format_table(json.loads(Path(sys.argv[1]).read_text()))))
