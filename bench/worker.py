"""Child process of the benchmark: runs ops in process, prints one JSON line.

    python3 bench/worker.py '<spec json>'

The spec is {"ops": [op, ...], "trace": span file or null}.
Each op is a dict with a "kind" (flow, roundtrip_f, roundtrip_n,
scenario, env, baseline) and its parameters.  The result line is
{"ops": [result, ...]} where a result holds the op's gated checks as
[name, value, gate] triples, per-call seconds, first_call (monotonic
time of its first timed library call), op_s (first timed call to end),
or an "error" string when the op raised.  With a span file the
library is wrapped by :class:`spans.Tracer` first and the spans are
written when every op has ended.  Models are built before the library
is wrapped, so their set-up stays out of the spans.

The parent sets OPENBLAS/OMP/MKL_NUM_THREADS=1 in this process's
environment, so numpy starts pinned to one thread.
"""

import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import quadexp
from quadexp import cli, lie, measures, model, solvers

from spans import Tracer

PI_NORM = 0.2
HORIZON = 1.0


def seeded_pi(seed, n):
    """Random symmetric positive-definite n x n matrix with 2-norm PI_NORM."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    p = a @ a.T + 0.1 * np.eye(n)
    p = 0.5 * (p + p.T)
    return PI_NORM * p / np.linalg.norm(p, 2)


def fixed_models():
    """n -> model: oscillator.mod for n=2, the test suite's model4 for n=4."""
    scn = cli.parse_scenario(cli.bundled_scenario("spde_fast.scn"))
    return {
        2: model.OqhoModel(scn.theta, scn.drift, scn.dispersion),
        4: model.random_model(np.random.default_rng(11), n=4, m=4),
    }


class Clock:
    """Times an op's library calls from the first one on."""

    def __init__(self):
        self.calls = {}
        self.first = None  # time.monotonic() at the first call
        self.start = None

    def __call__(self, label, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if self.start is None:
            self.first = time.monotonic()
            self.start = t0
        result = fn(*args, **kwargs)
        self.calls[label] = self.calls.get(label, 0.0) + time.perf_counter() - t0
        return result

    def result(self, checks):
        return {
            "checks": checks,
            "calls": self.calls,
            "first_call": self.first,
            "op_s": time.perf_counter() - self.start,
        }


def _rel_symplectic(mat, big):
    residual, scale = lie.symplectic_residual_raw(mat, big)
    return residual / scale


def op_flow(op, models):
    """Forward evolution at one size point, dense and rank-structured."""
    n, steps = op["n"], op["N"]
    mdl = models[n]
    pi = seeded_pi(op["seed"], n)
    grid = measures.make_grid(HORIZON, steps)
    clock = Clock()
    ccr = clock("build_ccr_kernel", measures.build_ccr_kernel, mdl, grid)
    f_path = clock("corner_atom_path", solvers.corner_atom_path, grid, pi)
    dense = clock("forward_csk_evolution", solvers.forward_csk_evolution, f_path, ccr)
    fast = clock("spde_fast_path", solvers.spde_fast_path, mdl, pi, grid)
    qef = clock("qef_from_csk_path", solvers.qef_from_csk_path, dense, ccr, nodes=[steps])
    symplectic = max(_rel_symplectic(m, ccr.big) for m in dense.mats)
    agreement = max(
        float(np.linalg.norm(f - d) / (1.0 + np.linalg.norm(d)))
        for f, d in zip(fast.mats, dense.mats)
    )
    return clock.result([
        ["symplectic", symplectic, cli.SYMPLECTIC_GATE],
        ["spde_agreement", agreement, cli.SPDE_AGREEMENT_GATE],
        ["reality", qef.reality_residuals[-1], cli.REALITY_GATE],
        ["reconstruction", qef.solve_reports[-1].relative, cli.RECONSTRUCTION_GATE],
    ])


def op_roundtrip_f(op, models):
    """Forward, extract, invert and regenerate the corner-atom driver path."""
    grid = measures.make_grid(HORIZON, op["N"])
    mdl = models[2]
    pi = seeded_pi(op["seed"], 2)
    clock = Clock()
    ccr = clock("build_ccr_kernel", measures.build_ccr_kernel, mdl, grid)
    f_path = clock("corner_atom_path", solvers.corner_atom_path, grid, pi)
    trip = clock("roundtrip_f_residual", solvers.roundtrip_f_residual, f_path, ccr)
    return clock.result([["flow_closure", trip.invariant_residual, cli.FLOW_CLOSURE_GATE]])


def op_roundtrip_n(op, models):
    """Invert the diagonal measure path, then forward it again."""
    grid = measures.make_grid(HORIZON, op["N"])
    mdl = models[2]
    pi = seeded_pi(op["seed"], 2)
    clock = Clock()
    ccr = clock("build_ccr_kernel", measures.build_ccr_kernel, mdl, grid)
    n_path = clock("diagonal_lebesgue_path", solvers.diagonal_lebesgue_path, grid, pi)
    gap = clock("roundtrip_n_residual", solvers.roundtrip_n_residual, n_path, ccr)
    return clock.result([["reconstruction", gap, cli.RECONSTRUCTION_GATE]])


def op_scenario(op, models):
    """`quadexp run` in process; the parent reads summary.txt."""
    clock = Clock()
    try:
        code = clock(
            "run_scenario", cli.run_scenario,
            op["path"], output_dir=op["out"], seed=op["seed"],
        )
    except quadexp.ScenarioError:
        code = 2
    out = clock.result([])
    out["exit"] = code
    return out


def op_baseline(op, models):
    """Nothing: the parent reads this process's import-only peak RSS."""
    return {}


def _blas():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def op_env(op, models):
    """The environment a result was measured in."""
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
    return {"env": env}


OPS = {
    "flow": op_flow,
    "roundtrip_f": op_roundtrip_f,
    "roundtrip_n": op_roundtrip_n,
    "scenario": op_scenario,
    "baseline": op_baseline,
    "env": op_env,
}


# kinds whose ops take the fixed models
MODEL_KINDS = ("flow", "roundtrip_f", "roundtrip_n")


def run_one(op, models):
    try:
        return OPS[op["kind"]](op, models)
    except Exception:  # an op that raises is a failed op, not a crash
        return {"error": traceback.format_exc(limit=-3)}


def main(argv):
    spec = json.loads(argv[1])
    models = None
    if any(op["kind"] in MODEL_KINDS for op in spec["ops"]):
        models = fixed_models()
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    results = []
    for op_id, op in enumerate(spec["ops"]):
        if tracer is None:
            results.append(run_one(op, models))
        else:
            results.append(tracer.run_op(op_id, run_one, op, models))
    if tracer is not None:
        tracer.dump(spec["trace"])
    print(json.dumps({"ops": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
