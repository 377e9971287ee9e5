"""The quadexp benchmark: `flow`, `roundtrip` and `cli` workloads.

    python3 bench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
its `src/`.  Every op runs in a fresh child process, one at a time,
with OpenBLAS, OpenMP and MKL pinned to one thread.  A run repeats
whole passes over the workload's ops while another pass is expected to
end within --seconds (always at least one) and reports medians over
passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
runs one untraced pass, for the per-op breakdown and the untraced
reference time, then one traced pass in a single child with every
public library function wrapped (see spans.py), and prints the
per-layer metrics.  A layer or breakdown the workload does not reach
reads 0.  The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; an op fails when it
raises, exits non-zero, times out or reports a value above its gate.
The full record, with the environment, goes to .bench_out/.
"""

import argparse
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OP_SPAN, coverage, format_table, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "quadexp" / "scenarios"
OUT = ROOT / ".bench_out"

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# children still running this long after the run started are killed,
# so that a run ends within 180 s
RUN_BUDGET_S = 165.0

# flow: forward evolution at scale, one child per size point (n, N).
# Dominated by the dense integrator and its N+1 stored copies; makes
# almost no kernel solves, logarithms or superoperator calls.
FLOW_POINTS = ((2, 64), (2, 128), (4, 32), (4, 64))

# roundtrip: the full bridge at every node, n=2.  Time is spread over
# the lie layer (logarithms, kernel solves, superoperators); the
# regenerated flow is driven by dense recovered drivers.
ROUNDTRIP_N = 64

# cli: `quadexp run` per bundled scenario in a fresh process: what a
# user pays per run, and the only workload reaching fock and the
# Laplace path.  The bundled atomic_roundtrip (N=32) runs 52 s, so the
# benchmark runs its own copy at N=16.
CLI_SCENARIOS = (
    "zero_forward",
    "diagonal_inverse",
    "spde_fast",
    "laplace_recovery",
    "oracle_single",
    "atomic_roundtrip",
)
CLI_OVERRIDES = {"atomic_roundtrip": {"N": "16", "levels": "3"}}

# --tiny shrinks every workload to seconds, for the benchmark's tests
TINY_FLOW_POINTS = ((2, 4), (2, 8), (4, 4), (4, 8))
TINY_ROUNDTRIP_N = 4
TINY_CLI_OVERRIDES = {
    "zero_forward": {"N": "4"},
    "diagonal_inverse": {"N": "4"},
    "spde_fast": {"N": "8"},
    "laplace_recovery": {"N": "2"},
    "oracle_single": {"cutoff": "16", "N": "3"},
    "atomic_roundtrip": {"N": "4", "levels": "3"},
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "err_margin_digits": "digits",
}

PER_LAYER_SELF = (
    "model.ccr_two_point",
    "model.laplace",
    "measures.build_ccr_kernel",
    "measures.kernel_weighted_norm",
    "measures.path_build",
    "lie.csk_log",
    "lie.kernel_factor",
    "lie.kernel_solve",
    "lie.superop",
    "lie.symplectic_residual",
    "solvers.forward",
    "solvers.spde_fast",
    "solvers.extract",
    "solvers.inverse",
    "solvers.laplace_recover",
    "fock.build",
    "fock.bracket_check",
    "fock.multitime",
    "cli.parse",
    "cli.run",
)
PER_LAYER_CALLS = (
    "model.ccr_two_point",
    "measures.kernel_weighted_norm",
    "lie.csk_log",
    "lie.kernel_solve",
    "lie.superop",
    "lie.symplectic_residual",
    "fock.bracket_check",
)


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in PER_LAYER_SELF:
        units[f"{layer}.self_s"] = "s"
    for layer in PER_LAYER_CALLS:
        units[f"{layer}.calls"] = "count"
    units.update({
        "lie.kernel_solve.max_condition": "ratio",
        "lie.kernel_solve.lstsq_fallbacks": "count",
        "solvers.forward.steps": "count",
        "solvers.forward.steps_per_s": "1/s",
        "solvers.forward.time_exp_N": "exponent",
        "solvers.forward.rss_exp_N": "exponent",
        "solvers.csk_path.bytes": "B",
        "solvers.csk_path.live_frac": "ratio",
        "solvers.extract.nodes": "count",
        "fock.max_dim": "count",
        "cli.bytes_written": "B",
    })
    for name in CLI_SCENARIOS:
        units[f"cli.{name}.wall_s"] = "s"
        units[f"cli.{name}.peak_rss_mb"] = "MB"
    for n, steps in FLOW_POINTS:
        units[f"flow.n{n}N{steps}.wall_s"] = "s"
        units[f"flow.n{n}N{steps}.peak_rss_mb"] = "MB"
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv, log_stem, deadline):
    """Run argv to completion or the deadline.

    Returns (exit code, wall seconds, peak RSS in MB, launch time) with
    the launch time on the time.monotonic clock.  Stdout and stderr go
    to log_stem + ".out" / ".err".  The child is reaped with wait4 so
    its own rusage is read; one still running at the deadline is killed.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        launch = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
        pidfd = os.pidfd_open(pid)
        reaped = False
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - launch))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(pid, 0)
            os.close(pidfd)
        wall = time.monotonic() - launch
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0, launch


def last_json_line(path):
    lines = Path(path).read_text(errors="replace").strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------------------
# correctness

_CHECK = re.compile(r"^check (\S+): (PASS|FAIL) \((\S+) (<=|in) (.+)\)$")


def summary_checks(path):
    """[name, value, gate] per `check` line of a summary.txt; a window
    gate reads [lo, hi].  Notes are skipped: they carry timings."""
    checks = []
    for line in Path(path).read_text().splitlines():
        match = _CHECK.match(line)
        if not match:
            continue
        name, _, value, kind, gate = match.groups()
        if kind == "in":
            lo, hi = gate.strip("[]").split(",")
            checks.append([name, float(value), [float(lo), float(hi)]])
        else:
            checks.append([name, float(value), float(gate)])
    return checks


def check_passes(check):
    _, value, gate = check
    if isinstance(gate, list):
        return gate[0] <= value <= gate[1]
    return value <= gate


def scenario_checks(op):
    summary = Path(op["out"]) / "summary.txt"
    return summary_checks(summary) if summary.is_file() else []


def judged(record):
    """Mark an op record ok (no error, every check passed) and its margin."""
    record["ok"] = record["error"] is None and all(map(check_passes, record["checks"]))
    record["margin"] = margin_digits(record["checks"])
    return record


def margin_digits(checks):
    """min of log10(gate / value) over the scalar gates with value > 0."""
    margins = [
        math.log10(gate / value)
        for _, value, gate in checks
        if not isinstance(gate, list) and value > 0.0
    ]
    return min(margins) if margins else None


# ---------------------------------------------------------------------------
# workloads

def write_scenario(name, overrides, workdir):
    """Copy of a bundled scenario with some keys replaced; returns its path."""
    lines = []
    for raw in (SCENARIOS / f"{name}.scn").read_text().splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in raw and key in overrides:
            raw = f"{key} = {overrides[key]}"
        lines.append(raw)
    path = workdir / f"{name}.scn"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def workload_ops(workload, seed, tiny, workdir):
    """The ops of one pass, in order; each op is one child process."""
    if workload == "flow":
        points = TINY_FLOW_POINTS if tiny else FLOW_POINTS
        return [
            {"label": f"flow.n{n}N{steps}", "kind": "flow", "n": n, "N": steps, "seed": seed}
            for n, steps in points
        ]
    if workload == "roundtrip":
        steps = TINY_ROUNDTRIP_N if tiny else ROUNDTRIP_N
        return [
            {"label": f"roundtrip.{kind}", "kind": kind, "N": steps, "seed": seed}
            for kind in ("roundtrip_f", "roundtrip_n")
        ]
    overrides = TINY_CLI_OVERRIDES if tiny else CLI_OVERRIDES
    shutil.copy(SCENARIOS / "oscillator.mod", workdir / "oscillator.mod")
    return [
        {
            "label": f"cli.{name}",
            "kind": "scenario",
            "path": str(write_scenario(name, overrides.get(name, {}), workdir)),
            "out": str(workdir / "out" / name),
            "seed": seed,
        }
        for name in CLI_SCENARIOS
    ]


class Runner:
    """Runs passes of ops in child processes inside one work directory."""

    def __init__(self, workdir, deadline):
        self.workdir = Path(workdir)
        self.deadline = deadline
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._logs = 0

    def _log_stem(self, label):
        self._logs += 1
        return str(self.workdir / f"{self._logs:04d}-{label}")

    def worker(self, spec, label):
        """Run worker.py on a spec; (exit, wall, rss, launch, parsed line)."""
        stem = self._log_stem(label)
        argv = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
        code, wall, rss, launch = spawn(argv, stem, self.deadline)
        try:
            line = last_json_line(f"{stem}.out") if code == 0 else None
        except json.JSONDecodeError:
            line = None
        return code, wall, rss, launch, line

    def _cli(self, op, command):
        stem = self._log_stem(op["label"])
        argv = [sys.executable, "-m", "quadexp.cli", command, op["path"]]
        if command == "run":
            argv += ["--output-dir", op["out"], "--seed", str(op["seed"])]
        return spawn(argv, stem, self.deadline)

    def run_op(self, op):
        """One op in fresh children; the record the metrics are built from."""
        record = {"label": op["label"], "ok": False, "checks": [], "error": None}
        if time.monotonic() >= self.deadline:
            record["error"] = "not started: run budget spent"
            return record
        if op["kind"] == "scenario":
            shutil.rmtree(op["out"], ignore_errors=True)
            _, setup, _, _ = self._cli(op, "validate")
            code, wall, rss, _ = self._cli(op, "run")
            record.update(
                checks=scenario_checks(op), setup_s=setup, wall_s=wall, rss_mb=rss,
                op_s=wall - setup,
            )
            if code != 0:
                record["error"] = f"exit {code}"
        else:
            code, wall, rss, launch, line = self.worker({"ops": [op]}, op["label"])
            record.update(wall_s=wall, rss_mb=rss)
            result = line["ops"][0] if line else {"error": f"worker exit {code}"}
            if "error" in result:
                record["error"] = result["error"]
            else:
                record.update(
                    checks=result["checks"],
                    calls=result["calls"],
                    setup_s=result["first_call"] - launch,
                    op_s=result["op_s"],
                )
        return judged(record)

    def run_pass(self, ops):
        return [self.run_op(op) for op in ops]

    def run_traced(self, ops, span_path):
        """All ops in one child with the library wrapped; per-op records."""
        for op in ops:
            if op["kind"] == "scenario":
                shutil.rmtree(op["out"], ignore_errors=True)
        spec = {"ops": ops, "trace": str(span_path)}
        code, _, _, _, line = self.worker(spec, "traced")
        results = line["ops"] if line else [{"error": f"worker exit {code}"}] * len(ops)
        records = []
        for op, result in zip(ops, results):
            record = {"label": op["label"], "error": result.get("error"), "checks": []}
            if record["error"] is None and op["kind"] == "scenario":
                record["checks"] = scenario_checks(op)
                record["bytes"] = sum(
                    f.stat().st_size for f in Path(op["out"]).rglob("*") if f.is_file()
                )
                if result["exit"] != 0:
                    record["error"] = f"exit {result['exit']}"
            elif record["error"] is None:
                record["checks"] = result["checks"]
            records.append(judged(record))
        return records

    def env(self):
        _, _, _, _, line = self.worker({"ops": [{"kind": "env"}]}, "env")
        return line["ops"][0]["env"] if line else {}

    def import_rss(self):
        """Peak RSS in MB of a child that only imports the library."""
        _, _, rss, _, _ = self.worker({"ops": [{"kind": "baseline"}]}, "baseline")
        return rss


# ---------------------------------------------------------------------------
# metrics

def tally(passes):
    """(ops attempted, failed op records): every op counts, run or not."""
    records = [r for records in passes for r in records]
    return len(records), [r for r in records if not r["ok"]]


def end_to_end(passes):
    """Medians over passes; setup_s is the median over every child."""
    setups = [r["setup_s"] for records in passes for r in records if "setup_s" in r]
    margins = []
    for records in passes:
        values = [r["margin"] for r in records if r["margin"] is not None]
        if values:
            margins.append(min(values))
    return {
        "wall_s": statistics.median(sum(r.get("wall_s", 0.0) for r in rs) for rs in passes),
        "peak_rss_mb": statistics.median(
            max((r.get("rss_mb", 0.0) for r in rs), default=0.0) for rs in passes
        ),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "err_margin_digits": statistics.median(margins) if margins else 0.0,
    }


def _log2_ratio(num, den):
    return math.log2(num / den) if num > 0.0 and den > 0.0 else 0.0


def scaling_exponents(ops, records, base_rss):
    """Mean over n of the exponents in N between the two flow points of
    each n, of forward time and of peak RSS above the import-only
    baseline (log2 of the N=128/N=64 ratio at n=2, N=64/N=32 at n=4)."""
    by_label = {r["label"]: r for r in records if r["ok"]}
    time_exp, rss_exp = [], []
    for n in sorted({op["n"] for op in ops if op["kind"] == "flow"}):
        lo, hi = sorted((op for op in ops if op.get("n") == n), key=lambda op: op["N"])
        a, b = by_label.get(lo["label"]), by_label.get(hi["label"])
        if a is None or b is None:
            continue
        octaves = math.log2(hi["N"] / lo["N"])
        forward = "forward_csk_evolution"
        time_exp.append(_log2_ratio(b["calls"][forward], a["calls"][forward]) / octaves)
        rss_exp.append(_log2_ratio(b["rss_mb"] - base_rss, a["rss_mb"] - base_rss) / octaves)
    return (
        statistics.fmean(time_exp) if time_exp else 0.0,
        statistics.fmean(rss_exp) if rss_exp else 0.0,
    )


def per_layer(ops, untraced, traced, span_data, base_rss):
    units = per_layer_units()
    metrics = dict.fromkeys(units, 0.0)
    totals = layer_totals(span_data["spans"])
    counters = span_data["counters"]
    for layer in PER_LAYER_SELF:
        metrics[f"{layer}.self_s"] = totals.get(layer, [0, 0.0, 0.0])[2]
    for layer in PER_LAYER_CALLS:
        metrics[f"{layer}.calls"] = totals.get(layer, [0, 0.0, 0.0])[0]
    for key in (
        "lie.kernel_solve.max_condition",
        "lie.kernel_solve.lstsq_fallbacks",
        "solvers.forward.steps",
        "solvers.csk_path.bytes",
        "solvers.extract.nodes",
        "fock.max_dim",
    ):
        metrics[key] = counters.get(key, 0)
    forward_self = metrics["solvers.forward.self_s"]
    if forward_self > 0.0:
        metrics["solvers.forward.steps_per_s"] = metrics["solvers.forward.steps"] / forward_self
    if counters.get("csk_path.columns"):
        metrics["solvers.csk_path.live_frac"] = (
            counters["csk_path.live_columns"] / counters["csk_path.columns"]
        )
    metrics["cli.bytes_written"] = sum(r.get("bytes", 0) for r in traced)
    time_exp, rss_exp = scaling_exponents(ops, untraced, base_rss)
    metrics["solvers.forward.time_exp_N"] = time_exp
    metrics["solvers.forward.rss_exp_N"] = rss_exp
    for r in untraced:
        if f"{r['label']}.wall_s" in metrics and "wall_s" in r:
            metrics[f"{r['label']}.wall_s"] = r["wall_s"]
            metrics[f"{r['label']}.peak_rss_mb"] = r["rss_mb"]
    untraced_ops = sum(r.get("op_s", 0.0) for r in untraced)
    traced_ops = totals.get(OP_SPAN, [0, 0.0, 0.0])[1]
    if untraced_ops > 0.0:
        metrics["trace.overhead_frac"] = traced_ops / untraced_ops - 1.0
    metrics["trace.coverage_frac"] = coverage(totals)
    return metrics


# ---------------------------------------------------------------------------
# entry point

def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("flow", "roundtrip", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the benchmark's tests)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "quadexp" / "__init__.py").is_file():
        print(f"no quadexp sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    runner = Runner(workdir, started + RUN_BUDGET_S)
    try:
        env = runner.env()
        env.update(commit=git_commit(), seed=args.seed, workload=args.workload)
        ops = workload_ops(args.workload, args.seed, args.tiny, workdir)
        passes = []
        if args.trace:
            base_rss = runner.import_rss()
            passes.append(runner.run_pass(ops))
            span_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
            span_path.unlink(missing_ok=True)
            traced = runner.run_traced(ops, span_path)
            passes.append(traced)
            span_data = json.loads(span_path.read_text()) if span_path.is_file() else {
                "spans": [], "counters": {}}
            metrics = per_layer(ops, passes[0], traced, span_data, base_rss)
            units = per_layer_units()
            span_data["meta"] = {"trace.overhead_frac": metrics["trace.overhead_frac"]}
            if span_data["spans"]:
                span_path.write_text(json.dumps(span_data), encoding="ascii")
                print("\n".join(format_table(span_data)))
        else:
            # start another pass only if it should end within --seconds
            while True:
                begin = time.monotonic()
                passes.append(runner.run_pass(ops))
                now = time.monotonic()
                if now - started + (now - begin) > args.seconds:
                    break
            metrics = end_to_end(passes)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = tally(passes)
    for r in failed:
        print(f"FAILED {r['label']}: {r['error'] or r['checks']}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {len(failed) / attempted:.6g} ({len(failed)}/{attempted} ops)")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(
        json.dumps({"env": env, "passes": passes, **result}, indent=1), encoding="ascii"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
