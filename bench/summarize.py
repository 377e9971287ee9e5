"""Fold the benchmark's result files into one record per commit.

    python3 bench/summarize.py .bench_out > BENCH.json

Reads every `<workload>-s<seed>-t<trace>.json` that bench/run.py left
in the directory.  For each workload and metric of the untraced runs it
gives the median, the quartiles (statistics.quantiles, n=4) and the run
count; for traced runs, the per-layer values of each seed.  The
environment is taken from the first file, and the record says whether
every file shares its commit, BLAS and thread pin.
"""

import json
import statistics
import sys
from pathlib import Path

PINNED_KEYS = ("commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpu")


def summarize(directory):
    files = sorted(Path(directory).glob("*-s*-t[01].json"))
    if not files:
        raise SystemExit(f"no result files in {directory}")
    env = None
    same_env = True
    workloads = {}
    for path in files:
        data = json.loads(path.read_text())
        pinned = {key: data["env"].get(key) for key in PINNED_KEYS}
        if env is None:
            env = pinned
        same_env = same_env and pinned == env
        seed = data["env"]["seed"]
        entry = workloads.setdefault(data["env"]["workload"], {"runs": {}, "traced": {}})
        key = "traced" if path.stem.endswith("-t1") else "runs"
        entry[key][seed] = {
            "correct": data["correct"],
            "attempted": data["attempted"],
            "failed": data["failed"],
            "metrics": {name: m["value"] for name, m in data["metrics"].items()},
        }
    out = {"env": env, "same_env": same_env, "workloads": {}}
    for name, entry in sorted(workloads.items()):
        runs = entry["runs"]
        stats = {}
        metric_names = next(iter(runs.values()))["metrics"] if runs else {}
        for metric in metric_names:
            values = [run["metrics"][metric] for run in runs.values()]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            stats[metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(values),
            }
        out["workloads"][name] = {
            "seeds": sorted(runs),
            "failed_ops": sum(run["failed"] for run in runs.values()),
            "attempted_ops": sum(run["attempted"] for run in runs.values()),
            "end_to_end": stats,
            "per_layer": {seed: run["metrics"] for seed, run in sorted(entry["traced"].items())},
        }
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/summarize.py RESULT_DIR")
    print(json.dumps(summarize(sys.argv[1]), indent=1))
