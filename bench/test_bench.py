"""Tests of the benchmark itself; run with `python3 -m pytest bench`.

Each workload runs at --tiny size, so the suite takes about a minute.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
DEFINITION = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

UNSTABLE = """\
task = forward
T = 1.0
N = 4
theta = [[0, 1], [-1, 0]]
drift = [[0.5, 0], [0, 0.5]]
dispersion = [[1, 0], [0, 1]]
"""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DEFINITION["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0.0 for m in wanted)


def test_rejected_scenario_counts_as_failed(tmp_path):
    scenario = tmp_path / "unstable.scn"
    scenario.write_text(UNSTABLE)
    op = {
        "label": "cli.unstable",
        "kind": "scenario",
        "path": str(scenario),
        "out": str(tmp_path / "out"),
        "seed": 1,
    }
    runner = run.Runner(tmp_path / "work", time.monotonic() + 120.0)
    passes = [runner.run_pass([op])]
    record = passes[0][0]
    assert record["error"] == "exit 3"
    attempted, failed = run.tally(passes)
    assert attempted == 1 and failed == [record]


def test_summary_checks_skip_notes(tmp_path):
    summary = tmp_path / "summary.txt"
    summary.write_text(
        "scenario: s\ntask: spde\n"
        "check symplectic: PASS (6.6e-18 <= 1.0000000000000001e-09)\n"
        "check roundtrip_order: FAIL (0.5 in [1.7, 2.2999999999999998])\n"
        "note: general integrator seconds: 0.5\nresult: FAIL\n"
    )
    checks = run.summary_checks(summary)
    assert checks == [
        ["symplectic", 6.6e-18, 1.0000000000000001e-09],
        ["roundtrip_order", 0.5, [1.7, 2.2999999999999998]],
    ]
    assert [run.check_passes(c) for c in checks] == [True, False]
    assert run.margin_digits(checks) == pytest.approx(8.1805, abs=1e-3)
