import ast
import functools
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import quadexp

PACKAGE_INIT = Path(quadexp.__file__)


def _package_imports():
    """Module name -> names quadexp/__init__.py imports from it."""
    tree = ast.parse(PACKAGE_INIT.read_text())
    return {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


@pytest.mark.parametrize("module", ["model", "measures", "lie", "solvers", "fock"])
def test_package_reexports_each_module_all(module):
    exported = set(importlib.import_module(f"quadexp.{module}").__all__)
    assert _package_imports()[module] == exported


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps library functions by (module, attribute)
    # name, so a rename in the package must not drop a layer; run_path
    # compiles the file without writing any bytecode beside it
    bench = Path(__file__).resolve().parents[1] / "bench"
    spans = runpy.run_path(str(bench / "spans.py"))
    targets = [pair for pairs in spans["LAYERS"].values() for pair in pairs]
    for module, attr in targets + list(spans["AFTER"]):
        owner = importlib.import_module(module)
        hook = functools.reduce(getattr, attr.split("."), owner)
        assert callable(hook), (module, attr)


def _fresh_modules(code, prefixes, *args):
    """Sorted names under the given prefixes that a fresh interpreter holds
    after running code; this one may have loaded them already."""
    loaded = f"sorted(m for m in sys.modules if m.startswith({prefixes!r}))"
    probe = f"{code}\nprint({loaded})"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_INIT.parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


# scipy.integrate drags optimize, sparse and special in with it, about
# 0.3 s per process; quadrature imports it where it runs.  scipy.linalg
# costs about as much again: the matrix exponential is model.expm, and
# scipy.linalg loads only for csk_log's logm, which no bundled task reaches
HEAVY_SCIPY = (
    "scipy.integrate",
    "scipy.linalg",
    "scipy.optimize",
    "scipy.special",
    "scipy.sparse",
)


def test_import_loads_no_heavy_scipy_subpackage():
    assert _fresh_modules("import sys, quadexp, quadexp.cli", HEAVY_SCIPY) == "[]"


def test_laplace_task_loads_no_scipy_integrate(tmp_path):
    # the recovery reads the column's closed-form transform, no quadrature
    run = (
        "import sys\n"
        "from quadexp.cli import bundled_scenario, run_scenario\n"
        "scenario = bundled_scenario('laplace_recovery.scn')\n"
        "code = run_scenario(scenario, output_dir=sys.argv[1])\n"
        "assert code == 0, code"
    )
    assert _fresh_modules(run, HEAVY_SCIPY, tmp_path / "out") == "[]"


def test_bundled_tasks_load_no_heavy_scipy_subpackage(tmp_path):
    # each bundled scenario in one process: the oracle at its own N = 2,
    # so that its multitime check runs too, the others at N = 4
    run = (
        "import re, shutil, sys\n"
        "from pathlib import Path\n"
        "from quadexp.cli import bundled_scenario, run_scenario\n"
        "out = Path(sys.argv[1])\n"
        "shutil.copy(bundled_scenario('oscillator.mod'), out)\n"
        "for name in ('zero_forward', 'diagonal_inverse', 'spde_fast',\n"
        "             'laplace_recovery', 'atomic_roundtrip', 'oracle_single'):\n"
        "    text = bundled_scenario(name + '.scn').read_text()\n"
        "    if name != 'oracle_single':\n"
        "        text = re.sub(r'(?m)^N = \\d+$', 'N = 4', text)\n"
        "    path = out / (name + '.scn')\n"
        "    path.write_text(text)\n"
        "    code = run_scenario(path, output_dir=out / name)\n"
        "    assert code == 0, (name, code)\n"
    )
    assert _fresh_modules(run, HEAVY_SCIPY, tmp_path) == "[]"
    for scenario in tmp_path.glob("*.scn"):
        steps = 2 if scenario.stem == "oracle_single" else 4
        assert f"N = {steps}" in scenario.read_text()
    assert len(list(tmp_path.glob("*.scn"))) == 6
    summary = (tmp_path / "oracle_single" / "summary.txt").read_text()
    assert "check oracle_multitime: PASS" in summary
