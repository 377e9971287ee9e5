"""Check that two source trees write the same CLI outputs.

Runs nine scenarios with each tree, every run in a fresh child process
with ``OPENBLAS_NUM_THREADS=1``: the six bundled scenarios at their own
levels, then ``zero_forward``, ``diagonal_inverse`` and ``spde_fast`` at
``--levels 3``.  Each child imports the tree's ``src`` and runs that
tree's own bundled scenario file.  Every written file is compared byte
for byte, except that the values of summary notes whose label ends in
``seconds`` (timings) are skipped; the child's exit codes must agree.

Usage: python3 tools/same_outputs.py BEFORE_TREE AFTER_TREE

Prints one line per run and exits 0 when every file matches, 1 when any
file or exit code differs (each differing file is named).
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = (
    "atomic_roundtrip",
    "diagonal_inverse",
    "laplace_recovery",
    "oracle_single",
    "spde_fast",
    "zero_forward",
)
RUNS = [(name, None) for name in SCENARIOS] + [
    (name, 3) for name in ("zero_forward", "diagonal_inverse", "spde_fast")
]


def _run(tree, name, levels, out_dir):
    """Exit code of one ``quadexp run`` of tree's bundled scenario."""
    scenario = Path(tree) / "src" / "quadexp" / "scenarios" / f"{name}.scn"
    cmd = [sys.executable, "-m", "quadexp.cli", "run", str(scenario)]
    cmd += ["--output-dir", str(out_dir)]
    if levels is not None:
        cmd += ["--levels", str(levels)]
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(tree) / "src"),
        OPENBLAS_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode


def _masked(data):
    """File bytes with the value of each timing note replaced by '*'."""
    lines = data.split(b"\n")
    for i, line in enumerate(lines):
        label, sep, _ = line.rpartition(b": ")
        if line.startswith(b"note: ") and label.endswith(b"seconds"):
            lines[i] = label + sep + b"*"
    return b"\n".join(lines)


def _differing(before_dir, after_dir):
    """(files written by one side only or differing in content, number of
    files compared)."""
    names = sorted(
        {p.name for p in before_dir.iterdir()} | {p.name for p in after_dir.iterdir()}
    )
    out = []
    for name in names:
        a, b = before_dir / name, after_dir / name
        if not (a.is_file() and b.is_file()):
            out.append(f"{name} (written by one tree only)")
        elif _masked(a.read_bytes()) != _masked(b.read_bytes()):
            out.append(name)
    return out, len(names)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: same_outputs.py BEFORE_TREE AFTER_TREE", file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    failures = 0
    with tempfile.TemporaryDirectory() as work:
        for index, (name, levels) in enumerate(RUNS):
            label = name if levels is None else f"{name} --levels {levels}"
            dirs = [Path(work) / str(index) / side for side in ("before", "after")]
            codes = [_run(tree, name, levels, d) for tree, d in zip(trees, dirs)]
            for d in dirs:
                d.mkdir(parents=True, exist_ok=True)
            differing, count = _differing(*dirs)
            if codes[0] != codes[1]:
                differing.append(f"exit code {codes[0]} vs {codes[1]}")
            if differing:
                failures += 1
                for item in differing:
                    print(f"{label}: differs: {item}")
            else:
                print(f"{label}: {count} files identical (exit code {codes[0]})")
    if failures:
        print(f"{failures} of {len(RUNS)} runs differ")
        return 1
    print(f"all {len(RUNS)} runs identical, timing values aside")
    return 0


if __name__ == "__main__":
    sys.exit(main())
