"""Scenario runner: load a model and task description, execute, emit CSVs.

Scenario files are flat key-value text, one `key = value` pair per line.
`#` starts a comment, blank lines are skipped, keys may not repeat.
Scalars are integers, floats, or bare words; matrices are bracketed row
lists on a single line, `[[0, 1], [-1, 0]]`.  A model is given inline
through the keys theta / drift / dispersion, or by `model_file = path`
pointing at another key-value file (relative to the including file)
that carries exactly those keys.  This module owns the only parser in
the package.

Recognized keys: task, T, N, levels, seed, output_dir, pi, cutoff,
theta, drift, dispersion, model_file.  Tasks: forward, inverse,
roundtrip, spde, laplace, oracle, validate.

Exit codes: 0 all enabled checks pass, 1 a check failed, 2 schema
violation, 3 numerical failure.  Outputs are deterministic for a fixed
scenario and seed: all floats print with 17 significant digits and no
run metadata (times, paths) enters the CSV files.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalFailure, ScenarioError
from .fock import build_single_time, oracle_bracket_check, oracle_multitime_check
from .lie import symplectic_residual_raw
from .measures import (
    KernelMeasure,
    build_ccr_kernel,
    kernel_weighted_norm,
    make_grid,
    write_measure_csv,
)
from .model import OqhoModel, spectral_abscissa
from .solvers import (
    MeasurePath,
    _dense_csk_evolution,
    chk_column_function,
    corner_atom_path,
    diagonal_lebesgue_path,
    forward_csk_evolution,
    forward_qef_measure,
    inverse_toe_measure,
    laplace_recover_measure,
    qef_from_csk_path,
    roundtrip_f_residual,
    roundtrip_n_residual,
    spde_fast_path,
    t_route_residual,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "emit_convergence",
    "run_scenario",
    "bundled_scenario",
    "main",
]


def bundled_scenario(name):
    """Absolute path of a scenario file shipped with the package."""
    return Path(__file__).resolve().parent / "scenarios" / name

TASKS = ("forward", "inverse", "roundtrip", "spde", "laplace", "oracle", "validate")

# tasks that need pi; forward falls back to the zero driver without it
PI_REQUIRED = ("inverse", "roundtrip", "spde", "laplace")

CSV_SCHEMA = "# schema=1"

SYMPLECTIC_GATE = 1e-9
REALITY_GATE = 1e-8
RECONSTRUCTION_GATE = 1e-5
QUADRATURE_GATE = 1e-6
FLOW_CLOSURE_GATE = 1e-8
SPDE_AGREEMENT_GATE = 1e-10
LAPLACE_GATE = 1e-6
ORACLE_GATE = 1e-8
ROUNDTRIP_ORDER_WINDOW = (1.7, 2.3)

_SCALAR_KEYS = {
    "task": str,
    "T": float,
    "N": int,
    "levels": int,
    "seed": int,
    "cutoff": int,
    "output_dir": str,
    "model_file": str,
}
_MATRIX_KEYS = ("theta", "drift", "dispersion", "pi")
_MODEL_KEYS = ("theta", "drift", "dispersion")


def _fmt(x):
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: task, grid, model matrices, and run controls."""

    name: str
    task: str
    horizon: float
    steps: int
    levels: int
    seed: int
    cutoff: int
    theta: np.ndarray
    drift: np.ndarray
    dispersion: np.ndarray
    pi: np.ndarray
    output_dir: str


def _parse_matrix(text, where):
    """Bracketed row list -> real matrix; rejects ragged or empty rows."""
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ScenarioError(f"{where}: matrix literal must look like [[a, b], [c, d]]")
    rows = []
    for row_text in text[2:-2].split("],"):
        row_text = row_text.strip().lstrip("[")
        entries = [item.strip() for item in row_text.split(",")]
        if not entries or entries == [""]:
            raise ScenarioError(f"{where}: empty matrix row")
        try:
            rows.append([float(item) for item in entries])
        except ValueError as exc:
            raise ScenarioError(f"{where}: non-numeric matrix entry") from exc
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ScenarioError(f"{where}: ragged matrix rows")
    return np.asarray(rows, dtype=float)


def _parse_pairs(path):
    """key -> (value text, location) for one file, grammar errors eagerly."""
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except OSError as exc:
        raise ScenarioError(f"{path}: unreadable scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: scenario files must be ASCII") from exc
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ScenarioError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioError(f"{where}: empty key or value")
        if key in pairs:
            raise ScenarioError(f"{where}: duplicate key {key!r}")
        pairs[key] = (value, where)
    return pairs


def _convert_scalar(key, value, where):
    kind = _SCALAR_KEYS[key]
    try:
        return kind(value)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {key} must be {kind.__name__}") from exc


def parse_scenario(path, output_dir=None, levels=None, seed=None):
    """Parse and validate a scenario file; overrides come from the CLI.

    Validation is schema-level only: fields present, typed, and
    mutually consistent.  Whether the model is mathematically admissible
    (Hurwitz drift, physical realizability) is decided when the run
    constructs it.
    """
    path = Path(path)
    pairs = _parse_pairs(path)
    values = {}
    for key, (text, where) in pairs.items():
        if key in _SCALAR_KEYS:
            values[key] = _convert_scalar(key, text, where)
        elif key in _MATRIX_KEYS:
            values[key] = _parse_matrix(text, where)
        else:
            raise ScenarioError(f"{where}: unknown key {key!r}")

    if "model_file" in values:
        if any(k in values for k in _MODEL_KEYS):
            raise ScenarioError(
                f"{path}: model_file excludes inline theta/drift/dispersion"
            )
        ref = path.parent / values.pop("model_file")
        sub = _parse_pairs(ref)
        for key, (text, where) in sub.items():
            if key not in _MODEL_KEYS:
                raise ScenarioError(f"{where}: model files carry only {_MODEL_KEYS}")
            values[key] = _parse_matrix(text, where)

    task = values.get("task")
    if task is None:
        raise ScenarioError(f"{path}: missing required key 'task'")
    if task not in TASKS:
        raise ScenarioError(f"{path}: unknown task {task!r}; expected one of {TASKS}")

    out = Scenario(
        name=path.stem,
        task=task,
        horizon=float(values.get("T", 0.0)),
        steps=int(values.get("N", 0)),
        levels=int(levels if levels is not None else values.get("levels", 1)),
        seed=int(seed if seed is not None else values.get("seed", 0)),
        cutoff=int(values.get("cutoff", 40)),
        theta=values.get("theta"),
        drift=values.get("drift"),
        dispersion=values.get("dispersion"),
        pi=values.get("pi"),
        output_dir=str(output_dir if output_dir is not None else
                       values.get("output_dir", path.stem + "_out")),
    )
    _validate_scenario(out, path)
    return out


def _validate_scenario(scn, path):
    if scn.levels < 1:
        raise ScenarioError(f"{path}: levels must be at least 1")
    needs_grid = scn.task in ("forward", "inverse", "roundtrip", "spde", "laplace")
    if needs_grid:
        if scn.horizon <= 0.0:
            raise ScenarioError(f"{path}: task {scn.task} needs T > 0")
        if scn.steps < 1:
            raise ScenarioError(f"{path}: task {scn.task} needs N >= 1")
        for key in _MODEL_KEYS:
            if getattr(scn, key) is None:
                raise ScenarioError(f"{path}: task {scn.task} needs model key {key}")
    if scn.task == "oracle" and scn.theta is None:
        raise ScenarioError(f"{path}: task oracle needs theta")
    given = [key for key in _MODEL_KEYS if getattr(scn, key) is not None]
    if given and len(given) < len(_MODEL_KEYS) and given != ["theta"]:
        raise ScenarioError(f"{path}: partial model; give all of {_MODEL_KEYS}")
    if scn.task in PI_REQUIRED and scn.pi is None:
        raise ScenarioError(f"{path}: task {scn.task} needs pi")
    if scn.pi is not None:
        if scn.pi.shape[0] != scn.pi.shape[1]:
            raise ScenarioError(f"{path}: pi must be square")
        if np.linalg.norm(scn.pi - scn.pi.T) > 1e-12 * (1 + np.linalg.norm(scn.pi)):
            raise ScenarioError(f"{path}: pi must be symmetric")
    if scn.cutoff < 8:
        raise ScenarioError(f"{path}: cutoff must be at least 8")


def emit_convergence(errors):
    """Empirical orders from per-level errors on halved steps.

    errors is a list of (steps, h, error); needs at least three levels.
    Returns one row per level as (level, steps, h, error, order, warning)
    with order = log2(e_{2h} / e_h) against the previous level, None on
    the first row, and warning set where the error failed to shrink.
    """
    if len(errors) < 3:
        raise ScenarioError("convergence table needs at least 3 refinement levels")
    rows = []
    for idx, (steps, h, err) in enumerate(errors):
        if idx == 0:
            rows.append((idx, steps, h, err, None, False))
            continue
        prev = errors[idx - 1][2]
        if err > 0.0 and prev > 0.0:
            order = float(np.log2(prev / err))
        else:
            order = 0.0
        rows.append((idx, steps, h, err, order, not err < prev))
    return rows


@dataclass(frozen=True)
class TaskResult:
    """What one task run leaves behind, before files are written."""

    checks: tuple
    report_rows: tuple
    convergence: tuple
    notes: tuple


def _report_rows_from_flow(grid, ccr, s_path, qef):
    rows = []
    for u in range(grid.node_count):
        residual, scale = symplectic_residual_raw(s_path.mats[u], ccr.big)
        rows.append(
            (
                u,
                grid.nodes[u],
                residual / scale,
                qef.reality_residuals[u],
                qef.solve_reports[u].relative,
                float("nan"),
            )
        )
    return rows


def _level_grids(scn):
    return [make_grid(scn.horizon, scn.steps * 2**k) for k in range(scn.levels)]


def _run_forward(scn, model, out_dir):
    grid = make_grid(scn.horizon, scn.steps)
    ccr = build_ccr_kernel(model, grid)
    if scn.pi is not None:
        f_path = corner_atom_path(grid, scn.pi)
    else:
        f_path = MeasurePath(
            grid,
            tuple(
                KernelMeasure(grid, np.zeros_like(ccr.big, dtype=complex), u)
                for u in range(grid.node_count)
            ),
        )
    s_path = forward_csk_evolution(f_path, ccr)
    qef = qef_from_csk_path(s_path, ccr)
    rows = _report_rows_from_flow(grid, ccr, s_path, qef)
    write_measure_csv(Path(out_dir) / "n_terminal.csv", qef.measures[-1])
    checks = [
        ("symplectic", max(r[2] for r in rows), SYMPLECTIC_GATE),
        ("reality", max(r[3] for r in rows), REALITY_GATE),
        ("reconstruction", max(r[4] for r in rows), RECONSTRUCTION_GATE),
    ]
    convergence = ()
    notes = ()
    if scn.levels >= 3:
        errors = []
        for lgrid in _level_grids(scn):
            lccr = build_ccr_kernel(model, lgrid)
            if scn.pi is not None:
                lf = corner_atom_path(lgrid, scn.pi)
            else:
                lf = MeasurePath(
                    lgrid,
                    tuple(
                        KernelMeasure(lgrid, np.zeros_like(lccr.big, dtype=complex), u)
                        for u in range(lgrid.node_count)
                    ),
                )
            errors.append((lgrid.steps, lgrid.step, t_route_residual(lf, lccr)))
        convergence = tuple(emit_convergence(errors))
        notes = ("convergence error: two-route gap of the normal-ordered kernel",)
    return TaskResult(tuple(checks), tuple(rows), convergence, notes)


def _run_inverse(scn, model, out_dir):
    grid = make_grid(scn.horizon, scn.steps)
    ccr = build_ccr_kernel(model, grid)
    n_path = diagonal_lebesgue_path(grid, scn.pi)
    result = inverse_toe_measure(n_path, ccr)
    rows = []
    for u in range(grid.node_count):
        w = result.f_path.entries[u].weights
        rows.append(
            (
                u,
                grid.nodes[u],
                float("nan"),
                float(np.linalg.norm(w.imag) / (1.0 + np.linalg.norm(w))),
                result.solve_reports[u].relative,
                float("nan"),
            )
        )
    write_measure_csv(Path(out_dir) / "f_terminal.csv", result.f_path.entries[-1])
    checks = [
        ("reconstruction", max(r[4] for r in rows), RECONSTRUCTION_GATE),
        ("quadrature", max(result.quad_errors), QUADRATURE_GATE),
    ]
    convergence = ()
    notes = ()
    if scn.levels >= 3:
        errors = []
        for lgrid in _level_grids(scn):
            lccr = build_ccr_kernel(model, lgrid)
            lpath = diagonal_lebesgue_path(lgrid, scn.pi)
            errors.append(
                (lgrid.steps, lgrid.step, roundtrip_n_residual(lpath, lccr))
            )
        convergence = tuple(emit_convergence(errors))
        notes = ("convergence error: measure-side closure through the forward map",)
    return TaskResult(tuple(checks), tuple(rows), convergence, notes)


def _run_roundtrip(scn, model, out_dir):
    grid = make_grid(scn.horizon, scn.steps)
    ccr = build_ccr_kernel(model, grid)
    f_path = corner_atom_path(grid, scn.pi)
    s_path = forward_csk_evolution(f_path, ccr)
    qef = qef_from_csk_path(s_path, ccr)
    trip = roundtrip_f_residual(f_path, ccr)

    n_path = diagonal_lebesgue_path(grid, scn.pi)
    recovered = forward_qef_measure(
        inverse_toe_measure(n_path, ccr).f_path, ccr
    )
    den = max(
        kernel_weighted_norm(ccr, n_path.entries[u].weights)
        for u in range(grid.node_count)
    )
    rows = []
    for u in range(grid.node_count):
        residual, scale = symplectic_residual_raw(s_path.mats[u], ccr.big)
        gap = kernel_weighted_norm(
            ccr, recovered.measures[u].weights - n_path.entries[u].weights
        )
        rows.append(
            (
                u,
                grid.nodes[u],
                residual / scale,
                qef.reality_residuals[u],
                qef.solve_reports[u].relative,
                gap / den,
            )
        )
    write_measure_csv(Path(out_dir) / "n_terminal.csv", qef.measures[-1])
    checks = [
        ("symplectic", max(r[2] for r in rows), SYMPLECTIC_GATE),
        ("reality", max(r[3] for r in rows), REALITY_GATE),
        ("reconstruction", max(r[4] for r in rows), RECONSTRUCTION_GATE),
        ("flow_closure", trip.invariant_residual, FLOW_CLOSURE_GATE),
    ]
    notes = (
        "driver gap at midpoints (canonical representative): "
        + _fmt(trip.direct_residual),
        "convergence error: measure-side roundtrip in the kernel-weighted norm",
    )
    convergence = ()
    if scn.levels >= 3:
        # level 0 is already in hand through the per-node column
        errors = [(grid.steps, grid.step, max(r[5] for r in rows))]
        for lgrid in _level_grids(scn)[1:]:
            lccr = build_ccr_kernel(model, lgrid)
            lpath = diagonal_lebesgue_path(lgrid, scn.pi)
            errors.append(
                (lgrid.steps, lgrid.step, roundtrip_n_residual(lpath, lccr))
            )
        convergence = tuple(emit_convergence(errors))
        orders = [row[4] for row in convergence if row[4] is not None]
        lo, hi = ROUNDTRIP_ORDER_WINDOW
        worst = min(orders) if min(orders) < lo else max(orders)
        checks.append(("roundtrip_order", worst, (lo, hi)))
    return TaskResult(tuple(checks), tuple(rows), convergence, notes)


def _run_spde(scn, model, out_dir):
    grid = make_grid(scn.horizon, scn.steps)
    ccr = build_ccr_kernel(model, grid)
    f_path = corner_atom_path(grid, scn.pi)
    t0 = time.perf_counter()
    general = _dense_csk_evolution(f_path, ccr)
    t_general = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = spde_fast_path(model, scn.pi, grid)
    t_fast = time.perf_counter() - t0
    gaps = [
        float(
            np.linalg.norm(fast.mats[u] - general.mats[u])
            / (1.0 + np.linalg.norm(general.mats[u]))
        )
        for u in range(grid.node_count)
    ]
    qef = qef_from_csk_path(fast, ccr, nodes=[grid.node_count - 1])
    rows = []
    for u in range(grid.node_count):
        residual, scale = symplectic_residual_raw(fast.mats[u], ccr.big)
        rows.append(
            (u, grid.nodes[u], residual / scale, float("nan"), gaps[u], float("nan"))
        )
    write_measure_csv(Path(out_dir) / "n_terminal.csv", qef.measures[-1])
    checks = [
        ("symplectic", max(r[2] for r in rows), SYMPLECTIC_GATE),
        ("spde_agreement", max(gaps), SPDE_AGREEMENT_GATE),
    ]
    notes = (
        "dense exponential seconds: " + _fmt(t_general),
        "rank-structured seconds: " + _fmt(t_fast),
    )
    convergence = ()
    if scn.levels >= 3:
        errors = []
        for lgrid in _level_grids(scn):
            lccr = build_ccr_kernel(model, lgrid)
            lf = corner_atom_path(lgrid, scn.pi)
            lgen = _dense_csk_evolution(lf, lccr)
            lfast = spde_fast_path(model, scn.pi, lgrid)
            errors.append(
                (
                    lgrid.steps,
                    lgrid.step,
                    max(
                        float(
                            np.linalg.norm(lfast.mats[u] - lgen.mats[u])
                            / (1.0 + np.linalg.norm(lgen.mats[u]))
                        )
                        for u in range(lgrid.node_count)
                    ),
                )
            )
        convergence = tuple(emit_convergence(errors))
        notes = notes + (
            "convergence error: route agreement gap (rounding-limited)",
        )
    return TaskResult(tuple(checks), tuple(rows), convergence, notes)


def _run_laplace(scn, model, out_dir):
    grid = make_grid(scn.horizon, scn.steps)
    count = grid.node_count
    n = model.dim
    size = n * count
    weights = np.zeros((size, size), dtype=complex)
    for l in range(count):
        mass = scn.pi * float(l + 1) / count
        weights[l * n : (l + 1) * n, 0:n] = mass
        weights[0:n, l * n : (l + 1) * n] = mass.T
    measure = KernelMeasure(grid, weights, support_index=count - 1)
    column = chk_column_function(model, measure, 0)
    # keep samples off the strip edges: conditioning degrades near Re s = 0
    # and the quadrature tail lengthens near Re s = width
    width = abs(spectral_abscissa(model))
    samples = [
        width * (0.2 + 0.6 * k / (2 * count - 1)) for k in range(2 * count)
    ]
    masses, condition = laplace_recover_measure(column, model, grid, samples)
    rows = []
    worst = 0.0
    for l in range(count):
        target = measure.weights[l * n : (l + 1) * n, 0:n]
        gap = float(
            np.linalg.norm(masses[l] - target) / (1.0 + np.linalg.norm(target))
        )
        worst = max(worst, gap)
        rows.append((l, grid.nodes[l], float("nan"), float("nan"), gap, float("nan")))
    write_measure_csv(Path(out_dir) / "laplace_input.csv", measure)
    checks = [("laplace_recovery", worst, LAPLACE_GATE)]
    notes = ("vandermonde condition: " + _fmt(condition),)
    return TaskResult(tuple(checks), tuple(rows), (), notes)


def _run_oracle(scn, model, out_dir):
    rng = np.random.default_rng(scn.seed)
    k = scn.theta.shape[0]
    cutoffs = [c for c in (16, 24, 32, 40) if c <= scn.cutoff]
    if not cutoffs:
        cutoffs = [scn.cutoff]
    cases = []
    for case in range(5):
        q1 = rng.standard_normal((k, k))
        q2 = rng.standard_normal((k, k))
        q1 = 0.5 * (q1 + q1.T)
        q2 = 0.5 * (q2 + q2.T)
        q1 /= max(1.0, np.linalg.norm(q1))
        q2 /= max(1.0, np.linalg.norm(q2))
        cases.append((q1, q2))
    rows = []
    table = [CSV_SCHEMA, "case,cutoff,residual,tolerance,pass"]
    worst = 0.0
    for d in cutoffs:
        vars_d = build_single_time(scn.theta, d)
        for idx, (q1, q2) in enumerate(cases):
            rep = oracle_bracket_check(vars_d, q1, q2, tol=ORACLE_GATE)
            worst = max(worst, rep.residual)
            table.append(
                f"{idx},{d},{_fmt(rep.residual)},{_fmt(rep.tolerance)},"
                f"{int(rep.passed)}"
            )
            rows.append(
                (idx, float(d), float("nan"), float("nan"), rep.residual, float("nan"))
            )
    (Path(out_dir) / "oracle_report.csv").write_text(
        "\n".join(table) + "\n", encoding="ascii"
    )
    checks = [("oracle_bracket", worst, ORACLE_GATE)]
    notes = ()
    if model is not None and scn.steps >= 1 and scn.steps <= 2 and scn.horizon > 0:
        grid = make_grid(scn.horizon, scn.steps)
        mt = oracle_multitime_check(model, grid, tol=ORACLE_GATE)
        checks.append(("oracle_multitime", mt.table_residual, ORACLE_GATE))
        notes = (
            "discrete vs continuous table gap: " + _fmt(mt.continuum_gap),
            "multitime dimension: " + str(mt.dimension),
        )
    return TaskResult(tuple(checks), tuple(rows), (), notes)


_RUNNERS = {
    "forward": _run_forward,
    "inverse": _run_inverse,
    "roundtrip": _run_roundtrip,
    "spde": _run_spde,
    "laplace": _run_laplace,
    "oracle": _run_oracle,
}


def _check_passes(check):
    name, value, gate = check
    if isinstance(gate, tuple):
        return gate[0] <= value <= gate[1]
    return value <= gate


def _write_report(out_dir, rows):
    lines = [CSV_SCHEMA, "node,time,symplectic,reality,reconstruction,roundtrip"]
    for row in rows:
        u, t, *rest = row
        lines.append(f"{u},{_fmt(t)}," + ",".join(_fmt(v) for v in rest))
    (Path(out_dir) / "report.csv").write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_convergence(out_dir, rows):
    lines = [CSV_SCHEMA, "level,steps,h,error,order,warning"]
    for level, steps, h, err, order, warning in rows:
        order_text = _fmt(order) if order is not None else "nan"
        lines.append(
            f"{level},{steps},{_fmt(h)},{_fmt(err)},{order_text},{int(warning)}"
        )
    (Path(out_dir) / "convergence.csv").write_text(
        "\n".join(lines) + "\n", encoding="ascii"
    )


def _write_summary(out_dir, scn, checks, notes, failure=None):
    lines = [f"scenario: {scn.name}", f"task: {scn.task}"]
    for check in checks:
        name, value, gate = check
        verdict = "PASS" if _check_passes(check) else "FAIL"
        if isinstance(gate, tuple):
            gate_text = f"in [{_fmt(gate[0])}, {_fmt(gate[1])}]"
        else:
            gate_text = f"<= {_fmt(gate)}"
        lines.append(f"check {name}: {verdict} ({_fmt(value)} {gate_text})")
    for note in notes:
        lines.append(f"note: {note}")
    if failure is not None:
        lines.append(f"numerical failure: {failure}")
        lines.append("result: FAIL")
    else:
        ok = all(_check_passes(c) for c in checks)
        lines.append("result: " + ("PASS" if ok else "FAIL"))
    (Path(out_dir) / "summary.txt").write_text(
        "\n".join(lines) + "\n", encoding="ascii"
    )


def run_scenario(path, output_dir=None, levels=None, seed=None):
    """Execute one scenario file; returns the process exit code.

    Writes measure CSVs, report.csv, convergence.csv (three or more
    levels), and summary.txt into the output directory.  Numerical
    failures still produce a summary naming the failure before the
    run exits with code 3.
    """
    scn = parse_scenario(path, output_dir=output_dir, levels=levels, seed=seed)
    if scn.task == "validate":
        return 0
    out_dir = Path(scn.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        model = None
        if scn.drift is not None:
            try:
                model = OqhoModel(scn.theta, scn.drift, scn.dispersion)
            except ValueError as exc:
                raise NumericalFailure(f"model rejected: {exc}") from exc
        result = _RUNNERS[scn.task](scn, model, out_dir)
    except NumericalFailure as exc:
        _write_summary(out_dir, scn, (), (), failure=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _write_report(out_dir, result.report_rows)
    if result.convergence:
        _write_convergence(out_dir, result.convergence)
    _write_summary(out_dir, scn, result.checks, result.notes)
    ok = all(_check_passes(c) for c in result.checks)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quadexp",
        description="kernel-measure scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--output-dir", default=None)
    run_p.add_argument("--levels", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    val_p = sub.add_parser("validate", help="schema-check a scenario file")
    val_p.add_argument("scenario")
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            parse_scenario(args.scenario)
            print("schema ok")
            return 0
        return run_scenario(
            args.scenario,
            output_dir=args.output_dir,
            levels=args.levels,
            seed=args.seed,
        )
    except ScenarioError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
