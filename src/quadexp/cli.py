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

report.csv rows start with a node index and its time, followed by the
columns symplectic, reality, reconstruction, roundtrip; a column a
task does not fill reads nan.  forward fills the first three,
roundtrip all four, and inverse reality and reconstruction of the
recovered driver.  spde fills symplectic and writes its route gap
(rank-structured against dense flow) into reconstruction.  laplace and
oracle write their residuals into reconstruction; oracle rows carry
the case index and the ladder cutoff in the node and time columns.
With levels >= 3 the forward, inverse, roundtrip and spde tasks also
write convergence.csv.

summary.txt has a check line per gate and then note lines: roundtrip
notes its driver gap at midpoints, spde its two route timings (dense
exponential and rank-structured seconds), laplace the Vandermonde
condition, and oracle its table gap and multitime dimension, or why it
skipped the multitime check.  A convergence table adds, last, a note
naming what its error measures.  The golden comparator of the test
suite checks each note's label exactly and its value as a float; only
the timings' values go unchecked.

Exit codes: 0 all enabled checks pass, 1 a check failed, 2 schema
violation, 3 numerical failure.  Outputs are deterministic for a fixed
scenario and seed: all floats print with 17 significant digits and no
run metadata (times, paths) enters the CSV files.
"""

import argparse
import sys
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalFailure, ScenarioError
from .fock import build_single_time, oracle_bracket_check, oracle_multitime_check
from .measures import (
    CSV_SCHEMA,
    KernelMeasure,
    _format_float as _fmt,
    build_ccr_kernel,
    make_grid,
    write_measure_csv,
)
from .model import OqhoModel, spectral_abscissa
from .solvers import (
    _closure,
    _dense_csk_evolution,
    _extraction,
    _inversion,
    _relative,
    _roundtrip_f_nodes,
    _roundtrip_n_nodes,
    _t_route_gap,
    _target_pairs,
    chk_column_function,
    corner_atom_path,
    diagonal_lebesgue_path,
    forward_csk_evolution,
    laplace_recover_measure,
    qef_from_csk_path,
    roundtrip_n_residual,
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

SYMPLECTIC_GATE = 1e-9
REALITY_GATE = 1e-8
RECONSTRUCTION_GATE = 1e-5
QUADRATURE_GATE = 1e-6
FLOW_CLOSURE_GATE = 1e-8
SPDE_AGREEMENT_GATE = 1e-10
LAPLACE_GATE = 1e-6
ORACLE_GATE = 1e-8
ROUNDTRIP_ORDER_WINDOW = (1.7, 2.3)

# gate on the largest value of each report column that a task checks
_COLUMN_GATES = {
    "symplectic": SYMPLECTIC_GATE,
    "reality": REALITY_GATE,
    "reconstruction": RECONSTRUCTION_GATE,
}

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
    """Bracketed row list -> finite real matrix; rejects ragged or empty rows."""
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
    matrix = np.asarray(rows, dtype=float)
    if not np.isfinite(matrix).all():
        raise ScenarioError(f"{where}: non-finite matrix entry")
    return matrix


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
        converted = kind(value)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {key} must be {kind.__name__}") from exc
    if kind is float and not np.isfinite(converted):
        raise ScenarioError(f"{where}: {key} must be finite")
    return converted


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
    if scn.seed < 0:
        raise ScenarioError(f"{path}: seed must be non-negative")
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
        if scn.theta is not None and scn.pi.shape != scn.theta.shape:
            raise ScenarioError(f"{path}: pi and theta differ in size")
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


# report.csv columns after node and time, in print order
REPORT_COLUMNS = ("symplectic", "reality", "reconstruction", "roundtrip")


@dataclass(frozen=True)
class TaskResult:
    """What one task run leaves behind, before files are written.

    Row i of report.csv is (report_keys[i], report_times[i]) followed by
    columns[name][i] for each name in REPORT_COLUMNS; a column the task
    leaves out of the mapping prints as nan.
    """

    checks: tuple
    report_keys: Sequence
    report_times: Sequence
    columns: Mapping
    convergence: tuple = ()
    notes: tuple = ()


def _grid_kernel(scn, model):
    """The scenario's base grid and the model's CCR kernel on it."""
    grid = make_grid(scn.horizon, scn.steps)
    return grid, build_ccr_kernel(model, grid)


def _node_result(grid, checks, columns, convergence=(), notes=()):
    """TaskResult whose report rows are the nodes of grid."""
    return TaskResult(
        checks, range(grid.node_count), grid.nodes, columns, convergence, notes
    )


def _column_checks(columns, *names):
    """(name, largest value, gate) of each named report column."""
    return tuple((name, max(columns[name]), _COLUMN_GATES[name]) for name in names)


def _flow_columns(nodes):
    """(columns, terminal measure, extras) of an extraction at every node
    of a flow, read as they come from the iterable nodes
    (measure, solve report, congruence residual, *extra) that
    :func:`solvers._extraction` and the roundtrip passes yield:
    symplectic is the residual each node's gate read, reality and
    reconstruction those of its measure and solve, and extras the list
    of each node's extra values.  Only the last measure is kept."""
    rows, extras = [], []
    for measure, report, residual, *extra in nodes:
        rows.append((residual, measure.reality_residual, report.relative))
        extras.append(extra)
    names = ("symplectic", "reality", "reconstruction")
    return dict(zip(names, map(list, zip(*rows)))), measure, extras


def _refine(scn, model, error, level0, note):
    """(convergence rows, notes) from the task's error on grids of
    halved steps.

    error(grid, ccr) is one level's error on a refined grid; level0() is
    the base-grid error, formed from the flow, driver or columns the task
    already holds; note, the one note, says what that error is.
    Below three levels there is no table, nothing is evaluated and both
    values are ().
    """
    if scn.levels < 3:
        return (), ()
    errors = []
    for k in range(scn.levels):
        grid = make_grid(scn.horizon, scn.steps * 2**k)
        err = level0() if k == 0 else error(grid, build_ccr_kernel(model, grid))
        errors.append((grid.steps, grid.step, err))
    return tuple(emit_convergence(errors)), (note,)


def _run_forward(scn, model, out_dir):
    grid, ccr = _grid_kernel(scn, model)
    pi = scn.pi if scn.pi is not None else np.zeros((model.dim, model.dim))
    f_path = corner_atom_path(grid, pi)
    s_path = forward_csk_evolution(f_path, ccr)
    columns, terminal, _ = _flow_columns(
        _extraction(enumerate(s_path.mats.blocks()), ccr)
    )
    write_measure_csv(Path(out_dir) / "n_terminal.csv", terminal)
    checks = _column_checks(columns, *_COLUMN_GATES)
    refined = _refine(
        scn,
        model,
        lambda g, c: t_route_residual(corner_atom_path(g, pi), c),
        lambda: _t_route_gap(f_path, ccr, s_path.mats.blocks()),
        "convergence error: two-route gap of the normal-ordered kernel",
    )
    return _node_result(grid, checks, columns, *refined)


def _measure_closure(pi):
    """Level error of the measure-side roundtrip of the diagonal family."""
    return lambda g, c: roundtrip_n_residual(diagonal_lebesgue_path(g, pi), c)


def _run_inverse(scn, model, out_dir):
    grid, ccr = _grid_kernel(scn, model)
    n_path = diagonal_lebesgue_path(grid, scn.pi)
    # the closure level needs the forward map of every recovered driver;
    # one pass inverts, integrates and compares, node by node
    if scn.levels >= 3:
        nodes = _roundtrip_n_nodes(n_path, ccr)
    else:
        nodes = _inversion(_target_pairs(n_path, ccr), ccr)
    rows, gaps = [], []
    for f, err, report, *gap in nodes:
        rows.append((f.reality_residual, report.relative, err))
        gaps += gap
    write_measure_csv(Path(out_dir) / "f_terminal.csv", f)
    reality, reconstruction, quad_errors = map(list, zip(*rows))
    columns = {"reality": reality, "reconstruction": reconstruction}
    checks = _column_checks(columns, "reconstruction") + (
        ("quadrature", max(quad_errors), QUADRATURE_GATE),
    )
    refined = _refine(
        scn,
        model,
        _measure_closure(scn.pi),
        lambda: max(_relative(gaps)),
        "convergence error: measure-side closure through the forward map",
    )
    return _node_result(grid, checks, columns, *refined)


def _run_roundtrip(scn, model, out_dir):
    grid, ccr = _grid_kernel(scn, model)
    columns, terminal, gaps = _flow_columns(
        _roundtrip_f_nodes(corner_atom_path(grid, scn.pi), ccr)
    )
    trip = _closure(gaps)
    write_measure_csv(Path(out_dir) / "n_terminal.csv", terminal)
    n_nodes = _roundtrip_n_nodes(diagonal_lebesgue_path(grid, scn.pi), ccr)
    columns["roundtrip"] = _relative([node[-1] for node in n_nodes])
    checks = _column_checks(columns, *_COLUMN_GATES) + (
        ("flow_closure", trip.invariant_residual, FLOW_CLOSURE_GATE),
    )
    notes = (
        "driver gap at midpoints (canonical representative): "
        + _fmt(trip.direct_residual),
    )
    convergence, refined = _refine(
        scn,
        model,
        _measure_closure(scn.pi),
        lambda: max(columns["roundtrip"]),
        "convergence error: measure-side roundtrip in the kernel-weighted norm",
    )
    if convergence:
        orders = [row[4] for row in convergence[1:]]
        lo, hi = ROUNDTRIP_ORDER_WINDOW
        worst = min(orders) if min(orders) < lo else max(orders)
        checks += (("roundtrip_order", worst, (lo, hi)),)
    return _node_result(grid, checks, columns, convergence, notes + refined)


def _route_gaps(fast, dense):
    """Per-node relative gap of the rank-structured flow from the dense one."""
    return [
        float(np.linalg.norm(f - d) / (1.0 + np.linalg.norm(d)))
        for f, d in zip(fast.mats, dense.mats)
    ]


def _route_gap(f_path, ccr):
    """Largest node gap between the two routes' flows of one driver."""
    fast = forward_csk_evolution(f_path, ccr)
    return max(_route_gaps(fast, _dense_csk_evolution(f_path, ccr)))


def _run_spde(scn, model, out_dir):
    grid, ccr = _grid_kernel(scn, model)
    f_path = corner_atom_path(grid, scn.pi)
    t0 = time.perf_counter()
    dense = _dense_csk_evolution(f_path, ccr)
    t_dense = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = forward_csk_evolution(f_path, ccr)
    t_fast = time.perf_counter() - t0
    qef = qef_from_csk_path(fast, ccr, nodes=[grid.node_count - 1])
    write_measure_csv(Path(out_dir) / "n_terminal.csv", qef.measures[-1])
    columns = {"symplectic": fast.residuals()}
    columns["reconstruction"] = _route_gaps(fast, dense)
    checks = _column_checks(columns, "symplectic") + (
        ("spde_agreement", max(columns["reconstruction"]), SPDE_AGREEMENT_GATE),
    )
    notes = (
        "dense exponential seconds: " + _fmt(t_dense),
        "rank-structured seconds: " + _fmt(t_fast),
    )
    convergence, refined = _refine(
        scn,
        model,
        lambda g, c: _route_gap(corner_atom_path(g, scn.pi), c),
        lambda: max(columns["reconstruction"]),
        "convergence error: route agreement gap (rounding-limited)",
    )
    return _node_result(grid, checks, columns, convergence, notes + refined)


def _run_laplace(scn, model, out_dir):
    grid = make_grid(scn.horizon, scn.steps)
    count = grid.node_count
    n = model.dim
    stack = np.concatenate([scn.pi * float(l + 1) / count for l in range(count)])
    weights = np.zeros((len(stack),) * 2, dtype=complex)
    weights[:, :n], weights[:n, :] = stack, stack.T
    measure = KernelMeasure(grid, weights, support_index=count - 1)
    column = chk_column_function(model, measure, 0)
    # keep samples off the strip edges: conditioning degrades near Re s = 0
    # and the left tail's (sI + A^T)^{-1} becomes singular at Re s = width
    width = abs(spectral_abscissa(model))
    samples = [
        width * (0.2 + 0.6 * k / (2 * count - 1)) for k in range(2 * count)
    ]
    masses, condition = laplace_recover_measure(column, samples)
    gaps = [
        float(np.linalg.norm(m - w) / (1.0 + np.linalg.norm(w)))
        for m, w in zip(masses, (measure.block(l, 0) for l in range(count)))
    ]
    write_measure_csv(Path(out_dir) / "laplace_input.csv", measure)
    checks = (("laplace_recovery", max(gaps), LAPLACE_GATE),)
    notes = ("vandermonde condition: " + _fmt(condition),)
    return _node_result(grid, checks, {"reconstruction": gaps}, (), notes)


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
    keys, times, residuals = [], [], []
    table = [CSV_SCHEMA, "case,cutoff,residual,tolerance,pass"]
    for d in cutoffs:
        try:
            vars_d = build_single_time(scn.theta, d)
        except ValueError as exc:
            raise NumericalFailure(f"theta rejected: {exc}") from exc
        for idx, (q1, q2) in enumerate(cases):
            rep = oracle_bracket_check(vars_d, q1, q2, tol=ORACLE_GATE)
            table.append(
                f"{idx},{d},{_fmt(rep.residual)},{_fmt(rep.tolerance)},"
                f"{int(rep.passed)}"
            )
            keys.append(idx)
            times.append(float(d))
            residuals.append(rep.residual)
    _write_lines(out_dir, "oracle_report.csv", table)
    checks = [("oracle_bracket", max(residuals), ORACLE_GATE)]
    notes = ()
    multitime_grid = 1 <= scn.steps <= 2 and scn.horizon > 0
    if model is not None and multitime_grid:
        grid = make_grid(scn.horizon, scn.steps)
        mt = oracle_multitime_check(model, grid, tol=ORACLE_GATE)
        checks.append(("oracle_multitime", mt.table_residual, ORACLE_GATE))
        notes = (
            "discrete vs continuous table gap: " + _fmt(mt.continuum_gap),
            "multitime dimension: " + str(mt.dimension),
        )
    elif model is not None:
        notes = (
            "multitime check skipped: it needs T > 0 and 1 <= N <= 2, the "
            f"scenario has T = {_fmt(scn.horizon)} and N = {scn.steps}",
        )
    return TaskResult(
        tuple(checks), keys, times, {"reconstruction": residuals}, (), notes
    )


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


def _write_lines(out_dir, name, lines):
    """Write lines, each ended by a newline, as the ASCII file name."""
    (Path(out_dir) / name).write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_report(out_dir, result):
    lines = [CSV_SCHEMA, "node,time," + ",".join(REPORT_COLUMNS)]
    unfilled = [float("nan")] * len(result.report_keys)
    columns = [result.columns.get(name, unfilled) for name in REPORT_COLUMNS]
    for key, t, *values in zip(result.report_keys, result.report_times, *columns):
        lines.append(f"{key},{_fmt(t)}," + ",".join(_fmt(v) for v in values))
    _write_lines(out_dir, "report.csv", lines)


def _write_convergence(out_dir, rows):
    lines = [CSV_SCHEMA, "level,steps,h,error,order,warning"]
    for level, steps, h, err, order, warning in rows:
        order_text = _fmt(order) if order is not None else "nan"
        lines.append(
            f"{level},{steps},{_fmt(h)},{_fmt(err)},{order_text},{int(warning)}"
        )
    _write_lines(out_dir, "convergence.csv", lines)


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
    _write_lines(out_dir, "summary.txt", lines)


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
    _write_report(out_dir, result)
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
