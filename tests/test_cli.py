import numpy as np
import pytest

from quadexp import (
    OqhoModel,
    ScenarioError,
    build_ccr_kernel,
    corner_atom_path,
    make_grid,
    read_measure_csv,
    t_route_residual,
)
from quadexp import cli, lie, solvers
from quadexp.cli import (
    SPDE_AGREEMENT_GATE,
    TASKS,
    bundled_scenario,
    emit_convergence,
    main,
    parse_scenario,
    run_scenario,
)

GOOD = """\
# minimal forward scenario
task = forward
T = 1.0
N = 4
seed = 3
theta = [[0, 0.5], [-0.5, 0]]
drift = [[-1, 0.2], [-0.2, -1]]
dispersion = [[1, 0], [0, 1]]
"""

MODEL_BLOCK = """\
theta = [[0, 0.5], [-0.5, 0]]
drift = [[-1, 0.2], [-0.2, -1]]
dispersion = [[1, 0], [0, 1]]
"""


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


def test_bundled_scenarios_exist_and_validate():
    names = (
        "atomic_roundtrip.scn",
        "zero_forward.scn",
        "diagonal_inverse.scn",
        "spde_fast.scn",
        "laplace_recovery.scn",
        "oracle_single.scn",
    )
    for name in names:
        path = bundled_scenario(name)
        assert path.is_file()
        scn = parse_scenario(path)
        assert scn.task in TASKS


def test_parse_good_scenario(tmp_path):
    path = write(tmp_path, GOOD)
    scn = parse_scenario(path)
    assert scn.task == "forward"
    assert scn.horizon == 1.0
    assert scn.steps == 4
    assert scn.seed == 3
    assert scn.output_dir == "case_out"
    assert np.allclose(scn.theta, [[0.0, 0.5], [-0.5, 0.0]])
    over = parse_scenario(path, output_dir="elsewhere", levels=3, seed=11)
    assert over.output_dir == "elsewhere"
    assert over.levels == 3
    assert over.seed == 11


def test_parse_model_file_indirection(tmp_path):
    write(tmp_path, MODEL_BLOCK, name="shared.mod")
    path = write(
        tmp_path, "task = forward\nT = 1.0\nN = 4\nmodel_file = shared.mod\n"
    )
    scn = parse_scenario(path)
    assert scn.drift is not None


@pytest.mark.parametrize(
    "text,match",
    [
        ("T = 1.0\nN = 4\n" + MODEL_BLOCK, "missing required key 'task'"),
        ("task = juggle\nT = 1\nN = 4\n" + MODEL_BLOCK, "unknown task"),
        ("task = forward\nwhat = 3\n", "unknown key"),
        ("task = forward\nT = 1\nT = 2\n", "duplicate key"),
        ("task = forward\njust some words\n", "expected 'key = value'"),
        ("task = forward\nT =\n", "empty key or value"),
        ("task = forward\nT = fast\n", "T must be float"),
        (GOOD.replace("T = 1.0", "T = nan"), "T must be finite"),
        (GOOD.replace("T = 1.0", "T = inf"), "T must be finite"),
        (GOOD.replace("seed = 3", "seed = -1"), "seed must be non-negative"),
        ("task = forward\ntheta = [[0, 1], [-1]]\nT = 1\nN = 2\n", "ragged"),
        ("task = forward\ntheta = [[0, x], [-1, 0]]\nT = 1\nN = 2\n", "non-numeric"),
        (
            GOOD.replace("task = forward", "task = inverse")
            + "pi = [[nan, 0], [0, 0.1]]\n",
            "non-finite",
        ),
        ("task = forward\ntheta = (0, 1)\nT = 1\nN = 2\n", "matrix literal"),
        ("task = forward\nT = 1.0\nN = 4\n", "needs model key"),
        (
            "task = oracle\ntheta = [[0, 1], [-1, 0]]\ndrift = [[-1, 0], [0, -1]]\n",
            "partial model",
        ),
        (GOOD + "levels = 0\n", "levels"),
        (GOOD + "cutoff = 4\n", "cutoff"),
        (
            "task = spde\nT = 1\nN = 4\n" + MODEL_BLOCK,
            "needs pi",
        ),
        (
            GOOD.replace("task = forward", "task = inverse")
            + "pi = [[1, 2], [3, 4]]\n",
            "symmetric",
        ),
        (
            GOOD.replace("task = forward", "task = inverse")
            + "pi = [[1, 2, 3], [4, 5, 6]]\n",
            "square",
        ),
        (
            GOOD.replace("task = forward", "task = spde")
            + "pi = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n",
            "differ in size",
        ),
    ],
)
def test_parse_rejects_bad_scenarios(tmp_path, text, match):
    path = write(tmp_path, text)
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(path)


def test_parse_model_file_conflicts(tmp_path):
    write(tmp_path, MODEL_BLOCK, name="shared.mod")
    both = write(
        tmp_path,
        "task = forward\nT = 1\nN = 2\nmodel_file = shared.mod\n" + MODEL_BLOCK,
        name="both.scn",
    )
    with pytest.raises(ScenarioError, match="excludes inline"):
        parse_scenario(both)
    write(tmp_path, MODEL_BLOCK + "T = 4\n", name="stray.mod")
    stray = write(
        tmp_path,
        "task = forward\nT = 1\nN = 2\nmodel_file = stray.mod\n",
        name="stray.scn",
    )
    with pytest.raises(ScenarioError, match="model files carry only"):
        parse_scenario(stray)


def test_parse_rejects_missing_and_non_ascii(tmp_path):
    with pytest.raises(ScenarioError, match="unreadable"):
        parse_scenario(tmp_path / "absent.scn")
    path = tmp_path / "utf.scn"
    path.write_bytes("task = forward # na\u00efve\n".encode("utf-8"))
    with pytest.raises(ScenarioError, match="ASCII"):
        parse_scenario(path)


def test_emit_convergence_orders():
    eps = 1e-4
    rows = emit_convergence([(4, 0.25, 4 * eps), (8, 0.125, eps), (16, 0.0625, eps / 4)])
    assert rows[0][4] is None and rows[0][5] is False
    assert rows[1][4] == pytest.approx(2.0)
    assert rows[2][4] == pytest.approx(2.0)
    assert not rows[1][5] and not rows[2][5]


def test_emit_convergence_guards():
    with pytest.raises(ScenarioError, match="3 refinement levels"):
        emit_convergence([(4, 0.25, 1.0), (8, 0.125, 0.5)])
    rows = emit_convergence([(4, 0.25, 1.0), (8, 0.125, 2.0), (16, 0.0625, 1.0)])
    assert rows[1][5] is True  # error grew: flagged, not fatal
    assert rows[2][5] is False


def test_validate_subcommand_ok(capsys):
    code = main(["validate", str(bundled_scenario("zero_forward.scn"))])
    assert code == 0
    assert "schema ok" in capsys.readouterr().out


def test_schema_error_exits_two(tmp_path, capsys):
    path = write(tmp_path, "task = forward\nbogus = 1\n")
    assert main(["validate", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err
    assert main(["run", str(path)]) == 2


def test_negative_seed_override_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    scenario = str(bundled_scenario("oracle_single.scn"))
    assert main(["run", scenario, "--seed", "-1", "--output-dir", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_run_forward_zero_driver(tmp_path):
    out = tmp_path / "out"
    code = run_scenario(
        bundled_scenario("zero_forward.scn"), output_dir=out, levels=1
    )
    assert code == 0
    terminal = read_measure_csv(out / "n_terminal.csv")
    assert np.linalg.norm(terminal.weights) == 0.0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "# schema=1"
    assert report[1] == "node,time,symplectic,reality,reconstruction,roundtrip"
    summary = (out / "summary.txt").read_text()
    assert "result: PASS" in summary


def test_run_is_byte_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_scenario(
            bundled_scenario("diagonal_inverse.scn"), output_dir=out, levels=1
        )
        assert code == 0
        paths.append(out)
    csvs = sorted(p.name for p in paths[0].glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


def test_levels_override_controls_convergence_table(tmp_path):
    out1 = tmp_path / "one"
    assert (
        run_scenario(
            bundled_scenario("diagonal_inverse.scn"), output_dir=out1, levels=1
        )
        == 0
    )
    assert not (out1 / "convergence.csv").exists()
    out3 = tmp_path / "three"
    assert (
        run_scenario(
            bundled_scenario("diagonal_inverse.scn"), output_dir=out3, levels=3
        )
        == 0
    )
    table = (out3 / "convergence.csv").read_text().splitlines()
    assert table[0] == "# schema=1"
    assert table[1] == "level,steps,h,error,order,warning"
    assert len(table) == 5


def test_check_failure_exits_one(tmp_path):
    # A strong driver: the inverse run completes, but the rounding bound
    # of its superoperators (the quadrature check, about 3e-3 here) sits
    # far above its 1e-6 gate, so the gate verdict is an honest FAIL.
    text = (
        "task = inverse\nT = 1.0\nN = 8\nseed = 7\n"
        + MODEL_BLOCK
        + "pi = [[20, 6], [6, 16]]\n"
    )
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out) == 1
    summary = (out / "summary.txt").read_text()
    assert "check reconstruction: PASS" in summary
    assert "check quadrature: FAIL" in summary
    assert "result: FAIL" in summary


def test_numerical_failure_exits_three(tmp_path, capsys):
    text = GOOD.replace("[[-1, 0.2], [-0.2, -1]]", "[[1, 0], [0, 1]]")
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out) == 3
    summary = (out / "summary.txt").read_text()
    assert "numerical failure:" in summary and "Hurwitz" in summary
    assert "result: FAIL" in summary
    assert "Hurwitz" in capsys.readouterr().err


def test_inadmissible_model_shape_exits_three(tmp_path):
    # Schema-valid but mathematically inadmissible input surfaces as a
    # wrapped rejection, not a schema error.
    text = GOOD.replace("[[0, 0.5], [-0.5, 0]]", "[[1, 0], [0, 1]]")
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out) == 3
    summary = (out / "summary.txt").read_text()
    assert "model rejected:" in summary
    assert "antisymmetric" in summary


@pytest.mark.parametrize(
    "theta, reason",
    [
        ("[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]", "even"),
        ("[[0, 1], [1, 0]]", "antisymmetric"),
    ],
    ids=["odd", "symmetric"],
)
def test_inadmissible_oracle_theta_exits_three(tmp_path, capsys, theta, reason):
    # without model keys the oracle's table reaches build_single_time
    # unchecked; its refusal is a wrapped rejection, not a traceback
    path = write(tmp_path, f"task = oracle\ncutoff = 8\ntheta = {theta}\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 3
    summary = (out / "summary.txt").read_text()
    assert "theta rejected:" in summary and reason in summary
    assert "result: FAIL" in summary
    assert "theta rejected:" in capsys.readouterr().err


def test_seed_override_changes_oracle_draws(tmp_path):
    outs = []
    for seed in (3, 4):
        out = tmp_path / f"seed{seed}"
        code = run_scenario(
            bundled_scenario("oracle_single.scn"), output_dir=out, seed=seed
        )
        assert code == 0
        outs.append((out / "oracle_report.csv").read_text())
    assert outs[0] != outs[1]


PI_ROW = "pi = [[0.2, 0.06], [0.06, 0.16]]\n"


def oscillator_scenario(tmp_path, head, name="case.scn"):
    """Scenario on the bundled oscillator model, with T = 1 and N = 4."""
    model = bundled_scenario("oscillator.mod").read_text(encoding="ascii")
    return write(tmp_path, head + "T = 1.0\nN = 4\n" + model, name=name)


def read_csv_columns(path):
    """Column name -> list of floats, skipping the schema line."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def test_forward_convergence_errors_are_t_route_residuals(tmp_path):
    path = oscillator_scenario(tmp_path, "task = forward\n" + PI_ROW)
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out, levels=3) == 0
    table = read_csv_columns(out / "convergence.csv")
    scn = parse_scenario(path)
    model = OqhoModel(scn.theta, scn.drift, scn.dispersion)
    expected = []
    for k in range(3):
        grid = make_grid(scn.horizon, scn.steps * 2**k)
        ccr = build_ccr_kernel(model, grid)
        expected.append(t_route_residual(corner_atom_path(grid, scn.pi), ccr))
    assert table["steps"] == [4.0, 8.0, 16.0]
    assert table["error"] == expected


def test_spde_convergence_starts_at_the_summary_agreement(tmp_path):
    path = oscillator_scenario(tmp_path, "task = spde\n" + PI_ROW)
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out, levels=3) == 0
    errors = read_csv_columns(out / "convergence.csv")["error"]
    assert len(errors) == 3
    summary = (out / "summary.txt").read_text()
    line = next(l for l in summary.splitlines() if l.startswith("check spde_agreement:"))
    agreement = float(line.split("(", 1)[1].split()[0])
    assert errors[0] == agreement
    assert all(err <= SPDE_AGREEMENT_GATE for err in errors)


def test_zero_driver_forward_convergence_is_exact(tmp_path):
    path = oscillator_scenario(tmp_path, "task = forward\n")
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out, levels=3) == 0
    assert read_csv_columns(out / "convergence.csv")["error"] == [0.0, 0.0, 0.0]


def test_roundtrip_with_zero_pi_reports_zero_gaps(tmp_path):
    path = oscillator_scenario(
        tmp_path, "task = roundtrip\npi = [[0, 0], [0, 0]]\n"
    )
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=out, levels=1) == 0
    assert read_csv_columns(out / "report.csv")["roundtrip"] == [0.0] * 5


def test_roundtrip_convergence_note_comes_with_its_table(tmp_path):
    path = oscillator_scenario(
        tmp_path, "task = roundtrip\npi = [[0.2, 0.06], [0.06, 0.16]]\n"
    )
    note = "convergence error: measure-side roundtrip"
    for levels in (1, 3):
        out = tmp_path / f"levels{levels}"
        assert run_scenario(path, output_dir=out, levels=levels) == 0
        table = (out / "convergence.csv").exists()
        assert table == (levels == 3)
        assert (note in (out / "summary.txt").read_text()) == table


def test_roundtrip_task_integrates_and_extracts_its_flow_once(tmp_path, monkeypatch):
    # On the N = 32 grid: the corner-atom flow and the driver recovered
    # from the diagonal path are integrated once each; the corner-atom
    # flow, its regenerated flow and the recovered driver's flow are
    # extracted once each.  The task's own extraction feeds the
    # flow-closure check, and one kernel solver serves every solve.
    counts = {"forward_csk_evolution": 0, "qef_from_csk_path": 0, "KernelSolver": 0}
    for name in ("forward_csk_evolution", "qef_from_csk_path"):
        original = getattr(solvers, name)

        def counted(path, *args, _name=name, _original=original, **kwargs):
            if path.grid.steps == 32:
                counts[_name] += 1
            return _original(path, *args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
        monkeypatch.setattr(cli, name, counted)
    factor = lie.KernelSolver.__init__

    def counted_factor(self, ccr):
        if ccr.grid.steps == 32:
            counts["KernelSolver"] += 1
        factor(self, ccr)

    monkeypatch.setattr(lie.KernelSolver, "__init__", counted_factor)
    out = tmp_path / "out"
    code = run_scenario(
        bundled_scenario("atomic_roundtrip.scn"), output_dir=out, levels=1
    )
    assert code == 0
    assert counts == {
        "forward_csk_evolution": 2,
        "qef_from_csk_path": 3,
        "KernelSolver": 1,
    }


def test_each_bundled_scenario_factorizes_each_kernel_once(tmp_path, monkeypatch):
    # The solver belongs to the kernel (ccr.solver): every solve against a
    # kernel shares it and the condition number it computes once; each
    # solve then runs on the kernel's leading block.  atomic_roundtrip
    # builds one kernel per refinement level, and the forward task's
    # refined levels solve nothing.
    expected = {"zero_forward": 1, "diagonal_inverse": 1, "spde_fast": 1,
                "atomic_roundtrip": 3}
    kernels = []
    factor = lie.KernelSolver.__init__

    def counted_factor(self, ccr):
        kernels.append(ccr)
        factor(self, ccr)

    monkeypatch.setattr(lie.KernelSolver, "__init__", counted_factor)
    for name, count in expected.items():
        kernels.clear()
        out = tmp_path / name
        assert run_scenario(bundled_scenario(f"{name}.scn"), output_dir=out) == 0
        assert len(kernels) == count, name
        assert len({id(ccr) for ccr in kernels}) == count, name


def test_forward_and_inverse_tables_reuse_the_base_grid(tmp_path, monkeypatch):
    # With three levels the base-grid error comes from the flow or the
    # driver the task already holds: zero_forward integrates its N = 16
    # flow once, and diagonal_inverse recovers its N = 24 driver once.
    base = {"forward_csk_evolution": 16, "inverse_toe_measure": 24}
    counts = dict.fromkeys(base, 0)
    for name in base:
        original = getattr(solvers, name)

        def counted(path, *args, _name=name, _original=original, **kwargs):
            if path.grid.steps == base[_name]:
                counts[_name] += 1
            return _original(path, *args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
        monkeypatch.setattr(cli, name, counted)
    for name in ("zero_forward", "diagonal_inverse"):
        out = tmp_path / name
        code = run_scenario(bundled_scenario(f"{name}.scn"), output_dir=out, levels=3)
        assert code == 0
        assert len((out / "convergence.csv").read_text().splitlines()) == 5
    assert counts == {"forward_csk_evolution": 1, "inverse_toe_measure": 1}
