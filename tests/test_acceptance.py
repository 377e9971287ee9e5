"""Acceptance gate: one test per shipped criterion, run with -v for a
pass/fail line each.

Every tolerance here is a contract, not a measurement: loosening one to
make a red line green is never acceptable.  Criterion 6 is expected to
fail; the reality defect of the extracted measures sits at rounding
level (about 1e-15) on every grid, so the demanded second-order
decrease has nothing left to act on.  The analysis is in the README's
"Acceptance gate" paragraph, and CHANGES.md records the criterion-6
defect table before and after the cancellation-free extraction; the
criterion is asserted faithfully all the same.
"""

import math
import pathlib
import time

import numpy as np
from scipy.linalg import expm

from _golden import compare_tree
from quadexp import (
    ChkMatrix,
    KernelMeasure,
    MeasurePath,
    OqhoModel,
    antisymmetric_remainder,
    atomic_corner_measure,
    bch_product,
    bracket,
    build_ccr_kernel,
    build_single_time,
    chk_exp,
    check_pr,
    corner_atom_path,
    diagonal_lebesgue_path,
    forward_csk_evolution,
    forward_qef_measure,
    g_path_magnus,
    inverse_toe_measure,
    kernel_weighted_norm,
    lambda_product,
    laplace_lambda,
    laplace_lambda_quadrature,
    make_grid,
    mho_scalar,
    oracle_bracket_check,
    qef_from_csk_path,
    qef_psi_measure,
    random_measure,
    random_model,
    roundtrip_f_residual,
    roundtrip_n_residual,
    sinhc_scalar,
    spde_fast_path,
    spectral_abscissa,
    symplectic_j,
    t_route_residual,
    ups_scalar,
)
from quadexp.cli import bundled_scenario, main, run_scenario
from quadexp.lie import symplectic_residual_raw
from quadexp.solvers import _dense_csk_evolution

PI = 0.2 * np.array([[1.0, 0.3], [0.3, 0.8]])


def _model(seed=7, n=2, m=2):
    return random_model(np.random.default_rng(seed), n=n, m=m)


def test_criterion_01_realizability_population():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        model = random_model(rng, n=2, m=2)
        report = check_pr(model)
        assert report.residual <= 1e-12 * report.scale
    assert time.perf_counter() - start < 5.0


def test_criterion_02_kernel_antisymmetry_and_origin():
    rng = np.random.default_rng(1)
    for k in range(20):
        model = random_model(rng, n=2, m=2)
        grid = make_grid(0.5 + 0.1 * k, 16)
        ccr = build_ccr_kernel(model, grid)
        assert np.linalg.norm(ccr.big + ccr.big.T) <= 1e-13 * (
            1.0 + np.linalg.norm(ccr.big)
        )
        for j in range(grid.node_count):
            assert np.linalg.norm(ccr.block(j, j) - model.theta) <= 1e-13


def test_criterion_03_bracket_homomorphism_and_jacobi():
    rng = np.random.default_rng(2)
    cases = 0
    for n in (2, 4):
        for steps in (4, 8):
            model = random_model(np.random.default_rng(n * 10 + steps), n=n, m=2)
            ccr = build_ccr_kernel(model, make_grid(1.0, steps))
            for _ in range(13 if n == 2 else 12):
                q1 = random_measure(rng, ccr.grid, n)
                q2 = random_measure(rng, ccr.grid, n)
                b = bracket(q1, q2, ccr)
                lhs = 4j * ccr.big @ b.weights
                m1 = 4j * ccr.big @ q1.weights
                m2 = 4j * ccr.big @ q2.weights
                rhs = m1 @ m2 - m2 @ m1
                assert np.linalg.norm(lhs - rhs) <= 1e-12 * (
                    1.0 + np.linalg.norm(rhs)
                )
                cases += 1
                q3 = random_measure(rng, ccr.grid, n)
                j1 = bracket(q1, bracket(q2, q3, ccr), ccr).weights
                j2 = bracket(q2, bracket(q3, q1, ccr), ccr).weights
                j3 = bracket(q3, bracket(q1, q2, ccr), ccr).weights
                scale = max(
                    np.linalg.norm(j1), np.linalg.norm(j2), np.linalg.norm(j3), 1.0
                )
                assert np.linalg.norm(j1 + j2 + j3) <= 1e-11 * scale
    assert cases == 50


def test_criterion_04_exponential_preserves_kernel():
    rng = np.random.default_rng(3)
    model = _model(3)
    ccr = build_ccr_kernel(model, make_grid(1.0, 8))
    lam_norm = np.linalg.norm(ccr.big)
    for case in range(50):
        q = random_measure(rng, ccr.grid, 2, complex_entries=False)
        target = 0.5 + 4.5 * (case / 49.0)
        q = KernelMeasure(
            ccr.grid,
            q.weights * (target / np.linalg.norm(4j * ccr.big @ q.weights, 1)),
        )
        s = chk_exp(lambda_product(ccr, q), ccr)
        residual, _ = symplectic_residual_raw(s.mat, ccr.big)
        assert residual <= 1e-10 * (1.0 + lam_norm)


def test_criterion_05_bch_reproduces_group_product():
    rng = np.random.default_rng(4)
    model = _model(4)
    ccr = build_ccr_kernel(model, make_grid(1.0, 8))
    for _ in range(30):
        qs = []
        for _ in range(2):
            q = random_measure(rng, ccr.grid, 2, complex_entries=False)
            norm = np.linalg.norm(4j * ccr.big @ q.weights, 1)
            qs.append(KernelMeasure(ccr.grid, q.weights * (1.0 / norm)))
        combined, _ = bch_product(qs[0], qs[1], ccr)
        product = (
            chk_exp(lambda_product(ccr, qs[0]), ccr).mat
            @ chk_exp(lambda_product(ccr, qs[1]), ccr).mat
        )
        rebuilt = chk_exp(lambda_product(ccr, combined), ccr)
        assert np.linalg.norm(rebuilt.mat - product) <= 1e-8 * (
            1.0 + np.linalg.norm(product)
        )


def _smooth_density_path(grid, g):
    """Absolutely continuous real driver with trapezoid node masses."""
    g = np.asarray(g, float)
    n = g.shape[0]
    count = grid.node_count
    h = grid.step
    nodes = grid.nodes
    entries = []
    for u in range(count):
        w = np.zeros((n * count, n * count))
        t = nodes[u]
        for j in range(u + 1):
            wj = h * (0.5 if j in (0, u) else 1.0)
            for k in range(u + 1):
                wk = h * (0.5 if k in (0, u) else 1.0)
                density = (
                    0.8
                    * math.cos(nodes[j])
                    * math.cos(nodes[k])
                    * (t - nodes[j])
                    * (t - nodes[k])
                )
                w[j * n : (j + 1) * n, k * n : (k + 1) * n] = wj * wk * density * g
        entries.append(KernelMeasure(grid, w, u))
    return MeasurePath(grid, tuple(entries))


def _reality_scenarios(grid):
    g = np.array([[1.0, 0.4], [0.4, 0.6]])
    diag_pi = np.diag([0.25, 0.1])
    return (
        ("atomic", corner_atom_path(grid, PI)),
        ("scaled atomic", corner_atom_path(grid, 0.5 * PI)),
        ("diagonal mass", corner_atom_path(grid, diag_pi)),
        ("profiled atomic", corner_atom_path(grid, PI, profile=lambda t: 1.0 + 0.5 * t)),
        ("smooth density", _smooth_density_path(grid, g)),
    )


def test_criterion_06_reality_defect_second_order_decrease():
    # Expected red: extraction through conj(S)^{-1} S keeps the measure
    # real to rounding on every grid, so the reality defect has no h^2
    # component to decrease; measured ratios sit near 1 instead of in
    # [3, 5].  See the README's "Acceptance gate" paragraph and the
    # criterion-6 defect table in CHANGES.md.
    model = _model(7)
    table = {}
    for steps in (32, 64, 128):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model, grid)
        for name, path in _reality_scenarios(grid):
            s_path = forward_csk_evolution(path, ccr)
            qef = qef_from_csk_path(s_path, ccr, nodes=[steps])
            table.setdefault(name, []).append(qef.reality_residuals[0])
    failures = []
    for name, residuals in table.items():
        ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
        if any(not 3.0 <= ratio <= 5.0 for ratio in ratios):
            failures.append(f"{name}: residuals {residuals}, ratios {ratios}")
    assert not failures, (
        "reality defect did not decrease at second order: "
        + "; ".join(failures)
        + " (rounding-floor analysis: README, Acceptance gate; defect"
        " table in CHANGES.md)"
    )


def test_criterion_07_roundtrip_orders_both_directions():
    model = _model(7)
    levels = (16, 32, 64)

    start = time.perf_counter()
    direct = []
    for steps in levels:
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model, grid)
        f_path = inverse_toe_measure(diagonal_lebesgue_path(grid, PI), ccr).f_path
        report = roundtrip_f_residual(f_path, ccr)
        assert report.invariant_residual <= 1e-8
        direct.append(report.direct_residual)
    f_sweep = time.perf_counter() - start
    orders_f = [np.log2(direct[i] / direct[i + 1]) for i in range(2)]

    start = time.perf_counter()
    n_resid = []
    for steps in levels:
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model, grid)
        n_resid.append(roundtrip_n_residual(diagonal_lebesgue_path(grid, PI), ccr))
    n_sweep = time.perf_counter() - start
    orders_n = [np.log2(n_resid[i] / n_resid[i + 1]) for i in range(2)]

    for order in orders_f + orders_n:
        assert 1.7 <= order <= 2.3, (orders_f, orders_n)
    assert f_sweep < 60.0
    assert n_sweep < 60.0


def test_criterion_08_two_route_t_agreement_order():
    model = _model(7)
    residuals = []
    for steps in (16, 32, 64):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model, grid)
        residuals.append(t_route_residual(corner_atom_path(grid, PI), ccr))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.6 <= order <= 2.6, (residuals, orders)


def test_criterion_09_spde_fast_path_agrees_and_wins():
    model = _model(7)
    grid = make_grid(1.0, 128)
    ccr = build_ccr_kernel(model, grid)

    # the rank-structured path is timed against the dense exponential
    # reference; the general integrator takes the same live-column step
    start = time.perf_counter()
    dense = _dense_csk_evolution(corner_atom_path(grid, PI), ccr)
    dense_time = time.perf_counter() - start

    start = time.perf_counter()
    fast = spde_fast_path(model, PI, grid)
    fast_time = time.perf_counter() - start

    general = forward_csk_evolution(corner_atom_path(grid, PI), ccr)
    for path in (fast, general):
        worst = 0.0
        for u in range(grid.node_count):
            gap = np.linalg.norm(path.mats[u] - dense.mats[u])
            worst = max(worst, gap / (1.0 + np.linalg.norm(dense.mats[u])))
        assert worst <= 1e-10
    assert dense_time >= 3.0 * fast_time, (dense_time, fast_time)


def test_criterion_10_exponent_route_and_half_measure():
    model = _model(7)
    # exponent reproduces the flow on mild scenarios
    for build in (
        lambda grid, ccr: corner_atom_path(grid, 0.5 * PI),
        lambda grid, ccr: inverse_toe_measure(
            diagonal_lebesgue_path(grid, PI), ccr
        ).f_path,
    ):
        grid = make_grid(1.0, 32)
        ccr = build_ccr_kernel(model, grid)
        f_path = build(grid, ccr)
        _, ys, _ = g_path_magnus(f_path, ccr)
        s_path = forward_csk_evolution(f_path, ccr)
        gap = np.linalg.norm(expm(4j * ys[-1]) - s_path.mats[-1])
        assert gap <= 1e-6 * (1.0 + np.linalg.norm(s_path.mats[-1]))

    # G approaches half the extracted measure at second order on the
    # canonical driver class
    gaps = []
    for steps in (16, 32, 64):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model, grid)
        f_path = inverse_toe_measure(diagonal_lebesgue_path(grid, PI), ccr).f_path
        g_path, _, _ = g_path_magnus(f_path, ccr)
        qef = forward_qef_measure(f_path, ccr, nodes=[steps])
        diff = g_path.entries[-1].weights - 0.5 * qef.measures[0].weights
        gaps.append(
            kernel_weighted_norm(ccr, diff)
            / kernel_weighted_norm(ccr, qef.measures[0].weights)
        )
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.7 <= order <= 2.3, (gaps, orders)


def test_criterion_11_scalar_functions_against_reference_series():
    def ups_ref(z):
        return sum(z**k / math.factorial(k + 1) for k in range(41))

    def sinhc_ref(z):
        return sum(z ** (2 * k) / math.factorial(2 * k + 1) for k in range(21))

    for r in (0.0, 1e-4, 1e-3, 0.03, 0.7, 2.0, 3.5, 5.0):
        for ang in np.linspace(0.0, 2.0 * np.pi, 9):
            z = r * np.exp(1j * ang)
            ref_u = ups_ref(z)
            ref_s = sinhc_ref(z)
            assert abs(ups_scalar(z) - ref_u) <= 1e-13 * (1.0 + abs(ref_u))
            assert abs(sinhc_scalar(z) - ref_s) <= 1e-13 * (1.0 + abs(ref_s))
            # off poles: the disk radius 5 is inside the ring |z| = 2 pi
            ref_m = 1.0 / ref_u
            assert abs(mho_scalar(z) - ref_m) <= 1e-13 * (1.0 + abs(ref_m))
            assert abs(ups_scalar(z) * mho_scalar(z) - 1.0) <= 1e-12
            half = np.exp(z / 2.0) * sinhc_scalar(z / 2.0)
            assert abs(ups_scalar(z) - half) <= 1e-13 * (1.0 + abs(half))


def test_criterion_12_laplace_rational_matches_quadrature():
    for seed in range(10):
        model = random_model(np.random.default_rng(100 + seed), n=2, m=2)
        width = abs(spectral_abscissa(model))
        for k in range(10):
            s = width * (0.15 + 0.07 * k) + 0.3j * ((k % 3) - 1)
            rational = laplace_lambda(model, s)
            quad, _ = laplace_lambda_quadrature(model, s, tol=1e-9)
            assert np.linalg.norm(rational - quad) <= 1e-6 * (
                1.0 + np.linalg.norm(rational)
            )


def test_criterion_13_fock_bracket_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(2, 2))
    theta = 0.5 * (raw - raw.T) + 0.4 * symplectic_j(2)
    vars_set = build_single_time(theta, 40)
    for _ in range(20):
        q1 = rng.normal(size=(2, 2))
        q1 = 0.5 * (q1 + q1.T)
        q1 /= max(1.0, np.linalg.norm(q1))
        q2 = rng.normal(size=(2, 2))
        q2 = 0.5 * (q2 + q2.T)
        q2 /= max(1.0, np.linalg.norm(q2))
        report = oracle_bracket_check(vars_set, q1, q2, tol=1e-8)
        assert report.passed, report
        anti = rng.normal(size=(2, 2))
        anti = 0.5 * (anti - anti.T)
        residual, scalar = antisymmetric_remainder(vars_set, anti)
        assert residual <= 1e-8
        assert abs(scalar - 1j * np.sum(theta * anti)) <= 1e-12
    assert time.perf_counter() - start < 30.0


def test_criterion_14_psi_corner_first_order_rate():
    model = _model(7)
    errors = []
    hs = []
    for steps in (16, 32, 64):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model, grid)
        path = diagonal_lebesgue_path(grid, PI)
        u = steps // 2
        psi = qef_psi_measure(path.entries[u], path.derivative_entries[u], ccr)
        assert psi.reality_residual <= 1e-9
        assert np.isfinite(psi.interior_mass)
        assert np.isfinite(psi.edge_mass)
        assert np.isfinite(psi.corner_mass)
        errors.append(np.linalg.norm(psi.corner_block - PI))
        hs.append(grid.step)
    # first-order rate bound: e_k <= 1.1 (e_0 / h_0) h_k on every level
    rate = errors[0] / hs[0]
    for err, h in zip(errors[1:], hs[1:]):
        assert err <= 1.1 * rate * h, (errors, hs)


NAMES = (
    "zero_forward.scn",
    "diagonal_inverse.scn",
    "spde_fast.scn",
    "laplace_recovery.scn",
    "oracle_single.scn",
    "atomic_roundtrip.scn",
)


def test_criterion_15_cli_golden_runs_and_exit_codes(tmp_path, capsys):
    golden_base = pathlib.Path(__file__).parent / "golden"
    for name in NAMES:
        stem = name.rsplit(".", 1)[0]
        out = tmp_path / stem
        code = run_scenario(bundled_scenario(name), output_dir=out)
        assert code == 0, f"{name} exited {code}"
        problems = compare_tree(out, golden_base / stem)
        assert not problems, "\n".join(problems)

    # determinism: identical scenario and seed give byte-identical CSVs
    twice = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert run_scenario(bundled_scenario("diagonal_inverse.scn"), output_dir=out) == 0
        twice.append(out)
    for csv in sorted(twice[0].glob("*.csv")):
        assert csv.read_bytes() == (twice[1] / csv.name).read_bytes()

    # exit-code contract: schema error 2, numerical failure 3
    bad_schema = tmp_path / "bad.scn"
    bad_schema.write_text("task = forward\nmystery = 1\n", encoding="ascii")
    assert main(["run", str(bad_schema)]) == 2
    capsys.readouterr()

    bad_model = tmp_path / "unstable.scn"
    bad_model.write_text(
        "task = forward\nT = 1.0\nN = 4\n"
        "theta = [[0, 0.5], [-0.5, 0]]\n"
        "drift = [[1, 0], [0, 1]]\n"
        "dispersion = [[1, 0], [0, 1]]\n",
        encoding="ascii",
    )
    assert (
        run_scenario(bad_model, output_dir=tmp_path / "unstable_out") == 3
    )
    capsys.readouterr()
