import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, logm

from quadexp import (
    CcrKernel,
    CskPath,
    KernelMeasure,
    MeasurePath,
    NumericalFailure,
    OqhoModel,
    atom_measure,
    atomic_corner_measure,
    build_ccr_kernel,
    build_from_energy_coupling,
    chk_column_function,
    corner_atom_path,
    csk_path_from_midpoints,
    diagonal_lebesgue_measure,
    diagonal_lebesgue_path,
    forward_csk_evolution,
    forward_qef_measure,
    forward_t_evolution,
    g_path_magnus,
    inverse_toe_measure,
    is_nonanticipative,
    kernel_weighted_norm,
    laplace_point,
    laplace_recover_measure,
    make_grid,
    qef_from_csk_path,
    qef_psi_measure,
    random_measure,
    random_model,
    roundtrip_f_residual,
    roundtrip_n_residual,
    spde_fast_path,
    spectral_abscissa,
    staggered_inverse_measures,
    t_route_residual,
    zero_measure,
)
from quadexp import model as model_module
from quadexp import solvers
from quadexp.cli import bundled_scenario, parse_scenario
from quadexp.lie import CskMatrix, KernelSolver, _ups_series, symplectic_residual_raw
from quadexp.model import ccr_two_point
from quadexp.solvers import LiveColumns, _dense_csk_evolution


def zero_path(grid, dim):
    return MeasurePath(grid, tuple(zero_measure(grid, dim) for _ in grid.nodes))


def test_corner_atom_path_structure(grid16, pi2):
    path = corner_atom_path(grid16, pi2, profile=lambda t: 1.0 + t)
    assert len(path.entries) == grid16.node_count
    for u, t in enumerate(grid16.nodes):
        entry = path.entries[u]
        assert entry.support_index == u
        assert np.allclose(entry.block(u, u), (1.0 + t) * pi2)
    assert path.derivative_entries is None


def test_diagonal_path_carries_exact_derivatives(grid16, pi2):
    path = diagonal_lebesgue_path(grid16, pi2)
    assert path.derivative_entries is not None
    for u in range(grid16.node_count):
        assert np.allclose(path.derivative_entries[u].block(u, u), pi2)
        assert path.entries[u].support_index <= u


def test_measure_path_rejects_anticipation(grid16, pi2):
    entries = [zero_measure(grid16, 2) for _ in range(grid16.node_count)]
    entries[0] = atomic_corner_measure(grid16, 3, pi2)
    with pytest.raises(ValueError, match="anticipates"):
        MeasurePath(grid16, tuple(entries))
    with pytest.raises(ValueError, match="entries"):
        MeasurePath(grid16, tuple(entries[:4]))


def test_zero_driver_is_identity_flow(ccr16):
    path = zero_path(ccr16.grid, ccr16.dim)
    s_path = forward_csk_evolution(path, ccr16)
    eye = np.eye(ccr16.big.shape[0])
    assert all(np.array_equal(s_path.mats[u], eye) for u in range(17))
    qef = forward_qef_measure(path, ccr16)
    for q in qef.measures:
        assert np.linalg.norm(q.weights) == 0.0


def test_first_step_collapses_to_midpoint_mass(model2, pi2):
    # One midpoint step with a real driver: conj(S_1) = S_1^{-1}, so
    # T_1 = S_1^2 = exp(4i h Lambda Fbar) and N_1 = h Fbar exactly.
    grid = make_grid(0.25, 1)
    ccr = build_ccr_kernel(model2, grid)
    path = corner_atom_path(grid, pi2)
    qef = forward_qef_measure(path, ccr)
    target = 0.5 * grid.step * (
        path.entries[0].weights + path.entries[1].weights
    )
    assert np.allclose(qef.measures[1].weights, target, atol=1e-13)
    assert qef.reality_residuals[1] <= 1e-12


def test_forward_flow_is_symplectic_at_n256(model2, pi2):
    grid = make_grid(1.0, 256)
    ccr = build_ccr_kernel(model2, grid)
    s_path = forward_csk_evolution(corner_atom_path(grid, pi2), ccr)
    assert s_path.validate() <= 1e-9


def test_step_norm_gate_reports_refinement(ccr16, rng):
    # the gate trips on the atomic driver (|C| = 2n), on a full-support
    # driver (|C| = size) and on the dense reference
    huge = corner_atom_path(ccr16.grid, 1e4 * np.eye(2))
    with pytest.raises(NumericalFailure, match="refine"):
        forward_csk_evolution(huge, ccr16)
    with pytest.raises(NumericalFailure, match="refine"):
        _dense_csk_evolution(huge, ccr16)
    full = random_measure(rng, ccr16.grid, 2, scale=1e4)
    with pytest.raises(NumericalFailure, match="refine"):
        csk_path_from_midpoints([full] * ccr16.grid.steps, ccr16)


# the overflow and invalid values inside the gates are expected here
@np.errstate(over="ignore", invalid="ignore")
def test_gates_trip_on_non_finite_values(model2, ccr16, pi2):
    # a NaN compares false with any bound, so each gate must test that
    # the value lies within it rather than that it exceeds it
    grid = ccr16.grid
    size = ccr16.big.shape[0]
    # measures are finite, but the step product of one near 1e308 is not
    huge = KernelMeasure(grid, np.full((size, size), 8e307))
    with pytest.raises(NumericalFailure, match="step exponent 1-norm is"):
        csk_path_from_midpoints([huge] * grid.steps, ccr16)
    for bad in (np.nan, np.inf):
        weights = np.full((size, size), bad)
        with pytest.raises(NumericalFailure, match="symplectic residual"):
            CskMatrix(grid, np.full((size, size), bad, dtype=complex), ccr16)
        # non-finite measures, Pi and Hamiltonians fail where they enter
        with pytest.raises(ValueError, match="weights must be finite"):
            KernelMeasure(grid, weights)
        with pytest.raises(NumericalFailure, match="not finite"):
            ccr16.solver.solve_measure(weights)
        bad_pi = [[bad, 0.0], [0.0, 0.1]]
        for build in (diagonal_lebesgue_path, corner_atom_path):
            with pytest.raises(ValueError, match="pi must be finite"):
                build(grid, bad_pi)
        with pytest.raises(ValueError, match="pi must be finite"):
            spde_fast_path(model2, bad_pi, grid)
    flow = forward_csk_evolution(corner_atom_path(grid, pi2), ccr16)
    stack = np.array(list(flow.mats))
    stack[grid.steps, 0, 0] = np.nan
    with pytest.raises(NumericalFailure, match="symplectic residual"):
        CskPath(grid, ccr16, LiveColumns.from_dense(stack, size))


def test_validate_reports_a_non_finite_node(ccr16, pi2):
    grid = ccr16.grid
    flow = forward_csk_evolution(corner_atom_path(grid, pi2), ccr16)
    assert 0.0 < flow.validate() <= 1e-12
    stack = np.array(list(flow.mats))
    stack[5, 0, 0] = np.nan
    size = ccr16.big.shape[0]
    # the terminal gate passes
    path = CskPath(grid, ccr16, LiveColumns.from_dense(stack, size))
    assert np.isnan(path.residuals()[5])
    assert np.isnan(path.validate())


def test_corner_atom_path_rejects_a_non_real_profile(grid16, pi2):
    for value in (1j, 1.0 + 0j, np.complex128(2.0), np.nan, np.inf, -np.inf,
                  np.array([1.0, 2.0]), "1", None):
        with pytest.raises(ValueError, match="finite real scalar"):
            corner_atom_path(grid16, pi2, profile=lambda t, v=value: v)
    plain = corner_atom_path(grid16, pi2, profile=lambda t: 2.0)
    for value in (2, np.float64(2.0), np.int64(2), np.array(2.0)):
        path = corner_atom_path(grid16, pi2, profile=lambda t, v=value: v)
        for got, want in zip(path.entries, plain.entries):
            assert np.array_equal(got.weights, want.weights)


def test_forward_measures_are_real_and_nonanticipative(ccr16, pi2):
    qef = forward_qef_measure(corner_atom_path(ccr16.grid, pi2), ccr16)
    for u, q in zip(qef.node_indices, qef.measures):
        assert is_nonanticipative(q, u)
    assert max(qef.reality_residuals) <= 1e-10
    path = qef.n_path()
    assert len(path.entries) == ccr16.grid.node_count


def test_sparse_extraction_matches_full(ccr16, pi2):
    s_path = forward_csk_evolution(corner_atom_path(ccr16.grid, pi2), ccr16)
    full = qef_from_csk_path(s_path, ccr16)
    last = ccr16.grid.steps
    sparse = qef_from_csk_path(s_path, ccr16, nodes=[last, 8])
    assert sparse.node_indices == (8, last)
    for slot, u in enumerate(sparse.node_indices):
        gap = np.linalg.norm(sparse.measures[slot].weights - full.measures[u].weights)
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(full.measures[u].weights))
    with pytest.raises(ValueError, match="node"):
        qef_from_csk_path(s_path, ccr16, nodes=[99])


def test_extraction_rejects_a_non_integer_node(ccr16, pi2):
    # 1.7 used to be truncated to node 1
    s_path = forward_csk_evolution(corner_atom_path(ccr16.grid, pi2), ccr16)
    for node in (1.7, 1.0, -1, 17, "3", None):
        with pytest.raises(ValueError, match=r"node must be an integer in \[0, 17\)"):
            qef_from_csk_path(s_path, ccr16, nodes=[4, node])
    qef = qef_from_csk_path(s_path, ccr16, nodes=[np.int64(4), 4])
    assert qef.node_indices == (4,)


def test_extraction_refuses_bool_nodes(ccr16, pi2):
    # [True, False] used to extract nodes (0, 1)
    s_path = forward_csk_evolution(corner_atom_path(ccr16.grid, pi2), ccr16)
    with pytest.raises(ValueError, match=r"node must be an integer in \[0, 17\)"):
        qef_from_csk_path(s_path, ccr16, nodes=[True, False])


def _mp_terminal_measure(mp, s, big):
    """Flat weights of N with exp(4i big W) = conj(S)^{-1} S, in 40 digits.

    Every float entry converts exactly; the logarithm is mpmath's own
    logm, independent of the series the library uses.  The result is
    symmetrized like every KernelMeasure.
    """
    with mp.workdps(40):
        s_mp = mp.matrix(s.tolist())
        t_mp = mp.inverse(s_mp.conjugate()) * s_mp
        ham = mp.logm(t_mp) / mp.mpc(0, 4)
        w = mp.inverse(mp.matrix(big.tolist())) * ham
        w = (w + w.T) / 2
        size = w.rows
        imag = max(abs(mp.im(w[i, j])) for i in range(size) for j in range(size))
        return (
            np.array([[complex(w[i, j]) for j in range(size)] for i in range(size)]),
            float(imag),
        )


def _spde_scenario():
    scn = parse_scenario(bundled_scenario("spde_fast.scn"))
    return scn, OqhoModel(scn.theta, scn.drift, scn.dispersion)


def test_terminal_measure_matches_mpmath_reference():
    # The spde_fast scenario's model and mass on a grid small enough for
    # a 40-digit reference computed from the same float kernel S.
    mp = pytest.importorskip("mpmath")
    scn, model = _spde_scenario()
    grid = make_grid(scn.horizon, 8)
    ccr = build_ccr_kernel(model, grid)
    for s_path in (
        forward_csk_evolution(corner_atom_path(grid, scn.pi), ccr),
        spde_fast_path(model, scn.pi, grid),
    ):
        qef = qef_from_csk_path(s_path, ccr, nodes=[grid.steps])
        reference, reference_imag = _mp_terminal_measure(
            mp, s_path.mats[-1], ccr.big
        )
        # N is real: the reference's imaginary part is 40-digit rounding
        assert reference_imag <= 1e-30
        gap = np.abs(qef.measures[0].weights - reference).max()
        assert gap <= 1e-13, gap
        assert qef.reality_residuals[0] <= 1e-14


def _mp_to_numpy(m):
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def _mp_log_near_identity(mp, t):
    """log T = 2 atanh(Z), Z = (T - I)(T + I)^{-1}, at the working
    precision: terms are summed until one has 1-norm below 1e-45, and
    with ||Z||_1 <= 1/2 the tail after it is at most a third of that."""
    eye = mp.eye(t.rows)
    z = (t - eye) * mp.inverse(t + eye)
    z2 = z * z
    term, acc, degree = z, z, 1
    while mp.mnorm(term, 1) > mp.mpf(10) ** -45:
        term = term * z2
        degree += 2
        acc += term / degree
    return 2 * acc


def test_real_extraction_matches_mpmath_and_its_gate_bound(
    model2, model4, pi2, monkeypatch
):
    # Nodes 2, 5 and 8 of the N = 8 corner-atom flows of both fixture
    # models (Pi = pi2 and 0.05 I) against 40 digits from the same float
    # S: T = conj(S)^{-1} S, log T_11 by the atanh series of its Cayley
    # transform, and the solve of Lambda_11 N_11 = log T_11 / 4i.
    #  - the extracted N_11 lies within 4 eps cond(Lambda_11) ||N_11||_F;
    #    measured 0.11 to 0.24 times eps cond(Lambda_11) ||N_11||_F;
    #  - the reconstruction gate's bound is at least the 40-digit
    #    ||exp(2i Theta) - T||_1 of the Theta the route formed; measured
    #    2.3 to 8.7 times it;
    #  - with the atan series cut after one term (Theta = Y) the gate
    #    trips; its bound then read 8.0e-7 to 2.1e-3 against 1e-9.
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    gap_bound = solvers._cayley_gap_bound
    for model, pi in ((model2, pi2), (model4, 0.05 * np.eye(4))):
        ccr = build_ccr_kernel(model, make_grid(1.0, 8))
        s_path = forward_csk_evolution(corner_atom_path(ccr.grid, pi), ccr)
        size = ccr.big.shape[0]
        for u in (2, 5, 8):
            k = (u + 1) * ccr.dim
            seen = []

            def capture(theta, y):
                seen.append((theta, gap_bound(theta, y)))
                return seen[-1][1]

            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_cayley_gap_bound", capture)
                got = qef_from_csk_path(s_path, ccr, nodes=[u]).measures[0].weights
            ((theta, bound),) = seen
            assert theta.shape == (size, k)
            lead = ccr.big[:k, :k]
            with mp.workdps(40):
                s = mp.matrix(s_path.mats[u].tolist())
                t = mp.inverse(s.conjugate()) * s
                ham11 = _mp_log_near_identity(mp, t[:k, :k])
                w = mp.inverse(mp.matrix(lead.tolist())) * (ham11 / mp.mpc(0, 4))
                want = _mp_to_numpy((w + w.T) / 2)
                exponent = np.zeros((size, size), dtype=complex)
                exponent[:, :k] = 2j * theta
                gap = float(mp.mnorm(mp.expm(mp.matrix(exponent.tolist())) - t, 1))
            assert not got[k:].any() and not got[:, k:].any()
            err = np.linalg.norm(got[:k, :k] - want)
            scale = eps * np.linalg.cond(lead) * np.linalg.norm(want)
            assert err <= 4 * scale, (u, err / scale)
            assert gap <= bound, (u, gap, bound)
            with monkeypatch.context() as patch:
                # G = I: Theta = Y, the atan series cut after one term
                patch.setattr(solvers, "_gregory_factor", lambda w, r: np.eye(len(w)))
                with pytest.raises(NumericalFailure, match="failed to reconstruct"):
                    qef_from_csk_path(s_path, ccr, nodes=[u])


def test_extraction_past_the_series_radius_takes_the_anchored_logarithm(model2, pi2):
    # at 30 Pi the N = 8 flow leaves the series radius after node 1: the
    # series nodes come out exactly real, the later ones through the
    # anchored complex logarithm of T, anchored node to node, real to
    # rounding; every node matches scipy's logm of the full T, solved
    # against the full kernel and cropped to [0, t_u]^2, within 1e-11
    # (measured at most 7.3e-13, with entries up to 0.76)
    ccr = build_ccr_kernel(model2, make_grid(1.0, 8))
    s_path = forward_csk_evolution(corner_atom_path(ccr.grid, 30.0 * pi2), ccr)
    qef = qef_from_csk_path(s_path, ccr)
    assert qef.reality_residuals[1] == 0.0
    assert 0.0 < min(qef.reality_residuals[2:]) and max(qef.reality_residuals) <= 1e-12
    for u, measure in enumerate(qef.measures):
        s_u = s_path.mats[u]
        raw = np.linalg.solve(ccr.big, logm(np.linalg.solve(np.conj(s_u), s_u)) / 4j)
        want = 0.5 * (raw + raw.T)
        edge = (u + 1) * ccr.dim
        want[edge:], want[:, edge:] = 0.0, 0.0
        assert np.abs(measure.weights - want).max() <= 1e-11, u


def test_spde_scenario_terminal_measure_is_real_to_rounding():
    # eps * cond(Lambda_big) would be about 1e-11 on this grid
    scn, model = _spde_scenario()
    grid = make_grid(scn.horizon, scn.steps)
    ccr = build_ccr_kernel(model, grid)
    qef = qef_from_csk_path(
        spde_fast_path(model, scn.pi, grid), ccr, nodes=[grid.steps]
    )
    assert qef.reality_residuals[0] <= 1e-14


def test_imaginary_driver_leaves_t_at_identity(ccr16, pi2):
    grid = ccr16.grid
    entries = tuple(
        atom_measure(grid, u, u, 1j * pi2) for u in range(grid.node_count)
    )
    path = MeasurePath(grid, entries)
    t_mats = forward_t_evolution(path, ccr16)
    eye = np.eye(ccr16.big.shape[0])
    for u in range(grid.node_count):
        assert np.array_equal(t_mats[u], eye)
    s_path = forward_csk_evolution(path, ccr16)
    assert np.linalg.norm(s_path.mats[-1] - eye) > 1e-3


def _full_size_t_nodes(f_path, ccr, s_path):
    """T_u by the full-size step: conj(S_mid) dT = 4i h Lambda (Re W) S_mid
    solved densely, S_mid the average of two full nodes."""
    t_u = np.eye(ccr.big.shape[0], dtype=complex)
    nodes = [t_u]
    for u, mid in enumerate(solvers._Midpoints(f_path)):
        s_mid = 0.5 * (s_path.mats[u] + s_path.mats[u + 1])
        rhs = (4j * ccr.grid.step) * (ccr.big @ mid.weights.real @ s_mid)
        t_u = t_u + np.linalg.solve(np.conj(s_mid), rhs)
        nodes.append(t_u)
    return nodes


def test_t_route_nodes_equal_the_full_size_step(model2, pi2):
    # N = 16: the corner atom (|C| = 2n) and the recovered driver (|C| = k);
    # gaps are relative to ||T_u - I|| (measured at most 5.4e-17)
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    eye = np.eye(ccr.big.shape[0])
    recovered = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
    for f_path in (corner_atom_path(grid, pi2), recovered):
        s_path = forward_csk_evolution(f_path, ccr)
        reference = _full_size_t_nodes(f_path, ccr, s_path)
        t_mats = forward_t_evolution(f_path, ccr)
        assert len(t_mats) == len(reference)
        for u, want in enumerate(reference):
            gap = np.linalg.norm(t_mats[u] - want)
            assert gap <= 1e-13 * np.linalg.norm(want - eye), (u, gap)


def test_t_route_keeps_the_flow_widths_as_read_only_blocks(model2, pi2):
    # T_u is stored as T_u[:, :k_u], k_u the stored width of S_u, for the
    # corner atom (|C| = 2n) and the recovered driver (|C| = k)
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    recovered = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
    for f_path in (corner_atom_path(grid, pi2), recovered):
        s_mats = forward_csk_evolution(f_path, ccr).mats
        t_mats = forward_t_evolution(f_path, ccr)
        assert len(t_mats) == len(s_mats)
        for u in range(len(s_mats)):
            block = t_mats.live(u)
            assert block.shape == s_mats.live(u).shape, u
            assert not block.flags.writeable


def test_two_route_agreement_refines_at_second_order(model2, pi2):
    residuals = []
    for steps in (8, 16):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model2, grid)
        residuals.append(t_route_residual(corner_atom_path(grid, pi2), ccr))
    assert residuals[1] < residuals[0]
    order = np.log2(residuals[0] / residuals[1])
    assert 1.5 <= order <= 3.0


def test_t_route_check_runs_no_extraction(ccr16, pi2, monkeypatch):
    # The factorized T is formed from the flow itself: no extraction,
    # logarithm (the series route of an extracted node or the anchored
    # csk_log) or kernel solve runs inside the check.
    names = ("qef_from_csk_path", "_extract_node", "csk_log")
    zero = dict.fromkeys((*names, "solve_measure"), 0)
    counts = dict(zero)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
    monkeypatch.setattr(
        KernelSolver,
        "solve_measure",
        counting("solve_measure", KernelSolver.solve_measure),
    )
    residual = t_route_residual(corner_atom_path(ccr16.grid, pi2), ccr16)
    assert 0.0 < residual < 1e-2
    assert counts == zero


def test_roundtrip_atomic_closes_through_the_flow(model2, pi2):
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    report = roundtrip_f_residual(corner_atom_path(grid, pi2), ccr)
    # The regenerated flow reproduces the measure path to rounding; the
    # midpoint driver gap stays at the O(||Pi||^2) phase offset, which
    # identifies the atomic input as a non-canonical representative.
    assert report.invariant_residual <= 1e-9
    assert report.direct_residual > 1e-5


def test_roundtrip_direct_gap_closes_on_canonical_drivers(model2, pi2):
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    inverse = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr)
    report = roundtrip_f_residual(inverse.f_path, ccr)
    assert report.invariant_residual <= 1e-9
    assert report.direct_residual <= 1e-5


def test_roundtrip_n_direction_small(model2, pi2):
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    residual = roundtrip_n_residual(diagonal_lebesgue_path(grid, pi2), ccr)
    assert residual <= 1e-6


def test_inverse_needs_no_markov_structure_in_the_kernel(pi2):
    # A random antisymmetric kernel has no state-space propagation of its
    # rows; the inverse step's rows below the leading k x k block, formed
    # by the kernel solve from its leading-block solution, still pass the
    # solve gate at rounding (measured 5.0e-15 relative)
    grid = make_grid(1.0, 8)
    r = np.random.default_rng(0).normal(size=(18, 18))
    ccr = CcrKernel(grid, r - r.T)
    assert max(np.linalg.cond(ccr.big[:k, :k]) for k in range(2, 19, 2)) < 1e3
    result = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr)
    for report in result.solve_reports:
        assert report.relative <= 1e-12
    assert np.linalg.norm(result.f_path.entries[-1].weights) > 0.1


def test_zero_kernel_inverts_to_zero_drivers(pi2):
    # the zero kernel and each of its leading blocks are singular: every
    # solve of the inverse step falls back to least squares
    grid = make_grid(1.0, 4)
    ccr = CcrKernel(grid, np.zeros((10, 10)))
    result = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr)
    for entry in result.f_path.entries:
        assert not entry.weights.any()


def test_asymmetric_superop_image_trips_the_inverse_solve_gate(ccr16, pi2, monkeypatch):
    # Lambda M is the image of a symmetric M; an antisymmetric term added
    # to the k x k block the superoperator returns leaves the symmetrized
    # solution short of the whole right-hand side, rows below k included
    ups = solvers.ups_superop
    r = np.random.default_rng(3).normal(size=ccr16.big.shape)

    def skewed(x, y):
        top, err = ups(x, y)
        k = len(top)
        skew = r[:k, :k] - r[:k, :k].T
        return top + 1e-3 * np.linalg.norm(top) * skew / np.linalg.norm(skew), err

    monkeypatch.setattr(solvers, "ups_superop", skewed)
    with pytest.raises(NumericalFailure, match="kernel solve residual"):
        inverse_toe_measure(diagonal_lebesgue_path(ccr16.grid, pi2), ccr16)


def test_staggered_inverse_reproduces_flow(model2, pi2):
    grid = make_grid(1.0, 12)
    ccr = build_ccr_kernel(model2, grid)
    qef = forward_qef_measure(corner_atom_path(grid, pi2), ccr)
    recovered = staggered_inverse_measures(qef.measures, ccr)
    assert len(recovered) == grid.steps
    regen = csk_path_from_midpoints(recovered, ccr)
    check = qef_from_csk_path(regen, ccr)
    for u in range(grid.node_count):
        gap = kernel_weighted_norm(
            ccr, check.measures[u].weights - qef.measures[u].weights
        )
        scale = 1.0 + kernel_weighted_norm(ccr, qef.measures[u].weights)
        assert gap <= 1e-9 * scale


def test_staggered_inverse_checks_its_measures(model2, ccr16, pi2):
    # exactly N + 1 measures, each on the kernel's grid with its dim
    grid = ccr16.grid
    ok = [diagonal_lebesgue_measure(grid, u, pi2) for u in range(grid.node_count)]
    for miscounted in (ok[:-1], ok + ok[:1], []):
        with pytest.raises(ValueError, match=f"need 17 measures, got {len(miscounted)}"):
            staggered_inverse_measures(miscounted, ccr16)
    # T = 1 measures against a T = 2 kernel
    ccr_t2 = build_ccr_kernel(model2, make_grid(2.0, 16))
    with pytest.raises(ValueError, match="measure 0 is not on the kernel's grid"):
        staggered_inverse_measures(ok, ccr_t2)
    wide = list(ok)
    wide[3] = zero_measure(grid, 3)
    with pytest.raises(ValueError, match="measure 3 is not on the kernel's grid"):
        staggered_inverse_measures(wide, ccr16)


def test_midpoint_count_is_validated(ccr16):
    grid = ccr16.grid
    with pytest.raises(ValueError, match="midpoint"):
        csk_path_from_midpoints([zero_measure(grid, 2)] * 3, ccr16)
    # each midpoint is a measure on the kernel's grid with its dim
    for other, dim in ((grid, 3), (make_grid(2.0, 16), 2), (make_grid(1.0, 8), 2)):
        mids = [zero_measure(grid, 2)] * grid.steps
        mids[5] = zero_measure(other, dim)
        with pytest.raises(ValueError, match="midpoint 5 is not on the kernel's grid"):
            csk_path_from_midpoints(mids, ccr16)


def test_psi_corner_tends_to_pi(model2, pi2):
    errors = []
    for steps in (16, 32):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model2, grid)
        path = diagonal_lebesgue_path(grid, pi2)
        u = steps // 2
        psi = qef_psi_measure(path.entries[u], path.derivative_entries[u], ccr)
        errors.append(np.linalg.norm(psi.corner_block - pi2))
        assert psi.reality_residual <= 1e-9
        assert np.isfinite(psi.interior_mass)
        assert np.isfinite(psi.edge_mass)
        assert psi.corner_mass == pytest.approx(
            np.linalg.norm(psi.corner_block)
        )
    assert errors[1] < errors[0]
    assert errors[1] <= 0.6 * errors[0]


def _max_node_gap(path, reference):
    return max(
        float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))
        for a, b in zip(path.mats, reference.mats)
    )


def test_spde_fast_path_matches_general(model2, pi2):
    grid = make_grid(1.0, 32)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    fast = spde_fast_path(model2, pi2, grid)
    general = forward_csk_evolution(f_path, ccr)
    assert np.array_equal(fast.mats, general.mats)
    assert _max_node_gap(general, _dense_csk_evolution(f_path, ccr)) <= 1e-13
    with pytest.raises(ValueError, match="symmetric"):
        spde_fast_path(model2, np.array([[0.0, 1.0], [0.0, 0.0]]), grid)
    with pytest.raises(ValueError, match="pi must be 2 x 2"):
        spde_fast_path(model2, np.eye(3), grid)


def test_spde_fast_path_is_the_corner_atom_flow(model2, pi2):
    # bit for bit, also for a Pi asymmetric within the 1e-12 the check
    # allows: both routes integrate the symmetrized corner atoms
    grid = make_grid(1.0, 32)
    ccr = build_ccr_kernel(model2, grid)
    skew = pi2 + np.array([[0.0, 2e-13], [-1e-13, 0.0]])
    for pi in (pi2, skew):
        fast = spde_fast_path(model2, pi, grid)
        general = forward_csk_evolution(corner_atom_path(grid, pi), ccr)
        for u in range(grid.node_count):
            assert np.array_equal(fast.mats.live(u), general.mats.live(u)), u
    assert not np.array_equal(
        spde_fast_path(model2, skew, grid).mats[-1],
        spde_fast_path(model2, pi2, grid).mats[-1],
    )


def test_extracted_measures_store_their_support_block(ccr16, pi2):
    # node u of the flow's measure path keeps a window inside [0..u]^2
    n = ccr16.dim
    qef = forward_qef_measure(corner_atom_path(ccr16.grid, pi2), ccr16)
    for u, q in enumerate(qef.measures):
        assert q._hi <= (u + 1) * n, (u, q._lo, q._hi)
        assert q.support_index <= u
    assert qef.measures[-1]._window.shape == (ccr16.grid.node_count * n,) * 2


def test_recovered_driver_matches_the_dense_reference(model2, pi2):
    # drivers recovered by the inverse map fill [0, t_{u+1}]^2, so the
    # live columns grow to the full kernel size along the path
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    f_path = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
    s_path = forward_csk_evolution(f_path, ccr)
    assert _max_node_gap(s_path, _dense_csk_evolution(f_path, ccr)) <= 1e-12
    assert s_path.validate() <= 1e-10


def test_full_support_driver_matches_the_exponential_loop(ccr16, rng):
    grid = ccr16.grid
    mids = [random_measure(rng, grid, 2, scale=0.02) for _ in range(grid.steps)]
    s_path = csk_path_from_midpoints(mids, ccr16)
    mats = [np.eye(ccr16.big.shape[0])]
    for q in mids:
        mats.append(expm(2j * grid.step * (ccr16.big @ q.weights)) @ mats[-1])
    # every column is live at every step; the gap (2.7e-15 measured) is
    # mostly the Pade loop's own: against 40 digits it is 2.9e-15 off,
    # the series step 4.4e-16
    gap = np.abs(s_path.mats - np.array(mats)).max()
    assert gap <= 1e-14, gap


def test_integrator_takes_no_dense_exponential(model2, pi2, rng, monkeypatch):
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    recovered = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
    drivers = (
        solvers._Midpoints(corner_atom_path(grid, pi2)),
        solvers._Midpoints(recovered),
        [random_measure(rng, grid, 2, scale=0.02)] * grid.steps,
    )
    calls = []
    monkeypatch.setattr(solvers, "expm", lambda m: calls.append(m) or expm(m))
    for mids in drivers:
        csk_path_from_midpoints(mids, ccr)
    assert calls == []


def _mp_step_reference(mp, mids, ccr):
    """The midpoint flow with each step taken as mp.expm(M_u) S_u in 40
    digits, from the float generator M_u = 2i h Lambda W_u the integrator
    forms on the live columns C of the midpoint masses W_u."""
    size = ccr.big.shape[0]
    with mp.workdps(40):
        s_mp = mp.eye(size)
        mats = [np.eye(size, dtype=complex)]
        for q in mids:
            w = q.weights
            cols = np.flatnonzero(w.any(axis=0))
            rows = np.flatnonzero(w[:, cols].any(axis=1))
            m = np.zeros((size, size), dtype=complex)
            m[:, cols] = (2j * ccr.grid.step) * (ccr.big[:, rows] @ w[rows][:, cols])
            s_mp = mp.expm(mp.matrix(m.tolist())) * s_mp
            rows_out = [[complex(s_mp[i, j]) for j in range(size)] for i in range(size)]
            mats.append(np.array(rows_out))
    return mats


def test_live_column_steps_match_a_40_digit_exponential(model2, pi2):
    # The N = 8 recovered-driver flow, in step order and reversed: the
    # reversed order narrows C after a full-width step, so the update
    # must reach the running live width k rather than C's own.
    mp = pytest.importorskip("mpmath")
    grid = make_grid(1.0, 8)
    ccr = build_ccr_kernel(model2, grid)
    recovered = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
    mids = list(solvers._Midpoints(recovered))
    for order in (mids, mids[::-1]):
        s_path = csk_path_from_midpoints(order, ccr)
        reference = _mp_step_reference(mp, order, ccr)
        error = max(
            float(np.linalg.norm(got - want) / np.linalg.norm(want))
            for got, want in zip(s_path.mats, reference)
        )
        assert error <= 1e-15, error


def test_integrators_hand_over_one_read_only_stack(model2, pi2):
    # every path keeps read-only live blocks that alias no caller memory;
    # a dense stack is compressed to the same blocks, never adopted
    grid = make_grid(1.0, 8)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    general = forward_csk_evolution(f_path, ccr)
    mids = [
        KernelMeasure(grid, 0.5 * (a.weights + b.weights))
        for a, b in zip(f_path.entries, f_path.entries[1:])
    ]
    stack = np.array([general.mats[u] for u in range(grid.node_count)])
    view = stack[:]
    view.setflags(write=False)
    size = ccr.big.shape[0]
    compressed = [
        CskPath(grid, ccr, LiveColumns.from_dense(stack, size)),
        CskPath(grid, ccr, LiveColumns.from_dense(view, size)),
    ]
    stack[grid.steps] += 1.0
    fast = spde_fast_path(model2, pi2, grid)
    paths = (general, csk_path_from_midpoints(mids, ccr), fast, *compressed)
    for path in paths:
        assert path.mats.shape == (grid.node_count, *ccr.big.shape)
        assert path.mats.nbytes == general.mats.nbytes
        for u in range(grid.node_count):
            block = path.mats.live(u)
            assert np.array_equal(block, general.mats.live(u))
            assert np.array_equal(path.mats[u], general.mats[u])
            assert not np.shares_memory(block, stack)
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[...] = 0.0
            with pytest.raises(ValueError):
                path.mats[u][0, 0] = 0.0
    # negative indices and iteration read the nodes as stored, not the
    # caller's stack edited since; slices are not supported
    assert np.array_equal(general.mats[-1], general.mats[grid.steps])
    same = [np.array_equal(a, b) for a, b in zip(general.mats, stack)]
    assert same == [True] * grid.steps + [False]
    assert len(list(general.mats)) == len(general.mats) == grid.node_count
    with pytest.raises(TypeError):
        general.mats[1:3]
    with pytest.raises(IndexError):
        general.mats[grid.node_count]


def test_residual_of_the_live_block_is_the_full_node_residual(model2, pi2):
    # the stored block, the block widened by identity columns and the full
    # node all reduce to the same live columns, so the pairs agree bit for bit
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    s_path = forward_csk_evolution(corner_atom_path(grid, pi2), ccr)
    for u in range(grid.node_count):
        full = symplectic_residual_raw(s_path.mats[u], ccr.big)
        block = s_path.mats.live(u)
        wider = s_path.mats[u][:, : block.shape[1] + ccr.dim]
        assert symplectic_residual_raw(block, ccr.big) == full, u
        assert symplectic_residual_raw(wider, ccr.big) == full, u


def test_csk_path_takes_only_a_live_column_stack(ccr16, pi2):
    flow = forward_csk_evolution(corner_atom_path(ccr16.grid, pi2), ccr16)
    stack = np.array(list(flow.mats))
    for mats in (stack, list(stack)):
        with pytest.raises(TypeError, match="LiveColumns.from_dense"):
            CskPath(ccr16.grid, ccr16, mats)
    nodes = iter(stack)  # any iterable of full nodes, consumed once
    path = CskPath(ccr16.grid, ccr16, LiveColumns.from_dense(nodes, len(ccr16.big)))
    assert path.mats.nbytes == flow.mats.nbytes


def test_reference_routes_hold_no_dense_stack(model2, pi2):
    # N = 64: the reference flow compresses each node as it is formed, and
    # the T route keeps T_u's live columns beside the flow's
    grid = make_grid(1.0, 64)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    size = ccr.big.shape[0]
    stack_bytes = grid.node_count * size * size * 16
    for fn, bound in ((_dense_csk_evolution, 0.75), (forward_t_evolution, 1.25)):
        tracemalloc.start()
        try:
            fn(f_path, ccr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * stack_bytes, (fn.__name__, peak / stack_bytes)


def test_roundtrip_residual_peak_memory_stays_within_two_stacks(model2, pi2):
    # the regenerated flow reads the recovered midpoint measures on their
    # windows, so no list of N full midpoint matrices is held
    grid = make_grid(1.0, 64)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    size = ccr.big.shape[0]
    stack_bytes = grid.node_count * size * size * 16
    tracemalloc.start()
    try:
        roundtrip_f_residual(f_path, ccr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * stack_bytes, peak / stack_bytes


def test_integrators_and_extraction_peak_memory_stay_near_one_stack(model2, pi2):
    grid = make_grid(1.0, 32)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    size = ccr.big.shape[0]
    stack_bytes = grid.node_count * size * size * 16

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(forward_csk_evolution, f_path, ccr) <= 1.5 * stack_bytes
    assert peak(spde_fast_path, model2, pi2, grid) <= 1.5 * stack_bytes
    # all-node extraction keeps the measures and per-node temporaries only
    s_path = forward_csk_evolution(f_path, ccr)
    assert peak(qef_from_csk_path, s_path, ccr) <= 1.5 * stack_bytes
    # the T-route check holds the flow and compares T node by node
    assert peak(t_route_residual, f_path, ccr) <= 1.5 * stack_bytes


def _n16_flows(model2, pi2):
    """The corner-atom flow, the flow of the driver recovered from the
    diagonal path, the regenerated flow of the corner-atom roundtrip and
    the dense reference flow, at N = 16, with the midpoint measures each
    was integrated from."""
    grid = make_grid(1.0, 16)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    corner = forward_csk_evolution(f_path, ccr)
    recovered = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
    qef = qef_from_csk_path(corner, ccr)
    staggered = staggered_inverse_measures(qef.measures, ccr)
    flows = {
        "corner-atom": corner,
        "recovered driver": forward_csk_evolution(recovered, ccr),
        "regenerated": csk_path_from_midpoints(staggered, ccr),
        "dense": _dense_csk_evolution(f_path, ccr),
    }
    mids = {
        "corner-atom": list(solvers._Midpoints(f_path)),
        "recovered driver": list(solvers._Midpoints(recovered)),
        "regenerated": staggered,
        "dense": list(solvers._Midpoints(f_path)),
    }
    return ccr, flows, mids


def _dense_update_loop(mids, ccr):
    """The integrator's live-column update on a dense (N + 1, size, size)
    stack: S_{u+1} = S_u, then S_{u+1}[:, :k] += M_C Ups(M_CC) S_u[C, :k]."""
    size = ccr.big.shape[0]
    mats = np.empty((len(mids) + 1, size, size), dtype=complex)
    mats[0] = np.eye(size)
    k = 0
    for u, q in enumerate(mids):
        w = q.weights
        mats[u + 1] = mats[u]
        cols = np.flatnonzero(w.any(axis=0))
        if cols.size == 0:
            continue
        rows = np.flatnonzero(w[:, cols].any(axis=1))
        m_cols = (2j * ccr.grid.step) * (ccr.big[:, rows] @ w[:, cols][rows])
        k = max(k, int(cols[-1]) + 1)
        mats[u + 1, :, :k] += m_cols @ (_ups_series(m_cols[cols]) @ mats[u, cols, :k])
    return mats


def _dense_expm_loop(mids, ccr):
    """expm(M_u) @ S_u on dense matrices, as the reference integrator steps,
    with the library's expm so that both sides run the same arithmetic."""
    mats = [np.eye(ccr.big.shape[0], dtype=complex)]
    for q in mids:
        step = solvers.expm(2j * ccr.grid.step * (ccr.big @ q.weights))
        mats.append(step @ mats[-1])
    return mats


def test_live_columns_equal_the_dense_stack_loops(model2, pi2):
    # storing the live blocks changes no bit: each node equals the same
    # arithmetic run on a dense stack
    ccr, flows, mids = _n16_flows(model2, pi2)
    for name, s_path in flows.items():
        loop = _dense_expm_loop if name == "dense" else _dense_update_loop
        reference = loop(mids[name], ccr)
        assert len(s_path.mats) == len(reference)
        for u, want in enumerate(reference):
            assert np.array_equal(s_path.mats[u], want), (name, u)


def test_corner_atom_flow_stores_its_live_columns_only(model2, pi2):
    # N = 32: node u keeps size x k_u entries, k_0 = 0 and k_u = (u + 1) n
    grid = make_grid(1.0, 32)
    ccr = build_ccr_kernel(model2, grid)
    size, n = ccr.big.shape[0], ccr.dim
    widths = [0] + [(u + 1) * n for u in range(1, grid.node_count)]
    for s_path in (
        forward_csk_evolution(corner_atom_path(grid, pi2), ccr),
        spde_fast_path(model2, pi2, grid),
    ):
        assert [s_path.mats.live(u).shape for u in range(grid.node_count)] == [
            (size, k) for k in widths
        ]
        assert s_path.mats.nbytes == sum(size * k * 16 for k in widths)


def test_integrators_peak_memory_stays_below_one_dense_stack(model2, pi2):
    # the live blocks hold about half a dense stack, and no stack is formed
    grid = make_grid(1.0, 32)
    ccr = build_ccr_kernel(model2, grid)
    f_path = corner_atom_path(grid, pi2)
    size = ccr.big.shape[0]
    stack_bytes = grid.node_count * size * size * 16
    for fn, args in (
        (forward_csk_evolution, (f_path, ccr)),
        (spde_fast_path, (model2, pi2, grid)),
    ):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * stack_bytes, (fn.__name__, peak / stack_bytes)


def test_flows_are_the_identity_beyond_the_live_block(model2, pi2):
    # S_u = [[A, 0], [B, I]] with A of size (u + 1) n: exactly, not to rounding
    ccr, flows, _ = _n16_flows(model2, pi2)
    eye = np.eye(ccr.big.shape[0])
    for name, s_path in flows.items():
        for u, s_u in enumerate(s_path.mats):
            k = (u + 1) * ccr.dim
            assert np.array_equal(s_u[:, k:], eye[:, k:]), (name, u)


def test_border_rows_are_propagated_from_the_node_row(model2, pi2):
    # rows j > u of S_u[:, :k] are E^(j - u) (R_u - [0 ... 0 I]), R_u the
    # node-u rows of the live block and E = expm(h drift)
    ccr, flows, _ = _n16_flows(model2, pi2)
    n = ccr.dim
    e_step = expm(ccr.grid.step * model2.drift)
    for name, s_path in flows.items():
        for u, s_u in enumerate(s_path.mats):
            k = (u + 1) * n
            live = s_u[:, :k]
            scale = max(1.0, float(np.abs(s_u).max()))
            row = live[u * n : k] - np.eye(n, k, k - n)
            for j in range(u + 1, ccr.grid.node_count):
                row = e_step @ row
                gap = np.abs(live[j * n : (j + 1) * n] - row).max()
                assert gap <= 1e-15 * scale, (name, u, j, gap)


def _full_size_measure(s_u, ccr, u):
    """Extraction written out on full size x size matrices: the offset
    solve, the Gregory series of 2 atanh(Z) and the kernel solve, then
    symmetrization and projection onto [0, t_u]^2."""
    eye = np.eye(s_u.shape[0])
    offset = np.linalg.solve(np.conj(s_u), 2j * s_u.imag)
    z = np.linalg.solve(2.0 * eye + offset, offset)
    z2 = z @ z
    term, acc, degree = z, z.copy(), 1
    while np.linalg.norm(term) > 1e-20 * (1.0 + np.linalg.norm(acc)):
        term = term @ z2
        degree += 2
        acc = acc + term / degree
    raw = np.linalg.solve(ccr.big, 2.0 * acc / 4j)
    weights = 0.5 * (raw + raw.T)
    edge = (u + 1) * ccr.dim
    weights[:, edge:] = 0.0
    weights[edge:, :] = 0.0
    return weights


def test_block_extraction_matches_full_size_formulas(model2, pi2):
    # each flow, the dense reference included, is extracted at every
    # node on its live block and agrees with the full-size computation
    ccr, flows, _ = _n16_flows(model2, pi2)
    extracted = {name: qef_from_csk_path(s_path, ccr) for name, s_path in flows.items()}
    for name, s_path in flows.items():
        for u, measure in enumerate(extracted[name].measures):
            reference = _full_size_measure(s_path.mats[u], ccr, u)
            assert np.abs(measure.weights - reference).max() <= 1e-14, (name, u)
    pairs = zip(extracted["corner-atom"].measures, extracted["dense"].measures)
    for got, want in pairs:
        assert np.abs(got.weights - want.weights).max() <= 1e-14


def test_g_path_zero_driver(ccr16):
    path = zero_path(ccr16.grid, ccr16.dim)
    g_path, ys, reports = g_path_magnus(path, ccr16)
    assert all(np.linalg.norm(y) == 0.0 for y in ys)
    assert all(np.linalg.norm(q.weights) == 0.0 for q in g_path.entries)


def test_g_path_refuses_a_path_on_another_grid(model2, pi2):
    # the first Bernoulli input is refused before any step integrates
    ccr = build_ccr_kernel(model2, make_grid(1.0, 8))
    with pytest.raises(ValueError, match="grid mismatch"):
        g_path_magnus(corner_atom_path(make_grid(2.0, 8), pi2), ccr)


def test_g_path_refuses_a_path_of_another_dimension(model2):
    ccr = build_ccr_kernel(model2, make_grid(1.0, 8))
    with pytest.raises(ValueError, match="n = 4"):
        g_path_magnus(corner_atom_path(ccr.grid, 0.1 * np.eye(4)), ccr)


def test_kernel_paths_and_matrices_refuse_another_grid(model2, pi2):
    # same node count, so only the grid check can tell the two apart
    ccr = build_ccr_kernel(model2, make_grid(1.0, 8))
    path = forward_csk_evolution(corner_atom_path(ccr.grid, pi2), ccr)
    other = make_grid(2.0, 8)
    with pytest.raises(ValueError, match="grids differ"):
        CskPath(other, ccr, path.mats)
    with pytest.raises(ValueError, match="grids differ"):
        CskMatrix(other, np.eye(ccr.big.shape[0]), ccr)


def test_extraction_refuses_a_path_of_another_kernel(pi2):
    # same grid, another model: refused before any node is extracted
    grid = make_grid(1.0, 8)
    ccr, other = (
        build_ccr_kernel(random_model(np.random.default_rng(seed)), grid)
        for seed in (7, 8)
    )
    path = forward_csk_evolution(corner_atom_path(grid, pi2), ccr)
    with pytest.raises(ValueError, match="another kernel"):
        qef_from_csk_path(path, other)
    # an equal kernel built anew is the same kernel
    same = build_ccr_kernel(random_model(np.random.default_rng(7)), grid)
    assert qef_from_csk_path(path, same, nodes=[8]).node_indices == (8,)


def test_g_path_exponent_matches_flow(model2, pi2):
    gaps = []
    for steps in (16, 32):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model2, grid)
        f_path = corner_atom_path(grid, 0.5 * pi2)
        g_path, ys, _ = g_path_magnus(f_path, ccr)
        s_path = forward_csk_evolution(f_path, ccr)
        terminal = expm(4j * ys[-1])
        gaps.append(
            np.linalg.norm(terminal - s_path.mats[-1])
            / (1.0 + np.linalg.norm(s_path.mats[-1]))
        )
    assert gaps[0] <= 1e-4 and gaps[1] <= 1e-4
    assert gaps[1] <= 0.4 * gaps[0]


def test_g_path_is_half_the_measure_on_canonical_drivers(model2, pi2):
    # The factor-of-two relation between exponent and measure holds at
    # scheme order on the canonical driver class; an atomic driver
    # stalls at its phase gap instead, like the direct roundtrip.
    half_gaps = []
    for steps in (16, 32):
        grid = make_grid(1.0, steps)
        ccr = build_ccr_kernel(model2, grid)
        f_path = inverse_toe_measure(diagonal_lebesgue_path(grid, pi2), ccr).f_path
        g_path, _, _ = g_path_magnus(f_path, ccr)
        s_path = forward_csk_evolution(f_path, ccr)
        qef = qef_from_csk_path(s_path, ccr, nodes=[steps])
        diff = g_path.entries[-1].weights - 0.5 * qef.measures[0].weights
        half_gaps.append(
            kernel_weighted_norm(ccr, diff)
            / kernel_weighted_norm(ccr, qef.measures[0].weights)
        )
    assert half_gaps[0] <= 1e-3
    assert half_gaps[1] <= 0.4 * half_gaps[0]


def test_chk_column_function_interpolates_nodes(model2, pi2):
    grid = make_grid(1.0, 6)
    ccr = build_ccr_kernel(model2, grid)
    q = diagonal_lebesgue_path(grid, pi2).entries[-1]
    col = 2
    column = chk_column_function(model2, q, col)
    ham = ccr.big @ q.weights
    n = model2.dim
    for j in (0, 3, 6):
        block = ham[j * n : (j + 1) * n, col * n : (col + 1) * n]
        assert np.allclose(column(grid.nodes[j]), block, atol=1e-12)


def _laplace_demo_model():
    from quadexp import OqhoModel

    return OqhoModel(
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[-0.5, 0.3], [-0.3, -0.5]]),
        np.eye(2),
    )


def _laplace_scenario_measure(grid, pi):
    """Block column 0 of the laplace task's measure: masses (l + 1) pi / (N + 1)."""
    n = pi.shape[0]
    count = grid.node_count
    w = np.zeros((n * count, n * count))
    for l in range(count):
        w[l * n : (l + 1) * n, 0:n] = pi * (l + 1) / count
        w[0:n, l * n : (l + 1) * n] = (pi * (l + 1) / count).T
    return KernelMeasure(grid, w)


def _column_sum(model, q, col, t):
    """sum_l Lambda(t - t_l) W[l, col], one two-point kernel per node."""
    return sum(
        ccr_two_point(model, t - t_l) @ q.block(l, col)
        for l, t_l in enumerate(q.grid.nodes)
    )


def _column_scale(model, q, col, t):
    """sum_l |Lambda(t - t_l)| |W[l, col]|, the size of the sum's terms."""
    return sum(
        np.linalg.norm(ccr_two_point(model, t - t_l)) * np.linalg.norm(q.block(l, col))
        for l, t_l in enumerate(q.grid.nodes)
    )


@pytest.mark.parametrize("which", ["readme", "random4"])
def test_chk_column_matches_the_node_sum(which):
    if which == "readme":
        model = build_from_energy_coupling(
            theta=np.array([[0.0, 0.5], [-0.5, 0.0]]),
            energy=np.eye(2),
            coupling=np.eye(2),
        )
    else:
        model = random_model(np.random.default_rng(3), n=4, m=2)
    grid = make_grid(2.0, 8)
    q = random_measure(np.random.default_rng(5), grid, model.dim)
    off_nodes = np.linspace(0.01, 1.99, 13)
    outside = [-3.0, -0.1, -1e-9, 2.0 + 1e-9, 2.1, 5.0]
    for col in (0, 3, 8):
        column = chk_column_function(model, q, col)
        for t in [*grid.nodes, *off_nodes, *outside]:
            gap = np.abs(column(t) - _column_sum(model, q, col, t)).max()
            assert gap <= 1e-13 * _column_scale(model, q, col, t), (col, t)


def test_chk_column_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    model = _laplace_demo_model()
    grid = make_grid(8.0, 4)
    q = _laplace_scenario_measure(grid, np.array([[0.2, 0.06], [0.06, 0.16]]))
    column = chk_column_function(model, q, 0)
    drift = mp.matrix(model.drift.tolist())
    theta = mp.matrix(model.theta.tolist())

    def relative_error(t):
        with mp.workdps(40):
            exact = mp.zeros(2, 2)
            for l, t_l in enumerate(grid.nodes):
                tau = mp.mpf(t) - mp.mpf(t_l)
                if tau >= 0:
                    lam = mp.expm(tau * drift) * theta
                else:
                    lam = theta * mp.expm(-tau * drift.T)
                exact += lam * mp.matrix(q.block(l, 0).real.tolist())
            exact = np.array(exact.tolist(), dtype=complex)
        return np.abs(column(t) - exact).max() / _column_scale(model, q, 0, t)

    inside = max(relative_error(t) for t in np.linspace(0.0, 8.0, 41))
    beyond = np.linspace(0.5, 60.0, 12)
    tails = max(relative_error(t) for t in np.concatenate([-beyond, 8.0 + beyond]))
    # the N + 1-exponential node sum measures 8.2e-15 and 6.5e-13 here
    assert inside <= 8.2e-15
    assert tails <= 2 * 6.5e-13


@pytest.mark.parametrize("steps", [4, 32])
def test_chk_column_takes_at_most_two_exponentials_per_point(monkeypatch, steps):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    # the column's own exponentials, and any it takes through the model
    monkeypatch.setattr(solvers, "expm", counted)
    monkeypatch.setattr(model_module, "expm", counted)
    model = _laplace_demo_model()
    grid = make_grid(8.0, steps)
    q = random_measure(np.random.default_rng(2), grid, 2)
    column = chk_column_function(model, q, 1)
    for t in [-5.0, *grid.nodes, 0.3, 3.3, 7.9, 8.0, 20.0]:
        calls.clear()
        column(t)
        assert len(calls) <= 2
        assert all(shape == (2, 2) for shape in calls)


@pytest.mark.parametrize("block_col", [5, -1, 1.5, "0", None])
def test_chk_column_rejects_a_bad_block_column(block_col):
    grid = make_grid(8.0, 4)
    q = KernelMeasure(grid, np.zeros((10, 10)))
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        chk_column_function(_laplace_demo_model(), q, block_col)


def test_chk_column_refuses_a_measure_of_another_dimension():
    # an n = 4 measure against an n = 2 model used to fail inside matmul
    grid = make_grid(8.0, 4)
    q = KernelMeasure(grid, np.zeros((20, 20)))
    with pytest.raises(ValueError, match="measure has n = 4, the model n = 2"):
        chk_column_function(_laplace_demo_model(), q, 0)


def test_chk_column_refuses_non_finite_times_and_transform_points():
    # each used to return NaN, and recovery then died inside numpy's SVD
    model = _laplace_demo_model()
    grid = make_grid(8.0, 2)
    column = chk_column_function(model, KernelMeasure(grid, np.zeros((6, 6))), 0)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            column(t)
    for s in (np.nan, complex(0.1, np.nan), complex(0.1, np.inf)):
        with pytest.raises(ValueError, match="s must be finite"):
            column.transform(s)
    with pytest.raises(ValueError, match="s must be finite"):
        laplace_recover_measure(column, [np.nan] * 20)


def _laplace_scenario_samples(model, grid):
    """The laplace task's 2(N + 1) samples, spread over the middle of the strip."""
    width = abs(spectral_abscissa(model))
    count = grid.node_count
    return [width * (0.2 + 0.6 * k / (2 * count - 1)) for k in range(2 * count)]


def _quadrature_transform(column, model, s, tol=1e-9):
    """The column's transform by adaptive quadrature at tol, with both
    tails cut where the integrand falls below tol * 1e-3."""
    from scipy.integrate import quad_vec

    margin = laplace_point(model, s).strip_margin
    tail = -np.log(tol * 1e-3) / margin
    value, _ = quad_vec(
        lambda t: np.exp(-s * t) * column(t),
        -tail,
        column.grid.horizon + tail,
        epsabs=tol,
        epsrel=tol,
        norm="2",
    )
    return value


@pytest.mark.parametrize("which", ["scenario", "random4"])
def test_chk_column_transform_matches_quadrature(which):
    if which == "scenario":
        model = _laplace_demo_model()
        grid = make_grid(8.0, 4)
        q = _laplace_scenario_measure(grid, np.array([[0.2, 0.06], [0.06, 0.16]]))
    else:
        model = random_model(np.random.default_rng(3), n=4, m=2)
        grid = make_grid(2.0, 8)
        q = random_measure(np.random.default_rng(5), grid, model.dim)
    width = abs(spectral_abscissa(model))
    for col in (0, grid.steps // 2):
        column = chk_column_function(model, q, col)
        for s in (0.3 * width, 0.5 * width + 0.4j * width, 0.6 * width):
            exact = column.transform(s)
            quad = _quadrature_transform(column, model, s)
            assert np.abs(exact - quad).max() <= 1e-9 * (1.0 + np.abs(quad).max())
    for s in (0.0, -0.1 * width, width, 1.2 * width + 1j):
        with pytest.raises(ValueError, match="strip"):
            column.transform(s)


def _mp_column_transform(model, q, col, s):
    """40-digit transform of column col: mp.quad on each grid interval and
    on both tails, with e^{tau A} from an eigendecomposition of A."""
    mp = pytest.importorskip("mpmath")
    n = model.dim
    with mp.workdps(40):
        lam, vec = mp.eig(mp.matrix(model.drift.tolist()))
        inv = mp.inverse(vec)
        theta = mp.matrix(model.theta.tolist())

        def flat(m):
            return [x for row in m.tolist() for x in row]

        # Lambda(tau) W_l = sum_m e^{|tau| lam_m} (P_m Theta W_l if tau >= 0,
        # Theta P_m^T W_l if tau < 0), P_m the spectral projectors of A
        terms = []
        for l, t_l in enumerate(q.grid.nodes):
            w = mp.matrix(q.block(l, col).real.tolist())
            for m, lam_m in enumerate(lam):
                proj = vec[:, m] * inv[m, :]
                right, left = flat(proj * theta * w), flat(theta * proj.T * w)
                terms.append((mp.mpf(t_l), lam_m, right, left))
        s = mp.mpmathify(s)
        cache = {}  # the n^2 entries are integrated at the same points

        def integrand(t):
            if t not in cache:
                total = [0] * (n * n)
                for t_l, lam_m, right, left in terms:
                    weight = mp.exp(abs(t - t_l) * lam_m - s * t)
                    for e, c in enumerate(right if t >= t_l else left):
                        total[e] += weight * c
                cache[t] = total
            return cache[t]

        edges = [-mp.inf, *map(mp.mpf, q.grid.nodes), mp.inf]
        entries = [
            mp.fsum(
                mp.quad(lambda t: integrand(t)[e], [lo, hi])
                for lo, hi in zip(edges, edges[1:])
            )
            for e in range(n * n)
        ]
        return np.array(entries, dtype=complex).reshape(n, n)


def test_chk_column_transform_matches_mpmath():
    model = _laplace_demo_model()
    grid = make_grid(8.0, 4)
    q = _laplace_scenario_measure(grid, np.array([[0.2, 0.06], [0.06, 0.16]]))
    column = chk_column_function(model, q, 0)
    for s in (0.12, 0.3 + 0.2j):
        exact = _mp_column_transform(model, q, 0, s)
        gap = np.abs(column.transform(s) - exact).max() / np.abs(exact).max()
        # measured 2.4e-16 and 4.1e-16
        assert gap <= 2e-15, s


def test_laplace_recovery_takes_two_exponentials_per_sample(monkeypatch):
    model = _laplace_demo_model()
    grid = make_grid(8.0, 4)
    q = _laplace_scenario_measure(grid, np.array([[0.2, 0.06], [0.06, 0.16]]))
    column = chk_column_function(model, q, 0)
    samples = _laplace_scenario_samples(model, grid)
    calls = []

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(solvers, "expm", counted)
    monkeypatch.setattr(model_module, "expm", counted)
    laplace_recover_measure(column, samples)
    # one 2n x 2n Van Loan exponential per phi_1 integral, none per node
    assert len(calls) <= 2 * len(samples) + 1
    assert set(calls) == {(4, 4)}


@pytest.mark.parametrize("steps", [2, 3, 4, 5, 6])
def test_laplace_recovery_error_is_rounding_times_the_condition(steps):
    model = _laplace_demo_model()
    grid = make_grid(8.0, steps)
    q = _laplace_scenario_measure(grid, np.array([[0.2, 0.06], [0.06, 0.16]]))
    column = chk_column_function(model, q, 0)
    samples = _laplace_scenario_samples(model, grid)
    masses, condition = laplace_recover_measure(column, samples)
    gaps = [
        np.linalg.norm(masses[l] - q.block(l, 0)) / (1.0 + np.linalg.norm(q.block(l, 0)))
        for l in range(grid.node_count)
    ]
    # the transform is exact, so only rounding, amplified by the moment
    # system, is left; measured 15x to 21x below eps * condition
    assert max(gaps) <= np.finfo(float).eps * condition


def test_laplace_recovery_of_atom_masses(pi2):
    model = _laplace_demo_model()
    grid = make_grid(8.0, 2)
    masses = [0.3 * pi2, 0.7 * pi2, 0.2 * pi2]
    w = np.zeros((6, 6))
    for j, m in enumerate(masses):
        w[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = m
    q = KernelMeasure(grid, w)
    column = chk_column_function(model, q, 0)
    width = abs(spectral_abscissa(model))
    samples = [width * (0.2 + 0.6 * k / 5) for k in range(6)]
    recovered, condition = laplace_recover_measure(column, samples)
    assert condition < 1e6
    # Column 0 of a diagonal measure holds mass only in its (0, 0) block.
    assert np.allclose(recovered[0], masses[0], atol=1e-6)
    assert np.allclose(recovered[1], 0.0, atol=1e-6)
    assert np.allclose(recovered[2], 0.0, atol=1e-6)


def test_laplace_recovery_needs_enough_samples(pi2):
    model = _laplace_demo_model()
    grid = make_grid(8.0, 2)
    q = KernelMeasure(grid, np.zeros((6, 6)))
    column = chk_column_function(model, q, 0)
    with pytest.raises(ValueError, match="samples"):
        laplace_recover_measure(column, [0.3, 0.4])


def test_laplace_recovery_rejects_degenerate_samples(pi2):
    model = _laplace_demo_model()
    grid = make_grid(8.0, 2)
    q = KernelMeasure(grid, np.zeros((6, 6)))
    column = chk_column_function(model, q, 0)
    samples = [0.3, 0.3 + 1e-14, 0.3 + 2e-14]
    with pytest.raises(NumericalFailure, match="condition"):
        laplace_recover_measure(column, samples)
