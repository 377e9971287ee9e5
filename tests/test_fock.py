import tracemalloc

import numpy as np
import pytest

from quadexp import (
    NumericalFailure,
    OqhoModel,
    TruncatedMode,
    VariableSet,
    antisymmetric_remainder,
    build_single_time,
    fock,
    low_levels,
    make_grid,
    make_mode,
    oracle_bracket_check,
    oracle_multitime_check,
    quadratic_form_matrix,
    symplectic_j,
)
from quadexp.cli import bundled_scenario, parse_scenario
from quadexp.model import expm


def test_mode_ccr_projected_exact_but_top_defect():
    mode = make_mode(12)
    comm = mode.position @ mode.momentum - mode.momentum @ mode.position
    defect = comm - 1j * np.eye(12)
    # Unprojected, the truncation dumps a defect of size d - 1 on the
    # top level; below it the canonical commutator is exact.
    assert abs(defect[11, 11]) == pytest.approx(12.0, rel=1e-12)
    keep = low_levels((12,), margin=2)
    assert np.array_equal(keep, np.arange(10))
    assert np.linalg.norm(defect[np.ix_(keep, keep)]) <= 1e-12


def test_mode_validation():
    with pytest.raises(ValueError, match="at least 4"):
        make_mode(3)
    good = make_mode(8)
    with pytest.raises(ValueError, match="Hermitian"):
        TruncatedMode(8, good.position + 1j * np.eye(8), good.momentum)


def test_projector_masks_top_levels():
    keep = low_levels((4, 3), margin=1)
    # the nonzero diagonal of kron(diag(1,1,1,0), diag(1,1,0))
    expected = np.flatnonzero(np.kron([1, 1, 1, 0], [1, 1, 0]))
    assert np.array_equal(keep, expected)


def test_commutator_block_matches_the_dense_projected_commutator(rng):
    # reference: the dense sandwich P [x, y] P with the kron projector
    low = np.diag(np.kron([1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0]))
    x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    y = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    dense = low @ (x @ y - y @ x) @ low
    keep = low_levels((4, 3), margin=1)
    block = fock._commutator_block(x, y, keep)
    assert np.abs(block - dense[np.ix_(keep, keep)]).max() <= 1e-14
    dense[np.ix_(keep, keep)] = 0.0
    assert np.abs(dense).max() == 0.0


def test_single_time_canonical_scaling_gives_number_operator():
    # theta = J/2 puts the variables at the bare canonical pair, so the
    # form with q = I/2 is the oscillator Hamiltonian with spectrum
    # n + 1/2 away from the truncation edge.
    d = 12
    vars_set = build_single_time(0.5 * symplectic_j(2), d)
    ham = quadratic_form_matrix(vars_set, 0.5 * np.eye(2))
    keep = low_levels((d,), margin=2)
    projected = ham[np.ix_(keep, keep)]
    for level in range(d - 2):
        assert projected[level, level].real == pytest.approx(level + 0.5, abs=1e-12)
        assert abs(projected[level, level].imag) <= 1e-12
    off = projected - np.diag(np.diag(projected))
    assert np.linalg.norm(off) <= 1e-12


def test_single_time_matches_arbitrary_table(rng):
    raw = rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    tables = (
        0.5 * (raw - raw.T),
        # repeated block scales: the positive eigenspace is two-dimensional
        q @ (0.5 * symplectic_j(4)) @ q.T,
        # the block scale sits below the diagonal
        -0.5 * symplectic_j(2),
    )
    for theta in tables:
        vars_set = build_single_time(theta, 8)
        assert vars_set.dimension == 8 ** (len(theta) // 2)
        assert vars_set.ccr_residual() <= 1e-10
        for x in vars_set.variables:
            assert np.linalg.norm(x - x.conj().T) <= 1e-12 * (1.0 + np.linalg.norm(x))


def test_single_time_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        build_single_time(np.eye(2), 8)
    with pytest.raises(ValueError, match="even"):
        build_single_time(np.zeros((3, 3)), 8)
    singular = np.zeros((4, 4))
    singular[0, 1] = 1.0
    singular[1, 0] = -1.0
    with pytest.raises(NumericalFailure, match="singular"):
        build_single_time(singular, 8)
    with pytest.raises(NumericalFailure, match="budget"):
        build_single_time(symplectic_j(4), 80)


def test_single_time_refuses_empty_and_non_finite_tables():
    # eigh returns NaN pairs for a NaN table rather than raising
    with pytest.raises(ValueError, match="nonzero size"):
        build_single_time(np.zeros((0, 0)), 8)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            build_single_time(np.array([[0.0, bad], [-bad, 0.0]]), 8)


def test_quadratic_form_validation(rng):
    vars_set = build_single_time(0.5 * symplectic_j(2), 8)
    assert np.linalg.norm(quadratic_form_matrix(vars_set, np.zeros((2, 2)))) == 0.0
    sym = rng.normal(size=(2, 2))
    sym = 0.5 * (sym + sym.T)
    op = quadratic_form_matrix(vars_set, sym)
    assert np.linalg.norm(op - op.conj().T) <= 1e-12 * (1.0 + np.linalg.norm(op))
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_form_matrix(vars_set, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="size"):
        quadratic_form_matrix(vars_set, np.zeros((3, 3)))


def test_antisymmetric_remainder_is_scalar(rng):
    raw = rng.normal(size=(4, 4))
    theta = 0.5 * (raw - raw.T) + symplectic_j(4)
    vars_set = build_single_time(theta, 8)
    anti = rng.normal(size=(4, 4))
    anti = 0.5 * (anti - anti.T)
    residual, scalar = antisymmetric_remainder(vars_set, anti)
    assert scalar == pytest.approx(1j * np.sum(theta * anti))
    assert residual <= 1e-8
    with pytest.raises(ValueError, match="antisymmetric"):
        antisymmetric_remainder(vars_set, np.eye(4))


def test_bracket_check_self_commutes(rng):
    vars_set = build_single_time(0.5 * symplectic_j(2), 12)
    q = rng.normal(size=(2, 2))
    q = 0.5 * (q + q.T)
    report = oracle_bracket_check(vars_set, q, q)
    assert report.passed
    assert report.residual <= 1e-12
    assert report.cutoff == 12


def test_bracket_identity_random_pairs(rng):
    raw = rng.normal(size=(2, 2))
    theta = 0.5 * (raw - raw.T) + 0.4 * symplectic_j(2)
    vars_set = build_single_time(theta, 16)
    for _ in range(5):
        q1 = rng.normal(size=(2, 2))
        q1 = 0.5 * (q1 + q1.T)
        q2 = rng.normal(size=(2, 2))
        q2 = 0.5 * (q2 + q2.T)
        report = oracle_bracket_check(vars_set, q1, q2)
        assert report.passed
        assert report.residual <= 1e-10


def test_bracket_check_fails_on_a_shifted_table(rng):
    theta = 0.5 * symplectic_j(2)
    true_set = build_single_time(theta, 12)
    off = theta + 1e-3 * symplectic_j(2)
    shifted = VariableSet(true_set.modes, true_set.variables, off)
    q1 = rng.normal(size=(2, 2))
    q1 = 0.5 * (q1 + q1.T)
    q2 = rng.normal(size=(2, 2))
    q2 = 0.5 * (q2 + q2.T)
    assert oracle_bracket_check(true_set, q1, q2).passed
    assert not oracle_bracket_check(shifted, q1, q2).passed


def _dense_bracket_residual(vars_set, q1, q2):
    """Kept-level norm of [phi1, phi2] - phi_combo, from full operators."""
    phi1 = quadratic_form_matrix(vars_set, q1)
    phi2 = quadratic_form_matrix(vars_set, q2)
    theta = vars_set.ccr_target
    combo = 4j * (q1 @ theta @ q2 - q2 @ theta @ q1)
    phi_combo = quadratic_form_matrix(vars_set, 0.5 * (combo + combo.T))
    low = np.ix_(vars_set.low_levels(4), vars_set.low_levels(4))
    gap = (phi1 @ phi2 - phi2 @ phi1)[low] - phi_combo[low]
    return float(np.linalg.norm(gap))


@pytest.mark.parametrize("shift", [0.0, 1e-3], ids=["true", "shifted"])
@pytest.mark.parametrize("pairs,cutoff", [(1, 12), (1, 24), (2, 8)])
def test_bracket_check_matches_the_dense_operator_reference(rng, shift, pairs, cutoff):
    k = 2 * pairs
    raw = rng.normal(size=(k, k))
    theta = 0.1 * (raw - raw.T) + symplectic_j(k)
    true_set = build_single_time(theta, cutoff)
    vars_set = VariableSet(
        true_set.modes, true_set.variables, theta + shift * symplectic_j(k)
    )
    q1 = rng.normal(size=(k, k))
    q1 = 0.5 * (q1 + q1.T)
    q2 = rng.normal(size=(k, k))
    q2 = 0.5 * (q2 + q2.T)
    report = oracle_bracket_check(vars_set, q1, q2)
    assert abs(report.residual - _dense_bracket_residual(vars_set, q1, q2)) <= 1e-14
    assert report.passed == (shift == 0.0)


def test_bracket_check_validates_both_forms():
    vars_set = build_single_time(0.5 * symplectic_j(2), 8)
    with pytest.raises(ValueError, match="symmetric"):
        oracle_bracket_check(vars_set, np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="size"):
        oracle_bracket_check(vars_set, np.zeros((3, 3)), np.eye(2))


def test_bracket_check_needs_cutoff_eight():
    vars_set = build_single_time(0.5 * symplectic_j(2), 4)
    with pytest.raises(ValueError, match="at least 8"):
        oracle_bracket_check(vars_set, np.eye(2), np.eye(2))


def test_bracket_residual_stays_at_rounding_across_cutoffs(rng):
    # The projected identity is exact, so residuals are rounding noise
    # that grows mildly with operator norms; the gate is a flat ceiling
    # rather than a monotone decrease.
    q1 = rng.normal(size=(2, 2))
    q1 = 0.5 * (q1 + q1.T)
    q2 = rng.normal(size=(2, 2))
    q2 = 0.5 * (q2 + q2.T)
    for cutoff in (16, 24, 32, 40):
        vars_set = build_single_time(0.5 * symplectic_j(2), cutoff)
        report = oracle_bracket_check(vars_set, q1, q2)
        assert report.residual <= 1e-10


def test_multitime_oracle_single_step(model2):
    grid = make_grid(0.5, 1)
    report = oracle_multitime_check(model2, grid)
    assert report.passed
    assert report.table_residual <= 1e-10
    assert report.equal_time_residual <= report.table_residual + 1e-15
    assert report.bracket_residual <= 1e-8
    assert report.dimension == 64
    assert 0.0 < report.continuum_gap < 1.0


def test_multitime_oracle_two_steps(model2):
    grid = make_grid(0.5, 2)
    report = oracle_multitime_check(model2, grid)
    assert report.passed
    assert report.dimension == 512


def test_multitime_continuum_gap_shrinks_with_step(model2):
    gaps = []
    for horizon in (0.5, 0.25):
        report = oracle_multitime_check(model2, make_grid(horizon, 1))
        gaps.append(report.continuum_gap)
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize(
    "entry,same_node",
    [((2, 0), False), ((0, 3), False), ((2, 3), True)],
    ids=["later-earlier", "earlier-later", "same-node"],
)
def test_multitime_oracle_catches_a_shifted_table_entry(
    model2, monkeypatch, entry, same_node
):
    # (2, 0) sits in the j > k block of the N = 1 table, (0, 3) in the
    # j < k block and (2, 3) inside node 1's own block; the table check
    # must see each entry, not only one of each antisymmetric pair.
    grid = make_grid(0.5, 1)
    assert oracle_multitime_check(model2, grid).passed
    discrete_table = fock._discrete_table

    def shifted(model, grid):
        table, thetas, e_step = discrete_table(model, grid)
        table = table.copy()
        table[entry] += 1e-6
        return table, thetas, e_step

    monkeypatch.setattr(fock, "_discrete_table", shifted)
    report = oracle_multitime_check(model2, grid)
    assert not report.passed
    assert report.table_residual > report.tolerance
    assert (report.equal_time_residual > report.tolerance) == same_node


def test_multitime_oracle_guards(model2):
    with pytest.raises(ValueError, match="N <= 2"):
        oracle_multitime_check(model2, make_grid(1.0, 3))
    with pytest.raises(NumericalFailure, match="budget"):
        oracle_multitime_check(model2, make_grid(1.0, 2), cutoff=40, noise_cutoff=40)


@pytest.mark.parametrize("cutoffs", [(6, 8), (8, 6), (3, 8)])
def test_multitime_oracle_rejects_low_cutoffs_before_building(
    model2, monkeypatch, cutoffs
):
    def no_embedding(*args):
        raise AssertionError("an operator was embedded")

    monkeypatch.setattr(fock, "_embed", no_embedding)
    cutoff, noise_cutoff = cutoffs
    with pytest.raises(ValueError, match="at least 8"):
        oracle_multitime_check(
            model2, make_grid(0.5, 1), cutoff=cutoff, noise_cutoff=noise_cutoff
        )


def _whole_set_variables(model, grid, modes):
    """Multitime variables from the whole canonical set, embedded up front."""
    cutoffs = tuple(mode.cutoff for mode in modes)
    canon = [
        fock._embed(op, slot, cutoffs)
        for slot, mode in enumerate(modes)
        for op in (mode.position, mode.momentum)
    ]
    n, m = model.dim, model.noise_dim
    propagate = np.hstack([expm(grid.step * model.drift), model.dispersion])
    nodes = [fock._realize(model.theta, canon[:n])]
    for u in range(grid.node_count - 1):
        pairs = canon[n + u * m : n + (u + 1) * m]
        noise = fock._realize(grid.step * symplectic_j(m), pairs)
        nodes.append([fock._combine(row, nodes[u] + noise) for row in propagate])
    return [op for node in nodes for op in node]


@pytest.mark.parametrize("steps", [1, 2])
def test_streamed_multitime_variables_equal_the_whole_set_build(model2, steps):
    # the check's residuals sit near 1e-15, below the golden comparator's
    # floor, so the streamed build is held to the up-front one bit for bit
    grid = make_grid(0.5, steps)
    modes = tuple(make_mode(8) for _ in range(1 + steps))
    e_step = expm(grid.step * model2.drift)
    streamed = fock._multitime_variables(model2, grid, modes, e_step)
    reference = _whole_set_variables(model2, grid, modes)
    assert len(streamed) == len(reference) == 2 * (1 + steps)
    for got, want in zip(streamed, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_multitime_oracle_peak_memory_on_the_bundled_model():
    # dimension 512 at N = 2: each operator is 4 MiB and the six variables
    # take 24 MiB.  Holding the six embedded canonical operators beside
    # them as well would add 24 MiB more and break the bound.
    scn = parse_scenario(bundled_scenario("oracle_single.scn"))
    model = OqhoModel(scn.theta, scn.drift, scn.dispersion)
    grid = make_grid(scn.horizon, scn.steps)
    assert grid.steps == 2
    tracemalloc.start()
    try:
        report = oracle_multitime_check(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.dimension == 512
    assert peak < 40 * 2**20
