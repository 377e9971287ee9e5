import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quadexp import (
    NumericalFailure,
    OqhoModel,
    build_from_energy_coupling,
    ccr_two_point,
    check_pr,
    laplace_lambda,
    laplace_lambda_quadrature,
    laplace_point,
    random_model,
    spectral_abscissa,
    symplectic_j,
)


def test_symplectic_j_structure():
    j = symplectic_j(4)
    assert np.array_equal(j, -j.T)
    assert np.array_equal(j @ j, -np.eye(4))
    with pytest.raises(ValueError):
        symplectic_j(3)


def test_random_model_is_realizable(model2):
    report = check_pr(model2)
    assert report.ok
    assert spectral_abscissa(model2) < 0.0


def test_build_from_energy_coupling_matches_definition(rng):
    # Perturb theta = J, K = I, M = I, whose drift 2J - 2I is Hurwitz
    # with margin, so small perturbations stay constructible.
    theta = symplectic_j(2)
    raw_k = rng.uniform(-0.1, 0.1, size=(2, 2))
    energy = np.eye(2) + 0.5 * (raw_k + raw_k.T)
    coupling = np.eye(2) + rng.uniform(-0.1, 0.1, size=(2, 2))
    model = build_from_energy_coupling(theta, energy, coupling)
    j = symplectic_j(2)
    assert np.allclose(model.drift, 2.0 * theta @ (energy + coupling.T @ j @ coupling))
    assert np.allclose(model.dispersion, 2.0 * theta @ coupling.T)


def test_build_rejects_asymmetric_energy():
    theta = symplectic_j(2)
    with pytest.raises(ValueError, match="symmetric"):
        build_from_energy_coupling(theta, [[0.0, 1.0], [0.0, 0.0]], np.eye(2))


def test_constructor_validation():
    good = symplectic_j(2)
    hurwitz = -np.eye(2)
    with pytest.raises(ValueError, match="antisymmetric"):
        OqhoModel(np.eye(2), hurwitz, np.eye(2))
    with pytest.raises(ValueError, match="singular"):
        OqhoModel(np.zeros((2, 2)), hurwitz, np.eye(2))
    with pytest.raises(ValueError, match="even"):
        OqhoModel(good, hurwitz, np.ones((2, 3)))
    with pytest.raises(NumericalFailure, match="Hurwitz"):
        OqhoModel(good, np.eye(2), np.eye(2), require_pr=False)
    # A non-realizable but Hurwitz pair loads only when the gate is waived.
    with pytest.raises(NumericalFailure, match="realizability"):
        OqhoModel(good, hurwitz, np.eye(2))
    model = OqhoModel(good, hurwitz, np.eye(2), require_pr=False)
    assert not check_pr(model).ok


def test_pr_holds_for_seeded_population():
    rng = np.random.default_rng(0)
    for _ in range(20):
        model = random_model(rng, n=2, m=2)
        report = check_pr(model)
        assert report.residual <= 1e-12 * report.scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_pr_by_construction_property(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n=2, m=2)
    assert check_pr(model).ok


def test_two_point_kernel_at_zero_and_antisymmetry(model2):
    assert np.array_equal(ccr_two_point(model2, 0.0), model2.theta)
    for tau in (0.17, 0.9, 2.3):
        lam = ccr_two_point(model2, tau)
        assert np.allclose(ccr_two_point(model2, -tau), -lam.T, atol=1e-13)
    assert np.allclose(
        ccr_two_point(model2, 0.4), expm(0.4 * model2.drift) @ model2.theta
    )


def test_two_point_kernel_derivative_jump(model2):
    # The one-sided derivatives at tau = 0 differ by exactly the
    # realizability combination: Lambda'(0+) - Lambda'(0-) = -B J B^T.
    eps = 1e-6
    right = (ccr_two_point(model2, eps) - model2.theta) / eps
    left = (model2.theta - ccr_two_point(model2, -eps)) / eps
    jump = right - left
    b = model2.dispersion
    assert np.allclose(jump, -b @ model2.j @ b.T, atol=1e-5)


def test_laplace_point_strip(model2):
    width = abs(spectral_abscissa(model2))
    point = laplace_point(model2, 0.5 * width)
    assert point.strip_margin == pytest.approx(0.5 * width)
    with pytest.raises(ValueError, match="strip"):
        laplace_point(model2, -0.1)
    with pytest.raises(ValueError, match="strip"):
        laplace_point(model2, 1.5 * width)


def test_non_finite_transform_points_and_lags_are_refused(model2):
    # a NaN margin compared false with "<= 0" and passed the strip check
    width = abs(spectral_abscissa(model2))
    for s in (np.nan, 0.5 * width + np.nan * 1j, complex(0.1, np.inf), np.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            laplace_point(model2, s)
        with pytest.raises(ValueError, match="s must be finite"):
            laplace_lambda(model2, s)
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            ccr_two_point(model2, tau)


def test_laplace_rational_matches_quadrature(model2):
    width = abs(spectral_abscissa(model2))
    for frac in (0.25, 0.5, 0.75):
        s = frac * width + 0.3j
        rational = laplace_lambda(model2, s)
        quad, estimate = laplace_lambda_quadrature(model2, s, tol=1e-10)
        scale = 1.0 + np.linalg.norm(rational)
        assert np.linalg.norm(rational - quad) <= 1e-8 * scale
        assert estimate <= 1e-5


def test_random_model_seeded_reproducibility():
    a = random_model(np.random.default_rng(42), n=4, m=2)
    b = random_model(np.random.default_rng(42), n=4, m=2)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.drift, b.drift)
    assert np.array_equal(a.dispersion, b.dispersion)
