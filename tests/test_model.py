import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quadexp import model as model_module
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


# (norm, degree, squarings): one 4 x 4 Gaussian input per branch of
# model.expm, scaled to the 1-norm that selects it
EXPM_BRANCHES = [
    (1e-3, 3, 0),
    (0.1, 5, 0),
    (0.6, 7, 0),
    (1.5, 9, 0),
    (3.0, 13, 0),
    (20.0, 13, 2),
]


def _expm_bound(a):
    """n u (1 + ||A||_1) e^{||A||_1}: the backward error u ||A||_1 of the
    approximant carried through exp's condition, whose Frechet derivative
    has norm at most e^{||A||_1} (Higham, Functions of Matrices, 2008,
    Lemma 10.15), plus u ||e^A||_1 for rounding the result, with a factor
    n for the inner products."""
    norm = np.linalg.norm(a, 1)
    return a.shape[0] * 2.0**-53 * (1.0 + norm) * np.exp(norm)


def _branch_inputs():
    rng = np.random.default_rng(5)
    for norm, m, s in EXPM_BRANCHES:
        for imag in (0.0, 1.0):
            a = rng.standard_normal((4, 4)) + 1j * imag * rng.standard_normal((4, 4))
            a = a if imag else a.real
            yield a * (norm / np.linalg.norm(a, 1)), (m, s)
    # a Van Loan block [[x, y], [0, x]]: ||A||_1 = 10.1 would take degree
    # 13 and one squaring by ||A||_1 (Higham 2005); the powers of A, not
    # its norm, set the degree, so it takes degree 7 unscaled
    x, y = 0.1 * rng.standard_normal((3, 3)), 3.0 * rng.standard_normal((3, 3))
    yield np.block([[x, y], [np.zeros_like(x), x]]), (7, 0)


def test_expm_matches_mpmath_on_every_branch(monkeypatch):
    """Each Pade degree, the squaring branch, real and complex inputs and a
    non-normal Van Loan block, against 40-digit mp.expm, within
    _expm_bound.  Measured: at most 0.12 of the bound (the 1-norm 0.6
    complex input); the Van Loan block reads 2.1e-6 of it."""
    mp = pytest.importorskip("mpmath")
    taken = []  # (degree, squarings) of each call
    pade = model_module._pade
    monkeypatch.setattr(
        model_module,
        "_pade",
        lambda a, evens, m, s: taken.append((m, s)) or pade(a, evens, m, s),
    )
    for a, branch in _branch_inputs():
        value = model_module.expm(a)
        assert taken.pop() == branch
        assert value.dtype == np.result_type(a.dtype, float)
        with mp.workdps(40):
            exact = mp.expm(mp.matrix(a.tolist()))
            want = np.array(exact.tolist(), dtype=complex)
        assert np.linalg.norm(value - want, 1) <= _expm_bound(a), branch


def test_expm_matches_scipy_reference():
    """Against scipy.linalg.expm on the complex cast of each input, within
    two bounds (one per algorithm).  scipy's real path is not the
    reference: at a 2 x 2 real input of 1-norm 10 it sits 5.7e-13 relative
    from the 40-digit value, where model.expm sits at 2.1e-15.  Measured:
    at most 0.30 of one bound."""
    rng = np.random.default_rng(9)
    inputs = [a for a, _ in _branch_inputs()]
    for n in (2, 13, 60):
        for norm in (1e-3, 0.5, 5.0, 40.0):
            for imag in (0.0, 1.0):
                a = rng.standard_normal((n, n)) + 1j * imag * rng.standard_normal((n, n))
                inputs.append((a if imag else a.real) * norm / np.linalg.norm(a, 1))
    for a in inputs:
        gap = np.linalg.norm(model_module.expm(a) - expm(a.astype(complex)), 1)
        assert gap <= 2.0 * _expm_bound(a), (a.shape, np.linalg.norm(a, 1))


def test_expm_edge_inputs():
    assert np.array_equal(model_module.expm(np.zeros((3, 3))), np.eye(3))
    assert model_module.expm(np.eye(2, dtype=int)).dtype == float
    assert np.allclose(model_module.expm([[0.0, np.pi], [-np.pi, 0.0]]), -np.eye(2))
    for bad in (np.ones(3), np.ones((2, 3))):
        with pytest.raises(ValueError, match="square"):
            model_module.expm(bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            model_module.expm(np.full((2, 2), bad))
