import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quadexp import (
    CskMatrix,
    CcrKernel,
    KernelMeasure,
    KernelSolver,
    NumericalFailure,
    OqhoModel,
    bch_product,
    build_ccr_kernel,
    chk_exp,
    corner_atom_path,
    csk_log,
    diagonal_lebesgue_path,
    forward_csk_evolution,
    lambda_product,
    magnus_derivative_check,
    make_grid,
    mho_scalar,
    mho_superop,
    qef_from_csk_path,
    random_measure,
    random_model,
    sinhc_scalar,
    sinhc_superop,
    symplectic_residual,
    ups_scalar,
    ups_superop,
)
from quadexp.cli import bundled_scenario, parse_scenario
from quadexp import lie, solvers
from quadexp.lie import GREGORY_RADIUS


# Reference series, kept local to the tests: 40 Taylor terms bound the
# truncation tail by 5^41 / 42! < 1e-21 on the disk |z| <= 5.

def ups_reference(z):
    return sum(z**k / math.factorial(k + 1) for k in range(41))


def sinhc_reference(z):
    return sum(z ** (2 * k) / math.factorial(2 * k + 1) for k in range(21))


def disk_samples():
    pts = []
    radii = (0.0, 1e-300, 1e-16, 1e-8, 1e-5, 9.99e-4, 1e-3, 1.01e-3, 0.1, 1.0, 3.0, 5.0)
    for r in radii:
        for ang in (0.0, 0.7, 2.1, np.pi, 4.4):
            pts.append(r * np.exp(1j * ang))
    return pts


def _scale_measure(q, factor):
    return KernelMeasure(q.grid, factor * q.weights, q.support_index)


def _scaled_measure(rng, ccr, target_norm):
    q = random_measure(rng, ccr.grid, ccr.dim, complex_entries=False)
    exponent_norm = np.linalg.norm(4j * ccr.big @ q.weights, 1)
    return _scale_measure(q, target_norm / exponent_norm)


def test_scalar_functions_match_reference_series():
    for z in disk_samples():
        ref_u = ups_reference(z)
        assert abs(ups_scalar(z) - ref_u) <= 1e-13 * (1.0 + abs(ref_u))
        ref_s = sinhc_reference(z)
        assert abs(sinhc_scalar(z) - ref_s) <= 1e-13 * (1.0 + abs(ref_s))
        # Mho is the reciprocal; the disk radius 5 stays inside the first
        # pole ring at |z| = 2 pi.
        ref_m = 1.0 / ref_u
        assert abs(mho_scalar(z) - ref_m) <= 1e-12 * (1.0 + abs(ref_m))


def test_scalar_identities():
    for z in disk_samples():
        assert abs(ups_scalar(z) * mho_scalar(z) - 1.0) <= 1e-12
        half = np.exp(z / 2.0) * sinhc_scalar(z / 2.0)
        assert abs(ups_scalar(z) - half) <= 1e-13 * (1.0 + abs(half))


def test_scalars_match_mpmath_closed_forms():
    """Each closed form stays within 4 eps (1 + |ref|) of 40 digits from
    the origin to radius 5, tiny and near-1e-3 moduli included."""
    mp = pytest.importorskip("mpmath")
    references = {
        ups_scalar: lambda w: mp.expm1(w) / w,
        sinhc_scalar: lambda w: mp.sinh(w) / w,
        mho_scalar: lambda w: w / mp.expm1(w),
    }
    tol = 4.0 * np.finfo(float).eps
    for z in disk_samples():
        w = mp.mpc(z.real, z.imag)
        for scalar, reference in references.items():
            with mp.workdps(40):
                ref = complex(reference(w)) if w != 0 else 1.0
            assert abs(scalar(z) - ref) <= tol * (1.0 + abs(ref)), (scalar, z)


def test_scalars_are_one_at_exact_zeros_without_warnings():
    z = np.array([[0.0, 0.5j], [-0.5, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [f(z) for f in (ups_scalar, sinhc_scalar, mho_scalar)]
    for value in values:
        assert value.shape == z.shape
        assert np.all(np.diag(value) == 1.0)
    assert ups_scalar(0.0) == sinhc_scalar(0.0) == mho_scalar(0.0) == 1.0


def test_mho_pole_guard():
    with pytest.raises(NumericalFailure, match="pole"):
        mho_scalar(2j * np.pi)


def _adjoint_series(x, y, weights):
    term = y.copy()
    total = weights[0] * term
    for k in range(1, len(weights)):
        term = x @ term - term @ x
        total = total + weights[k] * term
    return total


def _superop_inputs(rng):
    """A generic x, and a Jordan block, whose eigenbasis is singular, so
    the superoperators take the block exponential route."""
    generic = 0.25 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    jordan = 0.25 * ((0.6 + 0.4j) * np.eye(4) + np.eye(4, k=1))
    assert np.linalg.cond(np.linalg.eig(jordan)[1]) > 1e6
    for x in (generic, jordan):
        yield x, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


def test_ups_superop_matches_adjoint_series(rng):
    weights = [1.0 / math.factorial(k + 1) for k in range(20)]
    for x, y in _superop_inputs(rng):
        series = _adjoint_series(x, y, weights)
        value, err = ups_superop(x, y)
        scale = 1.0 + np.linalg.norm(series)
        assert np.linalg.norm(value - series) <= 1e-12 * scale
        assert err <= 1e-12 * scale


def test_sinhc_superop_matches_adjoint_series(rng):
    weights = [
        1.0 / math.factorial(k + 1) if k % 2 == 0 else 0.0 for k in range(20)
    ]
    for x, y in _superop_inputs(rng):
        series = _adjoint_series(x, y, weights)
        value, _ = sinhc_superop(x, y)
        assert np.linalg.norm(value - series) <= 1e-12 * (1.0 + np.linalg.norm(series))


def _mp_adjoint_series(mp, x, y):
    """(Ups(ad_x)(y), sinhc(ad_x)(y)) summed in 40 digits.

    Terms ad_x^k(y) / (k+1)! are added until they fall below 1e-45 of
    ||y||; sinhc keeps the even ones.
    """
    def to_numpy(mat):
        return np.array(
            [[complex(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]
        )

    with mp.workdps(40):
        xm = mp.matrix(x.tolist())
        term = mp.matrix(y.tolist())
        floor = mp.mpf(10) ** -45 * mp.mnorm(term, "f")
        ups, sinhc = term.copy(), term.copy()
        k = 0
        while mp.mnorm(term, "f") > floor:
            k += 1
            term = (xm * term - term * xm) / (k + 1)
            ups += term
            if k % 2 == 0:
                sinhc += term
        return to_numpy(ups), to_numpy(sinhc)


def test_superops_match_mpmath_on_the_diagonal_path(monkeypatch):
    # every node of the bundled model's diagonal measure path at N = 8:
    # the error against a 40-digit series must sit inside the returned
    # rounding bound, and the bound itself at rounding level; the k x k
    # block the inverse step hands to the kernel solve, and the rows
    # below it that the solve forms as Lambda[k:, :k] Lambda[:k, :k]^{-1}
    # times that block, match the same series to 1e-14 relative
    mp = pytest.importorskip("mpmath")
    scn = parse_scenario(bundled_scenario("diagonal_inverse.scn"))
    model = OqhoModel(scn.theta, scn.drift, scn.dispersion)
    ccr = build_ccr_kernel(model, make_grid(1.0, 8))
    path = diagonal_lebesgue_path(ccr.grid, scn.pi)
    n = ccr.dim
    handed = []

    def capture(self, ham, support_index=None):
        handed.append(ham)
        return solve_measure(self, ham, support_index)

    solve_measure = KernelSolver.solve_measure
    monkeypatch.setattr(KernelSolver, "solve_measure", capture)
    for u, (entry, derivative) in enumerate(
        zip(path.entries, path.derivative_entries)
    ):
        x = 2j * ccr.big @ entry.weights
        y = ccr.big @ derivative.weights
        references = _mp_adjoint_series(mp, x, y)
        for op, reference in zip((ups_superop, sinhc_superop), references):
            value, bound = op(x, y)
            # x and y vanish beyond their first (u + 1) n columns, and so
            # does the value
            assert not value[:, (u + 1) * n :].any()
            assert np.linalg.norm(value - reference) <= bound
            assert bound <= 1e-14 * np.linalg.norm(reference)
            handed.clear()
            solvers._inverse_step(op, entry, derivative, ccr, u)
            (top,) = handed
            k = (u + 1) * n
            border = ccr.big[k:, :k] @ np.linalg.solve(ccr.big[:k, :k], top)
            scale = 1e-14 * np.linalg.norm(reference)
            gap = np.linalg.norm(top - reference[:k, :k])
            assert gap <= scale, (u, op, gap)
            gap = np.linalg.norm(border - reference[k:, :k])
            assert gap <= scale, (u, op, gap)


def test_superop_border_rows_match_mpmath(rng):
    # inputs [[a, 0], [b, 0]] with a zero (as at node 0), generic with
    # eigenvalue gaps beyond the unit disk, and a Jordan block, whose
    # eigenbasis is singular, so the block exponential route runs
    mp = pytest.importorskip("mpmath")
    size, k = 10, 4
    blocks = (
        np.zeros((k, k)),
        0.8 * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))),
        0.25 * ((0.6 + 0.4j) * np.eye(k) + np.eye(k, k=1)),
    )
    for a in blocks:
        x = np.zeros((size, size), dtype=complex)
        x[:k, :k] = a
        border = rng.normal(size=(size - k, k)) + 1j * rng.normal(size=(size - k, k))
        x[k:, :k] = 0.3 * border
        y = np.zeros((size, size), dtype=complex)
        y[:, :k] = rng.normal(size=(size, k)) + 1j * rng.normal(size=(size, k))
        references = _mp_adjoint_series(mp, x, y)
        for op, reference in zip((ups_superop, sinhc_superop), references):
            value, bound = op(x, y)
            assert not value[:, k:].any()
            assert np.linalg.norm(value - reference) <= bound
            assert bound <= 1e-13 * np.linalg.norm(reference)


def test_bridge_linear_algebra_stays_on_the_live_block(model2, pi2, monkeypatch):
    # At node u the inverse step diagonalizes a k_u x k_u block,
    # k_u = (u + 1) n, and extraction takes no exponential wider than
    # the 2 k_u of a block exponential.
    seen = []

    def spy(fn):
        def wrapped(mat, *args, **kwargs):
            seen.append(mat.shape[0])
            return fn(mat, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eig", spy(np.linalg.eig))
    monkeypatch.setattr(lie, "expm", spy(lie.expm))
    ccr = build_ccr_kernel(model2, make_grid(1.0, 16))
    path = diagonal_lebesgue_path(ccr.grid, pi2)
    s_path = forward_csk_evolution(corner_atom_path(ccr.grid, pi2), ccr)
    for u in range(ccr.grid.node_count):
        k = (u + 1) * ccr.dim
        entry, derivative = path.entries[u], path.derivative_entries[u]
        for op in (ups_superop, sinhc_superop):
            seen.clear()
            solvers._inverse_step(op, entry, derivative, ccr, u)
            assert seen == [k], (u, seen)
        seen.clear()
        qef_from_csk_path(s_path, ccr, nodes=[u])
        assert all(m <= 2 * k for m in seen), (u, seen)


def _complex_daleckii_krein(x, y, scalar):
    """scalar(ad_x)(y) in the eigenbasis of the complex eig of x."""
    d, v = np.linalg.eig(np.asarray(x, dtype=complex))
    vinv = np.linalg.inv(v)
    return v @ (scalar(d[:, None] - d[None, :]) * (vinv @ y @ v)) @ vinv


def test_exactly_imaginary_x_takes_the_real_eigenproblem(rng, monkeypatch):
    # one eig per superoperator: of the real x.imag when x has no nonzero
    # real part, of x itself when it has one, even a single 1e-300; the
    # two values agree within the sum of their rounding bounds
    seen = []
    eig = np.linalg.eig

    def spy(mat, *args, **kwargs):
        seen.append(mat.dtype)
        return eig(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", spy)
    a = 0.3 * rng.normal(size=(6, 6))
    y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    imaginary = 1j * a
    nudged = imaginary.copy()
    nudged[2, 3] += 1e-300
    assert not imaginary.real.any()
    for op in (ups_superop, sinhc_superop):
        seen.clear()
        value, bound = op(imaginary, y)
        assert seen == [np.dtype(float)]
        seen.clear()
        reference, reference_bound = op(nudged, y)
        assert seen == [np.dtype(complex)]
        assert np.linalg.norm(value - reference) <= bound + reference_bound


def test_staggered_inverse_real_eigenbasis_matches_the_complex_route(model2, pi2):
    # extracted measures are exactly real, so the staggered inverse's
    # x = 2i Lambda N_mid is exactly imaginary and takes the real eig;
    # at N = 16 its value matches the complex eig's Daleckii-Krein value
    # within the returned bound (measured 0.41 to 0.52 of it)
    ccr = build_ccr_kernel(model2, make_grid(1.0, 16))
    s_path = forward_csk_evolution(corner_atom_path(ccr.grid, pi2), ccr)
    measures = qef_from_csk_path(s_path, ccr).measures
    for u in (4, 8, 15):
        a, b = measures[u].weights, measures[u + 1].weights
        k = (u + 2) * ccr.dim
        x = 2j * (ccr.big @ (0.5 * a + 0.5 * b))[:k, :k]
        y = (ccr.big @ ((b - a) / ccr.grid.step))[:k, :k]
        assert not x.real.any()
        for op, scalar in ((ups_superop, ups_scalar), (sinhc_superop, sinhc_scalar)):
            value, bound = op(x, y)
            gap = np.linalg.norm(value - _complex_daleckii_krein(x, y, scalar))
            assert gap <= bound, (u, op, gap, bound)


def test_ups_series_matches_block_exponential(rng):
    # the integrator step's Ups(M_CC), at 1-norms from 0 past the step
    # gate's 1, against the block exponential [[H, I], [0, 0]]
    k = 6
    for norm in (0.0, 0.05, 1.1):
        h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h *= norm / np.linalg.norm(h, 1)
        block = np.zeros((2 * k, 2 * k), dtype=complex)
        block[:k, :k] = h
        block[:k, k:] = np.eye(k)
        reference = expm(block)[:k, k:]
        gap = np.linalg.norm(lie._ups_series(h) - reference)
        assert gap <= 1e-15 * np.linalg.norm(reference)


def _norm1_sum(coeffs, norm):
    """p~(norm) = sum_j |c_j| norm^j."""
    return sum(abs(c) * norm**j for j, c in enumerate(coeffs))


def test_polynomial_matches_explicit_power_sums(rng):
    # Horner's rule against sum_j c_j w^j formed term by term, both in
    # floating point.  Each is within d k eps p~(||w||_1) of the exact
    # value in the 1-norm for degree d (Higham, Functions of Matrices,
    # 2008, Thm 4.5, with constant 2 for complex products and eps = 2u),
    # so the bound is twice that.  A real w gives a real value.
    eps = np.finfo(float).eps
    worst = 0.0
    for k in (0, 1, 6):
        real = rng.normal(size=(k, k))
        for w in (real, real + 1j * rng.normal(size=(k, k))):
            if k:
                w = w * (0.9 / np.linalg.norm(w, 1))
            norm = np.linalg.norm(w, 1) if k else 0.0
            for coeffs in ([2.5], list(rng.normal(size=7))):
                value = lie._polynomial(w, coeffs)
                assert value.dtype == w.dtype and value.shape == (k, k)
                reference = sum(
                    c * np.linalg.matrix_power(w, j) for j, c in enumerate(coeffs)
                )
                degree = len(coeffs) - 1
                bound = 2.0 * degree * k * eps * _norm1_sum(coeffs, norm)
                gap = np.linalg.norm(value - reference, 1) if k else 0.0
                assert gap <= bound, (k, w.dtype, degree, gap, bound)
                if bound:
                    worst = max(worst, gap / bound)
    assert worst < 1.0


def _mp_to_numpy(mp_mat):
    return np.array(mp_mat.tolist(), dtype=complex)


def test_sin_cos_factors_match_mpmath():
    # x P(x^2) and I - x^2 Q(x^2) against 40-digit sin(x) and cos(x) at
    # ||x||_1 = r up to 1.  Bound in the 1-norm: the stop rule's tail,
    # 1.05 eps / 4, plus rounding: Horner's (m + 2) k eps p~ with degree
    # m <= 8 at radius 1 and p~ <= sinh(1) < 1.2, the products forming x^2
    # and applying x included, plus eps for the reference's rounding to
    # double; times r for sin(x), whose every term carries a factor x.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    k = 5
    bound = eps * (1.05 / 4 + 1.2 * (8 + 2) * k + 1.0)
    for norm in (1e-3, 0.3, 1.0):
        x = rng.normal(size=(k, k))
        x *= norm / np.linalg.norm(x, 1)
        p, q = lie._sin_cos_factors(x @ x, norm)
        assert p.dtype == q.dtype == np.dtype(float)
        with mp.workdps(40):
            xm = mp.matrix(x.tolist())
            sin_ref, cos_ref = _mp_to_numpy(mp.sinm(xm)), _mp_to_numpy(mp.cosm(xm))
        sin_gap = np.linalg.norm(x @ p - sin_ref, 1)
        cos_gap = np.linalg.norm(np.eye(k) - (x @ x) @ q - cos_ref, 1)
        assert sin_gap <= norm * bound, (norm, sin_gap, norm * bound)
        assert cos_gap <= bound, (norm, cos_gap, bound)


def test_gregory_factor_matches_mpmath_atan():
    # y G(-y^2) against 40-digit atan(y) = log((I + iy)(I - iy)^{-1}) / 2i
    # at ||y||_1 up to GREGORY_RADIUS.  Bound in the 1-norm, relative to
    # r = ||y||_1: the stop rule's tail, eps / 2, plus rounding: Horner's
    # (J + 2) k eps p~ with degree J <= 24 at the radius and
    # p~ = atanh(r) / r < 1.1, the products forming y^2 and applying y
    # included, plus eps for the reference's rounding to double.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    k = 5
    for norm in (1e-3, 0.25, GREGORY_RADIUS):
        y = rng.normal(size=(k, k))
        y *= norm / np.linalg.norm(y, 1)
        g = lie._gregory_factor(-(y @ y), norm)
        assert g.dtype == np.dtype(float)
        with mp.workdps(40):
            iy = mp.mpc(0, 1) * mp.matrix(y.tolist())
            eye = mp.eye(k)
            cayley = (eye + iy) * mp.inverse(eye - iy)
            reference = _mp_to_numpy(mp.logm(cayley) / mp.mpc(0, 2))
        gap = np.linalg.norm(y @ g - reference, 1)
        bound = norm * eps * (0.5 + 1.1 * (24 + 2) * k + 1.0)
        assert gap <= bound, (norm, gap, bound)


def test_superop_commuting_case_is_identity(rng):
    x = rng.normal(size=(3, 3))
    y = 0.7 * x @ x + 0.2 * x - 0.5 * np.eye(3)
    for op in (ups_superop, sinhc_superop):
        value, _ = op(x, y)
        assert np.allclose(value, y, atol=1e-12)
    value, _ = mho_superop(x, y)
    assert np.allclose(value, y, atol=1e-12)


def test_mho_inverts_ups(rng):
    x = 0.2 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    y = rng.normal(size=(4, 4))
    forward, _ = ups_superop(x, y)
    back, tail = mho_superop(x, forward)
    assert np.linalg.norm(back - y) <= 1e-10 * (1.0 + np.linalg.norm(y))
    assert tail <= 1e-10


def test_mho_superop_radius_guard():
    x = 4.0 * np.eye(3)
    with pytest.raises(NumericalFailure, match="Bernoulli"):
        mho_superop(x, np.eye(3))


def test_bernoulli_coefficients_are_exact():
    # each B_k / k! is the correctly rounded rational, so the odd ones
    # from k = 3 on are exactly zero and mho_superop skips their terms
    mp = pytest.importorskip("mpmath")
    coeffs = lie._bernoulli_over_factorial(lie.MHO_SUPEROP_ORDER)
    assert len(coeffs) == lie.MHO_SUPEROP_ORDER + 1
    assert coeffs[1] == -0.5
    for k in range(0, len(coeffs), 2):
        with mp.workdps(40):
            want = float(mp.bernoulli(k) / mp.factorial(k))
        assert coeffs[k] == want, (k, coeffs[k], want)
    for k in range(3, len(coeffs), 2):
        assert coeffs[k] == 0.0, (k, coeffs[k])


def test_mho_superop_on_live_columns_matches_the_zero_padded_call(rng):
    # x and y vanish beyond column k; handed over as their size x k
    # columns, the series gives the first k columns of the square call
    size, k = 9, 4
    x = np.zeros((size, size), dtype=complex)
    y = np.zeros((size, size), dtype=complex)
    x[:, :k] = 0.15 * (rng.normal(size=(size, k)) + 1j * rng.normal(size=(size, k)))
    y[:, :k] = rng.normal(size=(size, k))
    value, tail = mho_superop(x[:, :k], y[:, :k])
    full, full_tail = mho_superop(x, y)
    assert value.shape == (size, k)
    assert np.all(full[:, k:] == 0.0)
    gap = np.abs(value - full[:, :k]).max()
    assert gap <= 4 * np.finfo(float).eps * np.abs(full).max(), gap
    assert tail == pytest.approx(full_tail, rel=1e-12)
    # the radius guard reads the same norms on both forms
    guard = lie.MHO_RADIUS_FRACTION * 2.0 * np.pi
    unit = x / lie._adjoint_norm_bound(x)
    for factor in (0.99, 1.01):
        scaled = factor * guard * unit
        for args in ((scaled[:, :k], y[:, :k]), (scaled, y)):
            if factor < 1.0:
                mho_superop(*args)
            else:
                with pytest.raises(NumericalFailure, match="Bernoulli"):
                    mho_superop(*args)


def test_derivative_identity_second_order(rng):
    a = 0.5 * rng.normal(size=(3, 3))
    b = 0.5 * rng.normal(size=(3, 3))

    def phi(t):
        return t * a + 0.5 * t * t * b

    reports = []
    for h in (0.02, 0.01):
        ts = 0.5 + h * np.arange(-2, 3)
        reports.append(magnus_derivative_check([phi(t) for t in ts], h))
    for rep in reports:
        assert rep.samples == 3
    # Central differences drive both identity residuals at second order.
    assert reports[0].left_max / reports[1].left_max == pytest.approx(4.0, rel=0.3)
    assert reports[0].right_max / reports[1].right_max == pytest.approx(4.0, rel=0.3)
    assert reports[1].left_max < 1e-4


@pytest.fixture
def ccr8(model2):
    return build_ccr_kernel(model2, make_grid(1.0, 8))


def test_exp_is_symplectic(ccr8, rng):
    for _ in range(10):
        q = _scaled_measure(rng, ccr8, 3.0)
        s = chk_exp(lambda_product(ccr8, q), ccr8)
        residual, scale = symplectic_residual(s)
        assert residual <= 1e-10 * scale


def test_ill_conditioned_eigenbasis_goes_to_the_block_route(monkeypatch, rng):
    # x = a I + (superdiagonal) has cond(V) near 3e190: the basis is
    # refused before V^{-1} is formed, whose reconstruction overflows
    x = 0.69 * (0.6 + 0.4j) * np.eye(13) + np.eye(13, k=1)
    y = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ups_superop(x, y)
    monkeypatch.setattr(lie, "_eigenbasis", lambda x: None)
    want = ups_superop(x, y)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_exp_norm_gate(ccr8, rng):
    q = _scaled_measure(rng, ccr8, 80.0)
    with pytest.raises(NumericalFailure, match="1-norm"):
        chk_exp(lambda_product(ccr8, q), ccr8)


def test_csk_matrix_rejects_non_symplectic(ccr8, rng):
    mat = np.eye(ccr8.big.shape[0]) + 0.1 * rng.normal(size=ccr8.big.shape)
    with pytest.raises(NumericalFailure, match="symplectic"):
        CskMatrix(ccr8.grid, mat, ccr8)


def test_log_inverts_exp_principal(ccr8, rng):
    q = _scaled_measure(rng, ccr8, 1.0)
    chk = lambda_product(ccr8, q)
    s = chk_exp(chk, ccr8)
    ham = csk_log(s)
    assert np.linalg.norm(ham.ham - 4j * chk.ham) <= 1e-10 * (
        1.0 + np.linalg.norm(chk.ham)
    )
    recovered, report = KernelSolver(ccr8).solve_measure(
        ham.ham / 4j, support_index=q.support_index
    )
    assert np.linalg.norm(recovered.weights - q.weights) <= 1e-9 * (
        1.0 + np.linalg.norm(q.weights)
    )
    assert report.relative <= 1e-9


def test_log_anchor_follows_branch(ccr8, rng):
    # Push the exponent beyond the principal strip; the anchored form
    # must land back on the original branch.
    q = _scaled_measure(rng, ccr8, 1.0)
    exponent = 4j * ccr8.big @ q.weights
    eigs = np.linalg.eigvals(exponent)
    factor = 4.2 / np.max(np.abs(eigs.imag))
    scaled = factor * exponent
    s = CskMatrix(ccr8.grid, expm(scaled), ccr8)
    ham = csk_log(s, anchor=scaled)
    assert np.linalg.norm(ham.ham - scaled) <= 1e-8 * (1.0 + np.linalg.norm(scaled))


def test_log_negative_axis_raises(ccr8, rng):
    q = _scaled_measure(rng, ccr8, 1.0)
    exponent = 4j * ccr8.big @ q.weights
    eigs = np.linalg.eigvals(exponent)
    idx = int(np.argmax(np.abs(eigs.imag)))
    factor = np.pi / eigs[idx].imag
    s = CskMatrix(ccr8.grid, expm(factor * exponent), ccr8)
    with pytest.raises(NumericalFailure, match="branch"):
        csk_log(s)


def test_kernel_solver_roundtrip(ccr8, rng):
    solver = KernelSolver(ccr8)
    q = random_measure(rng, ccr8.grid, ccr8.dim, support=5)
    ham = ccr8.big @ q.weights
    recovered, report = solver.solve_measure(ham, support_index=5)
    assert np.allclose(recovered.weights, q.weights, atol=1e-11)
    assert report.relative <= 1e-12
    assert np.isfinite(report.condition)


def _mp_leading_block_solve(mp, lead, rhs):
    """(W + W^T) / 2 for lead W = rhs, solved in 40 digits."""
    with mp.workdps(40):
        w = mp.inverse(mp.matrix(lead.tolist())) * mp.matrix(rhs.tolist())
        w = (w + w.T) / 2
        return np.array([[complex(w[i, j]) for j in range(w.cols)] for i in range(w.rows)])


def test_kernel_solve_matches_mpmath_on_the_leading_block(model2, model4):
    # H = Lambda Q for a seeded Q on [0, t_u]^2 at N = 8: the recovered
    # window against a 40-digit solve of Lambda[:k, :k] W = H[:k, :k],
    # within eps cond(Lambda[:k, :k]) ||W||; the measured ratio was at
    # most 0.26 (n = 4, u = 0) and at most 0.10 for u > 0
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for model in (model2, model4):
        ccr = build_ccr_kernel(model, make_grid(1.0, 8))
        for u in (0, 2, 5, 8):
            k = (u + 1) * ccr.dim
            q = random_measure(rng, ccr.grid, ccr.dim, support=u)
            ham = ccr.big @ q.weights
            measure, _ = ccr.solver.solve_measure(ham, support_index=u)
            got = measure.weights
            assert not got[k:].any() and not got[:, k:].any()
            lead = ccr.big[:k, :k]
            want = _mp_leading_block_solve(mp, lead, ham[:k, :k])
            err = np.linalg.norm(got[:k, :k] - want)
            assert err <= eps * np.linalg.cond(lead) * np.linalg.norm(want), (u, err)


def test_kernel_solver_singular_leading_block_takes_lstsq(monkeypatch):
    # Lambda = [[0, I], [-I, 0]] has condition 1, but its leading block
    # at node 0 is zero: the solve there falls back to least squares
    eye = np.eye(2)
    ccr = CcrKernel(make_grid(1.0, 1), np.block([[0 * eye, eye], [-eye, 0 * eye]]))
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    assert ccr.solver.condition == pytest.approx(1.0)
    for ham in (np.zeros((2, 2)), np.zeros((4, 4))):
        calls.clear()
        measure, report = ccr.solver.solve_measure(ham, support_index=0)
        assert calls == [(2, 2)]
        assert not measure.weights.any()
        assert report.residual == 0.0


def test_kernel_solver_residual_counts_border_rows(ccr8, rng):
    # the solve runs on the leading block of ham; rows below the support
    # block still enter the residual, which matches the full product
    solver = KernelSolver(ccr8)
    q = random_measure(rng, ccr8.grid, ccr8.dim, support=3)
    ham = ccr8.big @ q.weights
    ham[10:, :8] += 1e-9 * rng.normal(size=(ham.shape[0] - 10, 8))
    measure, report = solver.solve_measure(ham, support_index=3)
    full = np.linalg.norm(ccr8.big @ measure.weights - ham)
    assert report.residual == pytest.approx(full, rel=1e-12)
    assert report.residual >= 1e-10


def test_kernel_solve_takes_the_live_columns_bit_for_bit(ccr8, rng):
    # the size x k columns carry every row, so rows below k are gated as
    # in the zero-padded size x size call, with the same weights and report
    solver = KernelSolver(ccr8)
    size, u = ccr8.big.shape[0], 3
    k = (u + 1) * ccr8.dim
    q = random_measure(rng, ccr8.grid, ccr8.dim, support=u)
    ham = ccr8.big @ q.weights
    ham[k:, :k] += 1e-9 * rng.normal(size=(size - k, k))
    padded, padded_report = solver.solve_measure(ham, support_index=u)
    cols, cols_report = solver.solve_measure(ham[:, :k].copy(), support_index=u)
    assert np.array_equal(cols.weights, padded.weights)
    assert cols_report == padded_report
    assert cols_report.residual >= 1e-10
    for shape in ((size, k + 1), (k, size), (k + 1, k)):
        with pytest.raises(ValueError, match="first 8 columns"):
            solver.solve_measure(np.zeros(shape), support_index=u)


def test_kernel_solver_absolute_floor(ccr8):
    solver = KernelSolver(ccr8)
    size = ccr8.big.shape[0]
    tiny = 1e-14 * np.ones((size, size))
    _, report = solver.solve_measure(tiny)
    assert report.residual <= 1e-11


def test_kernel_solver_lstsq_fallback():
    grid = make_grid(1.0, 2)
    ccr = CcrKernel(grid, np.zeros((6, 6)))
    # the kernel's own solver is built once and takes the same route
    assert ccr.solver is ccr.solver
    for solver in (KernelSolver(ccr), ccr.solver):
        assert not (np.isfinite(solver.condition) and solver.condition < 1e12)
        measure, _ = solver.solve_measure(np.zeros((6, 6)))
        assert np.linalg.norm(measure.weights) == 0.0


def test_bch_product_matches_group_product(ccr8, rng):
    for _ in range(5):
        q1 = _scaled_measure(rng, ccr8, 0.8)
        q2 = _scaled_measure(rng, ccr8, 0.8)
        combined, report = bch_product(q1, q2, ccr8)
        s1 = chk_exp(lambda_product(ccr8, q1), ccr8)
        s2 = chk_exp(lambda_product(ccr8, q2), ccr8)
        product = s1.mat @ s2.mat
        rebuilt = chk_exp(lambda_product(ccr8, combined), ccr8)
        assert np.linalg.norm(rebuilt.mat - product) <= 1e-8 * (
            1.0 + np.linalg.norm(product)
        )
        assert report.relative <= 1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_exp_symplectic_property(seed):
    model = random_model(np.random.default_rng(2), n=2, m=2)
    ccr = build_ccr_kernel(model, make_grid(1.0, 4))
    rng = np.random.default_rng(seed)
    q = random_measure(rng, ccr.grid, 2, complex_entries=False)
    norm = np.linalg.norm(4j * ccr.big @ q.weights, 1)
    if norm > 0:
        q = _scale_measure(q, min(1.0, 4.0 / norm))
    s = chk_exp(lambda_product(ccr, q), ccr)
    residual, scale = symplectic_residual(s)
    assert residual <= 1e-10 * scale
