"""Linear quantum stochastic models with canonical commutation structure.

A model holds the matrices (Theta, A, B) of an open quantum harmonic
oscillator whose vector X of n system variables obeys

    dX = A X dt + B dW,        [X, X^T] = 2i Theta,

driven by m external field quadratures with Ito table dW dW^T =
(I + iJ) dt, where J is the standard antisymmetric form on R^m.  The
drift and dispersion pair is physically realizable when

    A Theta + Theta A^T + B J B^T = 0,

which holds identically for the energy/coupling parameterization
A = 2 Theta (K + M^T J M), B = 2 Theta M^T with K symmetric.  Under that
condition the two-point commutator kernel

    Lambda(tau) = e^{tau A} Theta          (tau >= 0)
                = Theta e^{-tau A^T}       (tau < 0)

satisfies Lambda(0) = Theta, Lambda(-tau) = -Lambda(tau)^T, and has the
two-sided Laplace transform

    Lambda_hat(s) = -(sI - A)^{-1} B J B^T (sI + A^T)^{-1},

convergent on the vertical strip |Re s| < |max_k Re lambda_k(A)| when A
is Hurwitz.  Everything downstream of this module consumes Lambda through
these functions, so the conventions above are fixed here once.

The matrix exponential every layer takes is :func:`expm` below, in numpy,
so importing the package loads no scipy.linalg (whose import alone costs
about 0.3 s and 28 MB per process).  The quadrature cross-check, a
reference only, loads scipy.integrate on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "OqhoModel",
    "LaplacePoint",
    "symplectic_j",
    "build_from_energy_coupling",
    "check_pr",
    "ccr_two_point",
    "spectral_abscissa",
    "laplace_point",
    "laplace_lambda",
    "laplace_lambda_quadrature",
    "random_model",
]

# Hurwitz acceptance margin: max Re lambda(A) must sit strictly below this.
HURWITZ_MARGIN = -1e-10

# Relative tolerance on the realizability residual for constructed models.
PR_RELATIVE_TOL = 1e-12

# Constructor gate is looser than the reporting tolerance so that models
# assembled from externally computed (A, B) with honest rounding still load.
_PR_GATE_TOL = 1e-9

# Budget of outward doublings in the quadrature oracle's tail search.
_TAIL_DOUBLINGS = 60

# Budget of rejected drafts in random_model.
_MODEL_DRAWS = 200

# Al-Mohy & Higham (2009), Table 3.1: the degree-m diagonal Pade
# approximant of exp has backward error at most u = 2^-53 on any A whose
# power bound alpha_p(A) is at most theta_m.
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 4.25,
}


def _as_matrix(value, name, square=False):
    mat = np.array(value, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {mat.shape}")
    if square and mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


def _pade_coefficients(m):
    """b_j = (2m - j)! / (j! (m - j)!), the degree-m Pade numerator of exp
    scaled to integers (Higham 2005); each rounds once to float."""
    f = math.factorial
    return [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]


def _ell(a, m):
    """Extra squarings ell(A, m) that keep the degree-m approximant's
    leading backward-error term below u (Al-Mohy & Higham 2009):
    alpha = |c_{2m+1}| ||(|A|)^{2m+1}||_1 / ||A||_1, with c_{2m+1} =
    (m!)^2 / ((2m)! (2m+1)!), and ell = max(ceil(log2(alpha/u) / 2m), 0).
    |A| is nonnegative, so ||(|A|)^p||_1 = max(1^T (|A|)^p) is exact from
    p vector products.
    """
    f = math.factorial
    abs_a = np.abs(a)
    v = np.ones(a.shape[0])
    for _ in range(2 * m + 1):
        v = v @ abs_a
    c = f(m) ** 2 / (f(2 * m) * f(2 * m + 1))
    alpha = c * v.max() / abs_a.sum(axis=0).max()
    u = 2.0**-53
    return 0 if alpha <= u else math.ceil(math.log2(alpha / u) / (2 * m))


def expm(a):
    """Matrix exponential e^A of a square real or complex array.

    Scaling and squaring with a diagonal Pade approximant, following
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009), the algorithm
    scipy.linalg.expm follows.  The degree m in {3, 5, 7, 9, 13} and the
    scaling s are chosen from d_p = ||A^p||_1^{1/p}, p = 4, 6, 8, 10,
    each the exact 1-norm of an even power formed once, rather than from
    ||A||_1: a non-normal A (a Van Loan block [[x, y], [0, x]] with large
    y) has d_p far below ||A||_1 and is not over-scaled.  ell(A, m) adds
    squarings where the leading backward-error term asks for them.  The
    approximant's backward error is at most u = 2^-53 relative to
    ||A||_1, so with rounding the forward error is of order u times the
    condition of exp at A; tests/test_model.py states the bound it is
    checked at against 40-digit references.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expm needs finite entries")
    eye = np.eye(a.shape[0], dtype=a.dtype)
    if not a.any():
        return eye
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    evens = [eye, a2, a4, a6]

    def d(power, p):
        return np.abs(power).sum(axis=0).max() ** (1.0 / p)

    d4, d6 = d(a4, 4), d(a6, 6)
    eta = max(d4, d6)
    for m in (3, 5):
        if eta <= _PADE_THETA[m] and _ell(a, m) == 0:
            return _pade(a, evens, m, 0)
    evens.append(a4 @ a4)
    d8 = d(evens[4], 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta <= _PADE_THETA[m] and _ell(a, m) == 0:
            return _pade(a, evens, m, 0)
    eta = min(eta, max(d8, d(a4 @ a6, 10)))
    s = max(math.ceil(math.log2(eta / _PADE_THETA[13])), 0)
    s += _ell(a * 2.0**-s, 13)
    scaled = [power * 2.0 ** (-2 * j * s) for j, power in enumerate(evens[:4])]
    return _pade(a * 2.0**-s, scaled, 13, s)


def _pade(a, evens, m, s):
    """r_m(A) = (V - U)^{-1} (V + U) from the even powers [I, A^2, ...] of
    A, squared s times; degree 13 takes Higham's (2005) three-level form
    in I, A^2, A^4 and A^6."""
    b = _pade_coefficients(m)
    if m < 13:
        u = a @ sum(b[2 * j + 1] * evens[j] for j in range((m + 1) // 2))
        v = sum(b[2 * j] * evens[j] for j in range((m + 1) // 2))
    else:
        eye, a2, a4, a6 = evens
        u = a @ (
            a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
            + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        )
        v = (
            a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        )
    # I + 2 (V - U)^{-1} U: the identity is added exactly, so near A = 0
    # the result carries rounding relative to its offset from I
    r = 2.0 * np.linalg.solve(v - u, u)
    r[np.diag_indices_from(r)] += 1.0
    for _ in range(s):
        r = r @ r
    return r


def symplectic_j(m):
    """Standard antisymmetric form J = [[0, I], [-I, 0]] on R^m (m even)."""
    if m % 2 != 0:
        raise ValueError(f"field dimension must be even, got {m}")
    half = m // 2
    j = np.zeros((m, m))
    j[:half, half:] = np.eye(half)
    j[half:, :half] = -np.eye(half)
    j.setflags(write=False)
    return j


@dataclass(frozen=True)
class OqhoModel:
    """Immutable (Theta, A, B) triple with validated commutation structure.

    Parameters
    ----------
    theta : (n, n) array_like
        Antisymmetric nonsingular CCR matrix of the system variables.
    drift : (n, n) array_like
        Hurwitz drift matrix A.
    dispersion : (n, m) array_like
        Dispersion matrix B coupling to m field quadratures, m even.
    require_pr : bool, keyword only
        When true (default) the physical realizability residual is gated
        at construction.  Pass false to study a non-realizable pair; the
        residual is still available through :func:`check_pr`.
    """

    theta: np.ndarray
    drift: np.ndarray
    dispersion: np.ndarray
    require_pr: bool = True

    def __post_init__(self):
        theta = _as_matrix(self.theta, "theta", square=True)
        drift = _as_matrix(self.drift, "drift", square=True)
        dispersion = _as_matrix(self.dispersion, "dispersion")
        n = theta.shape[0]
        if drift.shape != (n, n):
            raise ValueError(
                f"drift shape {drift.shape} does not match theta shape {theta.shape}"
            )
        if dispersion.shape[0] != n:
            raise ValueError(
                f"dispersion has {dispersion.shape[0]} rows, expected {n}"
            )
        if dispersion.shape[1] % 2 != 0:
            raise ValueError("dispersion must have an even number of columns")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "dispersion", dispersion)

        skew = np.linalg.norm(theta + theta.T)
        if skew > 1e-12 * (1.0 + np.linalg.norm(theta)):
            raise ValueError("theta is not antisymmetric")
        if abs(np.linalg.det(theta)) == 0.0:
            raise ValueError("theta is singular")

        abscissa = float(np.max(np.linalg.eigvals(drift).real))
        if abscissa >= HURWITZ_MARGIN:
            raise NumericalFailure(
                f"drift is not Hurwitz: max Re eigenvalue {abscissa:.3e}"
            )

        if self.require_pr:
            report = check_pr(self)
            if report.residual > _PR_GATE_TOL * report.scale:
                raise NumericalFailure(
                    "realizability residual "
                    f"{report.residual:.3e} exceeds {_PR_GATE_TOL:.0e} * scale "
                    f"({report.scale:.3e}); pass require_pr=False to keep the model"
                )

    @property
    def dim(self):
        """Number of system variables n."""
        return self.theta.shape[0]

    @property
    def noise_dim(self):
        """Number of field quadratures m."""
        return self.dispersion.shape[1]

    @property
    def j(self):
        """The antisymmetric form J of the driving fields."""
        return symplectic_j(self.noise_dim)


@dataclass(frozen=True)
class PrReport:
    """Realizability residual ||A Theta + Theta A^T + B J B^T|| and its scale."""

    residual: float
    scale: float

    @property
    def relative(self):
        return self.residual / self.scale

    @property
    def ok(self):
        return self.residual <= PR_RELATIVE_TOL * self.scale


def build_from_energy_coupling(theta, energy, coupling):
    """Assemble a realizable model from an energy and coupling pair.

    Parameters
    ----------
    theta : (n, n) array_like
        Antisymmetric nonsingular CCR matrix.
    energy : (n, n) array_like
        Symmetric energy matrix K.
    coupling : (m, n) array_like
        Coupling matrix M, with m even.

    Returns
    -------
    OqhoModel
        Model with A = 2 Theta (K + M^T J M) and B = 2 Theta M^T, which
        satisfies the realizability identity by construction.

    Raises
    ------
    ValueError
        If K is not symmetric or the shapes are inconsistent.
    NumericalFailure
        If the resulting drift is not Hurwitz.
    """
    theta = _as_matrix(theta, "theta", square=True)
    energy = _as_matrix(energy, "energy", square=True)
    coupling = _as_matrix(coupling, "coupling")
    n = theta.shape[0]
    if energy.shape != (n, n):
        raise ValueError("energy shape does not match theta")
    if coupling.shape[1] != n:
        raise ValueError("coupling must have n columns")
    if np.linalg.norm(energy - energy.T) > 1e-12 * (1.0 + np.linalg.norm(energy)):
        raise ValueError("energy matrix must be symmetric")
    j = symplectic_j(coupling.shape[0])
    drift = 2.0 * theta @ (energy + coupling.T @ j @ coupling)
    dispersion = 2.0 * theta @ coupling.T
    return OqhoModel(theta, drift, dispersion)


def check_pr(model):
    """Residual report for the realizability identity.

    Returns a :class:`PrReport` with the Frobenius norm of
    A Theta + Theta A^T + B J B^T and the scale
    1 + ||A|| ||Theta|| + ||B||^2 used for relative comparison.
    """
    a, theta, b = model.drift, model.theta, model.dispersion
    residual = a @ theta + theta @ a.T + b @ model.j @ b.T
    scale = (
        1.0
        + np.linalg.norm(a) * np.linalg.norm(theta)
        + np.linalg.norm(b) ** 2
    )
    return PrReport(float(np.linalg.norm(residual)), float(scale))


def ccr_two_point(model, tau):
    """Two-point commutator kernel Lambda(tau) as an (n, n) array.

    Lambda(tau) = e^{tau A} Theta for tau >= 0 and Theta e^{-tau A^T} for
    tau < 0, so that Lambda(-tau) = -Lambda(tau)^T holds identically.
    tau must be finite, else ValueError.
    """
    tau = float(tau)
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau == 0.0:
        return model.theta.copy()
    if tau > 0.0:
        return expm(tau * model.drift) @ model.theta
    return model.theta @ expm(-tau * model.drift.T)


def spectral_abscissa(model):
    """max Re eigenvalue of the drift; negative for a loaded model."""
    return float(np.max(np.linalg.eigvals(model.drift).real))


@dataclass(frozen=True)
class LaplacePoint:
    """A transform point s inside the recoverability strip.

    strip_margin is the distance from Re s to the nearer strip boundary
    {0, |max Re lambda(A)|}; it is positive for admissible points.
    """

    s: complex
    strip_margin: float


def laplace_point(model, s):
    """Validate s against the strip 0 < Re s < |max Re lambda(A)|; both
    parts of s must be finite, else ValueError."""
    s = complex(s)
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    half_width = abs(spectral_abscissa(model))
    margin = min(s.real, half_width - s.real)
    if not margin > 0.0:
        raise ValueError(
            f"s = {s} lies outside the transform strip 0 < Re s < {half_width:.6g}"
        )
    return LaplacePoint(s, float(margin))


def laplace_lambda(model, s):
    """Two-sided Laplace transform of Lambda at s, rational form.

    Evaluates -(sI - A)^{-1} B J B^T (sI + A^T)^{-1} after validating
    that s lies in the recoverability strip.
    """
    point = laplace_point(model, s)
    s = point.s
    a, b = model.drift, model.dispersion
    n = model.dim
    eye = np.eye(n)
    core = -b @ model.j @ b.T
    left = np.linalg.solve(s * eye - a, core)
    return np.linalg.solve((s * eye + a.T).T, left.T).T


def laplace_lambda_quadrature(model, s, tol=1e-9):
    """Two-sided Laplace transform of Lambda by adaptive quadrature.

    Integrates e^{-s t} Lambda(t) over t in R, truncating each tail where
    the integrand norm falls below tol * 1e-3.  An oracle only, the
    independent cross-check of :func:`laplace_lambda`: the two agree to
    quadrature accuracy inside the strip.  scipy.integrate is imported on
    the first call, not with the module.

    Parameters
    ----------
    model : OqhoModel
    s : complex
        Point in the recoverability strip.
    tol : float
        Absolute quadrature tolerance.  Must be positive.

    Returns
    -------
    value : (n, n) complex ndarray
    error : float
        Quadrature error estimate plus the truncation bound.

    Raises
    ------
    NumericalFailure
        If the truncation search or the quadrature exhausts its budget,
        which happens for tol = 0.
    """
    # Local import: scipy.integrate pulls in optimize, sparse and special,
    # which would add about 0.3 s to the start-up of every process.
    from scipy.integrate import quad_vec

    point = laplace_point(model, s)
    s = point.s
    if tol <= 0.0:
        raise NumericalFailure("quadrature tolerance must be positive")

    def integrand(t):
        return np.exp(-s * t) * ccr_two_point(model, t)

    # Truncation points: double outward until the integrand norm is
    # negligible against tol.  The strip membership guarantees decay.
    cut = tol * 1e-3
    tails = []
    for sign in (1.0, -1.0):
        t_edge = 1.0
        for _ in range(_TAIL_DOUBLINGS):
            if np.linalg.norm(integrand(sign * t_edge)) < cut:
                break
            t_edge *= 2.0
        else:
            raise NumericalFailure(
                "tail truncation search exhausted its doubling budget"
            )
        tails.append(sign * t_edge)
    t_plus, t_minus = tails

    try:
        right, err_right = quad_vec(
            integrand, 0.0, t_plus, epsabs=tol, epsrel=tol, norm="2"
        )
        left, err_left = quad_vec(
            integrand, t_minus, 0.0, epsabs=tol, epsrel=tol, norm="2"
        )
    except Exception as exc:  # quadrature non-convergence surfaces here
        raise NumericalFailure(f"adaptive quadrature failed: {exc}") from exc

    # Tail remainder bound: geometric decay at the strip margin rate.
    decay = point.strip_margin
    tail_bound = 2.0 * cut / max(decay, 1e-300)
    return right + left, float(err_right + err_left + tail_bound)


def random_model(rng, n=2, m=2, scale=1.0):
    """Seeded random realizable model; rejects non-Hurwitz drafts.

    Draws theta, K, M with entries uniform on [-scale, scale] (theta
    antisymmetrized, K symmetrized) and retries until the drift is
    Hurwitz with margin and theta is comfortably nonsingular, raising
    NumericalFailure after _MODEL_DRAWS drafts.
    """
    for _ in range(_MODEL_DRAWS):
        raw = rng.uniform(-scale, scale, size=(n, n))
        theta = 0.5 * (raw - raw.T)
        if abs(np.linalg.det(theta)) < 1e-4 * scale**n:
            continue
        raw_k = rng.uniform(-scale, scale, size=(n, n))
        energy = 0.5 * (raw_k + raw_k.T)
        coupling = rng.uniform(-scale, scale, size=(m, n))
        try:
            model = build_from_energy_coupling(theta, energy, coupling)
        except NumericalFailure:
            continue
        if spectral_abscissa(model) < -1e-3:
            return model
    raise NumericalFailure(f"no Hurwitz draw found in {_MODEL_DRAWS} attempts")
