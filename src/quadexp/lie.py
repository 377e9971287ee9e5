"""Exponential bridge between kernel measures and symplectic kernels.

The map Q -> 4i Lambda Q identifies the commutator algebra of quadratic
forms with a matrix Lie algebra, so time-ordered products of quadratic
exponentials become products of stacked matrices.  This module supplies
the calculus both directions need:

  * the scalar functions Ups(z) = (e^z - 1)/z, its reciprocal Mho, and
    sinhc(z) = sinh(z)/z, which govern derivatives of matrix
    exponentials along paths (Ups(z) = e^{z/2} sinhc(z/2) identically);
  * their superoperator versions applied to the adjoint action ad_x,
    which are integrals of conjugations,

        Ups(ad_x)(y)   = integral_0^1  e^{lam x} y e^{-lam x} dlam,
        sinhc(ad_x)(y) = (1/2) integral_{-1}^{1} e^{lam x} y e^{-lam x} dlam,

    evaluated in closed form in the eigenbasis of x (a block exponential
    when x has no well-conditioned eigenbasis), and Mho(ad_x) by its
    Bernoulli series (radius 2 pi, guarded);
  * the exponential of a stacked Hamiltonian kernel, which is a complex
    symplectic kernel preserving the commutator kernel congruence
    S Lambda S^T = Lambda, the anchored matrix logarithm, and the kernel
    solve inverting it back to a measure (ccr.solver, which the
    commutator kernel owns and keeps with its condition number);
  * the power series in one matrix that the other layers sum near zero
    (atan's Gregory series, sin and cos, Ups), each a coefficient rule
    and a degree handed to one Horner evaluation.

Measures at node u are supported in [0, t_u]^2, so the matrices the
bridge passes here vanish beyond their first k = (u + 1) n columns
(Hamiltonians, offsets, right-hand sides) or equal the identity there
(symplectic kernels).  The congruence residual finds that k in its own
input (a kernel path hands its stored live block to it) and works on
the k live columns; a dense input is the case k = size.  Extraction
takes the logarithm of T = conj(S)^{-1} S on those columns in real
arithmetic, through its Cayley form (solvers.qef_from_csk_path), with
the atan series and the reconstruction bound supplied here; past the
series radius it takes the anchored logarithm of T.  The kernel solve
takes k from the node u it is given and solves
Lambda[:k, :k] W_11 = H_11 alone: the rows below k only check
consistency.  The eigenbasis superoperators (Ups, sinhc) are plain
matrix functions of ad_x on their whole square input: the inverse
direction hands them the leading k x k blocks and their value to the
kernel solve as that leading block (solvers._inverse_step).  The
Bernoulli superoperator (Mho) takes its operands as their size x k live
columns, rows below k included, and the exponent path
(solvers.g_path_magnus) hands its value to the kernel solve as those
columns.

Everything here is grid-level linear algebra; the time direction lives
in the solver module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .measures import ChkMatrix, KernelMeasure, _check_node, _live_width
from .measures import lambda_product
from .model import expm

__all__ = [
    "CskMatrix",
    "KernelSolver",
    "ChkSolveReport",
    "MagnusCheckReport",
    "ups_scalar",
    "mho_scalar",
    "sinhc_scalar",
    "ups_superop",
    "sinhc_superop",
    "mho_superop",
    "chk_exp",
    "csk_log",
    "symplectic_residual",
    "bch_product",
    "magnus_derivative_check",
]

# Safety bound on the 1-norm of an exponent before expm is attempted.
EXP_NORM_BOUND = 50.0

# The anchored logarithm must reproduce its input to this relative accuracy;
# extraction's real route holds its bound on ||exp(H) - T||_F to it with
# scale 1 (lie._cayley_gap_bound).
LOG_RECONSTRUCTION_TOL = 1e-9

# Extraction sums the Gregory series for atan(Y), Y = (Re S)^{-1} Im S,
# while ||Y||_1 stays below this (at most 24 products); larger offsets go
# through the anchored principal logarithm.
GREGORY_RADIUS = 0.5

# Kernel solve acceptance: residual over ||ham||.
SOLVE_RELATIVE_TOL = 1e-6
# floor under the relative test: right-hand sides near the rounding level
# of upstream logarithms carry unfittable eps-size junk
SOLVE_ABSOLUTE_TOL = 1e-11

# Symplectic congruence residual, relative to (1 + ||Lambda|| ||S||^2).
SYMPLECTIC_TOL = 1e-10

# Bernoulli series guard: the adjoint norm bound must stay inside this
# fraction of the convergence radius 2 pi.
MHO_RADIUS_FRACTION = 0.9

# Bernoulli series degree of mho_superop.
MHO_SUPEROP_ORDER = 16

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# scalar functions
#
# Each is a closed form q(z) / z or z / q(z) with q = expm1 or sinh, which
# do not cancel near 0 (Higham, Functions of Matrices, SIAM 2008, sec.
# 10.1), so no series branch is needed; the removable singularity at 0 has
# the value 1.

def _one_at_zero(closed_form, z):
    """closed_form(z) where z != 0 and exactly 1 where z == 0; the closed
    form never sees a zero, so no 0/0 is evaluated."""
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    result = np.where(zero, 1.0, closed_form(np.where(zero, 1.0, z)))
    return result if result.ndim else complex(result)


def ups_scalar(z):
    """Ups(z) = (e^z - 1)/z = expm1(z)/z; Ups(0) = 1."""
    return _one_at_zero(lambda z: np.expm1(z) / z, z)


def sinhc_scalar(z):
    """sinhc(z) = sinh(z)/z; sinhc(0) = 1."""
    return _one_at_zero(lambda z: np.sinh(z) / z, z)


def _bernoulli_over_factorial(order):
    """Coefficients c_k = B_k / k! of z/(e^z - 1) up to degree order."""
    coeffs = np.zeros(order + 1)
    coeffs[0] = 1.0
    # Recurrence from (e^z - 1)/z * Mho(z) = 1: the degree-k coefficient
    # of the product vanishes for k >= 1.
    factorials = [1.0]
    for k in range(1, order + 2):
        factorials.append(factorials[-1] * k)
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(k):
            acc += coeffs[j] / factorials[k + 1 - j]
        coeffs[k] = -acc
    return coeffs


def mho_scalar(z):
    """Mho(z) = z/(e^z - 1) = z/expm1(z) = 1/Ups(z); Mho(0) = 1.

    Defined away from the poles at 2 pi i k, k nonzero; a point with
    |expm1(z)| < 1e-6 and |z| > 1, within about 1e-6 of a pole, raises.
    """

    def closed_form(z):
        em1 = np.expm1(z)
        if np.any((np.abs(em1) < 1e-6) & (np.abs(z) > 1.0)):
            raise NumericalFailure("mho evaluated too close to a pole 2 pi i k")
        return z / em1

    return _one_at_zero(closed_form, z)


# ---------------------------------------------------------------------------
# adjoint superoperators

def _adjoint_norm_bound(x):
    """Cheap upper bound on the spectral norm of ad_x = [x, .]."""
    one = np.linalg.norm(x, 1)
    inf = np.linalg.norm(x, np.inf)
    fro = np.linalg.norm(x)
    return 2.0 * min(fro, np.sqrt(one * inf))


def _eigenbasis(x):
    """(d, v, v^{-1}, cond(v)) with x = v diag(d) v^{-1}, or None when
    cond(v) >= 1e6 or the basis misses x by 1e-10 (1 + ||x||).

    An x with no nonzero real part is i times the real matrix x.imag,
    whose real eigenproblem (half the work of the complex one) gives v
    and mu, with d = i mu.
    """
    try:
        if x.real.any():
            d, v = np.linalg.eig(x)
        else:
            mu, v = np.linalg.eig(x.imag)
            d = 1j * mu
        cond = float(np.linalg.cond(v))
        # an ill-conditioned basis is ruled out before V^{-1} is formed:
        # the reconstruction of a near-defective x can overflow
        if not cond < 1e6:
            return None
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    recon = np.linalg.norm((v * d) @ vinv - x)
    if recon < 1e-10 * (1.0 + np.linalg.norm(x)):
        return d, v, vinv, cond
    return None


def _adjoint_function(x, y, scalar, symmetric):
    """scalar(ad_x)(y) in closed form and a bound on its rounding error.

    scalar is ups_scalar, or sinhc_scalar with symmetric=True, since
    sinhc(z) = (Ups(z) + Ups(-z)) / 2, so f = scalar is the mean of
    e^{lam z} over lam in [0, 1] (or [-1, 1]).

    x and y are dense m x m matrices, and the value is too: a zero-padded
    input costs its full size (the inverse step hands over its leading
    k x k blocks only, :func:`solvers._inverse_step`).  In an eigenbasis
    x = V D V^{-1} the Daleckii-Krein form (Higham, Functions of
    Matrices, SIAM 2008, Thm 3.11) gives V (f(d_i - d_j) o V^{-1} y V)
    V^{-1}.  The basis comes from one eig (:func:`_eigenbasis`), of the
    real matrix x.imag when x has no nonzero real part, as x = 2i Lambda N
    has for a measure N stored with an exactly zero imaginary part (the
    diagonal path, and the staggered inverse of extracted measures).
    Without a well-conditioned eigenbasis of x, one block
    exponential of [[x, y], [0, x]] (Van Loan, IEEE TAC 1978) gives E = e^x
    and the corner C, so Ups(ad_x)(y) = C e^{-x} and Ups(-ad_x)(y) =
    e^{-x} C.

    The bound is sqrt(w) eps kappa (1 + ||x||_F) ||y||_F: w = m and
    kappa = cond(V) times the largest of 1 and |f(d_i - d_j)| in the
    eigenbasis; w = 2m and kappa = cond(E) on the block route.  That is
    rounding of length-w inner products, amplified by the change of basis
    (or the solves) and the factors, for an x known only to rounding
    relative to its own norm.  sqrt(w) in place of the worst-case w
    models independent rounding errors (Higham & Mary, SIAM J. Sci.
    Comput. 41, 2019).  Against 40-digit series every error stayed below
    0.54 times the bound on the k x k blocks of the diagonal measure paths
    of the bundled model at N = 8 and 16, below 0.13 times it on the
    zero-padded inputs of the border-row tests (20 seeds), and below 0.73
    times it on 140 random inputs (sizes 5 to 13, Gaussian x scaled by
    0.05 to 1.5, Jordan blocks for the block route).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    size = x.shape[0]
    basis = _eigenbasis(x)
    if basis is not None:
        dvals, v, vinv, cond = basis
        factors = scalar(dvals[:, None] - dvals[None, :])
        value = v @ (factors * (vinv @ y @ v)) @ vinv
        width, kappa = size, cond * max(1.0, np.abs(factors).max())
    else:
        block = expm(np.block([[x, y], [np.zeros_like(x), x]]))
        ex, corner = block[:size, :size], block[:size, size:]
        value = np.linalg.solve(ex.T, corner.T).T
        if symmetric:
            value = 0.5 * (value + np.linalg.solve(ex, corner))
        width, kappa = 2 * size, np.linalg.cond(ex)
    bound = np.sqrt(width) * kappa * (1.0 + np.linalg.norm(x))
    return value, float(bound * np.finfo(float).eps * np.linalg.norm(y))


def ups_superop(x, y):
    """Ups(ad_x)(y) = integral_0^1 e^{lam x} y e^{-lam x} dlam.

    x and y are square matrices of one size, taken as dense: the cost is
    that of the whole input, zero padding included.  Returns (value,
    bound on its rounding error), both stated in
    :func:`_adjoint_function`.
    """
    return _adjoint_function(x, y, ups_scalar, symmetric=False)


def sinhc_superop(x, y):
    """sinhc(ad_x)(y) = (1/2) integral_{-1}^{1} e^{lam x} y e^{-lam x} dlam.

    Takes dense square x and y and returns (value, rounding bound) like
    :func:`ups_superop`.
    """
    return _adjoint_function(x, y, sinhc_scalar, symmetric=True)


def mho_superop(x, y):
    """Mho(ad_x)(y) by the truncated Bernoulli series of ad_x.

    x and y are square matrices that vanish beyond their first k
    columns, given as those size x k columns, k = x.shape[1] (a square
    input is the case k = size).  Each commutator is then
    ad_x(t) = x t[:k] - t x[:k], again size x k, so the value is the
    first k columns of the series on the zero-padded matrices.
    Requires the adjoint norm bound 2||x|| to stay below 0.9 * 2 pi so
    the series converges with margin; the bound and the tail estimate
    read the same norms as on the zero-padded matrices.  Returns
    (value, tail_estimate).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    k = x.shape[1]
    bound = _adjoint_norm_bound(x)
    if bound >= MHO_RADIUS_FRACTION * _TWO_PI:
        raise NumericalFailure(
            f"adjoint norm bound {bound:.3e} outside the Bernoulli series "
            f"guard {MHO_RADIUS_FRACTION * _TWO_PI:.3e}"
        )
    coeffs = _bernoulli_over_factorial(MHO_SUPEROP_ORDER)
    term = y
    value = coeffs[0] * term
    last = 0.0
    for j in range(1, MHO_SUPEROP_ORDER + 1):
        term = x @ term[:k] - term @ x[:k]
        if coeffs[j] != 0.0:
            contribution = coeffs[j] * term
            value = value + contribution
            last = np.linalg.norm(contribution)
    ratio = bound / _TWO_PI
    tail = last * ratio / max(1.0 - ratio, 1e-12)
    return value, float(tail)


# ---------------------------------------------------------------------------
# exponential and logarithm

@dataclass(frozen=True)
class CskMatrix:
    """Stacked complex symplectic kernel S with its commutator kernel.

    Construction verifies the congruence S Lambda S^T = Lambda within
    SYMPLECTIC_TOL * (1 + ||Lambda|| ||S||^2), raising NumericalFailure
    otherwise, a non-finite S included; the exponential of any
    Hamiltonian kernel satisfies it exactly in exact arithmetic.  grid
    must be the kernel's grid, else ValueError.
    """

    grid: object
    mat: np.ndarray
    ccr: object

    def __post_init__(self):
        if self.grid != self.ccr.grid:
            raise ValueError("matrix and kernel grids differ")
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != self.ccr.big.shape:
            raise ValueError("matrix shape does not match the kernel")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        _check_symplectic(*symplectic_residual_raw(mat, self.ccr.big))


def _check_symplectic(residual, scale):
    """Raise NumericalFailure unless residual <= SYMPLECTIC_TOL * scale;
    a NaN or infinite residual trips the gate."""
    if not residual <= SYMPLECTIC_TOL * scale:
        raise NumericalFailure(
            f"symplectic residual {residual:.3e} exceeds "
            f"{SYMPLECTIC_TOL:.0e} * {scale:.3e}"
        )


def symplectic_residual_raw(mat, big):
    """(||S Lambda S^T - Lambda||_F, 1 + ||Lambda||_F ||S||_F^2).

    mat is S or its leading columns S[:, :j], beyond which S is the
    identity (a kernel path hands over its stored live block).  One scan
    drops any trailing identity columns, leaving k with X = S - I zero
    beyond column k.  With M = X[:, :k] Lambda[:k, :] and Lambda
    antisymmetric, the residual is M - M^T + M[:, :k] X[:, :k]^T, an
    O(size^2 k) evaluation.  Each of the size - k identity columns adds 1
    to ||S||_F^2, so the scale needs no full node either.
    """
    size = mat.shape[0]
    k = _live_width(mat - np.eye(size, mat.shape[1]))
    offset = mat[:, :k] - np.eye(size, k)
    # Lambda is real: two real products in place of one complex zgemm
    lead = big[:k, :]
    m = offset.real @ lead + 1j * (offset.imag @ lead)
    residual = m - m.T
    residual += m[:, :k] @ offset.T
    norm2 = np.linalg.norm(mat[:, :k]) ** 2 + (size - k)
    scale = 1.0 + np.linalg.norm(big) * norm2
    return float(np.linalg.norm(residual)), float(scale)


def symplectic_residual(csk):
    """Congruence residual of a symplectic kernel against its own Lambda."""
    return symplectic_residual_raw(csk.mat, csk.ccr.big)


def chk_exp(chk, ccr):
    """Symplectic kernel exp(4i ham), the isomorphism image exp(4i Lambda Q).

    The exponent 1-norm is gated at EXP_NORM_BOUND before expm runs.
    """
    exponent = 4j * chk.ham
    size = np.linalg.norm(exponent, 1)
    if size > EXP_NORM_BOUND:
        raise NumericalFailure(
            f"exponent 1-norm {size:.3e} exceeds the safety bound {EXP_NORM_BOUND}"
        )
    return CskMatrix(chk.grid, expm(exponent), ccr)


def _principal_log(mat):
    # Local import: scipy.linalg costs about 0.3 s per process, and only
    # this fallback takes a general logarithm
    from scipy.linalg import logm

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ham = logm(mat)
    return np.asarray(ham, dtype=complex)


def _log_reconstruction_ok(ham, mat):
    residual = np.linalg.norm(expm(ham) - mat)
    return residual <= LOG_RECONSTRUCTION_TOL * max(np.linalg.norm(mat), 1.0)


def _polynomial(w, coeffs):
    """sum_j coeffs[j] w^j for a square matrix w, in the dtype of w.

    Horner's rule (Higham, Functions of Matrices, SIAM 2008, sec. 4.2):
    one product per degree above 0 and no stored powers.
    """
    k = w.shape[0]
    acc = coeffs[-1] * np.eye(k, dtype=w.dtype)
    for coeff in reversed(coeffs[:-1]):
        acc = w @ acc
        acc.flat[:: k + 1] += coeff
    return acc


def _gregory_factor(w, radius):
    """G = sum_j w^j / (2j + 1) for the real w = -y^2, so that
    atan(y) = y G: the Gregory series (Higham, Functions of Matrices,
    SIAM 2008, sec. 11.3) with alternating signs.

    With radius r >= ||y||_1, r < 1, ||w^j||_1 <= r^(2j), so the tail of
    the series after the degree-d term in y is at most
    r^(d+2) / ((d+2)(1 - r^2)); terms stop once that falls below eps/2
    relative to the leading term r.
    """
    eps = np.finfo(float).eps
    degree = 1
    while radius ** (degree + 1) > 0.5 * eps * (degree + 2) * (1.0 - radius * radius):
        degree += 2
    return _polynomial(w, 1.0 / np.arange(1, degree + 1, 2))


def _sin_cos_factors(w, radius):
    """(P, Q) = (sum_m (-w)^m / (2m + 1)!, sum_m (-w)^m / (2m + 2)!), so
    that sin(x) = x P(x^2) and cos(x) = I - x^2 Q(x^2) for w = x^2.

    With radius r >= ||x||_1, ||w^m||_1 <= r^(2m), and for r <= 1 the
    tails of both series after the degree-m term are below
    1.05 r^(2m+2) / (2m+3)!; terms stop once r^(2m+2) / (2m+3)! falls
    below eps/4.
    """
    eps = np.finfo(float).eps
    m = 0
    while radius ** (2 * m + 2) > 0.25 * eps * math.factorial(2 * m + 3):
        m += 1
    # (-1)^(j // 2) / (j + 1)!: P takes the even j, Q the odd
    coeffs = [(-1) ** (j // 2) / math.factorial(j + 1) for j in range(2 * m + 2)]
    return _polynomial(w, coeffs[0::2]), _polynomial(w, coeffs[1::2])


def _cayley_gap_bound(theta, y):
    """Bound on ||exp(2i Theta) - T||_F, T = (I + iY)(I - iY)^{-1}, for
    real Theta and Y that vanish beyond their first k columns, given as
    those columns (size x k), with ||Y||_1 < 1.

    For any Theta, exp(2i Theta) - T = 2i e^{i Theta} R (I - iY)^{-1}
    exactly, with R = sin(Theta) - cos(Theta) Y, and R vanishes beyond
    column k, as Theta and Y do.  So the gap is at most
    sqrt(k) 2 e^{||Theta||_1} ||R||_1 / (1 - ||Y||_1) in the Frobenius
    norm.  R is formed in real arithmetic on the k columns: with P and Q
    of :func:`_sin_cos_factors` at Theta_11^2, sin(Theta) = Theta P and
    cos(Theta) = I - Theta Theta_11 Q there, so
    R = Theta (P + Theta_11 Q Y_11) - Y.  R is exactly zero when
    Theta = atan(Y), so the bound is rounding of R (1.9e-17 to 5.4e-16
    on the corner-atom flows of the test fixtures at N = 8, 2.5 to 9.1
    times the 40-digit gap), while a wrong series shows at its own size
    (8.0e-7 to 2.1e-3 there with the atan series cut after one term).
    """
    k = theta.shape[1]
    if not k:
        return 0.0
    t11 = theta[:k]
    radius = float(np.linalg.norm(theta, 1))
    p, q = _sin_cos_factors(t11 @ t11, radius)
    r = theta @ (p + (t11 @ q) @ y[:k]) - y
    scale = 2.0 * np.exp(radius) / (1.0 - np.linalg.norm(y, 1))
    return float(np.sqrt(k) * scale * np.linalg.norm(r, 1))


def _ups_series(h):
    """Ups(h) = sum_m h^m / (m+1)!, summed by :func:`_polynomial`.

    With r = ||h||_1 the tail after degree d is at most
    r^(d+1) / (d+2)! / (1 - r/(d+3)).  The one caller, the integrator's
    step (solvers._live_blocks), multiplies the value by M_C, whose rows
    C are h, and adds the product to a node of norm at least 1, so the
    tail is measured after that factor r: terms stop once
    r^(d+2) / (d+2)! falls below eps/4.  The step gate keeps
    ||M_CC||_1 <= 1, where at most 18 terms are needed and none cancels.
    """
    eps = np.finfo(float).eps
    radius = float(np.linalg.norm(h, 1)) if h.size else 0.0
    coeffs = [1.0]
    tail = 0.5 * radius * radius
    while tail > 0.25 * eps:
        coeffs.append(coeffs[-1] / (len(coeffs) + 1))
        tail *= radius / (len(coeffs) + 1)
    return _polynomial(h, coeffs)


def _within_pi(gap):
    """||gap||_2 < pi, the test for a logarithm near its anchor.

    ||.||_2 <= ||.||_F, so the SVD runs only when the Frobenius norm does
    not settle it.
    """
    return np.linalg.norm(gap) < np.pi or np.linalg.norm(gap, 2) < np.pi


def csk_log(csk, anchor=None):
    """Hamiltonian kernel H with exp(H) = S, branch-corrected to an anchor.

    Without an anchor the principal logarithm is returned, and an
    eigenvalue of S within angle 1e-6 of the negative real axis raises,
    since the principal branch is ambiguous there.  With an anchor
    (a ChkMatrix or plain matrix from a neighboring step) the branch is
    chosen to keep H near the anchor: if the principal log already lies
    within pi of it nothing moves, otherwise per-eigenvalue 2 pi i
    shifts are applied in the eigenbasis of S.

    Returns a ChkMatrix with source=None; reconstruction to
    LOG_RECONSTRUCTION_TOL relative accuracy is enforced.
    """
    mat = csk.mat
    anchor_mat = anchor.ham if isinstance(anchor, ChkMatrix) else anchor
    if anchor_mat is not None:
        anchor_mat = np.asarray(anchor_mat)
        if anchor_mat.shape != mat.shape:
            raise ValueError("anchor shape does not match the kernel")

    # the ambiguity is checked first: at an eigenvalue on the axis the
    # principal logarithm itself may fail, by rounding, to reconstruct S
    if anchor_mat is None:
        eigvals = np.linalg.eigvals(mat)
        angles = np.abs(np.pi - np.abs(np.angle(eigvals)))
        if np.any(angles < 1e-6):
            raise NumericalFailure(
                "eigenvalue on the negative real axis: logarithm branch is "
                "ambiguous without an anchor"
            )

    ham = _principal_log(mat)
    if not _log_reconstruction_ok(ham, mat):
        raise NumericalFailure("logarithm failed to reconstruct its input")

    if anchor_mat is None:
        return ChkMatrix(csk.grid, ham, None)

    if _within_pi(ham - anchor_mat):
        return ChkMatrix(csk.grid, ham, None)

    # Principal branch is far from the anchor: look for 2 pi i shifts of
    # individual eigenvalues that close the gap.  Diagonalize S, match
    # each eigenvector against the anchor through a Rayleigh quotient,
    # and round the imaginary gap to whole turns.
    try:
        d, v = np.linalg.eig(mat)
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "branch correction failed: eigenbasis unavailable"
        ) from exc
    log_d = np.log(d)
    anchor_diag = np.diag(vinv @ anchor_mat @ v)
    turns = np.round((anchor_diag.imag - log_d.imag) / _TWO_PI)
    corrected = log_d + 2j * np.pi * turns
    ham = v @ (corrected[:, None] * vinv)
    if not _log_reconstruction_ok(ham, mat):
        raise NumericalFailure(
            "branch-corrected logarithm failed to reconstruct its input"
        )
    if not _within_pi(ham - anchor_mat):
        raise NumericalFailure(
            "negative-axis crossing: no branch of the logarithm lies near "
            "the anchor"
        )
    return ChkMatrix(csk.grid, ham, None)


# ---------------------------------------------------------------------------
# kernel solve and group product

@dataclass(frozen=True)
class ChkSolveReport:
    """Diagnostics of a kernel solve: the residual over the whole
    right-hand side, absolute and relative to its norm, the kernel's
    condition number, and ||R - R^T|| of the solution R before it is
    symmetrized."""

    residual: float
    relative: float
    condition: float
    asymmetry: float


class KernelSolver:
    """Solves against a stacked commutator kernel, owned by the kernel.

    ccr.solver builds it on first use and keeps it, so the condition
    number of a kernel is computed once however many right-hand sides
    the bridge solves for.  A rank-deficient kernel (for example when
    B J B^T is singular) is detected through the condition estimate and
    solved by least squares, whose residual then reports the failure.

    A measure supported in [0, t_u]^2 has its masses in the leading
    k x k block, k = (u + 1) n, so Lambda W = H reduces to
    Lambda[:k, :k] W_11 = H_11: :meth:`solve_measure` solves that block
    alone, and the rows below it only check consistency.
    """

    def __init__(self, ccr):
        self.ccr = ccr
        self.condition = float(np.linalg.cond(ccr.big))

    def solve_measure(self, ham, support_index=None):
        """Measure W supported in [0, t_u]^2, u = support_index, with
        Lambda W = ham.

        One solve, Lambda[:k, :k] R = ham[:k, :k] with k = (u + 1) n (all
        rows when support_index is None), gives the window
        W_11 = (R + R^T) / 2; least squares takes over when the kernel's
        condition is not below 1e12 or the leading block is exactly
        singular.  ham is the size x size right-hand side, its first k
        columns as a size x k array (the columns beyond k being zero),
        or just its leading k x k block, whose rows below k are then
        Lambda[k:, :k] R.  The residual Lambda W - ham is taken over
        every row and column of the whole right-hand side, so the first
        two shapes gate the rows below k as given.

        Returns (KernelMeasure, ChkSolveReport); raises ValueError unless
        support_index is None or an integer in [0, N + 1) and ham has one
        of the three shapes, and NumericalFailure when ham is not finite or
        the residual is not within SOLVE_RELATIVE_TOL of the right-hand
        side's norm (plus SOLVE_ABSOLUTE_TOL).
        """
        big, grid, n = self.ccr.big, self.ccr.grid, self.ccr.dim
        size = big.shape[0]
        k = size
        if support_index is not None:
            k = (_check_node(support_index, grid.node_count, "support_index") + 1) * n
        ham = np.asarray(ham)
        if ham.shape not in {(size, size), (size, k), (k, k)}:
            raise ValueError(
                f"ham of shape {ham.shape} is not {size} x {size}, its first "
                f"{k} columns ({size} x {k}) or the leading {k} x {k} block"
            )
        if not np.isfinite(ham).all():
            raise NumericalFailure("kernel solve: the Hamiltonian is not finite")
        lead = big[:k, :k]
        raw = None
        if self.condition < 1e12:  # False for inf and NaN
            try:
                raw = np.linalg.solve(lead, ham[:k, :k])
            except np.linalg.LinAlgError:
                pass
        if raw is None:
            raw = np.linalg.lstsq(lead, ham[:k, :k], rcond=None)[0]
        asymmetry = float(np.linalg.norm(raw - raw.T))
        w = 0.5 * (raw + raw.T)
        # a real right-hand side solves in real arithmetic; the window is
        # stored complex all the same
        window = w.astype(complex, copy=False)
        measure = KernelMeasure._from_window(grid, n, 0, window)
        # the right-hand side's first k columns; those beyond k enter by norm
        rhs = ham[:, :k] if len(ham) == size else np.vstack((ham, big[k:, :k] @ raw))
        beyond = np.linalg.norm(ham[:, k:])
        residual = float(np.hypot(np.linalg.norm(big[:, :k] @ w - rhs), beyond))
        ham_norm = float(np.hypot(np.linalg.norm(rhs), beyond))
        if not residual <= ham_norm * SOLVE_RELATIVE_TOL + SOLVE_ABSOLUTE_TOL:
            raise NumericalFailure(
                f"kernel solve residual {residual:.3e} exceeds "
                f"{SOLVE_RELATIVE_TOL:.0e} relative to {ham_norm:.3e} "
                f"(condition {self.condition:.3e})"
            )
        relative = residual / ham_norm if ham_norm > 0.0 else 0.0
        return measure, ChkSolveReport(residual, relative, self.condition, asymmetry)


def bch_product(q1, q2, ccr):
    """Measure Q with exp(4i L Q) = exp(4i L Q1) exp(4i L Q2).

    Computes the group product of the two exponentials and pulls it back
    through the anchored logarithm (anchored at the sum of the two
    :func:`lambda_product` Hamiltonians, the leading term of the
    expansion) and the kernel solve.  Returns
    (KernelMeasure, ChkSolveReport).
    """
    h1, h2 = lambda_product(ccr, q1), lambda_product(ccr, q2)
    product = CskMatrix(ccr.grid, chk_exp(h1, ccr).mat @ chk_exp(h2, ccr).mat, ccr)
    ham = csk_log(product, anchor=4j * (h1.ham + h2.ham))
    support = max(q1.support_index, q2.support_index)
    return ccr.solver.solve_measure(ham.ham / 4j, support_index=support)


# ---------------------------------------------------------------------------
# derivative identity check

@dataclass(frozen=True)
class MagnusCheckReport:
    """Relative residuals of the exponential derivative identities."""

    left_max: float
    right_max: float
    samples: int


def magnus_derivative_check(phi_path, h):
    """Check (e^phi)' = Ups(ad_phi)(phi') e^phi = e^phi Ups(-ad_phi)(phi').

    phi_path is a sequence of square matrices sampled with uniform
    spacing h; derivatives are taken by central differences, so the
    residuals decrease at second order under refinement.  Returns the
    maximal relative residuals of both identities over the interior
    samples.
    """
    path = [np.asarray(p, dtype=complex) for p in phi_path]
    if len(path) < 3:
        raise ValueError("need at least three samples for central differences")
    left_max = 0.0
    right_max = 0.0
    for i in range(1, len(path) - 1):
        phi = path[i]
        dphi = (path[i + 1] - path[i - 1]) / (2.0 * h)
        fd = (expm(path[i + 1]) - expm(path[i - 1])) / (2.0 * h)
        e = expm(phi)
        left, _ = ups_superop(phi, dphi)
        right, _ = ups_superop(-phi, dphi)
        denom = 1.0 + np.linalg.norm(fd)
        left_max = max(left_max, np.linalg.norm(fd - left @ e) / denom)
        right_max = max(right_max, np.linalg.norm(fd - e @ right) / denom)
    return MagnusCheckReport(float(left_max), float(right_max), len(path) - 2)
