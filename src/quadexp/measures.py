"""Kernel measures on a uniform time grid and their commutator algebra.

A complex symmetric kernel measure Q on [0, T]^2 enters quadratic forms

    phi_Q = integral integral X(sigma)^T Q(dsigma x dtau) X(tau)

of the model variables.  On a uniform grid with nodes t_j = j h the
measure is represented by node masses: an (N+1) x (N+1) array of n x n
blocks, read flat as an n(N+1) square matrix W whose (j, k) block is
Q({t_j} x {t_k}) and stored as the window of W outside which it
vanishes.  Densities carry their quadrature weights inside the
masses (trapezoidal, order h^2), so every composition below is plain
matrix arithmetic:

    (Lambda Q)(t_j, {t_k})   -> (big @ W) block (j, k)
    (Q1 Lambda Q2) block     -> (W1 @ big @ W2) block (j, k)

where big is the stacked two-point commutator kernel, block (j, k) equal
to Lambda(t_j - t_k).  The commutator of two quadratic forms is again a
quadratic form,

    [phi_Q1, phi_Q2] = phi_Q,    Q = 4i (Q1 Lambda Q2 - Q2 Lambda Q1),

and the map Q -> 4i Lambda Q turns that bracket into the ordinary matrix
commutator, which is what the exponential bridge modules rely on.
Measure symmetry means W equals W^T as a flat matrix; the antisymmetric
part of raw data contributes only the scalar i <Lambda, Q_minus> and is
split off rather than stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ScenarioError
from .model import ccr_two_point

__all__ = [
    "TimeGrid",
    "make_grid",
    "CcrKernel",
    "build_ccr_kernel",
    "kernel_weighted_norm",
    "KernelMeasure",
    "ChkMatrix",
    "zero_measure",
    "atom_measure",
    "diagonal_lebesgue_measure",
    "atomic_corner_measure",
    "random_measure",
    "split_sym_antisym",
    "lambda_product",
    "measure_triple_product",
    "bracket",
    "is_nonanticipative",
    "project_support",
    "write_measure_csv",
    "read_measure_csv",
]

# A block is treated as unsupported mass when its Frobenius norm is below this.
SUPPORT_TOL = 1e-14


def _is_index(u):
    """u is an int or numpy integer, and not a bool."""
    return isinstance(u, (int, np.integer)) and not isinstance(u, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with step h = T / N.

    Raises ValueError unless the horizon T is finite and positive and the
    step count N is an integer (int or numpy integer, not bool) >= 1.
    """

    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if not (_is_index(self.steps) and self.steps >= 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")

    @property
    def step(self):
        return self.horizon / self.steps

    @property
    def node_count(self):
        return self.steps + 1

    @property
    def nodes(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)


def make_grid(horizon, steps):
    """Uniform :class:`TimeGrid` on [0, horizon] with the given step count;
    steps is not truncated, so a non-integer count raises ValueError."""
    return TimeGrid(float(horizon), steps)


@dataclass(frozen=True)
class CcrKernel:
    """Stacked two-point commutator kernel on a grid.

    big is the real n(N+1) square matrix with block (j, k) equal to
    Lambda(t_j - t_k).  Kernel antisymmetry Lambda(-tau) = -Lambda(tau)^T
    makes big antisymmetric as a flat matrix, and block (j, j) equals
    Theta for every j.  The kernel owns its solver, :attr:`solver`,
    built on first use and shared by every later solve against it.
    big must be a finite square matrix whose size is a multiple of the
    node count, else ValueError.
    """

    grid: TimeGrid
    big: np.ndarray

    def __post_init__(self):
        big = np.asarray(self.big, dtype=float)
        if big.ndim != 2 or big.shape[0] != big.shape[1]:
            raise ValueError("big must be a square matrix")
        if not np.isfinite(big).all():
            raise ValueError("big must be finite")
        if big.shape[0] % self.grid.node_count != 0:
            raise ValueError("big size is not a multiple of the node count")
        big = big.copy()
        big.setflags(write=False)
        object.__setattr__(self, "big", big)

    @property
    def dim(self):
        return self.big.shape[0] // self.grid.node_count

    def block(self, j, k):
        """Lambda(t_j - t_k); ValueError unless j, k are nodes of the grid."""
        n, count = self.dim, self.grid.node_count
        j, k = _check_node(j, count, "j"), _check_node(k, count, "k")
        return self.big[j * n : (j + 1) * n, k * n : (k + 1) * n]

    @cached_property
    def solver(self):
        """The :class:`lie.KernelSolver` of this kernel, built once."""
        from .lie import KernelSolver  # lie imports this module

        return KernelSolver(self)


def build_ccr_kernel(model, grid):
    """Assemble the stacked kernel for a model on a grid.

    Uses ccr_two_point for each nonnegative lag d = j - k and fills
    negative lags by the antisymmetry relation, block (j, k) =
    -Lambda(t_k - t_j)^T, so flat antisymmetry holds exactly.
    """
    n = model.dim
    count = grid.node_count
    h = grid.step
    lags = np.array([ccr_two_point(model, d * h) for d in range(count)])
    d = np.subtract.outer(np.arange(count), np.arange(count))
    blocks = lags[abs(d)]
    blocks = np.where((d >= 0)[:, :, None, None], blocks, -blocks.swapaxes(2, 3))
    big = blocks.swapaxes(1, 2).reshape(n * count, n * count)
    return CcrKernel(grid, big)


def _block_norms(tile, n):
    """Frobenius norms of the n x n blocks of a tile cut on node boundaries."""
    blocks = tile.reshape(tile.shape[0] // n, n, tile.shape[1] // n, n)
    return np.sqrt((np.abs(blocks) ** 2).sum(axis=(1, 3)))


def _check_node(u, count, name="node"):
    """u as an int; raises ValueError unless it is an integer (not a bool)
    in [0, count)."""
    if not (_is_index(u) and 0 <= u < count):
        raise ValueError(f"{name} must be an integer in [0, {count}), got {u!r}")
    return int(u)


@dataclass(frozen=True, init=False, eq=False)
class KernelMeasure:
    """Node masses of a complex symmetric kernel measure.

    Only the window W[lo:hi, lo:hi] of the flat n(N+1) square matrix W
    is stored, read-only: [lo, hi) is the smallest range of whole nodes
    outside which W is exactly zero (one block for a corner atom), and
    weights builds W on each read.  The constructor takes W and
    symmetrizes it eagerly, so only feed raw asymmetric data through
    :func:`split_sym_antisym`, which also returns the scalar the
    antisymmetric part contributes.  support_index is scanned when -1;
    a declared one must be a node beyond which no block exceeds
    SUPPORT_TOL, else ValueError.
    """

    grid: TimeGrid
    support_index: int
    dim: int = field(repr=False)
    _lo: int = field(repr=False)
    _window: np.ndarray = field(repr=False)

    def __init__(self, grid, weights, support_index=-1):
        w = np.array(weights, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if w.shape[0] % grid.node_count != 0:
            raise ValueError("weights size is not a multiple of the node count")
        w = _symmetrized(w)
        self._store(grid, w.shape[0] // grid.node_count, 0, w, support_index)

    @classmethod
    def _from_window(cls, grid, dim, lo, window, support_index=-1):
        """The measure whose masses vanish outside the symmetric window
        W[lo:hi, lo:hi]; builders hand their windows over this way."""
        q = cls.__new__(cls)
        q._store(grid, dim, lo, window, support_index)
        return q

    def _store(self, grid, dim, lo, window, support_index):
        live = np.flatnonzero(window.any(axis=0)) // dim  # W = W^T: rows alike
        a, b = (live[0] * dim, (live[-1] + 1) * dim) if live.size else (0, 0)
        if (a, b) != (0, window.shape[0]):
            lo, window = lo + a if b else 0, window[a:b, a:b]
        if not window.flags.owndata:
            window = window.copy()
        window.setflags(write=False)
        if support_index == -1:
            hot = np.argwhere(_block_norms(window, dim) > SUPPORT_TOL)
            support_index = lo // dim + int(hot.max()) if hot.size else 0
        else:
            support_index = _check_node(support_index, grid.node_count, "support_index")
            tail = window[max(dim * (support_index + 1) - lo, 0) :]
            if (_block_norms(tail, dim) > SUPPORT_TOL).any():
                raise ValueError(f"mass beyond the declared support {support_index}")
        vars(self).update(
            grid=grid, support_index=support_index, dim=dim, _lo=lo, _window=window
        )

    @property
    def _hi(self):
        return self._lo + self._window.shape[0]

    @property
    def weights(self):
        """The full flat matrix W, built read-only on each read."""
        return self._span(0, self.dim * self.grid.node_count)

    @property
    def reality_residual(self):
        """||Im W||_F / (1 + ||W||_F), read from the window."""
        w = self._window
        return float(np.linalg.norm(w.imag) / (1.0 + np.linalg.norm(w)))

    def block(self, j, k):
        """Mass block (j, k); ValueError unless j, k are nodes of the grid."""
        n, lo, count = self.dim, self._lo, self.grid.node_count
        j, k = _check_node(j, count, "j"), _check_node(k, count, "k")
        if not lo <= min(j, k) * n <= max(j, k) * n < self._hi:
            return np.broadcast_to(0j, (n, n))  # read-only, as the window
        r, c = j * n - lo, k * n - lo
        return self._window[r : r + n, c : c + n]

    def _span(self, a, b):
        """W[a:b, a:b] for a <= lo and hi <= b, built read-only."""
        out = np.pad(self._window, (self._lo - a, b - self._hi))
        out.setflags(write=False)
        return out


def _symmetrized(w):
    """(W + W^T) / 2, halved first so that finite entries cannot overflow."""
    w = 0.5 * w + 0.5 * w.T
    bad = w[~np.isfinite(w)]
    if bad.size:
        raise ValueError(
            f"weights must be finite, got {bad.size} entries such as {bad[0]}"
        )
    return w


@dataclass(frozen=True)
class ChkMatrix:
    """Stacked complex Hamiltonian kernel, ham = big @ weights.

    source keeps the generating measure when one exists; matrices that
    arise from logarithms carry source=None until a measure is recovered.
    """

    grid: TimeGrid
    ham: np.ndarray
    source: KernelMeasure | None = None

    def __post_init__(self):
        ham = np.array(self.ham, dtype=complex)
        if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
            raise ValueError("ham must be a square matrix")
        ham.setflags(write=False)
        object.__setattr__(self, "ham", ham)


def _common_window(a, b):
    """(lo, hi, A, B): measures a and b as W[lo:hi, lo:hi], both windows in [lo, hi)."""
    lo, hi = min(a._lo, b._lo), max(a._hi, b._hi)
    return lo, hi, a._span(lo, hi), b._span(lo, hi)


def _midpoint(a, b):
    """(A + B) / 2 on :func:`_common_window`, as 0.5 * A + 0.5 * B; halving
    is exact, so the masses equal 0.5 * (A + B)."""
    lo, _, w_a, w_b = _common_window(a, b)
    return KernelMeasure._from_window(a.grid, a.dim, lo, 0.5 * w_a + 0.5 * w_b)


def _lambda_columns(ccr, q):
    """(C, big[:, C] @ W[C, C]): the nonzero columns C of W, read on the
    window, and the columns C of big @ W, the rest being zero (W = W^T)."""
    cols = np.flatnonzero(q._window.any(axis=0))
    return q._lo + cols, ccr.big[:, q._lo + cols] @ q._window[np.ix_(cols, cols)]


def zero_measure(grid, dim):
    """The zero measure on the grid with n = dim variables."""
    return KernelMeasure._from_window(grid, dim, 0, np.zeros((0, 0), complex), 0)


def atom_measure(grid, j, k, block):
    """Symmetrized point mass: block at (t_j, t_k) and block^T at (t_k, t_j).

    For j == k the block itself is symmetrized, consistent with the
    eager-symmetrization convention of the measure type.  Nodes j and k
    must be integers in [0, N + 1).
    """
    block = np.asarray(block, dtype=complex)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError("block must be square")
    n = block.shape[0]
    j, k = _check_node(j, grid.node_count, "j"), _check_node(k, grid.node_count, "k")
    first, last = min(j, k), max(j, k)
    w = np.zeros(((last - first + 1) * n,) * 2, dtype=complex)
    j, k = j - first, k - first
    w[j * n : (j + 1) * n, k * n : (k + 1) * n] = block
    w[k * n : (k + 1) * n, j * n : (j + 1) * n] = block.T
    return KernelMeasure._from_window(grid, n, first * n, _symmetrized(w), last)


def _check_pi(pi):
    """pi as a float array; raises ValueError unless it is a square 2-D
    matrix, finite and symmetric."""
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise ValueError(f"pi must be a square matrix, got shape {pi.shape}")
    if not np.isfinite(pi).all():
        raise ValueError(f"pi must be finite, got {pi.tolist()}")
    if np.linalg.norm(pi - pi.T) > 1e-12 * (1.0 + np.linalg.norm(pi)):
        raise ValueError("pi must be symmetric")
    return pi


def diagonal_lebesgue_measure(grid, u, pi):
    """Diagonal measure mu([0, t_u] cap A cap B) Pi, trapezoidal masses.

    Places w_j Pi at (t_j, t_j) for j = 0..u with trapezoid weights
    (h/2, h, ..., h, h/2), an order h^2 discretization of the continuum
    diagonal; u = 0 gives the zero measure.  Pi must be finite, real and
    symmetric, and u an integer in [0, N + 1).
    """
    pi = _check_pi(pi)
    n = pi.shape[0]
    u = _check_node(u, grid.node_count)
    w = np.zeros(((u + 1) * n,) * 2, dtype=complex)
    if u > 0:
        h = grid.step
        for j in range(u + 1):
            weight = h if 0 < j < u else 0.5 * h
            w[j * n : (j + 1) * n, j * n : (j + 1) * n] = weight * pi
    return KernelMeasure._from_window(grid, n, 0, _symmetrized(w), u)


def atomic_corner_measure(grid, u, pi):
    """Unit point mass Pi at the corner (t_u, t_u); Pi finite real symmetric."""
    return atom_measure(grid, u, u, _check_pi(pi))


def random_measure(rng, grid, dim, support=None, complex_entries=True, scale=1.0):
    """Seeded random symmetric measure, optionally support-restricted.

    Entries are uniform on [-scale, scale] (plus an imaginary part of the
    same law when complex_entries), symmetrized at construction.  With
    support = u, an integer in [0, N + 1), all blocks outside [0..u]^2
    are zero; the draws are the same either way.
    """
    size = dim * grid.node_count
    edge = size
    if support is not None:
        edge = dim * (_check_node(support, grid.node_count, "support") + 1)
    w = rng.uniform(-scale, scale, size=(size, size)).astype(complex)
    if complex_entries:
        w = w + 1j * rng.uniform(-scale, scale, size=(size, size))
    w = w[:edge, :edge]
    return KernelMeasure._from_window(grid, dim, 0, _symmetrized(w))


def split_sym_antisym(raw, ccr):
    """Split raw kernel weights into a measure and the scalar remainder.

    The symmetric part becomes the returned :class:`KernelMeasure`; the
    antisymmetric part Q_minus only shifts the quadratic form by the
    scalar i <Lambda, Q_minus> (Frobenius pairing summed over blocks),
    which is returned alongside.  The scalar is purely imaginary when
    the raw weights are real, since the pairing of real blocks is real.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != ccr.big.shape:
        raise ValueError(
            f"raw weights shape {raw.shape} does not match kernel {ccr.big.shape}"
        )
    anti = 0.5 * (raw - raw.T)
    scalar = 1j * complex(np.sum(ccr.big * anti))
    return KernelMeasure(ccr.grid, raw), scalar  # the constructor symmetrizes


def _check_member(obj, ccr, label):
    """Raise ValueError unless obj lies on the kernel ccr: its grid must
    be ccr.grid and, where it has an n (a measure or a measure path), that
    n must be ccr.dim.  Every stage of the bridge refuses its input this
    way, the message naming label, the kernel's n and obj's.  A kernel
    path or matrix has no n of its own and is read as having ccr.dim;
    its constructor checks its shape against the kernel."""
    n = getattr(obj, "dim", ccr.dim)
    if obj.grid != ccr.grid or n != ccr.dim:
        raise ValueError(
            f"{label} is not on the kernel's grid with n = {ccr.dim} (it has n = {n})"
        )


def _lambda_block(ccr, q, rows, cols):
    """(Lambda W)[:rows, :cols] for the masses W of q, formed from its
    window as Lambda[:rows, lo:hi] W[lo:hi, lo:cols]; raises ValueError
    unless q is on the kernel's grid with its n (:func:`_check_member`)."""
    _check_member(q, ccr, "measure")
    lo, hi = q._lo, q._hi
    out = np.zeros((rows, cols), dtype=complex)
    if lo < cols:
        out[:, lo : min(hi, cols)] = ccr.big[:rows, lo:hi] @ q._window[:, : cols - lo]
    return out


def lambda_product(ccr, q):
    """Complex Hamiltonian kernel of a measure: ham = big @ weights, the
    whole size x size matrix of :func:`_lambda_block`.  Raises ValueError
    unless q is on the kernel's grid with its n."""
    return ChkMatrix(ccr.grid, _lambda_block(ccr, q, *ccr.big.shape), q)


def measure_triple_product(q1, ccr, q2):
    """Raw weights of the composition Q1 Lambda Q2 (not symmetric).

    The composition is associative but transposes to minus the reversed
    product, so the result is returned as raw weights; take brackets or
    split explicitly to land back in the measure class.  Formed as W1
    times :func:`lambda_product` of q2; both measures must be on the
    kernel's grid with its n, else ValueError.
    """
    _check_member(q1, ccr, "measure")
    return q1.weights @ lambda_product(ccr, q2).ham


def bracket(q1, q2, ccr):
    """Commutator measure: [phi_Q1, phi_Q2] = phi over 4i(Q1 L Q2 - Q2 L Q1).

    The difference of the two triple products is symmetric, so the
    result is an exact member of the measure class; the support index is
    bounded by the larger input support.
    """
    forward = measure_triple_product(q1, ccr, q2)
    backward = measure_triple_product(q2, ccr, q1)
    w = 4j * (forward - backward)
    return KernelMeasure(ccr.grid, w, max(q1.support_index, q2.support_index))


def _live_width(mat):
    """k with mat[:, k:] exactly zero: one past the last nonzero column.

    Measures at node u are supported in [0, t_u]^2, so every matrix the
    bridge forms from them (Hamiltonians, offsets, solutions) vanishes
    exactly beyond column (u + 1) n; routines find that block in their
    input this way and work on it, k = size being the general case.
    """
    nonzero = np.flatnonzero(mat.any(axis=0))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def kernel_weighted_norm(ccr, weights):
    """Frobenius norm of Lambda W Lambda^T: the measure tested two-sided
    against the smooth commutator kernel.

    Node masses of singular measures depend on grid alignment at O(1),
    so raw weight norms overstate differences between equal measures;
    smoothing both slots against Lambda compares them as distributions.
    Only the leading k x k block of W beyond which it vanishes enters,
    as Lambda[:, :k] W[:k, :k] Lambda[:, :k]^T.  weights must have the
    kernel's shape, else ValueError.
    """
    if weights.shape != ccr.big.shape:
        raise ValueError(
            f"weights of shape {weights.shape} are not on the kernel's "
            f"{ccr.big.shape}"
        )
    return _window_weighted_norm(ccr, 0, weights)


def _window_weighted_norm(ccr, lo, window):
    """:func:`kernel_weighted_norm` of masses that vanish outside
    W[lo:hi, lo:hi] = window, as Lambda[:, lo:lo+k] W[lo:lo+k, lo:lo+k]
    Lambda[:, lo:lo+k]^T with W zero beyond lo + k."""
    k = max(_live_width(window), _live_width(window.T))
    lam = ccr.big[:, lo : lo + k]
    return float(np.linalg.norm(lam @ window[:k, :k] @ lam.T))


def _edge_offset(q, u):
    """Offset into q's window of the first index past node u, at least 0;
    raises ValueError unless u is an integer in [0, N + 1)."""
    return max(q.dim * (_check_node(u, q.grid.node_count) + 1) - q._lo, 0)


def is_nonanticipative(q, u):
    """True when every entry outside [0..u]^2 is below SUPPORT_TOL in
    modulus; u must be an integer in [0, N + 1)."""
    tail = q._window[_edge_offset(q, u) :]  # W = W^T: the columns alike
    return bool((np.abs(tail) <= SUPPORT_TOL).all())


def project_support(q, u):
    """Crop the masses to [0..u]^2; returns (measure, Frobenius norm of
    the masses removed).  u must be an integer in [0, N + 1)."""
    e = _edge_offset(q, u)
    w = q._window
    truncated = float(np.sqrt(
        np.linalg.norm(w[:, e:]) ** 2 + np.linalg.norm(w[e:, :e]) ** 2
    ))
    kept = KernelMeasure._from_window(
        q.grid, q.dim, q._lo, w[:e, :e], min(u, q.support_index)
    )
    return kept, truncated


# CSV exchange format, schema 1: one line per nonzero scalar entry of the
# flat weights, columns j,k,row,col,re,im, preceded by a grid sidecar line.
CSV_SCHEMA = "# schema=1"


def _format_float(x):
    """x with 17 significant digits, the format of every written value."""
    return f"{float(x):.17g}"


def write_measure_csv(path, q):
    """Write a measure to CSV with 17 significant digits per value."""
    n = q.dim
    lines = [
        CSV_SCHEMA,
        f"# grid T={_format_float(q.grid.horizon)} N={q.grid.steps} n={n}",
        "j,k,row,col,re,im",
    ]
    first, m = q._lo // n, q._window.shape[0] // n
    blocks = q._window.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    for (j, k, row, col), z in np.ndenumerate(blocks):
        if z != 0.0:
            lines.append(
                f"{first + j},{first + k},{row},{col},"
                f"{_format_float(z.real)},{_format_float(z.imag)}"
            )
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_measure_csv(path):
    """Read a measure written by :func:`write_measure_csv`.

    The entries must fill an exactly symmetric matrix, as the writer's
    do, else ScenarioError: symmetrization would silently average an
    asymmetric one.  Only the window over the nodes the entries name is
    built, so memory follows the entries, not the grid in the header.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != CSV_SCHEMA:
        raise ScenarioError(f"{path}: missing or unsupported schema header")
    if len(lines) < 3 or not lines[1].startswith("# grid "):
        raise ScenarioError(f"{path}: missing grid sidecar line")
    try:
        fields = dict(
            item.split("=", 1) for item in lines[1][len("# grid ") :].split()
        )
        grid = TimeGrid(float(fields["T"]), int(fields["N"]))
        n = int(fields["n"])
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"{path}: malformed grid sidecar") from exc
    if n < 1:
        raise ScenarioError(f"{path}: grid sidecar needs n >= 1")
    if lines[2] != "j,k,row,col,re,im":
        raise ScenarioError(f"{path}: unexpected column header {lines[2]!r}")
    entries = {}
    for lineno, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ScenarioError(f"{path}:{lineno}: expected 6 fields")
        try:
            j, k, row, col = (int(p) for p in parts[:4])
            re, im = float(parts[4]), float(parts[5])
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: malformed entry") from exc
        if not np.isfinite([re, im]).all():
            raise ScenarioError(f"{path}:{lineno}: non-finite entry")
        if not (0 <= j < grid.node_count and 0 <= k < grid.node_count):
            raise ScenarioError(f"{path}:{lineno}: node index out of range")
        if not (0 <= row < n and 0 <= col < n):
            raise ScenarioError(f"{path}:{lineno}: block index out of range")
        if (j, k, row, col) in entries:
            raise ScenarioError(f"{path}:{lineno}: repeated entry")
        entries[j, k, row, col] = complex(re, im)
    nodes = [node for j, k, _, _ in entries for node in (j, k)]
    first = min(nodes, default=0)
    size = n * (max(nodes, default=-1) + 1 - first)
    w = np.zeros((size, size), dtype=complex)
    for (j, k, row, col), z in entries.items():
        w[(j - first) * n + row, (k - first) * n + col] = z
    if not np.array_equal(w, w.T):
        raise ScenarioError(f"{path}: entries are not symmetric")
    return KernelMeasure._from_window(grid, n, first * n, _symmetrized(w))
