"""Kernel measures on a uniform time grid and their commutator algebra.

A complex symmetric kernel measure Q on [0, T]^2 enters quadratic forms

    phi_Q = integral integral X(sigma)^T Q(dsigma x dtau) X(tau)

of the model variables.  On a uniform grid with nodes t_j = j h the
measure is represented by node masses: an (N+1) x (N+1) array of n x n
blocks, stored flat as an n(N+1) square matrix W whose (j, k) block is
Q({t_j} x {t_k}).  Densities carry their quadrature weights inside the
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with step h = T / N."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")

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
    """Uniform :class:`TimeGrid` on [0, horizon] with the given step count."""
    return TimeGrid(float(horizon), int(steps))


def _check_same_grid(a, b):
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


@dataclass(frozen=True)
class CcrKernel:
    """Stacked two-point commutator kernel on a grid.

    big is the real n(N+1) square matrix with block (j, k) equal to
    Lambda(t_j - t_k).  Kernel antisymmetry Lambda(-tau) = -Lambda(tau)^T
    makes big antisymmetric as a flat matrix, and block (j, j) equals
    Theta for every j.
    """

    grid: TimeGrid
    big: np.ndarray

    def __post_init__(self):
        big = np.asarray(self.big, dtype=float)
        if big.ndim != 2 or big.shape[0] != big.shape[1]:
            raise ValueError("big must be a square matrix")
        if big.shape[0] % self.grid.node_count != 0:
            raise ValueError("big size is not a multiple of the node count")
        big = big.copy()
        big.setflags(write=False)
        object.__setattr__(self, "big", big)

    @property
    def dim(self):
        return self.big.shape[0] // self.grid.node_count

    def block(self, j, k):
        n = self.dim
        return self.big[j * n : (j + 1) * n, k * n : (k + 1) * n]


def build_ccr_kernel(model, grid):
    """Assemble the stacked kernel for a model on a grid.

    Uses ccr_two_point for each nonnegative lag and fills negative lags
    by the antisymmetry relation, so flat antisymmetry holds exactly.
    """
    n = model.dim
    count = grid.node_count
    h = grid.step
    lags = [ccr_two_point(model, d * h) for d in range(count)]
    big = np.zeros((n * count, n * count))
    for j in range(count):
        for k in range(count):
            if j >= k:
                blockval = lags[j - k]
            else:
                blockval = -lags[k - j].T
            big[j * n : (j + 1) * n, k * n : (k + 1) * n] = blockval
    return CcrKernel(grid, big)


def _support_scan(weights, n):
    """Smallest u with all blocks outside [0..u]^2 below SUPPORT_TOL."""
    count = weights.shape[0] // n
    blocks = weights.reshape(count, n, count, n)
    norms = np.sqrt((np.abs(blocks) ** 2).sum(axis=(1, 3)))
    hot = np.argwhere(norms > SUPPORT_TOL)
    if hot.size == 0:
        return 0
    return int(hot.max())


@dataclass(frozen=True)
class KernelMeasure:
    """Node masses of a complex symmetric kernel measure.

    weights is the flat n(N+1) square complex matrix of block masses;
    symmetry W = W^T is applied eagerly at construction, so only feed
    raw asymmetric data through :func:`split_sym_antisym`, which also
    returns the scalar the antisymmetric part contributes.
    """

    grid: TimeGrid
    weights: np.ndarray
    support_index: int = field(default=-1)

    def __post_init__(self):
        w = np.array(self.weights, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if w.shape[0] % self.grid.node_count != 0:
            raise ValueError("weights size is not a multiple of the node count")
        w = 0.5 * (w + w.T)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.support_index < 0:
            object.__setattr__(
                self, "support_index", _support_scan(w, self.dim)
            )

    @property
    def dim(self):
        return self.weights.shape[0] // self.grid.node_count

    @property
    def reality_residual(self):
        """Frobenius norm of the imaginary part of the masses."""
        return float(np.linalg.norm(self.weights.imag))

    def block(self, j, k):
        n = self.dim
        return self.weights[j * n : (j + 1) * n, k * n : (k + 1) * n]


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


def zero_measure(grid, dim):
    """The zero measure on the grid with n = dim variables."""
    size = dim * grid.node_count
    return KernelMeasure(grid, np.zeros((size, size), dtype=complex), 0)


def atom_measure(grid, j, k, block):
    """Symmetrized point mass: block at (t_j, t_k) and block^T at (t_k, t_j).

    For j == k the block itself is symmetrized, consistent with the
    eager-symmetrization convention of the measure type.
    """
    block = np.asarray(block, dtype=complex)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError("block must be square")
    n = block.shape[0]
    count = grid.node_count
    if not (0 <= j < count and 0 <= k < count):
        raise ValueError(f"atom node ({j}, {k}) outside grid with {count} nodes")
    w = np.zeros((n * count, n * count), dtype=complex)
    w[j * n : (j + 1) * n, k * n : (k + 1) * n] = block
    if j != k:
        w[k * n : (k + 1) * n, j * n : (j + 1) * n] = block.T
    else:
        w[j * n : (j + 1) * n, j * n : (j + 1) * n] = 0.5 * (block + block.T)
    return KernelMeasure(grid, w, max(j, k))


def diagonal_lebesgue_measure(grid, u, pi):
    """Diagonal measure mu([0, t_u] cap A cap B) Pi, trapezoidal masses.

    Places w_j Pi at (t_j, t_j) for j = 0..u with trapezoid weights
    (h/2, h, ..., h, h/2), an order h^2 discretization of the continuum
    diagonal; u = 0 gives the zero measure.  Pi must be real symmetric.
    """
    pi = np.asarray(pi, dtype=float)
    if np.linalg.norm(pi - pi.T) > 1e-12 * (1.0 + np.linalg.norm(pi)):
        raise ValueError("pi must be symmetric")
    n = pi.shape[0]
    count = grid.node_count
    if not 0 <= u < count:
        raise ValueError(f"node {u} outside grid with {count} nodes")
    w = np.zeros((n * count, n * count), dtype=complex)
    if u > 0:
        h = grid.step
        for j in range(u + 1):
            weight = h if 0 < j < u else 0.5 * h
            w[j * n : (j + 1) * n, j * n : (j + 1) * n] = weight * pi
    return KernelMeasure(grid, w, u if u > 0 else 0)


def atomic_corner_measure(grid, u, pi):
    """Unit point mass Pi at the corner (t_u, t_u); Pi real symmetric."""
    pi = np.asarray(pi, dtype=float)
    if np.linalg.norm(pi - pi.T) > 1e-12 * (1.0 + np.linalg.norm(pi)):
        raise ValueError("pi must be symmetric")
    return atom_measure(grid, u, u, pi)


def random_measure(rng, grid, dim, support=None, complex_entries=True, scale=1.0):
    """Seeded random symmetric measure, optionally support-restricted.

    Entries are uniform on [-scale, scale] (plus an imaginary part of the
    same law when complex_entries), symmetrized at construction.  With
    support = u all blocks outside [0..u]^2 are zero.
    """
    size = dim * grid.node_count
    w = rng.uniform(-scale, scale, size=(size, size)).astype(complex)
    if complex_entries:
        w = w + 1j * rng.uniform(-scale, scale, size=(size, size))
    if support is not None:
        edge = dim * (support + 1)
        mask = np.zeros((size, size))
        mask[:edge, :edge] = 1.0
        w = w * mask
    return KernelMeasure(grid, w)


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
    sym = 0.5 * (raw + raw.T)
    anti = 0.5 * (raw - raw.T)
    scalar = 1j * complex(np.sum(ccr.big * anti))
    return KernelMeasure(ccr.grid, sym), scalar


def lambda_product(ccr, q):
    """Complex Hamiltonian kernel of a measure: ham = big @ weights."""
    _check_same_grid(ccr.grid, q.grid)
    return ChkMatrix(ccr.grid, ccr.big @ q.weights, q)


def measure_triple_product(q1, ccr, q2):
    """Raw weights of the composition Q1 Lambda Q2 (not symmetric).

    The composition is associative but transposes to minus the reversed
    product, so the result is returned as raw weights; take brackets or
    split explicitly to land back in the measure class.
    """
    _check_same_grid(q1.grid, ccr.grid)
    _check_same_grid(q2.grid, ccr.grid)
    return q1.weights @ ccr.big @ q2.weights


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
    as Lambda[:, :k] W[:k, :k] Lambda[:, :k]^T.
    """
    k = max(_live_width(weights), _live_width(weights.T))
    lam = ccr.big[:, :k]
    return float(np.linalg.norm(lam @ weights[:k, :k] @ lam.T))


def is_nonanticipative(q, u):
    """True when every block outside [0..u]^2 carries mass below tolerance."""
    n = q.dim
    edge = n * (u + 1)
    w = q.weights
    tail_right = w[:, edge:]
    tail_down = w[edge:, :edge]
    worst = 0.0
    if tail_right.size:
        worst = max(worst, float(np.max(np.abs(tail_right))))
    if tail_down.size:
        worst = max(worst, float(np.max(np.abs(tail_down))))
    return worst <= SUPPORT_TOL


def _zero_beyond(w, edge):
    """Zero rows and columns of w from edge on, in place; returns the norm removed."""
    if edge >= w.shape[0]:
        return 0.0
    tail = np.linalg.norm(w[:, edge:]) ** 2 + np.linalg.norm(w[edge:, :edge]) ** 2
    w[:, edge:] = 0.0
    w[edge:, :] = 0.0
    return float(np.sqrt(tail))


def project_support(q, u):
    """Zero all blocks outside [0..u]^2; returns (measure, truncated mass)."""
    w = q.weights.copy()
    truncated = _zero_beyond(w, q.dim * (u + 1))
    return KernelMeasure(q.grid, w, min(u, q.support_index)), truncated


# CSV exchange format, schema 1: one line per nonzero scalar entry of the
# flat weights, columns j,k,row,col,re,im, preceded by a grid sidecar line.
_CSV_SCHEMA = "# schema=1"


def _format_float(x):
    return f"{x:.17g}"


def write_measure_csv(path, q):
    """Write a measure to CSV with 17 significant digits per value."""
    n = q.dim
    count = q.grid.node_count
    lines = [
        _CSV_SCHEMA,
        f"# grid T={_format_float(q.grid.horizon)} N={q.grid.steps} n={n}",
        "j,k,row,col,re,im",
    ]
    w = q.weights
    for j in range(count):
        for k in range(count):
            blockval = w[j * n : (j + 1) * n, k * n : (k + 1) * n]
            if not np.any(blockval != 0.0):
                continue
            for row in range(n):
                for col in range(n):
                    z = blockval[row, col]
                    if z == 0.0:
                        continue
                    lines.append(
                        f"{j},{k},{row},{col},"
                        f"{_format_float(z.real)},{_format_float(z.imag)}"
                    )
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_measure_csv(path):
    """Read a measure written by :func:`write_measure_csv`."""
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != _CSV_SCHEMA:
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
    size = n * grid.node_count
    w = np.zeros((size, size), dtype=complex)
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
        if not (0 <= j < grid.node_count and 0 <= k < grid.node_count):
            raise ScenarioError(f"{path}:{lineno}: node index out of range")
        if not (0 <= row < n and 0 <= col < n):
            raise ScenarioError(f"{path}:{lineno}: block index out of range")
        w[j * n + row, k * n + col] = complex(re, im)
    return KernelMeasure(grid, w)
