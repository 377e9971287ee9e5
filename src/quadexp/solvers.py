"""Path solvers connecting cost drivers and quadratic-exponential measures.

A nonanticipative family {F_t} of kernel measures drives the leftward
time-ordered exponential R(t) = lexp((1/2) integral_0^t phi_F ds).  Its
normal ordering R(t)^dagger R(t) = exp(phi_{N_t}) defines the
quadratic-exponential measure family {N_t}, which is real for any
admissible F.  Through the isomorphism Q -> 4i Lambda Q everything
reduces to stacked matrix paths:

  forward   S_t = exp-path of   S' = 2i Lambda F_t S,     S_0 = I,
  extract   T_t = conj(S_t)^{-1} S_t = exp(4i Lambda N_t),
  inverse   Lambda F_t = Ups(2i ad_{Lambda N_t})(Lambda N'_t),

with the positive square root G_t = N_t / 2 linking back to the
exponential of half the measure.  The integrator is the exponential
midpoint rule: each step multiplies by exp(2i h Lambda F at the step
midpoint), which is exactly symplectic, so group-level invariants hold
to rounding while node masses converge at second order.

Measures in a path are supported in [0, t_u]^2 at node u; solvers
restrict their kernel solves to that support and report the truncated
mass.  Every solve runs through ccr.solver, the factorization the
commutator kernel owns, so each kernel is factorized at most once.  Derivative entries, where a path carries them, follow the same
convention (the diagonal family has the exact corner-atom derivative).
Through Q -> 4i Lambda Q the support makes S_u the identity beyond its
first k = (u + 1) n columns, and T_u - I, 4i Lambda N_u and the inverse
direction's superoperator images zero there, so extraction and the
inverse direction work on those k columns only.  A kernel path stores
just those columns, S_u[:, :k] per node (:class:`LiveColumns`), about
half of N + 1 dense matrices; its readers (extraction, the congruence
gates) take the block and its width from the path, and a full node is
built only when a caller indexes one.

The integrator detects the structure of each step: the generator is
nonzero only in the live columns of the midpoint driver, and the
exponential acts as a low-rank update on them at every step (rank 2n
for the atomic driver F_t = delta_{(t,t)} Pi, which
:func:`spde_fast_path` integrates), never as a dense exponential.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NumericalFailure
from .lie import (
    CskMatrix,
    _check_symplectic,
    _symplectic_residual_live,
    _ups_series,
    csk_log_near_identity,
    mho_superop,
    sinhc_superop,
    ups_superop,
)
from .measures import (
    KernelMeasure,
    _check_pi,
    _live_width,
    atomic_corner_measure,
    build_ccr_kernel,
    diagonal_lebesgue_measure,
    kernel_weighted_norm,
)

__all__ = [
    "MeasurePath",
    "CskPath",
    "QefForwardResult",
    "InverseResult",
    "PsiDecomposition",
    "RoundtripReport",
    "corner_atom_path",
    "diagonal_lebesgue_path",
    "csk_path_from_midpoints",
    "forward_csk_evolution",
    "forward_qef_measure",
    "qef_from_csk_path",
    "forward_t_evolution",
    "inverse_toe_measure",
    "staggered_inverse_measures",
    "qef_psi_measure",
    "spde_fast_path",
    "g_path_magnus",
    "roundtrip_f_residual",
    "roundtrip_n_residual",
    "t_route_residual",
    "laplace_recover_measure",
    "chk_column_function",
]

# A single exponential step must stay well inside the radius where the
# midpoint rule is meaningful; larger steps ask for a finer grid.
STEP_NORM_BOUND = 1.0


@dataclass(frozen=True)
class MeasurePath:
    """Nonanticipative family of measures indexed by grid node.

    entries[u] is the measure at time t_u, supported in [0, t_u]^2;
    derivative_entries, when present, hold the time derivative measures
    under the same support convention.
    """

    grid: object
    entries: tuple
    derivative_entries: tuple | None = None

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.grid.node_count:
            raise ValueError(
                f"path has {len(entries)} entries for {self.grid.node_count} nodes"
            )
        for u, q in enumerate(entries):
            if q.grid != self.grid:
                raise ValueError(f"entry {u} lives on a different grid")
            if q.support_index > u:
                raise ValueError(
                    f"entry {u} anticipates: support index {q.support_index}"
                )
        if self.derivative_entries is not None:
            dents = tuple(self.derivative_entries)
            object.__setattr__(self, "derivative_entries", dents)
            if len(dents) != len(entries):
                raise ValueError("derivative entries do not match path length")
            for u, q in enumerate(dents):
                if q.grid != self.grid:
                    raise ValueError(f"derivative entry {u} lives on a different grid")
                if q.support_index > u:
                    raise ValueError(
                        f"derivative entry {u} anticipates: support index "
                        f"{q.support_index}"
                    )

    @property
    def dim(self):
        return self.entries[0].dim


class LiveColumns:
    """Read-only stack of kernel path nodes, each kept as its live columns.

    Node u of a kernel path is the identity beyond its first k_u
    columns, so only the block S_u[:, :k_u] is stored, in a read-only
    array that aliases no caller memory.  The stack reads as a sequence
    of size x size nodes: len(), integer and negative indexing,
    iteration and shape, with item u built on access as the identity
    with its first k_u columns replaced.  :meth:`live` returns the
    stored block itself, and nbytes counts the stored blocks, each once.

    A block that is read-only and owns its memory is kept as is (the
    integrator hands its blocks over this way, and an unchanged node
    shares its predecessor's); any other is copied.
    """

    def __init__(self, blocks, size):
        self._blocks = tuple(map(_read_only, blocks))
        self._size = size

    @classmethod
    def from_dense(cls, stack):
        """Compress a (count, size, size) stack: each node is scanned once
        for its live width and those columns are copied."""
        size = stack.shape[-1]
        eye = np.eye(size)
        return cls((mat[:, : _live_width(mat - eye)] for mat in stack), size)

    def __len__(self):
        return len(self._blocks)

    def __getitem__(self, u):
        block = self.live(u)
        mat = np.eye(self._size, dtype=complex)
        mat[:, : block.shape[1]] = block
        mat.setflags(write=False)
        return mat

    def __iter__(self):
        return (self[u] for u in range(len(self)))

    @property
    def shape(self):
        return (len(self._blocks), self._size, self._size)

    @property
    def nbytes(self):
        return sum({id(block): block.nbytes for block in self._blocks}.values())

    def live(self, u):
        """The stored block S_u[:, :k_u]."""
        return self._blocks[operator.index(u)]


def _read_only(block):
    if block.flags.writeable or not block.flags.owndata:
        block = block.copy()
        block.setflags(write=False)
    return block


@dataclass(frozen=True)
class CskPath:
    """Stack of symplectic kernels S_{t_u} along the grid.

    mats is a :class:`LiveColumns` stack: node u keeps only its live
    block S_u[:, :k_u], which mats.live(u) returns, and mats[u] builds
    the full matrix on access.  The integrators hand over the blocks
    they write; any other stack (a dense (N + 1, size, size) array, as
    the reference integrator and tests pass) is scanned once and
    compressed, never adopted.  Entries are stored raw so that fast
    solvers are not forced through per-node validation; the terminal
    entry is checked at construction and :meth:`validate` re-checks
    every node on demand, both from the stored widths.
    """

    grid: object
    ccr: object
    mats: LiveColumns

    def __post_init__(self):
        mats = self.mats
        shape = (self.grid.node_count, *self.ccr.big.shape)
        if not isinstance(mats, LiveColumns):
            mats = np.asarray(mats, dtype=complex)
            if mats.shape == shape:
                mats = LiveColumns.from_dense(mats)
        if mats.shape != shape:
            raise ValueError("matrix stack shape does not match grid and kernel")
        object.__setattr__(self, "mats", mats)
        # terminal gate; full sweeps go through validate()
        _check_symplectic(*self._residual(self.grid.steps))

    def entry(self, u):
        """Node u as a validated CskMatrix."""
        return CskMatrix(self.grid, self.mats[u], self.ccr)

    def _residual(self, u):
        return _symplectic_residual_live(self.mats.live(u), self.ccr.big)

    def residuals(self):
        """Relative symplectic residual of every node, residual / scale of
        :func:`lie.symplectic_residual_raw`."""
        return [r / scale for r, scale in map(self._residual, range(len(self.mats)))]

    def validate(self):
        """Max relative symplectic residual over all nodes; NaN when any
        node's residual is not a number."""
        return float(np.max(self.residuals()))


def corner_atom_path(grid, pi, profile=None):
    """Driver family F_u = profile(t_u) * (point mass Pi at (t_u, t_u)).

    profile defaults to the constant 1; it must return finite real
    scalars so the path stays in the real measure class, and any other
    value (complex, NaN, infinite, an array) raises ValueError.
    """
    entries = []
    for u, t in enumerate(grid.nodes):
        factor = 1.0 if profile is None else _profile_factor(profile, t)
        entries.append(atomic_corner_measure(grid, u, factor * np.asarray(pi, float)))
    return MeasurePath(grid, tuple(entries))


def _profile_factor(profile, t):
    value = profile(t)
    array = np.asarray(value)
    if array.ndim or array.dtype.kind not in "biuf" or not np.isfinite(array):
        raise ValueError(f"profile({t!r}) must be a finite real scalar, got {value!r}")
    return float(array)


def diagonal_lebesgue_path(grid, pi):
    """Diagonal family N_u with its exact corner-atom derivative entries."""
    entries = tuple(
        diagonal_lebesgue_measure(grid, u, pi) for u in range(grid.node_count)
    )
    derivs = tuple(
        atomic_corner_measure(grid, u, pi) for u in range(grid.node_count)
    )
    return MeasurePath(grid, entries, derivs)


def _midpoint_weights(f_path, u):
    return 0.5 * (f_path.entries[u].weights + f_path.entries[u + 1].weights)


class _MidpointWeights:
    """Per-step midpoint weights of a driver path, formed on access.

    A sequence of length N whose item u is the average of node entries
    u and u + 1, so the integrator never holds N dense midpoint
    matrices at once.
    """

    def __init__(self, f_path):
        self._f_path = f_path

    def __len__(self):
        return len(self._f_path.entries) - 1

    def __getitem__(self, u):
        return _midpoint_weights(self._f_path, range(len(self))[u])


class _AtomicMidpoints:
    """Midpoint weights of the atomic driver F_t = delta_{(t, t)} Pi.

    Item u holds Pi / 2 in the diagonal blocks of nodes u and u + 1 and
    zeros elsewhere, the same matrix :class:`_MidpointWeights` forms
    from :func:`corner_atom_path`, without building that path.
    """

    def __init__(self, grid, pi):
        self._count = grid.node_count
        self._half_pi = 0.5 * pi

    def __len__(self):
        return self._count - 1

    def __getitem__(self, u):
        u = range(len(self))[u]
        n = self._half_pi.shape[0]
        weights = np.zeros((n * self._count, n * self._count), dtype=complex)
        for j in (u, u + 1):
            weights[j * n : (j + 1) * n, j * n : (j + 1) * n] = self._half_pi
        return weights


def _check_step_norm(exponent):
    step_norm = np.linalg.norm(exponent, 1)
    if not np.isfinite(step_norm):
        raise NumericalFailure(f"step exponent 1-norm is {step_norm}")
    if not step_norm <= STEP_NORM_BOUND:
        raise NumericalFailure(
            f"step exponent 1-norm {step_norm:.3e} exceeds "
            f"{STEP_NORM_BOUND}; refine the grid"
        )


def csk_path_from_midpoints(mid_weights, ccr):
    """Integrate S' = 2i Lambda F_t S from per-step midpoint weights.

    mid_weights[u] is the flat weight matrix W of the driver at the
    midpoint of step u, one per step (any sequence with len() and
    indexing).  Each step applies exp(M), M = 2i h Lambda_big W, whose
    1-norm is gated at STEP_NORM_BOUND, with refinement the remedy when
    it trips.  Every factor is symplectic, so the whole path satisfies
    the kernel congruence to accumulated rounding.

    M is nonzero only in the live column set C of W, the columns
    holding any nonzero entry.  With M_C the columns C of M and M_CC its
    rows C, exp(M) = I + M_C Ups(M_CC) P_C^T holds for any C, so every
    step is

        S_{u+1} = S_u + M_C Ups(M_CC) S_u[C, :k],

    Ups by :func:`lie._ups_series` (the gate keeps ||M_CC||_1 <= 1), and
    an empty C leaves S_u as it is.  k, the largest C[-1] + 1 so far, is
    the live width: S_u - I vanishes beyond column k, as no update
    reaches past it.  A step costs O(size |C| k + |C|^3), with M_C formed
    from the nonzero rows of W[:, C] only: |C| = 2n for the atomic driver
    of :func:`spde_fast_path`, and |C| = k for drivers recovered by
    :func:`inverse_toe_measure`, supported in [0, t_{u+1}]^2.

    Only the live block S_u[:, :k] of each node is written and kept (see
    :class:`LiveColumns`): step u pads the block of S_u with identity
    columns to the new width and applies the update to that, so the
    path holds sum_u size k_u entries, about half of N + 1 dense
    matrices, and no (N + 1) x size^2 stack is ever allocated.
    """
    if len(mid_weights) != ccr.grid.node_count - 1:
        raise ValueError("need one midpoint weight matrix per step")
    blocks = _live_blocks(mid_weights, ccr)
    return CskPath(ccr.grid, ccr, LiveColumns(blocks, ccr.big.shape[0]))


def _live_blocks(mid_weights, ccr):
    """S_0[:, :k_0], S_1[:, :k_1], ... of :func:`csk_path_from_midpoints`,
    each read-only; the step temporaries are gone once the last is out."""
    big = ccr.big
    h = ccr.grid.step
    size = big.shape[0]
    eye = np.eye(size)
    live = np.empty((size, 0), dtype=complex)
    live.setflags(write=False)
    yield live
    k = 0
    for u in range(len(mid_weights)):
        weights = mid_weights[u]
        if weights.shape != (size, size):
            raise ValueError(f"midpoint weights {u} do not match the kernel")
        cols = np.flatnonzero(weights.any(axis=0))
        if cols.size:
            block = weights[:, cols]
            rows = np.flatnonzero(block.any(axis=1))
            m_cols = (2j * h) * (big[:, rows] @ block[rows])
            _check_step_norm(m_cols)
            width = max(k, int(cols[-1]) + 1)
            live = np.hstack((live, eye[:, k:width]))
            live += m_cols @ (_ups_series(m_cols[cols]) @ live[cols])
            live.setflags(write=False)
            k = width
        yield live


def forward_csk_evolution(f_path, ccr):
    """Integrate the kernel flow of a driver path by the midpoint rule.

    The midpoint measure of each step is the average of its two node
    entries; see :func:`csk_path_from_midpoints` for the stepping.
    """
    grid = f_path.grid
    if grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    return csk_path_from_midpoints(_MidpointWeights(f_path), ccr)


def _dense_csk_evolution(f_path, ccr):
    """Reference for :func:`forward_csk_evolution`: expm(M) @ S_u at every
    step, on dense matrices; the path compresses the finished stack."""
    if f_path.grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    mats = [np.eye(ccr.big.shape[0], dtype=complex)]
    for weights in _MidpointWeights(f_path):
        exponent = 2j * ccr.grid.step * (ccr.big @ weights)
        _check_step_norm(exponent)
        mats.append(expm(exponent) @ mats[-1])
    return CskPath(ccr.grid, ccr, np.array(mats))


@dataclass(frozen=True)
class QefForwardResult:
    """Measures N_{t_u} extracted from a driver path, with diagnostics.

    reality_residuals[i] is ||Im W_N|| / (1 + ||W_N||) at the extracted
    node node_indices[i]; the normal ordering theorem asserts N is real,
    and the factorization T = conj(S)^{-1} S preserves that exactly.
    The extraction keeps it: Z = (T - I)(T + I)^{-1} is exactly
    imaginary when conj(T) T = I, and its series logarithm stays so to
    rounding, so these sit at rounding level on every grid (measured
    1e-17 to 3e-15 at N = 8..128), not at eps times cond(Lambda_big).
    Neither T nor the kernel path is kept: :func:`t_route_residual`
    forms T from the flow itself.
    """

    grid: object
    node_indices: tuple
    measures: tuple
    reality_residuals: tuple
    solve_reports: tuple

    def n_path(self):
        """Full MeasurePath (requires extraction at every node)."""
        if self.node_indices != tuple(range(self.grid.node_count)):
            raise ValueError("n_path needs extraction at every node")
        return MeasurePath(self.grid, self.measures)


def _normal_offset(live):
    """T - I = 2i conj(S)^{-1} Im S for T = conj(S)^{-1} S, without cancellation.

    live = S[:, :k] is S up to its identity columns, S = [[A, 0], [B, I]],
    so T - I = [[X_11, 0], [X_21, 0]] with X_11 = 2i conj(A)^{-1} Im A and
    X_21 = 2i Im B - conj(B) X_11.
    """
    size, k = live.shape
    a, b = live[:k], live[k:]
    offset = np.zeros((size, size), dtype=complex)
    offset[:k, :k] = np.linalg.solve(np.conj(a), 2j * a.imag)
    offset[k:, :k] = 2j * b.imag - np.conj(b) @ offset[:k, :k]
    return offset


def qef_from_csk_path(s_path, ccr, nodes=None):
    """Quadratic-exponential measures extracted from a computed kernel path.

    For each requested node the normal-ordering factorization
    T_u = conj(S_u)^{-1} S_u is taken on the computed kernel through its
    offset T_u - I = 2i conj(S_u)^{-1} Im S_u, which has no cancellation;
    :func:`csk_log_near_identity` recovers 4i Lambda N_u from it, and the
    kernel solve restricted to [0, t_u]^2 yields N_u.  nodes=None
    extracts at every node; a sparse selection saves the logarithms.

    Each stage works on the live block of its input: the path stores
    S_u as its first k columns, beyond which it is the identity (k =
    (u + 1) n for the flows of nonanticipative drivers, k = size
    otherwise), the offset, the logarithm and the solve then take
    O(size^2 k) work in place of O(size^3), and every gate
    (congruence, reconstruction, anchor, solve residual) still runs on
    its full-size quantity.

    The logarithm anchor is carried from the previously extracted node,
    keeping the branch continuous along the path.  Raises ValueError
    unless every requested node is an integer in [0, N + 1).
    """
    grid = s_path.grid
    if grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    count = grid.node_count
    if nodes is None:
        indices = tuple(range(count))
    else:
        for u in nodes:
            if not isinstance(u, (int, np.integer)) or not 0 <= u < count:
                raise ValueError(
                    f"extraction nodes must be integers in [0, {count}), got {u!r}"
                )
        indices = tuple(sorted(set(int(u) for u in nodes)))
    measures = []
    reality = []
    reports = []
    anchor = None
    for u in indices:
        offset = _normal_offset(s_path.mats.live(u))
        anchor = csk_log_near_identity(offset, ccr, anchor=anchor).ham
        measure, report = ccr.solver.solve_measure(anchor / 4j, support_index=u)
        measures.append(measure)
        reports.append(report)
        w = measure.weights
        reality.append(float(np.linalg.norm(w.imag) / (1.0 + np.linalg.norm(w))))
    return QefForwardResult(
        grid, indices, tuple(measures), tuple(reality), tuple(reports)
    )


def forward_qef_measure(f_path, ccr, nodes=None):
    """Measures along a driver path: integrate the kernel flow, extract.

    Composition of :func:`forward_csk_evolution` and
    :func:`qef_from_csk_path`.
    """
    s_path = forward_csk_evolution(f_path, ccr)
    return qef_from_csk_path(s_path, ccr, nodes=nodes)


def _t_steps(f_path, ccr, s_path):
    """T_0, T_1, ... of :func:`forward_t_evolution`, one node at a time."""
    big = ccr.big
    h = f_path.grid.step
    t_u = np.eye(big.shape[0], dtype=complex)
    yield t_u
    for u in range(f_path.grid.node_count - 1):
        w_re_mid = 0.5 * (
            f_path.entries[u].weights.real + f_path.entries[u + 1].weights.real
        )
        s_mid = 0.5 * (s_path.mats[u] + s_path.mats[u + 1])
        rhs = (4j * h) * (big @ w_re_mid) @ s_mid
        t_u = t_u + np.linalg.solve(np.conj(s_mid), rhs)
        yield t_u


def forward_t_evolution(f_path, ccr):
    """Integrate the normal-ordered kernel directly: conj(S) T' = 4i L (Re F) S.

    Midpoint rule throughout: the step solves conj(S_mid) dT =
    4i h Lambda (Re F)_mid S_mid with S_mid the average of neighboring
    path entries, so the route is second order and serves as the
    independent cross-check of the factorization in
    :func:`forward_qef_measure`.  Returns the stack of T matrices.
    """
    s_path = forward_csk_evolution(f_path, ccr)
    size = ccr.big.shape[0]
    t_mats = np.empty((f_path.grid.node_count, size, size), dtype=complex)
    for u, t_u in enumerate(_t_steps(f_path, ccr, s_path)):
        t_mats[u] = t_u
    return t_mats


def _kernel_product(ccr, weights):
    """Lambda W for symmetric W, as Lambda[:, :k] W[:k, :k] on its live block."""
    k = _live_width(weights)
    ham = np.zeros(weights.shape, dtype=complex)
    ham[:, :k] = ccr.big[:, :k] @ weights[:k, :k]
    return ham


def _inverse_step(superop, n_weights, dn_weights, ccr, support_index):
    """One pull-back of the inverse bridge: the measure M with
    Lambda M = superop(2i Lambda N, Lambda N'), solved on [0, t_u]^2 for
    u = support_index.  Returns (measure, rounding bound of the
    superoperator, solve report)."""
    h_n = _kernel_product(ccr, n_weights)
    h_dn = _kernel_product(ccr, dn_weights)
    lam_m, err = superop(2j * h_n, h_dn)
    measure, report = ccr.solver.solve_measure(lam_m, support_index=support_index)
    return measure, err, report


@dataclass(frozen=True)
class InverseResult:
    """Driver path recovered from a measure path, with diagnostics;
    quad_errors holds the rounding bound of :func:`ups_superop` per node."""

    f_path: MeasurePath
    quad_errors: tuple
    solve_reports: tuple


def inverse_toe_measure(n_path, ccr):
    """Recover the driver family from measures and their derivatives.

    Node-aligned form of Lambda F_t = Ups(2i ad_{Lambda N_t})(Lambda N'_t):
    the path must carry derivative entries (the diagonal family has
    exact ones).  Each node costs one closed-form superoperator and one
    support-restricted kernel solve.
    """
    if n_path.derivative_entries is None:
        raise ValueError("inverse direction needs derivative entries on the path")
    grid = n_path.grid
    if grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    pairs = zip(n_path.entries, n_path.derivative_entries)
    entries, quad_errors, reports = zip(*(
        _inverse_step(ups_superop, n.weights, dn.weights, ccr, u)
        for u, (n, dn) in enumerate(pairs)
    ))
    return InverseResult(MeasurePath(grid, entries), quad_errors, reports)


def staggered_inverse_measures(measures, ccr):
    """Canonical driver at step midpoints from consecutive measures.

    Uses the staggered second-order pair N(mid) = average and
    N'(mid) = difference quotient, whose supports stay inside the later
    node, matching the sampling the midpoint integrator consumes.

    The N -> F direction is formulated for the exponential square root
    kept positive along the path, so the recovered family is that
    canonical representative: drivers built as Ups images are matched
    directly, while a general real driver is matched only up to the
    phase of its root, an O(N^2) gap independent of the step.  The
    measure path itself is always reproduced; compare through the
    regenerated flow when the driver class is unknown.
    """
    h = ccr.grid.step
    out = []
    for u in range(ccr.grid.node_count - 1):
        w_lo, w_hi = measures[u].weights, measures[u + 1].weights
        mid, slope = 0.5 * (w_lo + w_hi), (w_hi - w_lo) / h
        out.append(_inverse_step(ups_superop, mid, slope, ccr, u + 1)[0])
    return tuple(out)


@dataclass(frozen=True)
class RoundtripReport:
    """Residuals of a forward-then-inverse pass over a driver path.

    invariant_residual compares the measure paths of the original and
    the regenerated flow; it vanishes at the scheme order for every
    driver.  direct_residual compares the recovered midpoint drivers
    with the input's midpoint averages; it decays at the scheme order
    exactly on the canonical (positive root) class and otherwise stalls
    at the phase gap, so a small invariant residual with a large direct
    one identifies a non-canonical input rather than a solver failure.
    """

    invariant_residual: float
    direct_residual: float


def _relative_gaps(ccr, got, want):
    """Per-node gaps ||got_u - want_u|| over the largest ||want_u||.

    Both norms are kernel-weighted: node masses of singular measures
    depend on grid alignment at order one, so raw weight distances
    overstate the gap between equal measures.  When every target
    vanishes the gaps are returned unscaled.
    """
    gaps = []
    den = 0.0
    for g, w in zip(got, want):
        gaps.append(kernel_weighted_norm(ccr, g - w))
        den = max(den, kernel_weighted_norm(ccr, w))
    return [gap / den if den > 0.0 else gap for gap in gaps]


def roundtrip_f_residual(f_path, ccr):
    """Forward a driver path, invert the measures, report both gaps.

    Both are kernel-weighted gaps at the worst node, relative to the
    largest target norm.
    """
    return _flow_closure(f_path, ccr, forward_qef_measure(f_path, ccr))


def _flow_closure(f_path, ccr, qef):
    """:func:`roundtrip_f_residual` from the driver's measures qef,
    extracted at every node."""
    grid = f_path.grid
    recovered = staggered_inverse_measures(qef.measures, ccr)
    direct = max(
        _relative_gaps(
            ccr,
            (m.weights for m in recovered),
            (_midpoint_weights(f_path, u) for u in range(grid.node_count - 1)),
        )
    )
    regen = csk_path_from_midpoints([m.weights for m in recovered], ccr)
    check = qef_from_csk_path(regen, ccr)
    invariant = max(
        _relative_gaps(
            ccr,
            (m.weights for m in check.measures),
            (m.weights for m in qef.measures),
        )
    )
    return RoundtripReport(invariant, direct)


def _roundtrip_n_gaps(n_path, ccr):
    """Per-node relative gaps of forward(inverse(N)) against N."""
    return _forward_gaps(inverse_toe_measure(n_path, ccr).f_path, n_path, ccr)


def _forward_gaps(f_path, n_path, ccr):
    """:func:`_roundtrip_n_gaps` from the driver f_path already recovered
    from n_path."""
    qef = forward_qef_measure(f_path, ccr)
    return _relative_gaps(
        ccr,
        (m.weights for m in qef.measures),
        (m.weights for m in n_path.entries),
    )


def roundtrip_n_residual(n_path, ccr):
    """Relative gap of forward(inverse(N)) against N in the weighted norm,
    at the worst node."""
    return max(_roundtrip_n_gaps(n_path, ccr))


def t_route_residual(f_path, ccr):
    """Max relative gap between the factorized and integrated T routes.

    T_u = I + conj(S_u)^{-1} (2i Im S_u), the matrix whose logarithm
    :func:`qef_from_csk_path` takes, is formed on the flow itself and
    compared with :func:`forward_t_evolution`: no logarithm or solve runs.
    """
    return _t_route_gap(f_path, ccr, forward_csk_evolution(f_path, ccr))


def _t_route_gap(f_path, ccr, s_path):
    """:func:`t_route_residual` on the driver's flow s_path; the
    integrated T is compared node by node as its recursion runs."""
    eye = np.eye(ccr.big.shape[0])
    worst = 0.0
    for u, t_direct in enumerate(_t_steps(f_path, ccr, s_path)):
        t_u = eye + _normal_offset(s_path.mats.live(u))
        gap = np.linalg.norm(t_u - t_direct)
        worst = max(worst, float(gap / (1.0 + np.linalg.norm(t_u))))
    return worst


@dataclass(frozen=True)
class PsiDecomposition:
    """Structure of the measure M with sinhc(2i ad_{L N})(L N') = L M.

    corner_block is the mass at (t_u, t_u); for the diagonal family it
    approaches Pi at first order in the step.  Masses are sums of block
    Frobenius norms over the interior, the two edges, and the corner.
    quad_error is the rounding bound :func:`sinhc_superop` returns.
    """

    measure: KernelMeasure
    corner_block: np.ndarray
    interior_mass: float
    edge_mass: float
    corner_mass: float
    reality_residual: float
    quad_error: float
    solve_report: object


def qef_psi_measure(n_entry, ndot_entry, ccr):
    """Evaluate the measure driving exp(phi_N)' and report its structure.

    Computes sinhc applied to the adjoint of the measure kernel and
    splits the recovered masses into interior, edge, and corner parts
    relative to the support corner of n_entry.
    """
    corner = max(n_entry.support_index, ndot_entry.support_index)
    measure, quad_error, report = _inverse_step(
        sinhc_superop, n_entry.weights, ndot_entry.weights, ccr, corner
    )
    n = measure.dim
    w = measure.weights
    interior = w[: corner * n, : corner * n]
    edge_right = w[: corner * n, corner * n : (corner + 1) * n]
    edge_down = w[corner * n : (corner + 1) * n, : corner * n]
    corner_block = w[corner * n : (corner + 1) * n, corner * n : (corner + 1) * n]

    def _block_mass(tile, rows, cols):
        if tile.size == 0:
            return 0.0
        blocks = tile.reshape(rows, n, cols, n)
        return float(np.sqrt((np.abs(blocks) ** 2).sum(axis=(1, 3))).sum())

    interior_mass = _block_mass(interior, corner, corner)
    edge_mass = _block_mass(edge_right, corner, 1) + _block_mass(edge_down, 1, corner)
    corner_mass = float(np.linalg.norm(corner_block))
    return PsiDecomposition(
        measure,
        corner_block.copy(),
        interior_mass,
        edge_mass,
        corner_mass,
        float(np.linalg.norm(w.imag) / (1.0 + np.linalg.norm(w))),
        quad_error,
        report,
    )


def spde_fast_path(model, pi, grid):
    """Forward evolution for the atomic driver F_t = delta at (t, t) Pi.

    Checks that Pi is finite and symmetric, builds the kernel, and
    integrates the atomic midpoint weights with
    :func:`csk_path_from_midpoints`.  Each weight has 2n live columns, so
    every step is a rank-2n update costing O(size k n) <= O(N^2 n^3).
    The weights are formed one step at a time, so the result equals
    forward_csk_evolution(corner_atom_path(grid, pi), ccr) bit for bit
    without building the N + 1 driver entries.
    """
    if np.shape(pi) != (model.dim, model.dim):
        raise ValueError(f"pi must be {model.dim} x {model.dim}")
    pi = _check_pi(pi)
    ccr = build_ccr_kernel(model, grid)
    return csk_path_from_midpoints(_AtomicMidpoints(grid, pi), ccr)


def g_path_magnus(f_path, ccr):
    """Integrate the exponent path Y' = (1/2) Mho(4i ad_Y)(Lambda F_t).

    Explicit midpoint rule on the stacked kernel Y = Lambda G; the
    Bernoulli superoperator is guarded inside its convergence radius, so
    drivers must stay mild or horizons short.  Returns the list of Y
    matrices and the G measures recovered per node.

    exp(4i Y_N) reproduces the terminal symplectic kernel of
    :func:`forward_csk_evolution` up to the shared scheme order.
    """
    grid = f_path.grid
    big = ccr.big
    h = grid.step
    y = np.zeros(big.shape, dtype=complex)
    ys = [y]
    for u in range(grid.node_count - 1):
        h_f_lo = big @ f_path.entries[u].weights
        h_f_mid = big @ _midpoint_weights(f_path, u)
        k1, _ = mho_superop(4j * y, h_f_lo)
        y_half = y + (0.25 * h) * k1  # half step of (1/2) Mho(...)
        k2, _ = mho_superop(4j * y_half, h_f_mid)
        y = y + (0.5 * h) * k2
        ys.append(y)
    measures, reports = zip(*(
        ccr.solver.solve_measure(y, support_index=u) for u, y in enumerate(ys)
    ))
    return MeasurePath(grid, measures), ys, reports


def chk_column_function(model, q, block_col):
    """Continuous-time column t -> (Lambda Q)(t, {t_k}) of a measure's CHK.

    Evaluates C(t) = sum_l Lambda(t - t_l) W_l, W_l = W[l, block_col], at
    arbitrary t, which is the function whose two-sided Laplace transform
    the recovery routine samples.  The kernel is a stationary Markov
    chain, so with E = e^{hA} the masses fold into two recursions, run
    once at construction:

      U_j = E U_{j-1} + Theta W_j,   U_{-1} = 0,
      V_j = W_j + E^T V_{j+1},       V_{N+1} = 0.

    On [t_j, t_{j+1}) the column is then
    e^{(t - t_j) A} U_j + Theta e^{(t_{j+1} - t) A^T} V_{j+1}; for t < 0 only
    the second term applies (j = -1, t_0 = 0), and for t >= T only the
    first (j = N).  Each evaluation costs at most two n x n exponentials,
    whatever the node count.

    Raises ValueError unless block_col is an integer in [0, N + 1).
    """
    grid = q.grid
    n = q.dim
    count = grid.node_count
    if not isinstance(block_col, (int, np.integer)) or not 0 <= block_col < count:
        raise ValueError(
            f"block_col must be an integer in [0, {count}), got {block_col!r}"
        )
    nodes = grid.nodes
    drift = model.drift
    theta = model.theta
    e_step = expm(grid.step * drift)
    masses = np.asarray(
        q.weights[:, block_col * n : (block_col + 1) * n], dtype=complex
    ).reshape(count, n, n)
    forward = [theta @ masses[0]]
    for w in masses[1:]:
        forward.append(e_step @ forward[-1] + theta @ w)
    backward = [np.zeros((n, n), dtype=complex)]
    for w in masses[::-1]:
        backward.append(w + e_step.T @ backward[-1])
    backward.reverse()

    def column(t):
        t = float(t)
        j = int(np.searchsorted(nodes, t, side="right")) - 1
        value = np.zeros((n, n), dtype=complex)
        if j >= 0:
            value += expm((t - nodes[j]) * drift) @ forward[j]
        if j < count - 1:
            value += theta @ expm((nodes[j + 1] - t) * drift).T @ backward[j + 1]
        return value

    return column


def laplace_recover_measure(column, model, grid, s_samples, tol=1e-9):
    """Recover one block column of node masses from transform samples.

    Experimental: evaluates the two-sided Laplace transform of the given
    CHK column at each sample, left-multiplies by Lambda_hat(s)^{-1} to
    expose the moment sums sum_l e^{-s t_l} W_l, and solves the
    resulting Vandermonde-type system for the masses.  Conditioning
    deteriorates quickly with the node count; the condition number is
    reported and a value beyond 1e12 raises.  tol is the absolute and
    relative quadrature tolerance and sets the tail truncation; it must be
    positive, else NumericalFailure is raised.

    Returns (masses, condition) with masses of shape (N+1, n, n).
    """
    # Local import: scipy.integrate is slow to load and only this task needs it.
    from scipy.integrate import quad_vec

    from .model import laplace_lambda, laplace_point, spectral_abscissa

    if not tol > 0.0:
        raise NumericalFailure("quadrature tolerance must be positive")
    s_samples = [complex(s) for s in s_samples]
    count = grid.node_count
    if len(s_samples) < count:
        raise ValueError(
            f"need at least {count} transform samples, got {len(s_samples)}"
        )
    n = model.dim
    decay = abs(spectral_abscissa(model))

    rows = []
    rhs = []
    for s in s_samples:
        point = laplace_point(model, s)  # validates the strip
        # transform of the column: the kernel decays at the model rate on
        # both sides of the support, truncate where it is negligible
        margin = max(point.strip_margin, 0.25 * decay)
        tail = -np.log(tol * 1e-3) / margin
        lo = -tail
        hi = grid.horizon + tail

        def integrand(t, _s=s):
            return np.exp(-_s * t) * column(t)

        value, _ = quad_vec(integrand, lo, hi, epsabs=tol, epsrel=tol, norm="2")
        moment = np.linalg.solve(laplace_lambda(model, s), value)
        rows.append(np.exp(-s * grid.nodes))
        rhs.append(moment)

    vander = np.asarray(rows)
    condition = float(np.linalg.cond(vander))
    if condition > 1e12:
        raise NumericalFailure(
            f"moment system condition {condition:.3e} beyond 1e12; "
            "fewer nodes or better samples needed"
        )
    stacked = np.asarray(rhs).reshape(len(s_samples), n * n)
    solution, *_ = np.linalg.lstsq(vander, stacked, rcond=None)
    return solution.reshape(count, n, n), condition
