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
restrict their kernel solves to that support, one solve against the
leading k x k block of Lambda each.  Every solve runs through
ccr.solver, which the commutator kernel owns, so each kernel's
condition number is computed at most once.
Derivative entries, where a path carries them, follow the same
convention (the diagonal family has the exact corner-atom derivative).
Each measure stores only the window outside which its masses vanish,
one n x n block per node of a corner-atom driver.
Through Q -> 4i Lambda Q the support makes S_u the identity beyond its
first k = (u + 1) n columns, and T_u - I, 4i Lambda N_u and the inverse
direction's superoperator images zero there, so extraction and the
inverse direction work on those k columns only; the inverse direction
evaluates its superoperator on the leading k x k blocks and hands the
value to the kernel solve as the leading block of Lambda M.  A kernel
path stores just those columns, S_u[:, :k] per node
(:class:`LiveColumns`), about half of N + 1 dense matrices; its readers
(extraction, the congruence gates, the integrated T route) take the
block and its width from the path, and a full node is built only when
a caller indexes one.  The integrated T route keeps T_u the same way,
at the width of S_u, and every solve against conj(S_u) returns its k
live columns only.  Extraction needs no such solve: the Cayley
transform of T_u is i Y_u with the real Y_u = (Re S_u)^{-1} Im S_u, so
each node's logarithm and kernel solve run in real arithmetic and the
measures come out real by construction (:func:`qef_from_csk_path`).

The integrator takes each step's driver as a midpoint measure, read on
its window, never as a full matrix: the generator is nonzero only in
the measure's live columns, and the exponential acts as a low-rank
update on them (rank 2n for the atomic driver F_t = delta_{(t,t)} Pi of
:func:`corner_atom_path`, which :func:`spde_fast_path` integrates),
never as a dense exponential.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .lie import (
    GREGORY_RADIUS,
    LOG_RECONSTRUCTION_TOL,
    CskMatrix,
    _cayley_gap_bound,
    _check_symplectic,
    _gregory_factor,
    _ups_series,
    _widen,
    csk_log,
    mho_superop,
    sinhc_superop,
    symplectic_residual_raw,
    ups_superop,
)
from .measures import (
    KernelMeasure,
    _block_norms,
    _check_kernel_measure,
    _check_node,
    _common_window,
    _lambda_columns,
    _live_width,
    _midpoint,
    _window_weighted_norm,
    atomic_corner_measure,
    build_ccr_kernel,
    diagonal_lebesgue_measure,
    lambda_product,
)
from .model import expm, laplace_lambda, laplace_point

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
    "ChkColumn",
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
        families = [("entry", entries)]
        if self.derivative_entries is not None:
            dents = tuple(self.derivative_entries)
            object.__setattr__(self, "derivative_entries", dents)
            if len(dents) != len(entries):
                raise ValueError("derivative entries do not match path length")
            families.append(("derivative entry", dents))
        for label, family in families:
            for u, q in enumerate(family):
                if q.grid != self.grid:
                    raise ValueError(f"{label} {u} lives on a different grid")
                if q.support_index > u:
                    raise ValueError(
                        f"{label} {u} anticipates: support index {q.support_index}"
                    )

    @property
    def dim(self):
        return self.entries[0].dim


class LiveColumns:
    """Read-only stack of kernel path nodes, each kept as its live columns.

    Node u of a kernel path (S_u of a flow, T_u of the integrated T
    route) is the identity beyond its first k_u columns, so only the
    block S_u[:, :k_u] is stored, in a read-only array that aliases no
    caller memory.  The stack reads as a sequence of size x size nodes:
    len(), integer and negative indexing, iteration and shape, with item
    u built on access as the identity with its first k_u columns
    replaced (:func:`lie._widen`).  :meth:`live` returns the stored block
    itself, and nbytes counts the stored blocks, each once.

    A block that is read-only and owns its memory is kept as is (the
    integrator and the T route hand their blocks over this way, and an
    unchanged node shares its predecessor's); any other is copied.
    """

    def __init__(self, blocks, size):
        self._blocks = tuple(map(_read_only, blocks))
        self._size = size

    @classmethod
    def from_dense(cls, nodes, size):
        """Compress an iterable of full size x size nodes: each is scanned
        once for its live width as it arrives and those columns copied."""
        eye = np.eye(size)
        return cls((mat[:, : _live_width(mat - eye)] for mat in nodes), size)

    def __len__(self):
        return len(self._blocks)

    def __getitem__(self, u):
        mat = _widen(self.live(u), self._size)
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

    mats is a :class:`LiveColumns` stack (any other raises TypeError):
    node u keeps only its live block S_u[:, :k_u], which mats.live(u)
    returns, and mats[u] builds the full matrix on access.  The
    integrators hand over the blocks they write; full nodes go through
    :meth:`LiveColumns.from_dense`.  Entries are stored raw so that fast
    solvers are not forced through per-node validation; the terminal
    entry is checked at construction and :meth:`validate` re-checks
    every node on demand, both from the stored widths.  grid must be
    the kernel's grid, else ValueError.
    """

    grid: object
    ccr: object
    mats: LiveColumns

    def __post_init__(self):
        if not isinstance(self.mats, LiveColumns):
            raise TypeError(
                "mats must be a LiveColumns stack; compress full nodes "
                "with LiveColumns.from_dense(nodes, size)"
            )
        if self.grid != self.ccr.grid:
            raise ValueError("path and kernel grids differ")
        if self.mats.shape != (self.grid.node_count, *self.ccr.big.shape):
            raise ValueError("matrix stack shape does not match grid and kernel")
        # terminal gate; full sweeps go through validate()
        _check_symplectic(*self._residual(self.grid.steps))

    def _residual(self, u):
        return symplectic_residual_raw(self.mats.live(u), self.ccr.big)

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


class _Midpoints:
    """Midpoint measures of a driver path, one per step, formed on access:
    item u is the average of node entries u and u + 1, on their window."""

    def __init__(self, f_path):
        self._entries = f_path.entries

    def __len__(self):
        return len(self._entries) - 1

    def __getitem__(self, u):
        u = range(len(self))[u]
        return _midpoint(self._entries[u], self._entries[u + 1])


def _check_on_kernel(q, ccr, label):
    if q.grid != ccr.grid or q.dim != ccr.dim:
        raise ValueError(f"{label} is not on the kernel's grid with n = {ccr.dim}")


def _check_step_norm(exponent):
    step_norm = np.linalg.norm(exponent, 1)
    if not np.isfinite(step_norm):
        raise NumericalFailure(f"step exponent 1-norm is {step_norm}")
    if not step_norm <= STEP_NORM_BOUND:
        raise NumericalFailure(
            f"step exponent 1-norm {step_norm:.3e} exceeds "
            f"{STEP_NORM_BOUND}; refine the grid"
        )


def csk_path_from_midpoints(mids, ccr):
    """Integrate S' = 2i Lambda F_t S from per-step midpoint measures.

    mids[u] is the :class:`KernelMeasure`, masses W, of the driver at the
    midpoint of step u (any sequence with len() and indexing), each on
    ccr.grid with ccr.dim variables.  Each step applies exp(M),
    M = 2i h Lambda_big W, whose 1-norm is gated at STEP_NORM_BOUND, with
    refinement the remedy when it trips.  Every factor is symplectic, so
    the whole path satisfies the kernel congruence to accumulated rounding.

    M is nonzero only in the live column set C of W, the columns
    holding any nonzero entry.  With M_C the columns C of M and M_CC its
    rows C, exp(M) = I + M_C Ups(M_CC) P_C^T holds for any C, so every
    step is

        S_{u+1} = S_u + M_C Ups(M_CC) S_u[C, :k],

    Ups by :func:`lie._ups_series` (the gate keeps ||M_CC||_1 <= 1), and
    an empty C leaves S_u as it is.  k, the largest C[-1] + 1 so far, is
    the live width: S_u - I vanishes beyond column k, as no update
    reaches past it.  A step costs O(size |C| k + |C|^3), with M_C formed
    as Lambda[:, C] W[C, C] from the measure's window, never from a full
    W: |C| = 2n for the atomic driver of :func:`spde_fast_path`, and
    |C| = k for drivers recovered by :func:`inverse_toe_measure`,
    supported in [0, t_{u+1}]^2.

    Only the live block S_u[:, :k] of each node is written and kept (see
    :class:`LiveColumns`): step u pads the block of S_u with identity
    columns to the new width and applies the update to that, so the
    path holds sum_u size k_u entries, about half of N + 1 dense
    matrices, and no (N + 1) x size^2 stack is ever allocated.
    """
    if len(mids) != ccr.grid.node_count - 1:
        raise ValueError("need one midpoint measure per step")
    blocks = _live_blocks(mids, ccr)
    return CskPath(ccr.grid, ccr, LiveColumns(blocks, ccr.big.shape[0]))


def _live_blocks(mids, ccr):
    """S_0[:, :k_0], S_1[:, :k_1], ... of :func:`csk_path_from_midpoints`,
    each read-only; the step temporaries are gone once the last is out."""
    h = ccr.grid.step
    live = np.empty((ccr.big.shape[0], 0), dtype=complex)
    live.setflags(write=False)
    yield live
    for u, mid in enumerate(mids):
        _check_on_kernel(mid, ccr, f"midpoint {u}")
        cols, lam_w = _lambda_columns(ccr, mid)
        if cols.size:
            m_cols = (2j * h) * lam_w
            _check_step_norm(m_cols)
            live = _widen(live, int(cols[-1]) + 1)
            live += m_cols @ (_ups_series(m_cols[cols]) @ live[cols])
            live.setflags(write=False)
        yield live


def forward_csk_evolution(f_path, ccr):
    """Integrate the kernel flow of a driver path by the midpoint rule.

    The midpoint measure of each step is the average of its two node
    entries; see :func:`csk_path_from_midpoints` for the stepping.
    """
    if f_path.grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    return csk_path_from_midpoints(_Midpoints(f_path), ccr)


def _dense_csk_evolution(f_path, ccr):
    """Reference for :func:`forward_csk_evolution`: expm(M) @ S_u at every
    step, on dense matrices, each node compressed as soon as it is formed."""
    if f_path.grid != ccr.grid:
        raise ValueError("path and kernel grids differ")

    def step(s_u, mid):
        exponent = 2j * ccr.grid.step * (ccr.big @ mid.weights)
        _check_step_norm(exponent)
        return expm(exponent) @ s_u

    size = ccr.big.shape[0]
    eye = np.eye(size, dtype=complex)
    nodes = itertools.accumulate(_Midpoints(f_path), step, initial=eye)
    return CskPath(ccr.grid, ccr, LiveColumns.from_dense(nodes, size))


@dataclass(frozen=True)
class QefForwardResult:
    """Measures N_{t_u} extracted from a driver path, with diagnostics.

    reality_residuals[i] is ||Im W_N|| / (1 + ||W_N||) at the extracted
    node node_indices[i]; the normal ordering theorem asserts N is real.
    The extraction keeps it so by construction: the series route forms
    Lambda N = atan(Y) / 2 from the real Y = (Re S)^{-1} Im S in real
    arithmetic, so N has no imaginary part and these read exactly 0.
    Only a node past the series radius, which takes the anchored
    complex logarithm, can read nonzero, at rounding level.  Neither T
    nor the kernel path is kept: :func:`t_route_residual` forms T from
    the flow itself.
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


def _conj_solve(live, rhs):
    """(conj(S)^{-1} R)[:, :k], size x k, for S a path node and R zero beyond
    column k.

    live = S[:, :k] is S up to its identity columns, S = [[A, 0], [B, I]],
    and rhs = R[:, :k], so conj(S)^{-1} R = [[X_11, 0], [X_21, 0]] with
    X_11 = conj(A)^{-1} R_11 (one k x k solve) and X_21 = R_21 - conj(B) X_11;
    the k columns [X_11; X_21] are returned, the zero ones never formed.
    """
    k = live.shape[1]
    x11 = np.linalg.solve(np.conj(live[:k]), rhs[:k])
    return np.vstack((x11, rhs[k:] - np.conj(live[k:]) @ x11))


def _atan_theta(live, prev):
    """Theta = atan(Y)[:, :k], Y = (Re S)^{-1} Im S, on the series route of
    :func:`_extract_node`, or None where that route does not apply.

    live = S[:, :k] with S = [[A, 0], [B, I]], so Y = [[Y_11, 0], [Y_21, 0]]
    with Y_11 = (Re A)^{-1} Im A (one real k x k solve) and
    Y_21 = Im B - Re B Y_11, and Theta = Y G with G of
    :func:`lie._gregory_factor` at -Y_11^2.  None when Re A is singular,
    when ||Y||_1 exceeds GREGORY_RADIUS, or when 2i Theta lies pi or more
    (in the 2-norm) from the previous node's 4i Lambda N = 2i prev.  Raises
    NumericalFailure when the bound of :func:`lie._cayley_gap_bound` on
    ||exp(2i Theta) - T||_F exceeds LOG_RECONSTRUCTION_TOL.
    """
    k = live.shape[1]
    try:
        y11 = np.linalg.solve(live[:k].real, live[:k].imag)
    except np.linalg.LinAlgError:
        return None
    y = np.vstack((y11, live[k:].imag - live[k:].real @ y11))
    radius = float(np.linalg.norm(y, 1)) if k else 0.0
    if not radius <= GREGORY_RADIUS:
        return None
    theta = y @ _gregory_factor(-(y11 @ y11), radius)
    if not _cayley_gap_bound(theta, y) <= LOG_RECONSTRUCTION_TOL:
        raise NumericalFailure("logarithm failed to reconstruct its input")
    if prev is not None:
        gap = np.zeros((len(live), max(k, prev.shape[1])), np.result_type(theta, prev))
        gap[:, :k] = theta
        gap[:, : prev.shape[1]] -= prev
        # ||.||_2 <= ||.||_F: the SVD runs only when the bound does not settle it
        if 2.0 * np.linalg.norm(gap) >= np.pi and 2.0 * np.linalg.norm(gap, 2) >= np.pi:
            return None
    return theta


def _extract_node(live, ccr, prev):
    """(Lambda N_u, Theta_u) at one node from its live block S_u[:, :k].

    S_u passes the CskMatrix congruence gate on its live block.  With
    T = conj(S)^{-1} S, T + I = 2 conj(S)^{-1} Re S and
    T - I = 2i conj(S)^{-1} Im S, so Z = (T - I)(T + I)^{-1} = iY with the
    real Y = (Re S)^{-1} Im S, and log T = 2 atanh(Z) = 2i atan(Y): the
    series route (:func:`_atan_theta`) gives 4i Lambda N_u = 2i Theta
    with Lambda N_u = Theta / 2 real, returned as a real size x size
    right-hand side zero beyond column k.  Where that route does not
    apply, T is formed through its offset (:func:`_conj_solve`) and the
    anchored :func:`lie.csk_log` gives 4i Lambda N_u = H, anchored at
    2i prev, and Lambda N_u = H / 4i.  Theta_u = 4i Lambda N_u / 2i, the
    next node's prev, is the real k columns of Theta or H / 2i.
    """
    _check_symplectic(*symplectic_residual_raw(live, ccr.big))
    size, k = live.shape
    theta = _atan_theta(live, prev)
    if theta is not None:
        rhs = np.zeros((size, size))
        rhs[:, :k] = 0.5 * theta
        return rhs, theta
    t_mat = _widen(np.eye(size, k) + _conj_solve(live, 2j * live.imag), size)
    anchor = None
    if prev is not None:
        anchor = np.zeros((size, size), dtype=complex)
        anchor[:, : prev.shape[1]] = 2j * prev
    ham = csk_log(CskMatrix(ccr.grid, t_mat, ccr), anchor).ham
    return ham / 4j, ham / 2j


def qef_from_csk_path(s_path, ccr, nodes=None):
    """Quadratic-exponential measures extracted from a computed kernel path.

    For each requested node the normal-ordering factorization
    T_u = conj(S_u)^{-1} S_u = exp(4i Lambda N_u) is taken through its
    Cayley form: Z = (T - I)(T + I)^{-1} is i times the real
    Y = (Re S_u)^{-1} Im S_u, so 4i Lambda N_u = log T = 2i atan(Y), and
    the node runs in real arithmetic throughout (:func:`_extract_node`):
    one real k x k solve for Y, the alternating Gregory series for
    Theta = atan(Y) within GREGORY_RADIUS, and the kernel solve
    restricted to [0, t_u]^2 of the real right-hand side Theta / 2.  N_u
    is then real by construction.  Past the series radius, or when the
    anchor test fails, the node forms T and takes the anchored complex
    logarithm instead.  nodes=None extracts at every node; a sparse
    selection saves the logarithms.

    Each stage works on the live block of its input: the path stores
    S_u as its first k columns, beyond which it is the identity (k =
    (u + 1) n for the flows of nonanticipative drivers, k = size
    otherwise), so Y, Theta and the solve take O(size k^2) work in place
    of O(size^3).  Every gate runs at every node: the congruence of S_u,
    the reconstruction of T (on the series route by the real bound of
    :func:`lie._cayley_gap_bound`, against LOG_RECONSTRUCTION_TOL), the
    anchor, and the solve residual over every row of Theta / 2.

    The logarithm anchor is carried from the previously extracted node,
    keeping the branch continuous along the path.  Raises ValueError
    unless every requested node is an integer in [0, N + 1), and unless
    s_path was integrated on ccr or on a kernel with equal entries.
    """
    grid = s_path.grid
    if grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    if not (s_path.ccr is ccr or np.array_equal(s_path.ccr.big, ccr.big)):
        raise ValueError("path was integrated on another kernel than ccr")
    count = grid.node_count
    if nodes is None:
        nodes = range(count)
    indices = tuple(sorted({_check_node(u, count, "extraction node") for u in nodes}))
    measures = []
    reality = []
    reports = []
    prev = None
    for u in indices:
        rhs, prev = _extract_node(s_path.mats.live(u), ccr, prev)
        measure, report = ccr.solver.solve_measure(rhs, support_index=u)
        measures.append(measure)
        reports.append(report)
        reality.append(measure.reality_residual)
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
    """T_0[:, :k_0], T_1[:, :k_1], ... of :func:`forward_t_evolution`, one
    read-only block at a time, k_u the stored width of S_u.

    Step u widens the blocks of T_u and S_u to k = k_{u+1} (:func:`lie._widen`),
    forms S_mid[:, :k] from the two flow blocks, and adds the k columns
    :func:`_conj_solve` returns for the right-hand side
    Lambda (Re F)_mid S_mid[:, :k] = Re(Lambda[:, C] W[C, C]) S_mid[C, :k]
    on the midpoint's live columns C (Lambda is real, C[-1] < k).  No full
    node and no size x size T is formed."""
    h = f_path.grid.step
    t_u = s_path.mats.live(0)  # T_0 = S_0 = I
    yield t_u
    for u, mid in enumerate(_Midpoints(f_path)):
        s_hi = s_path.mats.live(u + 1)
        width = s_hi.shape[1]
        s_mid = 0.5 * (_widen(s_path.mats.live(u), width) + s_hi)
        cols, lam_w = _lambda_columns(ccr, mid)
        rhs = (4j * h) * (lam_w.real @ s_mid[cols])
        t_u = _widen(t_u, width) + _conj_solve(s_mid, rhs)
        t_u.setflags(write=False)
        yield t_u


def forward_t_evolution(f_path, ccr):
    """Integrate the normal-ordered kernel directly: conj(S) T' = 4i L (Re F) S.

    Midpoint rule throughout: the step solves conj(S_mid) dT =
    4i h Lambda (Re F)_mid S_mid with S_mid the average of neighboring
    path entries, so the route is second order and serves as the
    independent cross-check of the factorization in
    :func:`forward_qef_measure`: it integrates T, never factoring S.
    Returns the read-only :class:`LiveColumns` stack of T, each node kept
    at the stored width of S_u (each right-hand side, and so T_u - I,
    vanishes beyond it), the blocks :func:`_t_steps` yields kept as they
    come.
    """
    s_path = forward_csk_evolution(f_path, ccr)
    return LiveColumns(_t_steps(f_path, ccr, s_path), ccr.big.shape[0])


def _inverse_step(superop, n_measure, dn_measure, ccr, support_index):
    """One pull-back of the inverse bridge: the measure M with
    Lambda M = superop(2i Lambda N, Lambda N'), solved on [0, t_u]^2 for
    u = support_index.

    N, N' and, by the closure of the Lie algebra, M are supported in
    [0, t_u]^2, so the image vanishes beyond its first k = (u + 1) n
    columns and its rows below k are Lambda[k:, :k] M_11.  The
    superoperator runs on the leading k x k blocks only, each formed
    from its measure's window (:func:`_leading_lambda`), and its value
    Lambda_11 M_11 goes to the kernel solve as the leading block of the
    right-hand side, which solves for M_11 and gates the whole of it,
    rows below k included.  Returns (measure, rounding bound of the
    k x k superoperator evaluation, solve report)."""
    k = (support_index + 1) * ccr.dim
    x = 2j * _leading_lambda(ccr, n_measure, k)
    top, err = superop(x, _leading_lambda(ccr, dn_measure, k))
    measure, report = ccr.solver.solve_measure(top, support_index=support_index)
    return measure, err, report


def _leading_lambda(ccr, q, k):
    """(Lambda W)[:k, :k] for the masses W of q, formed from its window as
    Lambda[:k, lo:hi] W[lo:hi, lo:k]; raises ValueError unless q is on
    the kernel's grid with its n."""
    _check_kernel_measure(ccr, q)
    lo, hi = q._lo, q._hi
    out = np.zeros((k, k), dtype=complex)
    if lo < k:
        out[:, lo : min(hi, k)] = ccr.big[:k, lo:hi] @ q._window[:, : k - lo]
    return out


@dataclass(frozen=True)
class InverseResult:
    """Driver path recovered from a measure path, with diagnostics;
    quad_errors holds the rounding bound of :func:`ups_superop` per node,
    on its k x k evaluation, and solve_reports the kernel solve's, whose
    residual covers the rows below k too."""

    f_path: MeasurePath
    quad_errors: tuple
    solve_reports: tuple


def inverse_toe_measure(n_path, ccr):
    """Recover the driver family from measures and their derivatives.

    Node-aligned form of Lambda F_t = Ups(2i ad_{Lambda N_t})(Lambda N'_t):
    the path must carry derivative entries (the diagonal family has
    exact ones).  Each node costs one closed-form superoperator on the
    leading k x k blocks and one kernel solve against the kernel's
    leading k x k block (:func:`_inverse_step`).
    """
    if n_path.derivative_entries is None:
        raise ValueError("inverse direction needs derivative entries on the path")
    grid = n_path.grid
    if grid != ccr.grid:
        raise ValueError("path and kernel grids differ")
    pairs = zip(n_path.entries, n_path.derivative_entries)
    entries, quad_errors, reports = zip(*(
        _inverse_step(ups_superop, n, dn, ccr, u)
        for u, (n, dn) in enumerate(pairs)
    ))
    return InverseResult(MeasurePath(grid, entries), quad_errors, reports)


def staggered_inverse_measures(measures, ccr):
    """Canonical driver at step midpoints from consecutive measures.

    Uses the staggered second-order pair N(mid) = average and
    N'(mid) = difference quotient, whose supports stay inside the later
    node, matching the sampling the midpoint integrator consumes.  The
    N + 1 measures must be on ccr.grid with ccr.dim, else ValueError.

    The N -> F direction is formulated for the exponential square root
    kept positive along the path, so the recovered family is that
    canonical representative: drivers built as Ups images are matched
    directly, while a general real driver is matched only up to the
    phase of its root, an O(N^2) gap independent of the step.  The
    measure path itself is always reproduced; compare through the
    regenerated flow when the driver class is unknown.
    """
    grid, n = ccr.grid, ccr.dim
    if len(measures) != grid.node_count:
        raise ValueError(f"need {grid.node_count} measures, got {len(measures)}")
    for u, q in enumerate(measures):
        _check_on_kernel(q, ccr, f"measure {u}")
    out = []
    for u, (a, b) in enumerate(zip(measures, measures[1:])):
        lo, _, w_lo, w_hi = _common_window(a, b)
        slope = KernelMeasure._from_window(grid, n, lo, (w_hi - w_lo) / grid.step)
        out.append(_inverse_step(ups_superop, _midpoint(a, b), slope, ccr, u + 1)[0])
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

    got and want are sequences of measures, both norms kernel-weighted
    (:func:`measures.kernel_weighted_norm`, here of the windows, the
    difference taken on :func:`measures._common_window`): node masses of
    singular measures depend on grid alignment at order one, so raw
    weight distances overstate the gap between equal measures.  When
    every target vanishes the gaps are returned unscaled.
    """
    gaps = []
    den = 0.0
    for g, w in zip(got, want):
        lo, _, w_g, w_w = _common_window(g, w)
        gaps.append(_window_weighted_norm(ccr, lo, w_g - w_w))
        den = max(den, _window_weighted_norm(ccr, w._lo, w._window))
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
    recovered = staggered_inverse_measures(qef.measures, ccr)
    direct = max(_relative_gaps(ccr, recovered, _Midpoints(f_path)))
    regen = csk_path_from_midpoints(recovered, ccr)
    check = qef_from_csk_path(regen, ccr)
    invariant = max(_relative_gaps(ccr, check.measures, qef.measures))
    return RoundtripReport(invariant, direct)


def _roundtrip_n_gaps(n_path, ccr):
    """Per-node relative gaps of forward(inverse(N)) against N."""
    return _forward_gaps(inverse_toe_measure(n_path, ccr).f_path, n_path, ccr)


def _forward_gaps(f_path, n_path, ccr):
    """:func:`_roundtrip_n_gaps` from the driver f_path already recovered
    from n_path."""
    qef = forward_qef_measure(f_path, ccr)
    return _relative_gaps(ccr, qef.measures, n_path.entries)


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
    integrated T is compared node by node as its recursion runs, on the
    k live columns both routes share.  Each of the size - k identity
    columns adds 1 to ||T_u||_F^2, as in :func:`lie.symplectic_residual_raw`."""
    worst = 0.0
    for u, t_direct in enumerate(_t_steps(f_path, ccr, s_path)):
        live = s_path.mats.live(u)
        size, k = live.shape
        t_u = np.eye(size, k) + _conj_solve(live, 2j * live.imag)
        gap = np.linalg.norm(t_u - t_direct)
        t_norm = np.sqrt(np.linalg.norm(t_u) ** 2 + (size - k))
        worst = max(worst, float(gap / (1.0 + t_norm)))
    return worst


@dataclass(frozen=True)
class PsiDecomposition:
    """Structure of the measure M with sinhc(2i ad_{L N})(L N') = L M.

    corner_block is the mass at (t_u, t_u); for the diagonal family it
    approaches Pi at first order in the step.  Masses are sums of block
    Frobenius norms over the interior, the two edges, and the corner.
    reality_residual is the measure's, ||Im W|| / (1 + ||W||).
    quad_error is the rounding bound :func:`sinhc_superop` returns on
    its k x k evaluation (:func:`_inverse_step`).
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
        sinhc_superop, n_entry, ndot_entry, ccr, corner
    )
    n = measure.dim
    w = measure.weights
    c = corner * n
    corner_block, edges = w[c : c + n, c : c + n], (w[:c, c : c + n], w[c : c + n, :c])
    interior_mass = float(_block_norms(w[:c, :c], n).sum())
    edge_mass = float(sum(_block_norms(edge, n).sum() for edge in edges))
    corner_mass = float(np.linalg.norm(corner_block))
    return PsiDecomposition(
        measure,
        corner_block.copy(),
        interior_mass,
        edge_mass,
        corner_mass,
        measure.reality_residual,
        quad_error,
        report,
    )


def spde_fast_path(model, pi, grid):
    """Forward evolution for the atomic driver F_t = delta at (t, t) Pi.

    Checks that Pi is a finite symmetric model.dim x model.dim matrix and
    returns forward_csk_evolution(corner_atom_path(grid, pi), ccr) on the
    model's kernel.  Each driver entry stores one n x n block, and each
    midpoint weight has 2n live columns, so every step is a rank-2n
    update costing O(size k n) <= O(N^2 n^3).
    """
    if np.shape(pi) != (model.dim, model.dim):
        raise ValueError(f"pi must be {model.dim} x {model.dim}")
    f_path = corner_atom_path(grid, pi)
    return forward_csk_evolution(f_path, build_ccr_kernel(model, grid))


def g_path_magnus(f_path, ccr):
    """Integrate the exponent path Y' = (1/2) Mho(4i ad_Y)(Lambda F_t).

    Explicit midpoint rule on the stacked kernel Y = Lambda G; the
    Bernoulli superoperator is guarded inside its convergence radius, so
    drivers must stay mild or horizons short.  Returns the list of Y
    matrices and the G measures recovered per node.

    exp(4i Y_N) reproduces the terminal symplectic kernel of
    :func:`forward_csk_evolution` up to the shared scheme order.  Both
    Bernoulli inputs are :func:`lambda_product` Hamiltonians, so a path
    off the kernel's grid or n raises ValueError at its first step.
    """
    grid = f_path.grid
    h = grid.step
    y = np.zeros(ccr.big.shape, dtype=complex)
    ys = [y]
    for u, mid in enumerate(_Midpoints(f_path)):
        k1, _ = mho_superop(4j * y, lambda_product(ccr, f_path.entries[u]).ham)
        y_half = y + (0.25 * h) * k1  # half step of (1/2) Mho(...)
        k2, _ = mho_superop(4j * y_half, lambda_product(ccr, mid).ham)
        y = y + (0.5 * h) * k2
        ys.append(y)
    measures, reports = zip(*(
        ccr.solver.solve_measure(y, support_index=u) for u, y in enumerate(ys)
    ))
    return MeasurePath(grid, measures), ys, reports


@dataclass(frozen=True)
class ChkColumn:
    """Column of :func:`chk_column_function`: model, grid and its recursions,
    forward[j] = U_j and backward[j] = V_j, each of shape (N + 1, n, n)."""

    model: object
    grid: object
    forward: np.ndarray
    backward: np.ndarray

    def __call__(self, t):
        """The column at time t, which must be finite, else ValueError."""
        t, nodes, drift = float(t), self.grid.nodes, self.model.drift
        if not np.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        j = int(np.searchsorted(nodes, t, side="right")) - 1
        value = np.zeros(self.forward.shape[1:], dtype=complex)
        if j >= 0:
            value += expm((t - nodes[j]) * drift) @ self.forward[j]
        if j < len(nodes) - 1:
            right = expm((nodes[j + 1] - t) * drift).T @ self.backward[j + 1]
            value += self.model.theta @ right
        return value

    def transform(self, s):
        """Two-sided Laplace transform of the column at s, exact.

        With Phi(M) = integral_0^h e^{tau M} dtau, shared by every interval
        of the uniform grid, it is sum_{j<N} [e^{-s t_j} Phi(A - sI) U_j +
        e^{-s t_{j+1}} Theta Phi(sI + A^T) V_{j+1}] plus the two tails
        -Theta (sI + A^T)^{-1} V_0 and e^{-sT} (sI - A)^{-1} U_N.  Each Phi
        is the top-right block of one 2n x 2n exponential (Van Loan, IEEE
        TAC 23, 1978), whatever the node count.  Raises ValueError unless
        s is finite and 0 < Re s < |max Re lambda(A)|, where both tails
        converge.
        """
        s = laplace_point(self.model, s).s
        a, theta, h = self.model.drift, self.model.theta, self.grid.step
        eye, zero = np.eye(len(a)), np.zeros_like(a)

        def phi(m):
            return expm(h * np.block([[m, eye], [zero, zero]]))[: len(a), len(a) :]

        shifts = np.exp(-s * self.grid.nodes)
        u_sum = np.tensordot(shifts[:-1], self.forward[:-1], 1)
        v_sum = np.tensordot(shifts[1:], self.backward[1:], 1)
        return (
            phi(a - s * eye) @ u_sum
            + theta @ phi(s * eye + a.T) @ v_sum
            - theta @ np.linalg.solve(s * eye + a.T, self.backward[0])
            + shifts[-1] * np.linalg.solve(s * eye - a, self.forward[-1])
        )


def chk_column_function(model, q, block_col):
    """Continuous-time column t -> (Lambda Q)(t, {t_k}) of a measure's CHK.

    Returns C(t) = sum_l Lambda(t - t_l) W_l, W_l = W[l, block_col], as a
    :class:`ChkColumn`, callable at any t, whose exact two-sided Laplace
    transform the recovery routine samples.  The kernel is a stationary
    Markov chain, so with E = e^{hA} the masses fold into two recursions:

      U_j = E U_{j-1} + Theta W_j,   U_{-1} = 0,
      V_j = W_j + E^T V_{j+1},       V_{N+1} = 0.

    On [t_j, t_{j+1}) the column is then
    e^{(t - t_j) A} U_j + Theta e^{(t_{j+1} - t) A^T} V_{j+1}; for t < 0 only
    the second term applies (j = -1, t_0 = 0), and for t >= T only the
    first (j = N).  Each evaluation costs at most two n x n exponentials,
    whatever the node count.

    Raises ValueError unless block_col is an integer in [0, N + 1), and
    unless q has the model's n.
    """
    if q.dim != model.dim:
        raise ValueError(f"measure has n = {q.dim}, the model n = {model.dim}")
    grid = q.grid
    count = grid.node_count
    _check_node(block_col, count, "block_col")
    e_step = expm(grid.step * model.drift)
    masses = np.array([q.block(l, block_col) for l in range(count)])
    forward = [model.theta @ masses[0]]
    for w in masses[1:]:
        forward.append(e_step @ forward[-1] + model.theta @ w)
    backward = [np.zeros_like(masses[0], dtype=complex)]
    for w in masses[::-1]:
        backward.append(w + e_step.T @ backward[-1])
    return ChkColumn(model, grid, np.array(forward), np.array(backward[:0:-1]))


def laplace_recover_measure(column, s_samples):
    """Recover one block column of node masses from transform samples.

    Experimental: takes the exact two-sided Laplace transform of the
    given CHK column (:meth:`ChkColumn.transform`) at each sample,
    left-multiplies by Lambda_hat(s)^{-1} to expose the moment sums
    sum_l e^{-s t_l} W_l, and solves the resulting Vandermonde-type
    system for the masses.  The transform is exact up to rounding, so
    the recovered masses carry rounding times the system's condition
    number, which deteriorates quickly with the node count; it is
    reported, and a value beyond 1e12 raises NumericalFailure.  The
    model and grid are the column's own.

    Returns (masses, condition) with masses of shape (N+1, n, n).
    """
    s_samples = [complex(s) for s in s_samples]
    model, grid = column.model, column.grid
    count = grid.node_count
    if len(s_samples) < count:
        raise ValueError(
            f"need at least {count} transform samples, got {len(s_samples)}"
        )
    rhs = [
        np.linalg.solve(laplace_lambda(model, s), column.transform(s)) for s in s_samples
    ]
    vander = np.exp(-np.outer(s_samples, grid.nodes))
    condition = float(np.linalg.cond(vander))
    if condition > 1e12:
        raise NumericalFailure(
            f"moment system condition {condition:.3e} beyond 1e12; "
            "fewer nodes or better samples needed"
        )
    solution, *_ = np.linalg.lstsq(vander, np.reshape(rhs, (len(rhs), -1)), rcond=None)
    return solution.reshape(count, *rhs[0].shape), condition
