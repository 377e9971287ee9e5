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
path stores just those columns (:class:`LiveColumns`): S_u[:, :k] per
node, or, for a flow whose step adds fewer entries than the block
holds (the rank-2n steps of an atomic driver), the two thin factors of
that step, O(N n size) entries in all against about half of N + 1
dense matrices for the blocks.  Its readers (extraction, the
congruence gates) take each block and its width from one ordered pass
over the path, which replays the steps bit for bit, and a full node is
built only when a caller indexes one.  The integrated T route
(:func:`t_route_residual`, :func:`forward_t_evolution`) stores no
path: it reads the flow's blocks as the integrator yields them, keeps
T_u as its block, at the width of S_u, and every solve against
conj(S_u) returns its k live columns only.
Extraction needs no such solve: the Cayley transform of T_u is i Y_u
with the real Y_u = (Re S_u)^{-1} Im S_u, so each node's logarithm and
kernel solve run in real arithmetic and the measures come out real by
construction (:func:`qef_from_csk_path`).

The integrator takes each step's driver as a midpoint measure, read on
its window, never as a full matrix: the generator is nonzero only in
the measure's live columns, and the exponential acts as a low-rank
update on them (rank 2n for the atomic driver F_t = delta_{(t,t)} Pi of
:func:`corner_atom_path`, which :func:`spde_fast_path` integrates),
never as a dense exponential.

Each stage of the bridge is a recursion on the grid, and each is one
generator that walks the nodes in order: the integrator step
(:func:`_flow`), extraction at a node (:func:`_extraction`), the inverse
step (:func:`_inversion`), the staggered inverse of consecutive
measures (:func:`_staggered`), and the kernel-weighted gap at a node
(:func:`_node_gap`).  Every stage refuses a measure, path or kernel
matrix off its kernel's grid or n by the one check
:func:`measures._check_member`.  The public stage functions collect their
generator (:func:`csk_path_from_midpoints`, :func:`qef_from_csk_path`,
:func:`inverse_toe_measure`, :func:`staggered_inverse_measures`); the
roundtrip residuals and the CLI's forward, inverse and roundtrip tasks
chain the generators into one ordered pass, which holds each stage's
nodes at u - 1 and u only (one sweep's storage, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 12), runs every gate
on every node and returns the stage-by-stage values bit for bit.  The
diagonal path of :func:`diagonal_lebesgue_path` forms its entries on
access, so the pass reads each target once and keeps none.
"""

from __future__ import annotations

import collections
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
    _within_pi,
    csk_log,
    mho_superop,
    sinhc_superop,
    symplectic_residual_raw,
    ups_superop,
)
from .measures import (
    KernelMeasure,
    _block_norms,
    _check_member,
    _check_node,
    _check_pi,
    _common_window,
    _lambda_block,
    _lambda_columns,
    _live_width,
    _midpoint,
    _window_weighted_norm,
    atomic_corner_measure,
    build_ccr_kernel,
    diagonal_lebesgue_measure,
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
    under the same support convention.  Each family is stored as a tuple
    and checked entry by entry at construction, or, when it is given as
    an :class:`_OnAccess` sequence (:func:`diagonal_lebesgue_path`), kept
    as one that forms and checks each entry on access.  Either reads by
    len(), integer and negative indexing and iteration.
    """

    grid: object
    entries: tuple
    derivative_entries: tuple | None = None

    def __post_init__(self):
        entries = _as_family(self.entries)
        if len(entries) != self.grid.node_count:
            raise ValueError(
                f"path has {len(entries)} entries for {self.grid.node_count} nodes"
            )
        families = {"entries": ("entry", entries)}
        if self.derivative_entries is not None:
            dents = _as_family(self.derivative_entries)
            if len(dents) != len(entries):
                raise ValueError("derivative entries do not match path length")
            families["derivative_entries"] = ("derivative entry", dents)
        for name, (label, family) in families.items():
            object.__setattr__(self, name, self._checked(family, label))

    def _checked(self, family, label):
        """family with each entry checked by :func:`_check_entry`: a tuple
        at once, an :class:`_OnAccess` sequence as each is formed."""
        grid = self.grid
        if isinstance(family, _OnAccess):
            return _OnAccess(
                len(family), lambda u: _check_entry(family[u], grid, u, label)
            )
        for u, q in enumerate(family):
            _check_entry(q, grid, u, label)
        return family

    @property
    def dim(self):
        return self.entries[0].dim


class _OnAccess:
    """Read-only sequence of count items, item u formed by build(u) on each
    access: len(), integer and negative indexing, and iteration."""

    def __init__(self, count, build):
        self._count, self._build = count, build

    def __len__(self):
        return self._count

    def __getitem__(self, u):
        return self._build(_node_index(u, self._count))

    def __iter__(self):
        return map(self._build, range(self._count))


def _check_entry(q, grid, u, label):
    """q as entry u of a path on grid; ValueError unless it lives on the
    grid and is supported in [0, t_u]^2."""
    if q.grid != grid:
        raise ValueError(f"{label} {u} lives on a different grid")
    if q.support_index > u:
        raise ValueError(f"{label} {u} anticipates: support index {q.support_index}")
    return q


def _as_family(entries):
    """entries kept as an :class:`_OnAccess` sequence, else as a tuple."""
    return entries if isinstance(entries, _OnAccess) else tuple(entries)


def _node_index(u, count):
    """u as an index in [0, count); TypeError for a bool or a non-integer,
    IndexError out of range, negative u from the end."""
    if isinstance(u, bool):
        raise TypeError("path nodes are not indexed by bools")
    return range(count)[operator.index(u)]


def _widen(live, width):
    """S[:, :max(k, width)] as a new writable array, from the leading
    columns live = S[:, :k] of a matrix S that is the identity beyond them."""
    size, k = live.shape
    out = np.eye(size, max(k, width), dtype=complex)
    out[:, :k] = live
    return out


class LiveColumns:
    """Read-only stack of kernel path nodes, each kept as its live columns.

    Node u of a kernel path (S_u of a flow, T_u of the integrated T
    route) is the identity beyond its first k_u columns, so it is held
    either as the block S_u[:, :k_u] or as the step increment
    (m_cols, r_u) that produces it from node u - 1:

        S_u[:, :k_u] = _widen(S_{u-1}[:, :k_{u-1}], k_u) + m_cols @ r_u,

    m_cols of shape (size, c) and r_u of shape (c, k_u), k_u no less
    than k_{u-1}, and no product added when c = 0.  Each entry of the
    constructor's iterable is a 2-D block or such a pair; node 0 is a
    block.  The integrator
    (:func:`_live_blocks`) stores an increment where it holds fewer
    entries than the block, a rank-2n step of an atomic driver, and the
    block otherwise; every other producer stores blocks.  Replay runs
    that expression, so every node comes back bit for bit.

    The stack reads as a sequence of size x size nodes: len(), integer
    and negative indexing, iteration and shape, with item u built on
    access as the identity with its first k_u columns replaced
    (:func:`_widen`).  :meth:`blocks` reads nodes in one ordered pass,
    replaying each increment once; :meth:`live` and item access replay
    from the nearest stored block, for random access.  nbytes counts
    the stored arrays, each once.  Every array is read-only: one that
    is read-only and owns its memory is kept as is (the integrator and
    the T route hand theirs over this way, and an unchanged node shares
    its predecessor's block); any other is copied.  A block that is not
    2-D, has other than size rows or is wider than size raises
    ValueError, as does an increment of another shape.
    """

    def __init__(self, entries, size):
        self._size = size
        self._entries = []
        self._bases = []  # the nearest stored block at or before each node
        width = 0
        for u, entry in enumerate(entries):
            if isinstance(entry, tuple):
                m_cols, r_u = entry = tuple(map(_read_only, entry))
                if not (
                    u
                    and m_cols.ndim == r_u.ndim == 2
                    and m_cols.shape == (size, len(r_u))
                    and width <= r_u.shape[1] <= size
                ):
                    raise ValueError(
                        f"node {u}: increment of shapes {m_cols.shape} and "
                        f"{r_u.shape} does not widen a {size} x {width} block"
                    )
                width = r_u.shape[1]
                self._bases.append(self._bases[-1])
            else:
                entry = _read_only(entry)
                if entry.ndim != 2 or len(entry) != size or entry.shape[1] > size:
                    raise ValueError(
                        f"node {u}: block of shape {entry.shape} is not {size} "
                        f"rows by at most {size} columns"
                    )
                width = entry.shape[1]
                self._bases.append(u)
            self._entries.append(entry)
        self._entries = tuple(self._entries)

    @classmethod
    def from_dense(cls, nodes, size):
        """Compress an iterable of full size x size nodes: each is scanned
        once for its live width as it arrives and those columns copied."""
        eye = np.eye(size)

        def blocks():
            for u, mat in enumerate(nodes):
                if np.shape(mat) != (size, size):
                    raise ValueError(
                        f"node {u} of shape {np.shape(mat)} is not {size} x {size}"
                    )
                yield mat[:, : _live_width(mat - eye)]

        return cls(blocks(), size)

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, u):
        return self._full(self.live(u))

    def __iter__(self):
        return map(self._full, self.blocks())

    def _full(self, block):
        mat = _widen(block, self._size)
        mat.setflags(write=False)
        return mat

    @property
    def shape(self):
        return (len(self._entries), self._size, self._size)

    @property
    def nbytes(self):
        arrays = itertools.chain.from_iterable(
            entry if isinstance(entry, tuple) else (entry,) for entry in self._entries
        )
        return sum({id(a): a.nbytes for a in arrays}.values())

    def live(self, u):
        """The block S_u[:, :k_u]: the stored one, or one replayed from the
        nearest stored block before it."""
        return next(self.blocks((u,)))

    def blocks(self, nodes=None):
        """The blocks S_u[:, :k_u] of the given nodes (all by default), in
        the order given.  A stored block is handed out as is; a node held
        as an increment is replayed in one size x size working buffer,
        carried on from the last node read when no stored block lies
        between the two, and handed out as a fresh read-only array.  An
        ascending pass therefore applies each increment once."""
        nodes = range(len(self)) if nodes is None else map(self._index, nodes)
        buf, at = None, None  # buf holds node `at`, the identity beyond k_at
        for u in nodes:
            entry = self._entries[u]
            if not isinstance(entry, tuple):
                yield entry
                continue
            base = self._bases[u]
            if at is None or not base <= at <= u:
                buf, at = _widen(self._entries[base], self._size), base
            for m_cols, r_u in self._entries[at + 1 : u + 1]:
                if len(r_u):  # as in the integrator, which skips an empty C
                    buf[:, : r_u.shape[1]] += m_cols @ r_u
            at = u
            block = buf[:, : entry[1].shape[1]].copy()
            block.setflags(write=False)
            yield block

    def _index(self, u):
        return _node_index(u, len(self))


def _read_only(block):
    block = np.asarray(block)
    if block.flags.writeable or not block.flags.owndata:
        block = block.copy()
        block.setflags(write=False)
    return block


@dataclass(frozen=True)
class CskPath:
    """Stack of symplectic kernels S_{t_u} along the grid.

    mats is a :class:`LiveColumns` stack (any other raises TypeError):
    node u keeps only its live columns S_u[:, :k_u], as a block or as
    the step increment from S_{u-1}; mats.blocks() reads them in one
    ordered pass, mats.live(u) one at a time, and mats[u] builds the
    full matrix on access.  The integrators hand over what they write,
    increments of an atomic driver's flow with the last node a block;
    full nodes go through :meth:`LiveColumns.from_dense`.  Entries are
    stored raw so that fast solvers are not forced through per-node
    validation; the terminal entry is checked at construction and
    :meth:`validate` re-checks every node on demand, both from the
    stored widths.  grid must be the kernel's grid, else ValueError.
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
        _check_member(self, self.ccr, "path")
        if self.mats.shape != (self.grid.node_count, *self.ccr.big.shape):
            raise ValueError("matrix stack shape does not match grid and kernel")
        # terminal gate; full sweeps go through validate()
        _check_symplectic(*symplectic_residual_raw(self.mats.live(-1), self.ccr.big))

    def residuals(self):
        """Relative symplectic residual of every node, residual / scale of
        :func:`lie.symplectic_residual_raw`."""
        raw = (symplectic_residual_raw(b, self.ccr.big) for b in self.mats.blocks())
        return [r / scale for r, scale in raw]

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
    """Diagonal family N_u with its exact corner-atom derivative entries.

    Pi is checked at once (finite, real, square and symmetric, else
    ValueError); each entry and derivative entry is formed on access
    (:class:`_OnAccess`) and checked for grid and support as it is
    formed, so the path holds no measure: a pass over it keeps only the
    node it reads.
    """
    pi = _check_pi(pi)
    count = grid.node_count
    return MeasurePath(
        grid,
        _OnAccess(count, lambda u: diagonal_lebesgue_measure(grid, u, pi)),
        _OnAccess(count, lambda u: atomic_corner_measure(grid, u, pi)),
    )


class _Midpoints(_OnAccess):
    """Midpoint measures of a driver path, one per step, formed on access:
    item u is the average of node entries u and u + 1, on their window."""

    def __init__(self, f_path):
        entries = f_path.entries
        super().__init__(
            len(entries) - 1, lambda u: _midpoint(entries[u], entries[u + 1])
        )


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

    Only the live block S_u[:, :k] of each node is written (see
    :class:`LiveColumns`): step u pads the block of S_u with identity
    columns to the new width and adds the product of the two thin
    factors m_cols = M_C and r_u = Ups(M_CC) S_u[C, :k] to that.  The
    path keeps node u + 1 as that pair where m_cols.size + r_u.size is
    below size k, the block's entry count, and as the block otherwise,
    the last node always as its block: an atomic driver's flow then
    holds O(N n size) entries in place of sum_u size k_u, about half of
    N + 1 dense matrices, while a recovered driver's (|C| = k) keeps its
    blocks.  Its readers replay the pairs in node order, bit for bit,
    and no (N + 1) x size^2 stack is ever allocated.  The steps are those
    of :func:`_flow`, the one integrator step, which the roundtrip
    residuals read node by node without storing the path.
    """
    if len(mids) != ccr.grid.node_count - 1:
        raise ValueError("need one midpoint measure per step")
    entries = _live_blocks(mids, ccr)
    return CskPath(ccr.grid, ccr, LiveColumns(entries, ccr.big.shape[0]))


def _live_blocks(mids, ccr):
    """The :class:`LiveColumns` entries of :func:`csk_path_from_midpoints`:
    of each node the step :func:`_flow` yields, where that holds fewer
    entries than the block, else the block, and node 0 and the last node
    as their blocks.  An empty C leaves S_{u+1} = S_u, kept as a pair
    with no columns once k > 0."""
    last = len(mids)
    for u, (step, live) in enumerate(_flow(mids, ccr)):
        thin = 0 < u < last and step[0].size + step[1].size < live.size
        yield step if thin else live


def _flow(mids, ccr):
    """The midpoint rule of :func:`csk_path_from_midpoints`, one node at a
    time: (None, S_0[:, :0]), then per midpoint u of the iterable mids
    ((m_cols, r_u), S_{u+1}[:, :k]), each array read-only and none
    written again.  Only the current block is held, so a pass that
    consumes the blocks as they come (the roundtrip residuals) never
    stores the path."""
    h = ccr.grid.step
    live = np.empty((ccr.big.shape[0], 0), dtype=complex)
    live.setflags(write=False)
    yield None, live
    for u, mid in enumerate(mids):
        _check_member(mid, ccr, f"midpoint {u}")
        cols, lam_w = _lambda_columns(ccr, mid)
        m_cols = (2j * h) * lam_w
        r_u = np.empty((0, live.shape[1]), dtype=complex)
        if cols.size:
            _check_step_norm(m_cols)
            wide = _widen(live, int(cols[-1]) + 1)
            r_u = _ups_series(m_cols[cols]) @ wide[cols]
            wide += m_cols @ r_u
            live = wide
        for a in (m_cols, r_u, live):
            a.setflags(write=False)
        yield (m_cols, r_u), live


def _flow_blocks(mids, ccr):
    """The blocks S_u[:, :k_u] of :func:`_flow`, one at a time."""
    return (live for _, live in _flow(mids, ccr))


def forward_csk_evolution(f_path, ccr):
    """Integrate the kernel flow of a driver path by the midpoint rule.

    The midpoint measure of each step is the average of its two node
    entries; see :func:`csk_path_from_midpoints` for the stepping.
    """
    _check_member(f_path, ccr, "path")
    return csk_path_from_midpoints(_Midpoints(f_path), ccr)


def _dense_csk_evolution(f_path, ccr):
    """Reference for :func:`forward_csk_evolution`: expm(M) @ S_u at every
    step, on dense matrices, each node compressed as soon as it is formed."""
    _check_member(f_path, ccr, "path")

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
        if not _within_pi(2.0 * gap):
            return None
    return theta


def _extract_node(live, ccr, prev):
    """(Lambda N_u, Theta_u, congruence residual) at one node from its live
    block S_u[:, :k].

    S_u passes the CskMatrix congruence gate on its live block, and the
    relative residual the gate read, residual / scale of
    :func:`lie.symplectic_residual_raw`, is returned with the node.  With
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
    residual, scale = symplectic_residual_raw(live, ccr.big)
    _check_symplectic(residual, scale)
    size, k = live.shape
    theta = _atan_theta(live, prev)
    if theta is not None:
        rhs = np.zeros((size, size))
        rhs[:, :k] = 0.5 * theta
        return rhs, theta, residual / scale
    t_mat = _widen(np.eye(size, k) + _conj_solve(live, 2j * live.imag), size)
    anchor = None
    if prev is not None:
        anchor = np.zeros((size, size), dtype=complex)
        anchor[:, : prev.shape[1]] = 2j * prev
    ham = csk_log(CskMatrix(ccr.grid, t_mat, ccr), anchor).ham
    return ham / 4j, ham / 2j, residual / scale


def _extraction(nodes, ccr):
    """Extraction at each (u, S_u[:, :k]) of the iterable nodes, in order:
    (N_u, solve report, relative congruence residual of S_u), each node's
    logarithm anchored at the one before (:func:`_extract_node`) and its
    kernel solve restricted to [0, t_u]^2.  Only the anchor is carried
    from node to node."""
    prev = None
    for u, live in nodes:
        rhs, prev, residual = _extract_node(live, ccr, prev)
        measure, report = ccr.solver.solve_measure(rhs, support_index=u)
        yield measure, report, residual


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
    keeping the branch continuous along the path.  The nodes are those
    of :func:`_extraction`, which the roundtrip residuals and the CLI
    tasks read one at a time, with the congruence residual each gate
    read, keeping no measure they do not print.  Raises ValueError
    unless every requested node is an integer in [0, N + 1), and unless
    s_path was integrated on ccr or on a kernel with equal entries.
    """
    _check_member(s_path, ccr, "path")
    grid = s_path.grid
    if not (s_path.ccr is ccr or np.array_equal(s_path.ccr.big, ccr.big)):
        raise ValueError("path was integrated on another kernel than ccr")
    count = grid.node_count
    if nodes is None:
        nodes = range(count)
    indices = tuple(sorted({_check_node(u, count, "extraction node") for u in nodes}))
    measures = []
    reality = []
    reports = []
    for measure, report, _ in _extraction(
        zip(indices, s_path.mats.blocks(indices)), ccr
    ):
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


def _t_steps(f_path, ccr, s_blocks):
    """(T_u[:, :k_u], S_u[:, :k_u]) of :func:`forward_t_evolution` for
    u = 0, 1, ..., one pair at a time, each T_u read-only and k_u the
    width of the flow block S_u.

    s_blocks is an iterator over the flow's blocks S_u[:, :k_u] in node
    order: the running flow (:func:`_flow_blocks`), which stores no path,
    or a stored path's mats.blocks().  Step u widens the blocks of T_u
    and S_u to k = k_{u+1} (:func:`_widen`), forms S_mid[:, :k] from the
    two flow blocks, and adds the k columns :func:`_conj_solve` returns
    for the right-hand side
    Lambda (Re F)_mid S_mid[:, :k] = Re(Lambda[:, C] W[C, C]) S_mid[C, :k]
    on the midpoint's live columns C (Lambda is real, C[-1] < k).  Only
    the blocks of nodes u and u + 1 are held; no full node and no
    size x size T is formed."""
    h = f_path.grid.step
    t_u = s_lo = next(s_blocks)  # T_0 = S_0 = I
    yield t_u, s_lo
    for mid, s_hi in zip(_Midpoints(f_path), s_blocks):
        width = s_hi.shape[1]
        s_mid = 0.5 * (_widen(s_lo, width) + s_hi)
        s_lo = s_hi
        cols, lam_w = _lambda_columns(ccr, mid)
        rhs = (4j * h) * (lam_w.real @ s_mid[cols])
        t_u = _widen(t_u, width) + _conj_solve(s_mid, rhs)
        t_u.setflags(write=False)
        yield t_u, s_hi


def forward_t_evolution(f_path, ccr):
    """Integrate the normal-ordered kernel directly: conj(S) T' = 4i L (Re F) S.

    Midpoint rule throughout: the step solves conj(S_mid) dT =
    4i h Lambda (Re F)_mid S_mid with S_mid the average of neighboring
    path entries, so the route is second order and serves as the
    independent cross-check of the factorization in
    :func:`forward_qef_measure`: it integrates T, never factoring S.
    Returns the read-only :class:`LiveColumns` stack of T, each node kept
    at the width of the flow block S_u (each right-hand side, and so
    T_u - I, vanishes beyond it), the blocks :func:`_t_steps` yields kept
    as they come.  The flow is read as it runs (:func:`_flow_blocks`) and
    never stored.  Raises ValueError unless f_path is on the kernel's grid
    with its n.
    """
    _check_member(f_path, ccr, "path")
    steps = _t_steps(f_path, ccr, _flow_blocks(_Midpoints(f_path), ccr))
    return LiveColumns((t_u for t_u, _ in steps), ccr.big.shape[0])


def _inverse_step(superop, n_measure, dn_measure, ccr, support_index):
    """One pull-back of the inverse bridge: the measure M with
    Lambda M = superop(2i Lambda N, Lambda N'), solved on [0, t_u]^2 for
    u = support_index.

    N, N' and, by the closure of the Lie algebra, M are supported in
    [0, t_u]^2, so the image vanishes beyond its first k = (u + 1) n
    columns and its rows below k are Lambda[k:, :k] M_11.  The
    superoperator runs on the leading k x k blocks only, each formed
    from its measure's window (:func:`measures._lambda_block`), and its value
    Lambda_11 M_11 goes to the kernel solve as the leading block of the
    right-hand side, which solves for M_11 and gates the whole of it,
    rows below k included.  Returns (measure, rounding bound of the
    k x k superoperator evaluation, solve report)."""
    k = (support_index + 1) * ccr.dim
    x = 2j * _lambda_block(ccr, n_measure, k, k)
    top, err = superop(x, _lambda_block(ccr, dn_measure, k, k))
    measure, report = ccr.solver.solve_measure(top, support_index=support_index)
    return measure, err, report


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
    leading k x k block (:func:`_inverse_step`).  Collects the nodes of
    :func:`_inversion`, in which :func:`roundtrip_n_residual` reads them
    one at a time.
    """
    entries, quad_errors, reports = zip(*_inversion(_target_pairs(n_path, ccr), ccr))
    return InverseResult(MeasurePath(n_path.grid, entries), quad_errors, reports)


def _target_pairs(n_path, ccr):
    """(N_u, N'_u) per node of a measure path, for :func:`_inversion`;
    ValueError without derivative entries or off the kernel's grid or n."""
    if n_path.derivative_entries is None:
        raise ValueError("inverse direction needs derivative entries on the path")
    _check_member(n_path, ccr, "path")
    return zip(n_path.entries, n_path.derivative_entries)


def _inversion(pairs, ccr):
    """The inverse step at each node u of the iterable pairs (N_u, N'_u), in
    order: (F_u, quadrature bound, solve report) of :func:`_inverse_step`,
    F_u checked as entry u of a driver path (:func:`_check_entry`)."""
    for u, (n, dn) in enumerate(pairs):
        f, err, report = _inverse_step(ups_superop, n, dn, ccr, u)
        yield _check_entry(f, ccr.grid, u, "entry"), err, report


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
    regenerated flow when the driver class is unknown.  Collects
    :func:`_staggered`, which :func:`roundtrip_f_residual` reads one
    driver at a time.
    """
    count = ccr.grid.node_count
    if len(measures) != count:
        raise ValueError(f"need {count} measures, got {len(measures)}")
    return tuple(_staggered(measures, ccr))


def _staggered(measures, ccr):
    """The midpoint driver of each consecutive pair (N_u, N_{u+1}) of the
    iterable measures, in order, each measure checked to lie on ccr.grid
    with ccr.dim as it arrives; only the previous measure is held."""
    grid, n = ccr.grid, ccr.dim
    prev = None
    for u, q in enumerate(measures):
        _check_member(q, ccr, f"measure {u}")
        if prev is not None:
            lo, _, w_lo, w_hi = _common_window(prev, q)
            slope = KernelMeasure._from_window(grid, n, lo, (w_hi - w_lo) / grid.step)
            yield _inverse_step(ups_superop, _midpoint(prev, q), slope, ccr, u)[0]
        prev = q


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


def _node_gap(ccr, got, want):
    """(||got - want||, ||want||) at one node, both kernel-weighted.

    The norms are :func:`measures.kernel_weighted_norm`, here of the
    windows, the difference taken on :func:`measures._common_window`:
    node masses of singular measures depend on grid alignment at order
    one, so raw weight distances overstate the gap between equal
    measures.
    """
    lo, _, w_g, w_w = _common_window(got, want)
    return (
        _window_weighted_norm(ccr, lo, w_g - w_w),
        _window_weighted_norm(ccr, want._lo, want._window),
    )


def _relative(gaps):
    """Per-node gaps over the largest target norm, from the pairs of
    :func:`_node_gap`; unscaled when every target vanishes."""
    den = max([0.0, *(norm for _, norm in gaps)])
    return [gap / den if den > 0.0 else gap for gap, _ in gaps]


def roundtrip_f_residual(f_path, ccr):
    """Forward a driver path, invert the measures, report both gaps.

    Both are kernel-weighted gaps at the worst node, relative to the
    largest target norm, from one ordered pass (:func:`_roundtrip_f_nodes`)
    that holds the nodes of each stage at u - 1 and u only.
    """
    return _closure([node[-2:] for node in _roundtrip_f_nodes(f_path, ccr)])


def _roundtrip_f_nodes(f_path, ccr):
    """:func:`roundtrip_f_residual` node by node.

    Per node u the driver's flow takes its step and is extracted to N_u;
    the staggered inverse of N_{u-1} and N_u gives the recovered driver
    at the midpoint of step u - 1, whose direct gap against the input's
    midpoint average is taken there; the regenerated flow takes its step
    with it and is extracted, and compared with N_u.  Yields
    (N_u, solve report, congruence residual) of the driver's flow, as
    :func:`_extraction` does, followed by the invariant gap and the
    direct gap (None at node 0), each a pair of :func:`_node_gap`.  The
    stages are the generators of the stored routes (:func:`_flow`,
    :func:`_extraction`, :func:`_staggered`), so every gate runs on
    every node as in :func:`forward_qef_measure`,
    :func:`staggered_inverse_measures`, :func:`csk_path_from_midpoints`
    and :func:`qef_from_csk_path`, and each value is theirs bit for bit.
    """
    _check_member(f_path, ccr, "path")
    flow = _extraction(enumerate(_flow_blocks(_Midpoints(f_path), ccr)), ccr)
    nodes, staggered = _fork(flow)
    recovered, regen = _fork(_staggered((q for q, *_ in staggered), ccr))
    check = _extraction(enumerate(_flow_blocks(regen, ccr)), ccr)
    direct = (_node_gap(ccr, f, m) for f, m in zip(recovered, _Midpoints(f_path)))
    for node, (q, *_), step_gap in zip(nodes, check, itertools.chain([None], direct)):
        yield *node, _node_gap(ccr, q, node[0]), step_gap


def _fork(items):
    """Two iterators over the iterable items, for two consumers that stay
    within a few items of each other: each item is held from its first
    read to its second, then dropped.  itertools.tee would hold it until
    both have passed its whole block of 57 items, most of a pass at the
    node counts the residuals run at."""
    items = iter(items)
    queues = (collections.deque(), collections.deque())

    def reader(mine, other):
        while True:
            if mine:
                yield mine.popleft()
                continue
            try:
                item = next(items)
            except StopIteration:
                return
            other.append(item)
            yield item

    return reader(*queues), reader(*queues[::-1])


def _closure(gaps):
    """:class:`RoundtripReport` from the last two values of each node of
    :func:`_roundtrip_f_nodes`, its invariant and direct gaps."""
    invariant, direct = zip(*gaps)
    return RoundtripReport(max(_relative(invariant)), max(_relative(direct[1:])))


def _roundtrip_n_nodes(n_path, ccr):
    """:func:`roundtrip_n_residual` node by node.

    Per node u, N_u and N'_u are read once and inverted to F_u
    (:func:`_inversion`); the flow steps with the midpoint of F_{u-1} and
    F_u and is extracted to M_u, which is compared with the same N_u.
    Yields (F_u, quadrature bound, inverse solve report, gap of M_u
    against N_u as a pair of :func:`_node_gap`); every gate of
    :func:`inverse_toe_measure` and :func:`forward_qef_measure` runs on
    every node, and each value is theirs bit for bit.
    """
    pairs, targets = _fork(_target_pairs(n_path, ccr))
    drivers, nodes = _fork(_inversion(pairs, ccr))
    mids = itertools.starmap(_midpoint, itertools.pairwise(f for f, *_ in drivers))
    check = _extraction(enumerate(_flow_blocks(mids, ccr)), ccr)
    for node, (q, *_), (n, _) in zip(nodes, check, targets):
        yield *node, _node_gap(ccr, q, n)


def roundtrip_n_residual(n_path, ccr):
    """Relative gap of forward(inverse(N)) against N in the weighted norm,
    at the worst node, from one ordered pass (:func:`_roundtrip_n_nodes`)
    that holds the nodes of each stage at u - 1 and u only."""
    return max(_relative([node[-1] for node in _roundtrip_n_nodes(n_path, ccr)]))


def t_route_residual(f_path, ccr):
    """Max relative gap between the factorized and integrated T routes.

    T_u = I + conj(S_u)^{-1} (2i Im S_u), the matrix whose logarithm
    :func:`qef_from_csk_path` takes, is formed on the flow itself and
    compared with :func:`forward_t_evolution`: no logarithm or kernel
    solve runs.  One ordered pass reads the flow as it runs
    (:func:`_flow_blocks`) and stores no path.  Raises ValueError unless
    f_path is on the kernel's grid with its n.
    """
    _check_member(f_path, ccr, "path")
    return _t_route_gap(f_path, ccr, _flow_blocks(_Midpoints(f_path), ccr))


def _t_route_gap(f_path, ccr, s_blocks):
    """:func:`t_route_residual` on the driver's flow blocks s_blocks (the
    running flow, or the blocks of a stored path); the integrated T is
    compared node by node as its recursion runs, each flow block read
    once, on the k live columns both routes share.  Each of the size - k
    identity columns adds 1 to ||T_u||_F^2, as in
    :func:`lie.symplectic_residual_raw`."""
    worst = 0.0
    for t_direct, live in _t_steps(f_path, ccr, s_blocks):
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
    drivers must stay mild or horizons short.  Returns (G path, ys,
    solve reports): ys[u] is Y_u as its live columns, and each G_u is
    recovered from them by the kernel solve.

    G_u is supported in [0, t_u]^2, so Y_u vanishes exactly beyond
    column k_u = (u + 1) n: ys[u] is the size x k_u block Y_u[:, :k_u],
    rows below k_u included, and ys[-1] is the whole size x size Y_N.
    Each step widens Y by n zero columns and runs on those columns
    alone, its two Bernoulli inputs Lambda F formed on them from the
    measures' windows (:func:`measures._lambda_block`), so a path off
    the kernel's grid or n raises ValueError at its first step.

    exp(4i Y_N) reproduces the terminal symplectic kernel of
    :func:`forward_csk_evolution` up to the shared scheme order.
    """
    grid = f_path.grid
    h = grid.step
    n = ccr.dim
    y = np.zeros((ccr.big.shape[0], n), dtype=complex)
    ys = [y]
    for u, mid in enumerate(_Midpoints(f_path)):
        y = np.pad(y, ((0, 0), (0, n)))  # Y_{u+1} lives in (u + 2) n columns
        k1, _ = mho_superop(4j * y, _lambda_block(ccr, f_path.entries[u], *y.shape))
        y_half = y + (0.25 * h) * k1  # half step of (1/2) Mho(...)
        k2, _ = mho_superop(4j * y_half, _lambda_block(ccr, mid, *y.shape))
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
