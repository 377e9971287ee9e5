"""Truncated Fock-space oracle for the quadratic-form commutator algebra.

Everything else in the package manipulates kernels; this module builds
actual operators.  Canonical pairs are represented by ladder-matrix
truncations on d levels, general variable sets by real linear maps of
canonical pairs realizing a target commutator table (read from one
Hermitian eigenproblem), and the bracket identity for quadratic forms is
checked by dense matrix commutators.

Truncation breaks the CCRs only at the top of the ladder, so every
comparison is made on the kept low Fock levels, with a margin of two
levels per quadratic-form application.  The projection onto them is an
index set: only the kept rows and columns of each commutator are formed.

Operators are built as they are consumed.  Each canonical pair is
embedded only for the realization that reads it and dropped after it,
and linear combinations accumulate in place.  The multitime check thus
holds at once the variables of the nodes built so far, one step's noise
pairs (while they are realized) or noise variables (while the next node
is propagated), and that node's rows; once the last node is formed only
the variables themselves stay alive.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .measures import build_ccr_kernel
from .model import expm, symplectic_j

__all__ = [
    "TruncatedMode",
    "VariableSet",
    "BracketReport",
    "MultitimeReport",
    "build_single_time",
    "make_mode",
    "low_levels",
    "quadratic_form_matrix",
    "antisymmetric_remainder",
    "oracle_bracket_check",
    "oracle_multitime_check",
]

DIMENSION_BUDGET = 4096

# top-level defect of [q, p] = i I on d ladder levels, see TruncatedMode
CCR_DEFECT_TOL = 1e-12


def _ladder(cutoff):
    a = np.zeros((cutoff, cutoff), dtype=complex)
    a[np.arange(cutoff - 1), np.arange(1, cutoff)] = np.sqrt(
        np.arange(1, cutoff, dtype=float)
    )
    return a


@dataclass(frozen=True)
class TruncatedMode:
    """Canonical pair (q, p) on a d-level ladder truncation.

    The commutator [q, p] equals i times the identity except on the top
    level, where the truncation dumps a defect of size d - 1; projected
    onto the lowest d - 2 levels the CCR is exact to rounding.
    """

    cutoff: int
    position: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        if self.cutoff < 4:
            raise ValueError("mode cutoff must be at least 4")
        for mat in (self.position, self.momentum):
            if mat.shape != (self.cutoff, self.cutoff):
                raise ValueError("mode matrices must be cutoff x cutoff")
            if np.linalg.norm(mat - mat.conj().T) > 1e-12 * (
                1.0 + np.linalg.norm(mat)
            ):
                raise ValueError("mode matrices must be Hermitian")
        keep = low_levels((self.cutoff,), margin=2)
        comm = _commutator_block(self.position, self.momentum, keep)
        if np.linalg.norm(comm - 1j * np.eye(keep.size)) > CCR_DEFECT_TOL:
            raise ValueError("projected [q, p] deviates from i I")


def make_mode(cutoff):
    """Standard ladder truncation with q = (a + a*)/sqrt(2)."""
    a = _ladder(cutoff)
    q = (a + a.conj().T) / np.sqrt(2.0)
    p = 1j * (a.conj().T - a) / np.sqrt(2.0)
    return TruncatedMode(int(cutoff), q, p)


def low_levels(cutoffs, margin):
    """Indices of the product levels below cutoff - margin in every factor."""
    mask = np.ones(1, dtype=bool)
    for d in cutoffs:
        mask = np.outer(mask, np.arange(d) < d - margin).ravel()
    return np.flatnonzero(mask)


def _commutator_block(x, y, keep):
    """Entries of P [x, y] P on the kept levels, from their rows and columns only."""
    return x[keep] @ y[:, keep] - y[keep] @ x[:, keep]


def _table_gaps(variables, table, keep):
    """Yield (a, b, gap): the kept-level norm of [X_a, X_b] - 2i table[a, b] I.

    Every ordered pair is covered with one commutator per unordered pair:
    for a < b, C = [X_a, X_b] is compared with table[a, b] and -C with
    table[b, a]; a diagonal pair compares 0 with its table entry.
    """
    eye = np.eye(keep.size)
    for a, x in enumerate(variables):
        yield a, a, float(np.linalg.norm(2j * table[a, a] * eye))
        for b in range(a + 1, len(variables)):
            comm = _commutator_block(x, variables[b], keep)
            yield a, b, float(np.linalg.norm(comm - 2j * table[a, b] * eye))
            yield b, a, float(np.linalg.norm(-comm - 2j * table[b, a] * eye))


def _embed(op, slot, cutoffs):
    """Lift a single-mode operator to the tensor product at position slot."""
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(cutoffs):
        out = np.kron(out, op if i == slot else np.eye(d, dtype=complex))
    return out


@dataclass(frozen=True)
class VariableSet:
    """Hermitian variables on a mode tensor product with a known table.

    variables[a] acts on the full product space; ccr_target is the real
    antisymmetric matrix with [X_a, X_b] = 2i ccr_target[a, b] I on low
    levels.  ccr_residual() measures the deviation on the kept levels.
    """

    modes: tuple
    variables: tuple
    ccr_target: np.ndarray

    @property
    def dimension(self):
        return self.variables[0].shape[0]

    @property
    def cutoffs(self):
        return tuple(mode.cutoff for mode in self.modes)

    def low_levels(self, margin):
        return low_levels(self.cutoffs, margin)

    def ccr_residual(self):
        """Max kept-level norm of [X_a, X_b] - 2i theta_ab I, margin 2."""
        gaps = _table_gaps(self.variables, self.ccr_target, self.low_levels(2))
        return max(gap for _, _, gap in gaps)


def _combine(row, ops):
    """The operator sum_b row[b] ops[b], summed in place in term order."""
    out = row[0] * ops[0]
    for c, op in zip(row[1:], ops[1:]):
        out += c * op
    return out


def _canonical_pairs(modes, slots):
    """(q_s, p_s) for s in slots, embedded in the tensor product of all modes.

    The dimension budget is checked before anything is embedded.
    """
    cutoffs = tuple(mode.cutoff for mode in modes)
    dim = int(np.prod(cutoffs))
    if dim > DIMENSION_BUDGET:
        raise NumericalFailure(
            f"tensor dimension {dim} exceeds the budget {DIMENSION_BUDGET}"
        )
    return [
        _embed(op, slot, cutoffs)
        for slot in slots
        for op in (modes[slot].position, modes[slot].momentum)
    ]


def _realize(theta, canon):
    """Variables L canon with table theta, L = Z diag(sqrt(2 v_k) I_2).

    i theta is Hermitian; the upper half of its ascending spectrum holds
    the block scales v_k > 0, with eigenvectors w_k = x_k + i y_k, so
    theta x_k = v_k y_k and theta y_k = -v_k x_k.  conj(w_k) belongs to
    -v_k and is orthogonal to every w_j, so all x and y have norm
    1/sqrt(2) and are mutually orthogonal, repeated scales included.
    Z = sqrt(2) (y_1, x_1, y_2, x_2, ...) is then orthogonal with
    theta = Z T Z^T, T in 2x2 blocks [[0, v_k], [-v_k, 0]].
    """
    n = theta.shape[0]
    scales, w = np.linalg.eigh(1j * theta)
    scales, w = scales[n // 2 :], w[:, n // 2 :]
    if scales[0] < 1e-12 * (1.0 + np.linalg.norm(theta)):
        raise NumericalFailure(
            "commutator table is numerically singular; no canonical pair "
            "decomposition exists"
        )
    z = np.sqrt(2.0) * np.stack([w.imag, w.real], axis=2).reshape(n, n)
    lmap = z * np.repeat(np.sqrt(2.0 * scales), 2)
    return [_combine(row, canon) for row in lmap]


def build_single_time(theta, cutoff):
    """Variables with commutator table [X, X^T] = 2i theta from ladder pairs.

    theta is brought to canonical antisymmetric form theta = Z T Z^T with
    positive block scales v_k, read from the eigenpairs of the Hermitian
    matrix i theta (see _realize); the map L = Z diag(sqrt(2 v_k) I_2) turns
    n/2 canonical pairs into X = L (q_1, p_1, ...) with the target table,
    since each pair contributes [q, p] = i and the congruence gives
    L J_canonical L^T = 2 theta.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    if theta.shape != (n, n) or n == 0 or n % 2 != 0:
        raise ValueError("commutator table must be square of even, nonzero size")
    tol = 1e-12 * (1.0 + np.linalg.norm(theta))
    if not np.isfinite(theta).all() or np.linalg.norm(theta + theta.T) > tol:
        raise ValueError("commutator table must be finite and antisymmetric")
    modes = tuple(make_mode(cutoff) for _ in range(n // 2))
    variables = _realize(theta, _canonical_pairs(modes, range(len(modes))))
    return VariableSet(modes, tuple(variables), theta)


def _symmetric_form(vars, q):
    """q as a complex array, checked to be symmetric and sized to the variables."""
    q = np.asarray(q, dtype=complex)
    k = len(vars.variables)
    if q.shape != (k, k):
        raise ValueError("form matrix size does not match the variable count")
    if np.linalg.norm(q - q.T) > 1e-12 * (1.0 + np.linalg.norm(q)):
        raise ValueError("form matrix must be symmetric")
    return q


def quadratic_form_matrix(vars, q):
    """Operator of the quadratic form X^T q X, q complex symmetric."""
    return _form(vars, _symmetric_form(vars, q))


def _form(vars, q, rows=slice(None), cols=slice(None)):
    """Rows and columns of the operator X^T q X, one row of q at a time.

    rows and cols index the product levels; by default the whole operator
    is formed.
    """
    ops = vars.variables
    right = [op[:, cols] for op in ops]
    return sum(x[rows] @ _combine(row, right) for x, row in zip(ops, q))


def antisymmetric_remainder(vars, q_anti):
    """Kept-level gap of X^T q X from its scalar value i <theta, q>.

    An antisymmetric kernel contributes only through the commutators, so
    its quadratic form collapses to the scalar i sum theta_ab q_ab times
    the identity; the returned residual measures that on low levels.
    """
    q_anti = np.asarray(q_anti, dtype=complex)
    if np.linalg.norm(q_anti + q_anti.T) > 1e-12 * (1.0 + np.linalg.norm(q_anti)):
        raise ValueError("remainder check expects an antisymmetric matrix")
    keep = vars.low_levels(4)
    block = _form(vars, q_anti, rows=keep, cols=keep)
    scalar = 1j * np.sum(vars.ccr_target * q_anti)
    gap = block - scalar * np.eye(keep.size)
    return float(np.linalg.norm(gap)), complex(scalar)


def _check_bracket_cutoffs(cutoffs):
    if min(cutoffs) < 8:
        raise ValueError("bracket check needs mode cutoffs of at least 8")


@dataclass(frozen=True)
class BracketReport:
    """Kept-level residual of one bracket identity check."""

    residual: float
    tolerance: float
    passed: bool
    cutoff: int


def oracle_bracket_check(vars, q1, q2, tol=1e-8):
    """Check [X^T Q1 X, X^T Q2 X] = X^T 4i(Q1 theta Q2 - Q2 theta Q1) X.

    The difference is formed only on levels at least four below the
    cutoff in every mode, since each quadratic form reaches two levels up.
    Only the rows and columns the kept block reads are formed: the kept
    rows and the kept columns of each form, and the kept block of the
    right-hand side.
    """
    _check_bracket_cutoffs(vars.cutoffs)
    q1 = _symmetric_form(vars, q1)
    q2 = _symmetric_form(vars, q2)
    theta = vars.ccr_target
    combo = 4j * (q1 @ theta @ q2 - q2 @ theta @ q1)
    # the combination is symmetric for symmetric inputs; symmetrize the
    # rounding away
    combo = 0.5 * (combo + combo.T)
    keep = vars.low_levels(4)
    bracket = _form(vars, q1, rows=keep) @ _form(vars, q2, cols=keep)
    bracket -= _form(vars, q2, rows=keep) @ _form(vars, q1, cols=keep)
    gap = bracket - _form(vars, combo, rows=keep, cols=keep)
    residual = float(np.linalg.norm(gap))
    return BracketReport(residual, float(tol), residual <= tol, min(vars.cutoffs))


@dataclass(frozen=True)
class MultitimeReport:
    """Residuals of the discrete-time two-point commutator table check."""

    table_residual: float
    bracket_residual: float
    equal_time_residual: float
    continuum_gap: float
    tolerance: float
    passed: bool
    dimension: int


def _discrete_table(model, grid):
    """Two-point table of X_{u+1} = E X_u + B dW_u with [dW, dW^T] = 2i h J.

    Theta_{u+1} = E Theta_u E^T + h B J B^T, and across nodes
    Lambda(j, k) = E^{j-k} Theta_k for j >= k, Theta_j (E^T)^{k-j} below.
    """
    n = model.dim
    count = grid.node_count
    e_step = expm(grid.step * model.drift)
    j_mat = symplectic_j(model.noise_dim)
    thetas = [model.theta]
    for _ in range(count - 1):
        thetas.append(
            e_step @ thetas[-1] @ e_step.T
            + grid.step * model.dispersion @ j_mat @ model.dispersion.T
        )
    table = np.zeros((count * n, count * n))
    for j in range(count):
        for k in range(count):
            if j >= k:
                block = np.linalg.matrix_power(e_step, j - k) @ thetas[k]
            else:
                block = thetas[j] @ np.linalg.matrix_power(e_step, k - j).T
            table[j * n : (j + 1) * n, k * n : (k + 1) * n] = block
    return table, thetas, e_step


def _multitime_variables(model, grid, modes, e_step):
    """Flat (X_0, X_1, ..., X_N) of the multitime check, built step by step.

    modes hold the system pairs first, then each step's noise pairs.
    Node 0 realizes theta from the system pairs; step u realizes its
    noise table h J from its own pairs and propagates
    X_{u+1} = e_step X_u + B dW_u.  Each step's pairs are embedded for
    its realization only and its noise variables dropped after the
    step, so the returned variables are the only operators left.
    """
    n = model.dim
    m = model.noise_dim
    first = n // 2
    nodes = [_realize(model.theta, _canonical_pairs(modes, range(first)))]
    propagate = np.hstack([e_step, model.dispersion])
    for u in range(grid.node_count - 1):
        slots = range(first + u * (m // 2), first + (u + 1) * (m // 2))
        noise = _realize(grid.step * symplectic_j(m), _canonical_pairs(modes, slots))
        nodes.append([_combine(row, nodes[u] + noise) for row in propagate])
        # the next step's pairs must not be embedded beside these
        del noise
    return [op for node in nodes for op in node]


def oracle_multitime_check(model, grid, cutoff=8, noise_cutoff=8, tol=1e-8):
    """Validate the discrete-time two-point CCR table on operators.

    Builds X_0 from the model's theta, fresh noise modes per step with
    table 2i h J, propagates X_{u+1} = e^{hA} X_u + B dW_u, and compares
    every cross-node commutator against the table the same recursion
    generates.  The table is exact at the discrete level, so the
    residual is pure truncation; the gap to the continuous kernel is
    reported as a diagnostic, not a pass condition.

    Operators are built as they are consumed (_multitime_variables):
    while node u + 1 is formed, the nodes up to u, step u's m noise
    variables and the new node's rows are alive, and no canonical pair.
    The table and bracket checks then see the (N + 1) n variables
    alone.  Cutoffs below 8 and tensor dimensions over the budget are
    rejected before any operator is built.
    """
    n = model.dim
    m = model.noise_dim
    count = grid.node_count
    if count > 3:
        raise ValueError("multitime oracle is restricted to grids with N <= 2")
    steps = count - 1
    dims = [cutoff] * (n // 2) + [noise_cutoff] * (steps * (m // 2))
    _check_bracket_cutoffs(dims)
    modes = tuple(make_mode(d) for d in dims)

    table, _, e_step = _discrete_table(model, grid)
    flat = _multitime_variables(model, grid, modes, e_step)

    scale = 1.0 + float(np.abs(table).max())
    worst = 0.0
    equal_time = 0.0
    for a, b, gap in _table_gaps(flat, table, low_levels(dims, 2)):
        worst = max(worst, gap / scale)
        if a // n == b // n:
            equal_time = max(equal_time, gap / scale)

    # bracket identity on the grid, against the discrete table
    flat_set = VariableSet(modes, tuple(flat), table)
    rng = np.random.default_rng(0)
    q1 = rng.standard_normal((count * n, count * n))
    q2 = rng.standard_normal((count * n, count * n))
    q1 = 0.5 * (q1 + q1.T) / (count * n)
    q2 = 0.5 * (q2 + q2.T) / (count * n)
    bracket = oracle_bracket_check(flat_set, q1, q2, tol=tol)

    ccr = build_ccr_kernel(model, grid)
    continuum_gap = float(
        np.abs(table - ccr.big).max() / (1.0 + np.abs(ccr.big).max())
    )
    passed = worst <= tol and bracket.passed
    return MultitimeReport(
        worst,
        bracket.residual,
        equal_time,
        continuum_gap,
        float(tol),
        passed,
        flat_set.dimension,
    )
