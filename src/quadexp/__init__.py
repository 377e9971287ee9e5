"""Kernel-measure calculus for open quantum harmonic oscillators.

Discretizes the two-point commutator kernel of a linear quantum
stochastic model on a uniform time grid and computes, in both
directions, the correspondence between time-ordered exponentials of
quadratic form drivers and quadratic-exponential measures, with a
truncated Fock-space oracle for independent validation.
"""

from .errors import NumericalFailure, ScenarioError
from .model import (
    LaplacePoint,
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
from .measures import (
    CcrKernel,
    ChkMatrix,
    KernelMeasure,
    TimeGrid,
    atom_measure,
    atomic_corner_measure,
    bracket,
    build_ccr_kernel,
    diagonal_lebesgue_measure,
    is_nonanticipative,
    kernel_weighted_norm,
    lambda_product,
    make_grid,
    measure_triple_product,
    project_support,
    random_measure,
    read_measure_csv,
    split_sym_antisym,
    write_measure_csv,
    zero_measure,
)
from .lie import (
    ChkSolveReport,
    CskMatrix,
    KernelSolver,
    MagnusCheckReport,
    bch_product,
    chk_exp,
    csk_log,
    csk_log_near_identity,
    magnus_derivative_check,
    mho_scalar,
    mho_superop,
    sinhc_scalar,
    sinhc_superop,
    symplectic_residual,
    ups_scalar,
    ups_superop,
)
from .fock import (
    BracketReport,
    MultitimeReport,
    TruncatedMode,
    VariableSet,
    antisymmetric_remainder,
    build_single_time,
    low_levels,
    make_mode,
    oracle_bracket_check,
    oracle_multitime_check,
    quadratic_form_matrix,
)
from .solvers import (
    ChkColumn,
    CskPath,
    InverseResult,
    MeasurePath,
    PsiDecomposition,
    QefForwardResult,
    RoundtripReport,
    chk_column_function,
    corner_atom_path,
    csk_path_from_midpoints,
    diagonal_lebesgue_path,
    forward_csk_evolution,
    forward_qef_measure,
    forward_t_evolution,
    g_path_magnus,
    inverse_toe_measure,
    laplace_recover_measure,
    qef_from_csk_path,
    qef_psi_measure,
    roundtrip_f_residual,
    roundtrip_n_residual,
    spde_fast_path,
    staggered_inverse_measures,
    t_route_residual,
)

__version__ = "0.1.0"
