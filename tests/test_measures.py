import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadexp import (
    CcrKernel,
    KernelMeasure,
    TimeGrid,
    ScenarioError,
    atom_measure,
    atomic_corner_measure,
    bch_product,
    bracket,
    build_ccr_kernel,
    ccr_two_point,
    corner_atom_path,
    diagonal_lebesgue_measure,
    diagonal_lebesgue_path,
    inverse_toe_measure,
    is_nonanticipative,
    kernel_weighted_norm,
    lambda_product,
    make_grid,
    measure_triple_product,
    project_support,
    qef_psi_measure,
    random_measure,
    random_model,
    read_measure_csv,
    split_sym_antisym,
    write_measure_csv,
    zero_measure,
)
from quadexp.measures import _midpoint


def test_grid_validation_and_nodes():
    grid = make_grid(2.0, 8)
    assert grid.step == pytest.approx(0.25)
    assert grid.node_count == 9
    assert np.allclose(grid.nodes, np.arange(9) * 0.25)
    with pytest.raises(ValueError):
        make_grid(0.0, 8)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)


def test_grid_refuses_non_integer_steps_and_non_finite_horizons(tmp_path):
    # 2.5 and True used to be truncated to 2 and 1 steps; an infinite
    # horizon gave NaN and infinite nodes
    for steps in (2.5, True, np.float64(4.0), "4"):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            make_grid(1.0, steps)
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            TimeGrid(1.0, steps)
    for horizon in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            make_grid(horizon, 4)
    assert make_grid(1.0, np.int64(4)) == make_grid(1.0, 4)
    bad = tmp_path / "inf.csv"
    bad.write_text("# schema=1\n# grid T=inf N=4 n=2\nj,k,row,col,re,im\n")
    with pytest.raises(ScenarioError, match="malformed grid sidecar"):
        read_measure_csv(bad)


def test_ccr_kernel_refuses_non_finite_entries():
    # a NaN kernel used to build and fail later in the solver's SVD
    grid = make_grid(1.0, 4)
    for bad in (np.nan, np.inf):
        big = np.zeros((10, 10))
        big[3, 7] = bad
        with pytest.raises(ValueError, match="big must be finite"):
            CcrKernel(grid, big)


def test_ccr_kernel_blocks_match_two_point(model2, grid16):
    ccr = build_ccr_kernel(model2, grid16)
    assert ccr.dim == 2
    nodes = grid16.nodes
    for j, k in [(0, 0), (3, 3), (5, 1), (1, 5), (16, 0)]:
        expected = ccr_two_point(model2, nodes[j] - nodes[k])
        assert np.allclose(ccr.block(j, k), expected, atol=1e-13)
    # every block is its lag's two-point kernel to the bit, a negative lag
    # taken through antisymmetry
    lags = [ccr_two_point(model2, d * grid16.step) for d in range(grid16.node_count)]
    for j in range(grid16.node_count):
        for k in range(grid16.node_count):
            expected = lags[j - k] if j >= k else -lags[k - j].T
            assert np.array_equal(ccr.block(j, k), expected)
    # Flat antisymmetry is the stacked form of Lambda(-tau) = -Lambda(tau)^T.
    assert np.linalg.norm(ccr.big + ccr.big.T) <= 1e-13 * (
        1.0 + np.linalg.norm(ccr.big)
    )


def test_measure_symmetrization_and_support(grid16):
    n, count = 2, grid16.node_count
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(n * count, n * count))
    q = KernelMeasure(grid16, raw)
    assert np.allclose(q.weights, q.weights.T)
    atom = atom_measure(grid16, 2, 5, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert atom.support_index == 5
    assert np.allclose(atom.block(5, 2), atom.block(2, 5).T)
    assert is_nonanticipative(atom, 5)
    assert not is_nonanticipative(atom, 4)
    projected, truncated = project_support(atom, 4)
    assert truncated > 0.0
    assert np.linalg.norm(projected.weights) == 0.0


def test_zero_and_diagonal_measures(grid16, pi2):
    z = zero_measure(grid16, 2)
    assert z.support_index == 0
    assert np.linalg.norm(z.weights) == 0.0
    u = 10
    diag = diagonal_lebesgue_measure(grid16, u, pi2)
    h = grid16.step
    assert np.allclose(diag.block(0, 0), 0.5 * h * pi2)
    assert np.allclose(diag.block(u, u), 0.5 * h * pi2)
    for j in range(1, u):
        assert np.allclose(diag.block(j, j), h * pi2)
    # Total mass is the trapezoid value of the constant density Pi on [0, t_u].
    total = sum(diag.block(j, j) for j in range(grid16.node_count))
    assert np.allclose(total, grid16.nodes[u] * pi2, atol=1e-13)
    corner = atomic_corner_measure(grid16, u, pi2)
    assert np.allclose(corner.block(u, u), pi2)
    assert corner.support_index == u


def test_split_sym_antisym_scalar(ccr16):
    rng = np.random.default_rng(5)
    size = ccr16.big.shape[0]
    raw = rng.normal(size=(size, size))
    q, scalar = split_sym_antisym(raw, ccr16)
    assert np.allclose(q.weights, 0.5 * (raw + raw.T))
    anti = 0.5 * (raw - raw.T)
    assert scalar == pytest.approx(1j * np.sum(ccr16.big * anti))
    # Real raw weights pair to a purely imaginary scalar.
    assert abs(scalar.real) <= 1e-15 * (1.0 + abs(scalar))


def test_lambda_product_blockwise_oracle(ccr16):
    # Independent route: assemble the transformed kernel block by block
    # from two-point evaluations instead of the flat matrix product.
    grid = ccr16.grid
    rng = np.random.default_rng(9)
    q = random_measure(rng, grid, ccr16.dim, support=6)
    chk = lambda_product(ccr16, q)
    n, count = ccr16.dim, grid.node_count
    for j in (0, 3, 8):
        for l in (0, 2, 6):
            direct = sum(
                ccr16.block(j, k) @ q.block(k, l) for k in range(count)
            )
            assert np.allclose(
                chk.ham[j * n : (j + 1) * n, l * n : (l + 1) * n], direct
            )
    assert chk.source is q


def test_kernel_products_refuse_a_measure_of_another_dimension(model2):
    # an n = 4 measure on the n = 2 kernel of the same grid is refused
    # where it enters, not by a late solve residual
    grid = make_grid(1.0, 8)
    ccr = build_ccr_kernel(model2, grid)
    pi4 = 0.1 * np.eye(4)
    wide = diagonal_lebesgue_measure(grid, 2, pi4)
    narrow = diagonal_lebesgue_measure(grid, 2, 0.1 * np.eye(2))
    with pytest.raises(ValueError, match="n = 4"):
        lambda_product(ccr, wide)
    with pytest.raises(ValueError, match="n = 4"):
        bch_product(wide, narrow, ccr)
    with pytest.raises(ValueError, match="n = 4"):
        inverse_toe_measure(diagonal_lebesgue_path(grid, pi4), ccr)
    with pytest.raises(ValueError, match="n = 4"):
        qef_psi_measure(wide, atomic_corner_measure(grid, 2, pi4), ccr)


def test_pi_must_be_a_square_matrix():
    # a 2 x 3 Pi used to fail inside numpy, broadcasting Pi against Pi^T
    grid = make_grid(1.0, 4)
    for pi in (np.ones((2, 3)), np.ones(2), np.ones((2, 2, 2)), 0.5):
        with pytest.raises(ValueError, match="pi must be a square matrix"):
            diagonal_lebesgue_measure(grid, 2, pi)
        with pytest.raises(ValueError, match="pi must be a square matrix"):
            diagonal_lebesgue_path(grid, pi)


def test_triple_product_refuses_a_measure_of_another_dimension(model2):
    grid = make_grid(1.0, 8)
    ccr = build_ccr_kernel(model2, grid)
    narrow = diagonal_lebesgue_measure(grid, 2, 0.1 * np.eye(2))
    wide = diagonal_lebesgue_measure(grid, 2, 0.1 * np.eye(4))
    with pytest.raises(ValueError, match="n = 4"):
        measure_triple_product(narrow, ccr, wide)


def test_bracket_homomorphism_small(ccr16):
    # The scaled kernels must satisfy the matrix commutator identity:
    # this is the algebra the bracket encodes, checked by brute product.
    rng = np.random.default_rng(11)
    q1 = random_measure(rng, ccr16.grid, ccr16.dim, support=5)
    q2 = random_measure(rng, ccr16.grid, ccr16.dim, support=9)
    b = bracket(q1, q2, ccr16)
    lhs = 4j * ccr16.big @ b.weights
    m1 = 4j * ccr16.big @ q1.weights
    m2 = 4j * ccr16.big @ q2.weights
    rhs = m1 @ m2 - m2 @ m1
    scale = 1.0 + np.linalg.norm(rhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale
    assert b.support_index == 9


def test_bracket_antisymmetry_and_jacobi(ccr16):
    rng = np.random.default_rng(13)
    qs = [random_measure(rng, ccr16.grid, ccr16.dim, support=7) for _ in range(3)]
    q1, q2, q3 = qs
    assert np.allclose(
        bracket(q1, q2, ccr16).weights, -bracket(q2, q1, ccr16).weights
    )
    j1 = bracket(q1, bracket(q2, q3, ccr16), ccr16).weights
    j2 = bracket(q2, bracket(q3, q1, ccr16), ccr16).weights
    j3 = bracket(q3, bracket(q1, q2, ccr16), ccr16).weights
    scale = max(np.linalg.norm(j1), np.linalg.norm(j2), np.linalg.norm(j3), 1.0)
    assert np.linalg.norm(j1 + j2 + j3) <= 1e-11 * scale


def test_triple_product_transpose_relation(ccr16):
    rng = np.random.default_rng(17)
    q1 = random_measure(rng, ccr16.grid, ccr16.dim)
    q2 = random_measure(rng, ccr16.grid, ccr16.dim)
    fwd = measure_triple_product(q1, ccr16, q2)
    bwd = measure_triple_product(q2, ccr16, q1)
    assert np.allclose(fwd.T, -bwd, atol=1e-12 * (1.0 + np.linalg.norm(fwd)))


def test_kernel_weighted_norm_properties(ccr16, pi2):
    assert kernel_weighted_norm(ccr16, zero_measure(ccr16.grid, 2).weights) == 0.0
    q = atomic_corner_measure(ccr16.grid, 4, pi2)
    base = kernel_weighted_norm(ccr16, q.weights)
    assert base > 0.0
    assert kernel_weighted_norm(ccr16, 3.0 * q.weights) == pytest.approx(3.0 * base)


def test_kernel_weighted_norm_reads_the_live_block(ccr16):
    # the norm is formed on the block the measure is supported in; the
    # full product Lambda W Lambda^T is the reference
    rng = np.random.default_rng(5)
    for support in (0, 6, ccr16.grid.steps):
        w = random_measure(rng, ccr16.grid, 2, support=support).weights
        full = np.linalg.norm(ccr16.big @ w @ ccr16.big.T)
        assert kernel_weighted_norm(ccr16, w) == pytest.approx(full, rel=1e-13)


def test_kernel_weighted_norm_refuses_weights_off_the_kernel_shape(ccr16):
    # a 4 x 4 block would be read as the leading corner of the 34 x 34 W
    with pytest.raises(ValueError, match=r"\(4, 4\)"):
        kernel_weighted_norm(ccr16, np.eye(4))


def test_csv_roundtrip(tmp_path, grid16):
    rng = np.random.default_rng(23)
    q = random_measure(rng, grid16, 2, support=6)
    path = tmp_path / "measure.csv"
    write_measure_csv(path, q)
    text = path.read_text()
    assert text.startswith("# schema=1\n")
    assert "\r" not in text
    back = read_measure_csv(path)
    assert back.grid == q.grid
    assert np.array_equal(back.weights, q.weights)
    assert back.support_index == q.support_index


def test_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# schema=2\n")
    with pytest.raises(ScenarioError):
        read_measure_csv(bad)
    bad.write_text("# schema=1\n# grid T=1 N=4 n=2\n0,0,0,0,notafloat,0\n")
    with pytest.raises(ScenarioError):
        read_measure_csv(bad)
    for sidecar in ("# grid T=8 N=4 n", "# grid T=8 N=4 n=0"):
        bad.write_text(f"# schema=1\n{sidecar}\nj,k,row,col,re,im\n")
        with pytest.raises(ScenarioError, match="grid sidecar"):
            read_measure_csv(bad)


def test_csv_read_memory_follows_the_entries(tmp_path):
    # one entry under a header grid of N = 1000, n = 2: the flat
    # 2002 x 2002 complex matrix alone would take 64 MB
    path = tmp_path / "sparse.csv"
    path.write_text(
        "# schema=1\n# grid T=1 N=1000 n=2\nj,k,row,col,re,im\n3,3,0,0,1,0\n"
    )
    tracemalloc.start()
    try:
        q = read_measure_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    assert q.block(3, 3).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert q.support_index == 3


def test_zero_entries_skipped_in_csv(tmp_path, grid16, pi2):
    q = atomic_corner_measure(grid16, 3, pi2)
    path = tmp_path / "atom.csv"
    write_measure_csv(path, q)
    lines = path.read_text().splitlines()
    rows = [
        line
        for line in lines
        if not line.startswith("#") and not line.startswith("j,")
    ]
    # One atom block plus eager symmetry: only the (3, 3) block entries appear.
    assert len(rows) == 4
    assert all(row.split(",")[0] == "3" and row.split(",")[1] == "3" for row in rows)


@settings(max_examples=30, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_atom_symmetrization_idempotent(j, k, seed):
    grid = make_grid(1.0, 8)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(2, 2))
    q = atom_measure(grid, j, k, block)
    again = KernelMeasure(grid, q.weights, q.support_index)
    assert np.array_equal(q.weights, again.weights)
    assert q.support_index == max(j, k)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_bracket_with_self_vanishes(seed):
    grid = make_grid(1.0, 6)
    model = random_model(np.random.default_rng(1), n=2, m=2)
    ccr = build_ccr_kernel(model, grid)
    q = random_measure(np.random.default_rng(seed), grid, 2)
    b = bracket(q, q, ccr)
    assert np.linalg.norm(b.weights) <= 1e-12 * (1.0 + np.linalg.norm(q.weights) ** 2)


def test_measures_store_their_nonzero_window(grid16, pi2):
    # an atom keeps one n x n block, the diagonal measure at node u its
    # leading (u + 1) n, the zero measure nothing; weights and blocks
    # are built from the window
    n = 2
    for u in (0, 5, 16):
        atom = atomic_corner_measure(grid16, u, pi2)
        assert (atom._lo, atom._window.shape) == (u * n, (n, n))
        assert np.array_equal(atom.block(u, u), pi2)
    for u in (1, 5, 16):
        diag = diagonal_lebesgue_measure(grid16, u, pi2)
        assert (diag._lo, diag._window.shape) == (0, ((u + 1) * n,) * 2)
    assert zero_measure(grid16, n)._window.shape == (0, 0)
    assert diagonal_lebesgue_measure(grid16, 0, pi2)._window.shape == (0, 0)
    off = atom_measure(grid16, 7, 4, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert (off._lo, off._window.shape) == (4 * n, (4 * n, 4 * n))
    # the full matrix a caller hands in is cropped to the same window
    again = KernelMeasure(grid16, off.weights, off.support_index)
    assert again._lo == off._lo
    assert np.array_equal(again._window, off._window)
    for q in (off, again):
        assert q.weights.shape == (34, 34)
        assert np.array_equal(q.weights[14:16, 8:10], [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(q.block(4, 7), [[1.0, 3.0], [2.0, 4.0]])
        assert np.linalg.norm(q.weights) == pytest.approx(np.linalg.norm(q._window))


def test_corner_atom_path_stores_under_a_megabyte(pi2):
    # n = 2, N = 128: one 2 x 2 block per node, where a dense entry per
    # node took 137 MB
    grid = make_grid(1.0, 128)
    tracemalloc.start()
    try:
        path = corner_atom_path(grid, pi2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(q._window.nbytes for q in path.entries) == grid.node_count * 64
    assert held < 1e6, held


def test_weights_are_read_only_and_share_no_caller_memory(grid16, pi2):
    rng = np.random.default_rng(29)
    raw = rng.normal(size=(34, 34))
    raw[20:, :] = 0.0
    raw[:, 20:] = 0.0
    block = rng.normal(size=(2, 2))
    for q, source in (
        (KernelMeasure(grid16, raw), raw),
        (atom_measure(grid16, 3, 3, block), block),
        (diagonal_lebesgue_measure(grid16, 4, pi2), pi2),
    ):
        first, second = q.weights, q.weights
        for w in (first, q.block(1, 1), q._window):
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0, 0] = 1.0
            assert not np.shares_memory(w, source)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, q._window)
        kept = first.copy()
        source[...] = 0.0
        assert np.array_equal(q.weights, kept)


def test_declared_support_index_is_checked(grid16):
    n, count = 2, grid16.node_count
    w = np.zeros((n * count, n * count))
    w[6:8, 6:8] = np.eye(2)  # mass at node 3
    assert KernelMeasure(grid16, w).support_index == 3
    for declared in (3, 5, count - 1):
        assert KernelMeasure(grid16, w, support_index=declared).support_index == declared
    for declared in (0, 2):
        with pytest.raises(ValueError, match="beyond the declared support"):
            KernelMeasure(grid16, w, support_index=declared)
    for declared in (-2, count, count + 3, 2.0):
        with pytest.raises(ValueError, match="support_index"):
            KernelMeasure(grid16, w, support_index=declared)
    # mass below SUPPORT_TOL beyond the declared edge is accepted
    w[30, 30] = 1e-15
    assert KernelMeasure(grid16, w, support_index=3).support_index == 3
    # off the diagonal the mass past the edge is found in either slot
    off = np.zeros((n * count, n * count))
    off[0, 9] = off[9, 0] = 1.0
    with pytest.raises(ValueError, match="beyond the declared support"):
        KernelMeasure(grid16, off, support_index=3)
    small = make_grid(1.0, 3)
    with pytest.raises(ValueError, match="support_index"):
        KernelMeasure(small, np.zeros((8, 8)), support_index=7)


@pytest.mark.parametrize(
    "u", [-2, -1, 17, 40, 2.0, "3", 2.5, pytest.param(np.float64(2.0), id="np2.0")]
)
def test_node_arguments_are_checked(grid16, pi2, u):
    q = diagonal_lebesgue_measure(grid16, 16, pi2)
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 17\)"):
        project_support(q, u)
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 17\)"):
        is_nonanticipative(q, u)
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 17\)"):
        random_measure(np.random.default_rng(1), grid16, 2, support=u)
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 17\)"):
        diagonal_lebesgue_measure(grid16, u, pi2)
    with pytest.raises(ValueError, match=r"j must be an integer in \[0, 17\)"):
        atom_measure(grid16, u, 1, pi2)
    with pytest.raises(ValueError, match=r"k must be an integer in \[0, 17\)"):
        atom_measure(grid16, 1, u, pi2)


@pytest.mark.parametrize("u", [-1, 5, 7, 2.0, True, np.int64(-1)])
def test_block_accessors_check_node_indices(model2, pi2, u):
    # out-of-range nodes used to return empty or zero blocks
    grid = make_grid(1.0, 4)
    ccr = build_ccr_kernel(model2, grid)
    q = atomic_corner_measure(grid, 4, pi2)
    for block in (ccr.block, q.block):
        with pytest.raises(ValueError, match=r"j must be an integer in \[0, 5\)"):
            block(u, 0)
        with pytest.raises(ValueError, match=r"k must be an integer in \[0, 5\)"):
            block(0, u)
    assert np.array_equal(ccr.block(np.int64(4), 1), ccr.big[8:10, 2:4])
    assert np.array_equal(q.block(4, 4), q.weights[8:10, 8:10])
    assert not q.block(0, 4).any()


def test_node_arguments_refuse_bools(grid16, pi2):
    # True and False used to pass as nodes 1 and 0
    q = diagonal_lebesgue_measure(grid16, 16, pi2)
    for u in (True, False):
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 17\)"):
            project_support(q, u)
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 17\)"):
            diagonal_lebesgue_measure(grid16, u, pi2)


def test_midpoint_is_the_halved_sum_bit_for_bit(grid16, pi2):
    # each halved window is added into one zero array on the common
    # window; halving is exact, so no bit moves against 0.5 * (A + B)
    rng = np.random.default_rng(43)
    measures = (
        zero_measure(grid16, 2),
        atomic_corner_measure(grid16, 3, pi2),
        atomic_corner_measure(grid16, 4, pi2),
        atom_measure(grid16, 9, 2, rng.normal(size=(2, 2))),
        diagonal_lebesgue_measure(grid16, 6, pi2),
        random_measure(rng, grid16, 2, support=5),
        random_measure(rng, grid16, 2),
    )
    for a in measures:
        for b in measures:
            mid = _midpoint(a, b)
            assert np.array_equal(mid.weights, 0.5 * (a.weights + b.weights))
            assert mid.support_index == max(a.support_index, b.support_index)


def test_project_support_crops_the_window(grid16, pi2):
    q = diagonal_lebesgue_measure(grid16, 10, pi2)
    for u in (0, 4, 10, 16):
        kept, truncated = project_support(q, u)
        edge = 2 * (u + 1)
        want = q.weights.copy()
        want[edge:, :] = 0.0
        want[:, edge:] = 0.0
        assert np.array_equal(kept.weights, want)
        assert kept._hi <= edge
        assert kept.support_index == min(u, 10)
        assert truncated == pytest.approx(np.linalg.norm(q.weights - want), rel=1e-15)
        assert is_nonanticipative(kept, u)
        assert is_nonanticipative(q, u) == (u >= 10)


def test_random_measure_support_keeps_the_draws(grid16):
    full = random_measure(np.random.default_rng(31), grid16, 2).weights
    cut = random_measure(np.random.default_rng(31), grid16, 2, support=6)
    assert cut._window.shape == (14, 14)
    assert np.array_equal(cut._window, full[:14, :14])
    assert cut.support_index == 6


def test_reality_residual_reads_the_window(grid16):
    # ||Im W|| / (1 + ||W||) of the full matrix, from a 14 x 14 window
    q = random_measure(np.random.default_rng(37), grid16, 2, support=6)
    assert q._window.shape == (14, 14)
    w = q.weights
    expected = np.linalg.norm(w.imag) / (1.0 + np.linalg.norm(w))
    assert q.reality_residual == pytest.approx(expected, rel=1e-14)
    assert q.reality_residual > 0.0
    assert zero_measure(grid16, 2).reality_residual == 0.0


def test_csv_rejects_a_repeated_entry(tmp_path):
    bad = tmp_path / "repeat.csv"
    header = "# schema=1\n# grid T=1 N=3 n=2\nj,k,row,col,re,im\n"
    bad.write_text(header + "3,3,0,0,1,0\n1,2,0,1,5,0\n3,3,0,0,2,0\n")
    with pytest.raises(ScenarioError, match="repeat.csv:6: repeated entry"):
        read_measure_csv(bad)
    bad.write_text(header + "3,3,0,0,1,0\n3,3,0,1,2,0\n3,3,1,0,2,0\n")
    assert read_measure_csv(bad).block(3, 3).tolist() == [[1.0, 2.0], [2.0, 0.0]]


def test_csv_refuses_asymmetric_entries(tmp_path):
    # a lone (0, 1) entry would otherwise come back halved at (0, 1) and (1, 0)
    bad = tmp_path / "asym.csv"
    header = "# schema=1\n# grid T=1 N=2 n=1\nj,k,row,col,re,im\n"
    bad.write_text(header + "0,1,0,0,1,0\n")
    with pytest.raises(ScenarioError, match="asym.csv: entries are not symmetric"):
        read_measure_csv(bad)


def test_symmetrization_keeps_huge_finite_masses_finite():
    # masses are halved before the transpose is added, so finite entries
    # up to the largest double stay finite; non-finite ones are refused
    grid = make_grid(1.0, 4)
    huge = 1e308 * np.array([[1.0, 0.5], [0.5, 1.0]])
    with np.errstate(over="ignore"):  # the support scan squares the masses
        measures = (
            atom_measure(grid, 1, 1, huge),
            atom_measure(grid, 1, 3, huge),
            KernelMeasure(grid, np.full((10, 10), 1e308)),
        )
    for q in measures:
        assert np.isfinite(q.weights).all()
    assert np.array_equal(measures[0].block(1, 1), huge.astype(complex))
    assert np.array_equal(measures[1].block(3, 1), huge.T.astype(complex))
    assert np.array_equal(measures[2].weights, np.full((10, 10), 1e308 + 0j))
    # normal values: bit for bit the old 0.5 * (W + W^T)
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    assert np.array_equal(KernelMeasure(grid, raw).weights, 0.5 * (raw + raw.T))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="weights must be finite"):
            with np.errstate(invalid="ignore"):
                atom_measure(grid, 1, 2, np.full((2, 2), bad))
