import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadexp import (
    KernelMeasure,
    ScenarioError,
    atom_measure,
    atomic_corner_measure,
    bracket,
    build_ccr_kernel,
    ccr_two_point,
    diagonal_lebesgue_measure,
    is_nonanticipative,
    kernel_weighted_norm,
    lambda_product,
    make_grid,
    measure_triple_product,
    project_support,
    random_measure,
    random_model,
    read_measure_csv,
    split_sym_antisym,
    write_measure_csv,
    zero_measure,
)


def test_grid_validation_and_nodes():
    grid = make_grid(2.0, 8)
    assert grid.step == pytest.approx(0.25)
    assert grid.node_count == 9
    assert np.allclose(grid.nodes, np.arange(9) * 0.25)
    with pytest.raises(ValueError):
        make_grid(0.0, 8)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)


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
