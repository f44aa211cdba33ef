from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    BLOCKS_BITWISE,
    basis_signal,
    built,
    built_ops,
    dense_p_tilde,
    one_thread,
    record_products,
    reference_smooth,
    shifted_filter,
)
from ncgfdm import smoothing
from ncgfdm.filterbank import SingularMatrixError
from ncgfdm.params import qam_constellation
from ncgfdm.smoothing import (
    BasisSet,
    boundary_mismatch_dft,
    build_basis,
    build_nc_operators,
    coefficient_scan,
    coefficient_stream,
    derivative_scales,
    identity_tolerance,
    operator_identity_residuals,
    smooth_stream,
    synthesis_waveform,
)


def random_data(ops, count, seed=0):
    c = qam_constellation(16)
    gen = np.random.default_rng(seed)
    return c.points[gen.integers(0, 16, size=(ops.params.N, count))]


def test_synthesis_waveform_is_subcarrier_sum():
    p, g, _ = built(8, 3, beta=0.4)
    f0, F0 = synthesis_waveform(g, p)
    want = sum(shifted_filter(g, k, 0, p.K) for k in range(p.K))
    assert np.allclose(f0, want, atol=1e-12)
    assert np.allclose(F0, np.fft.fft(want), atol=1e-11)
    # K*g on multiples of K, zero elsewhere
    n = np.arange(p.N)
    assert np.allclose(f0[n % p.K != 0], 0.0, atol=1e-13)
    assert np.allclose(f0[:: p.K], p.K * g.samples[:: p.K], atol=1e-12)


def test_basis_signal_matches_finite_difference():
    """Order-v basis signals are spectral derivatives of the order-0 one.

    Oracle: numerically differentiate the order-0 signal on a dense grid
    (central differences), exploiting that basis_signal accepts fractional
    sample indices through its exponential form.
    """
    p, g, _ = built(8, 3, n_cp=6, beta=0.4, V=2)
    _, F0 = synthesis_waveform(g, p)
    h = 1e-4
    pts = np.linspace(-p.n_cp + 1, p.N - 2, 17)
    for v in (1, 2):
        lower = basis_signal(F0, v - 1, pts - h, p.n_cp)
        upper = basis_signal(F0, v - 1, pts + h, p.n_cp)
        # derivative w.r.t. sample index equals the order-v signal here,
        # because the spectral factor is (j 2 pi l / N) per order
        fd = (upper - lower) / (2 * h)
        direct = basis_signal(F0, v, pts, p.n_cp)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fd - direct)) / scale < 1e-3


def test_basis_signal_rejects_bad_order():
    _, g, _ = built(4, 2, V=1)
    p, _, _ = built(4, 2, V=1)
    _, F0 = synthesis_waveform(g, p)
    with pytest.raises(ValueError):
        basis_signal(F0, -1, 0, 0)
    with pytest.raises(ValueError):
        basis_signal(F0, 3, 0, 0, max_order=2)


def test_build_basis_matches_pointwise_evaluation():
    p, g, _ = built(8, 3, n_cp=5, beta=0.4, V=2)
    basis = build_basis(g, p)
    _, F0 = synthesis_waveform(g, p)
    n_core = np.arange(p.N)
    assert basis.Q.shape == (p.N, p.V + 1)
    for v in range(p.V + 1):
        assert np.allclose(basis.Q[:, v], basis_signal(F0, v, n_core, p.n_cp), atol=1e-11)


def test_boundary_matrix_entries_are_basis_boundary_values():
    p, g, _, ops = built_ops(8, 3, 5, 0.4, 2)
    _, F0 = synthesis_waveform(g, p)
    for v in range(p.V + 1):
        for w in range(p.V + 1):
            want = basis_signal(F0, v + w, -p.n_cp, p.n_cp)
            assert abs(ops.P_f[v, w] - want) < 1e-10


@pytest.mark.parametrize(
    "K,M,n_cp,beta,V",
    [(4, 2, 4, 0.0, 1), (8, 4, 8, 0.5, 2), (16, 7, 16, 0.3, 4), (8, 4, 8, 0.1, 6)],
)
def test_operator_identities(K, M, n_cp, beta, V):
    _, g, _, ops = built_ops(K, M, n_cp, beta, V)
    res = operator_identity_residuals(ops)
    tol = identity_tolerance(V)
    general = ("pf_symmetric", "pf_product", "idempotent", "decode_fixed", "decode_basis",
               "trace_rank")
    for name in general:
        assert res[name][0] <= tol == res[name][1], (name, res[name])
    # n_cp is a multiple of K in all cases above, so the Gram identity applies
    assert res["p1p2_gram"][0] <= tol == res["p1p2_gram"][1]
    # the unitary identities are listed exactly when the set claims a unitary A
    unitary = {"unitarity", "power_trace"}
    assert unitary & set(res) == (unitary if g.is_dirichlet else set())


def gram_residual(ops):
    a, b = ops.P_1 @ ops.P_1.conj().T, ops.P_2 @ ops.P_2.conj().T
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))


def test_gram_identity_requires_cp_multiple_of_k():
    # non-unitary matrix and K does not divide n_cp: the Gram identity breaks
    p, g, tm = built(8, 4, n_cp=5, beta=0.5, V=2)
    basis = build_basis(g, p)
    ops = build_nc_operators(tm, basis, p, check=True)  # the check leaves out the gram
    assert "p1p2_gram" not in operator_identity_residuals(ops)
    assert gram_residual(ops) > 1e-6
    # with the unitary prototype it holds regardless of the CP length
    _, _, _, ops_u = built_ops(8, 4, 5, 0.0, 2)
    r, tol = operator_identity_residuals(ops_u)["p1p2_gram"]
    assert r <= tol == 1e-9
    assert gram_residual(ops_u) <= 1e-9


def test_trace_equals_rank_even_off_unitary():
    # idempotency forces trace = rank = V+1 at every roll-off
    for beta in (0.0, 0.3, 0.5):
        _, _, _, ops = built_ops(8, 4, 8, beta, 2)
        assert abs(np.trace(dense_p_tilde(ops)) - (ops.V + 1)) < 1e-8


def test_build_rejects_identity_violations():
    p, g, tm = built(8, 4, n_cp=8, beta=0.5, V=2)
    basis = build_basis(g, p)
    ops = build_nc_operators(tm, basis, p)
    # scaling P_2 breaks the boundary product, and with it P_tilde = gain P_2
    bad = replace(ops, P_2=ops.P_2 * 1.01)
    assert operator_identity_residuals(bad)["idempotent"][0] > 1e-6
    # a unitary claim on a non-unitary pulse fails the build
    p, g, tm = built(16, 7, n_cp=16, beta=0.5, V=2)
    assert not g.is_dirichlet and tm.cond > 2
    with pytest.raises(AssertionError, match="unitarity residual"):
        build_nc_operators(tm, build_basis(g, p), p, is_unitary=True)


def test_paper_size_operator_set_holds_no_dense_matrix():
    # one N x N complex array at N = 1792 alone is 49 MiB
    _, g, _, ops = built_ops(256, 7, 280, 0.5, 2)
    assert not g.is_dirichlet
    nbytes = sum(
        value.nbytes
        for obj in (ops, ops.basis, ops.tm)
        for value in vars(obj).values()
        if isinstance(value, np.ndarray)
    )
    assert nbytes < 2**20


def test_pf_conditioning_reported():
    _, _, _, ops = built_ops(8, 4, 8, 0.1, 6)
    assert np.isfinite(ops.pf_cond)
    assert ops.pf_cond >= 1.0


@pytest.mark.parametrize("beta,V", [(0.0, 2), (0.5, 6), (0.1, 7)])
def test_pf_cond_is_the_one_norm_condition_of_the_equilibrated_matrix(beta, V):
    _, _, _, ops = built_ops(8, 4, 8, beta, V)
    s = 1.0 / np.sqrt(np.abs(np.diag(ops.P_f)))
    S = ops.P_f * np.outer(s, s)
    want = np.linalg.norm(S, 1) * np.linalg.norm(np.linalg.inv(S), 1)
    assert ops.pf_cond == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fill,check", [(0.0, np.isinf), (np.nan, np.isnan)])
def test_singular_boundary_matrix_raises(fill, check):
    # P_f is built from the moments of F0: a zero spectrum makes it zero,
    # a NaN one makes its condition NaN; neither may pass the gate
    p, g, tm = built(8, 4, 8, 0.1, 2)
    basis = build_basis(g, p)
    bad = BasisSet(Q=basis.Q, F0=np.full_like(basis.F0, fill))
    with pytest.raises(SingularMatrixError, match="boundary matrix") as err:
        build_nc_operators(tm, bad, p)
    assert check(err.value.cond)


@pytest.mark.parametrize(
    "K,M,beta,V,radius", [(64, 7, 0.0, 2, 0.787), (16, 4, 0.5, 3, 0.887)]
)
def test_recursion_is_undamped_without_a_cp(K, M, beta, V, radius):
    # b_i = S b_{i-1} + v_i with S = P_f^-1 P_1 A^-1 Q.  With no CP the basis
    # is periodic over the block, so rho(S) is 1 and a correction at a
    # block's start reaches its end undamped; one sample of CP damps it
    def spectral_radius(n_cp):
        ops = built_ops(K, M, n_cp, beta, V)[3]
        return np.max(np.abs(np.linalg.eigvals(ops.P_f_inv @ ops.P_1 @ ops.A_inv_Q)))

    assert spectral_radius(0) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(1) == pytest.approx(radius, abs=1e-3)


def test_first_symbol_unsmoothed():
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_data(ops, 1)
    B, carry = coefficient_stream(ops, D)
    assert np.all(B == 0)
    X_bar, _, _ = smooth_stream(ops, D)
    assert np.allclose(X_bar[:, 0], ops.tm.A @ D[:, 0])
    want_x, want_d = reference_smooth(ops, D)
    assert np.allclose(X_bar, want_x)
    # the carry is P_1 d_bar of the unsmoothed symbol
    assert np.allclose(carry, ops.P_1 @ want_d[:, 0])


def test_smooth_symbol_matches_stream():
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_data(ops, 5)
    X_bar, B, _ = smooth_stream(ops, D)
    # effective data is data plus the data-domain smooth contribution
    D_bar = D + ops.A_inv_Q @ B
    want_x, want_d = reference_smooth(ops, D)
    for i in range(5):
        assert np.allclose(want_x[:, i], X_bar[:, i], atol=1e-12)
        assert np.allclose(want_d[:, i], D_bar[:, i], atol=1e-12)


def test_coefficient_stream_matches_smooth_stream():
    _, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = random_data(ops, 8)
    B, _ = coefficient_stream(ops, D)
    X_bar, B_smooth, _ = smooth_stream(ops, D)
    assert np.array_equal(B_smooth, B)
    # the structured modulation inside smooth_stream against the dense A
    assert np.allclose(X_bar, ops.tm.A @ D + ops.basis.Q @ B, atol=1e-11)


def test_coefficient_stream_runs_parallel_streams():
    # an (N, count, S) input is S independent streams, each with its own carry
    _, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = np.stack([random_data(ops, 5, seed=s) for s in range(3)], axis=2)
    B, carry = coefficient_stream(ops, D[:, :2])
    B2, carry = coefficient_stream(ops, D[:, 2:], carry)
    for s in range(3):
        want, want_carry = coefficient_stream(ops, D[:, :, s])
        assert np.allclose(np.concatenate([B, B2], axis=1)[:, :, s], want, atol=1e-12)
        assert np.allclose(carry[:, s], want_carry, atol=1e-12)


@pytest.mark.parametrize(
    "K, M, n_cp, beta, V, shape",
    [
        (256, 7, 280, 0.1, 2, (70,)),  # nc-gfdm:2 in a ber-awgn chunk
        (256, 1, 40, 0.0, 2, (489,)),  # td-nc-ofdm:2 in a ber-awgn chunk
        (256, 7, 280, 0.1, 6, (126,)),  # nc-gfdm:6 in a psd-oob chunk
        (16, 7, 16, 0.3, 2, (50, 3)),  # three parallel streams
        (256, 7, 280, 0.1, 2, (0,)),  # an empty chunk
    ],
)
def test_coefficient_stream_forms_one_stacked_product_on_the_calling_thread(
    monkeypatch, K, M, n_cp, beta, V, shape
):
    _, _, _, ops = built_ops(K, M, n_cp, beta, V)
    gen = np.random.default_rng(5)
    D = qam_constellation(16).points[gen.integers(0, 16, size=(ops.params.N,) + shape)]
    carry = gen.standard_normal((V + 1,) + shape[1:] + (2,)) @ np.array([1, 1j])
    calls = record_products(monkeypatch)
    B, out = coefficient_stream(ops, D, carry)
    monkeypatch.undo()
    # [P_1; P_2] D in column blocks, one column per symbol of each stream
    assert all(rows == 2 * (V + 1) for rows, _, _ in calls) and one_thread(calls)
    assert sum(cols for _, _, cols in calls) == D[0].size
    # the scan of the two products formed whole: bit for bit on the BLAS build
    # _matmul_blocks states that for, else within the identity tolerance
    flat = D.reshape(ops.params.N, -1)
    thin = (V + 1,) + shape
    want = coefficient_scan(
        ops, np.stack(((ops.P_1 @ flat).reshape(thin), (ops.P_2 @ flat).reshape(thin))), carry
    )
    assert B.shape == thin
    for got, ref in ((B, want[0]), (out, want[1])):
        if BLOCKS_BITWISE:
            assert np.array_equal(got, ref)
        else:
            assert np.allclose(got, ref, rtol=identity_tolerance(V), atol=0)


@pytest.mark.parametrize(
    "a_shape, n, widths",
    [
        ((6, 1792), 70, [16] * 4 + [6]),  # [P_1; P_2] D of nc-gfdm:2 in a ber-awgn chunk
        ((14, 1792), 126, [16] * 7 + [14]),  # [P_1; P_2] D of nc-gfdm:6 in a psd-oob chunk
        ((7, 1792), 126, [16] * 7 + [14]),  # one half of the product above
        ((15, 7), 8288, [624] * 13 + [176]),  # the smooth signal of a 15-symbol piece
        ((3, 1792), 3, [3]),
        ((3, 1792), 33, [16, 17]),  # a lone last column joins the block before it
        ((4, 64), 1000, [256] * 3 + [232]),
    ],
)
def test_matmul_blocks_matches_one_product(monkeypatch, a_shape, n, widths):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    b = rng.standard_normal((a_shape[1], n)) + 1j * rng.standard_normal((a_shape[1], n))
    want = a @ b
    calls = record_products(monkeypatch)
    got = smoothing._matmul_blocks(a, np.asfortranarray(b))
    monkeypatch.undo()
    assert [cols for _, _, cols in calls] == widths and one_thread(calls)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("K,M,n_cp,beta", [(8, 4, 8, 0.1), (16, 7, 16, 0.5)])
def test_coefficient_stream_matches_reference_at_v6(K, M, n_cp, beta):
    # pf_cond is about 2.5e8 at V=6; the symbol-by-symbol loop reaches
    # 5-7e-9 here, the doubling scan 7-9e-9 and the scan without its
    # refinement round 4.6e-7 to 1.7e-6, so the bound separates the two
    _, _, _, ops = built_ops(K, M, n_cp, beta, 6)
    D = random_data(ops, 300, seed=11)
    want_x, _ = reference_smooth(ops, D)
    B, _ = coefficient_stream(ops, D)
    assert np.max(np.abs(ops.tm.modulate(D) + ops.basis.Q @ B - want_x)) <= 5e-8
    B1, carry = coefficient_stream(ops, D[:, :100])
    B2, _ = coefficient_stream(ops, D[:, 100:], carry)
    X_split = ops.tm.modulate(D) + ops.basis.Q @ np.concatenate([B1, B2], axis=1)
    assert np.max(np.abs(X_split - want_x)) <= 5e-8


def test_coefficient_stream_parallel_streams_over_several_blocks():
    # 150 symbols take eight doubling steps; the last, of shift 128,
    # reaches only the last 22 symbols
    _, _, _, ops = built_ops(16, 7, 16, 0.5, 3)
    D = np.stack([random_data(ops, 150, seed=s) for s in range(3)], axis=2)
    B, carry = coefficient_stream(ops, D)
    for s in range(3):
        want_x, want_d = reference_smooth(ops, D[:, :, s])
        got_x = ops.tm.modulate(D[:, :, s]) + ops.basis.Q @ B[:, :, s]
        assert np.allclose(got_x, want_x, atol=1e-11)
        assert np.allclose(carry[:, s], ops.P_1 @ want_d[:, -1], atol=1e-11)


#: symbol counts on both sides of a power of two
SCAN_COUNTS = [1, 2, 3, 63, 64, 65, 129, 1000]


@pytest.mark.parametrize("count", SCAN_COUNTS)
def test_doubling_scan_needs_every_step(count):
    # the smoothing operators' S decays so fast that a scan one step short
    # still passes, through the refinement round, the tests against
    # reference_smooth; an S of spectral radius 0.99 needs every step, and a
    # strictly upper-triangular S, whose S^4 is exactly zero, ends the scan early
    gen = np.random.default_rng(count)
    S = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    v = gen.standard_normal((3, count, 2)) + 1j * gen.standard_normal((3, count, 2))
    for S in (S * 0.99 / np.max(np.abs(np.linalg.eigvals(S))), np.triu(S, 1)):
        want, b = np.empty_like(v), np.zeros((3, 2), dtype=complex)
        for i in range(count):
            b = want[:, i] = S @ b + v[:, i]
        got = smoothing._scan(S, v.copy())
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("count", SCAN_COUNTS)
@pytest.mark.parametrize("V,tol", [(2, 1e-12), (6, 5e-8)])
def test_coefficient_stream_matches_reference_around_powers_of_two(count, V, tol):
    # the doubling scan runs ceil(log2 count) steps, so counts on both sides
    # of a power of two end on a step that reaches one symbol or all but
    # one; three parallel streams, each stream alone, and each stream split
    # with its carry at 3 count // 5 (600 of 1000, not a power of two)
    _, _, _, ops = built_ops(16, 7, 16, 0.5, V)
    D = np.stack([random_data(ops, count, seed=s) for s in range(3)], axis=2)
    B, carry = coefficient_stream(ops, D)
    cut = 3 * count // 5
    for s in range(3):
        want_x, want_d = reference_smooth(ops, D[:, :, s])
        want_carry = ops.P_1 @ want_d[:, -1]
        B1, carry1 = coefficient_stream(ops, D[:, :cut, s])
        B2, carry2 = coefficient_stream(ops, D[:, cut:, s], carry1)
        runs = [
            (B[:, :, s], carry[:, s]),
            coefficient_stream(ops, D[:, :, s]),
            (np.concatenate([B1, B2], axis=1), carry2),
        ]
        for got_B, got_carry in runs:
            got_x = ops.tm.modulate(D[:, :, s]) + ops.basis.Q @ got_B
            assert np.max(np.abs(got_x - want_x)) <= tol
            assert np.max(np.abs(got_carry - want_carry)) <= tol * np.max(np.abs(want_carry))


def test_stream_state_carries_across_chunks():
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_data(ops, 6)
    X_all, _, _ = smooth_stream(ops, D)
    X1, _, carry = smooth_stream(ops, D[:, :3])
    X2, _, _ = smooth_stream(ops, D[:, 3:], carry)
    assert np.allclose(np.concatenate([X1, X2], axis=1), X_all, atol=1e-12)


@pytest.mark.parametrize("cut", [0, 3, 6])
def test_empty_chunk_leaves_the_stream_unchanged(cut):
    # an empty chunk at the head, in the middle or at the end of a stream
    _, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_data(ops, 6)
    X_all, B_all, carry_all = smooth_stream(ops, D)
    X1, B1, carry = smooth_stream(ops, D[:, :cut])
    X0, B0, carry = smooth_stream(ops, D[:, cut:cut], carry)
    assert X0.shape == (ops.params.N, 0) and B0.shape == (ops.V + 1, 0)
    X2, B2, carry = smooth_stream(ops, D[:, cut:], carry)
    assert np.allclose(np.concatenate([X1, X0, X2], axis=1), X_all, atol=1e-12)
    assert np.allclose(np.concatenate([B1, B0, B2], axis=1), B_all, atol=1e-12)
    assert np.allclose(carry, carry_all, atol=1e-12)


def test_empty_chunk_of_parallel_streams_keeps_their_carry():
    _, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = np.stack([random_data(ops, 4, seed=s) for s in range(3)], axis=2)
    B_all, carry_all = coefficient_stream(ops, D)
    B1, carry = coefficient_stream(ops, D[:, :2])
    B0, carry = coefficient_stream(ops, D[:, 2:2], carry)
    assert B0.shape == (ops.V + 1, 0, 3)
    B2, carry = coefficient_stream(ops, D[:, 2:], carry)
    assert np.allclose(np.concatenate([B1, B0, B2], axis=1), B_all, atol=1e-12)
    assert np.allclose(carry, carry_all, atol=1e-12)


@pytest.mark.parametrize("K,M,n_cp,beta,V", [(4, 2, 4, 0.0, 1), (16, 7, 16, 0.5, 3)])
def test_n_continuity_via_dft_oracle(K, M, n_cp, beta, V):
    """Consecutive smoothed blocks agree in value and V derivatives.

    Oracle: evaluate the boundary gaps directly from the raw sample blocks
    through their DFTs, independent of the stored operators.
    """
    p, _, _, ops = built_ops(K, M, n_cp, beta, V)
    D = random_data(ops, 4)
    X_bar, B, _ = smooth_stream(ops, D)
    D_bar = D + ops.A_inv_Q @ B
    for i in range(1, 4):
        gaps = boundary_mismatch_dft(X_bar[:, i - 1], X_bar[:, i], V, n_cp)
        scales = np.maximum(
            derivative_scales(X_bar[:, i - 1], V), derivative_scales(X_bar[:, i], V)
        )
        assert np.all(np.abs(gaps) / scales < 1e-6)
        # operator path agrees with the DFT path
        op_gaps = ops.P_1 @ D_bar[:, i - 1] - ops.P_2 @ D_bar[:, i]
        assert np.allclose(op_gaps, gaps, atol=1e-10 * scales.max())


def test_unsmoothed_stream_has_boundary_gaps():
    p, _, _, ops = built_ops(16, 7, 16, 0.5, 3)
    D = random_data(ops, 3)
    X = ops.tm.A @ D
    gaps = boundary_mismatch_dft(X[:, 0], X[:, 1], ops.V, p.n_cp)
    scales = derivative_scales(X[:, 0], ops.V)
    assert np.max(np.abs(gaps) / scales) > 1e-3


def test_zero_cp_trivial_mismatch():
    # with n_cp = 0 the two boundary operators coincide
    _, _, _, ops = built_ops(8, 4, 0, 0.3, 2)
    assert np.allclose(ops.P_1, ops.P_2)
    d = random_data(ops, 1)[:, 0]
    assert np.allclose(ops.P_1 @ d - ops.P_2 @ d, 0.0, atol=1e-12)


def test_smooth_power_beta_zero_monte_carlo():
    _, _, _, ops = built_ops(16, 7, 16, 0.0, 2)
    D = random_data(ops, 4000, seed=7)
    B, _ = coefficient_stream(ops, D)
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    powers = np.real(np.einsum("vi,vw,wi->i", B.conj(), gram, B))
    mean = powers[1:].mean()
    assert abs(mean - 2 * (ops.V + 1)) / (2 * (ops.V + 1)) < 0.03


def test_effective_data_stays_uncorrelated_at_beta_zero():
    # sample covariance of the effective data vectors stays near identity
    p, _, _, ops = built_ops(8, 4, 8, 0.0, 2)
    n_sym = 30_000
    D = random_data(ops, n_sym, seed=3)
    B, _ = coefficient_stream(ops, D)
    D_bar = D + ops.A_inv_Q @ B
    cov = (D_bar @ D_bar.conj().T) / n_sym
    dev = np.linalg.norm(cov - np.eye(p.N)) / np.sqrt(p.N)
    assert dev <= 5e-2


def test_derivative_convention_is_spectral():
    # the order-1 basis signal is exactly the DFT-domain derivative of order 0
    p, g, _ = built(8, 3, n_cp=4, beta=0.4, V=1)
    basis = build_basis(g, p)
    fac = 2j * np.pi * np.arange(p.N) / p.N
    f0_periodic = np.fft.ifft(basis.F0)
    d1 = np.fft.ifft(fac * basis.F0)
    idx = (np.arange(p.N) + p.n_cp) % p.N
    assert np.allclose(basis.Q[:, 0], f0_periodic[idx], atol=1e-12)
    assert np.allclose(basis.Q[:, 1], d1[idx], atol=1e-12)
