import numpy as np
import pytest

from conftest import basis_signal, built, built_ops, dense_p_tilde, reference_smooth
from ncgfdm.filterbank import SingularMatrixError, shifted_filter
from ncgfdm.params import SeededRng, qam_constellation
from ncgfdm.smoothing import (
    BasisSet,
    boundary_mismatch,
    boundary_mismatch_dft,
    build_basis,
    build_nc_operators,
    coefficient_stream,
    derivative_scales,
    identity_tolerance,
    operator_identity_residuals,
    smooth_stream,
    synthesis_waveform,
    with_corrupted_p2,
)


def random_data(ops, count, seed=0):
    c = qam_constellation(16)
    gen = SeededRng(seed).generator
    return c.points[gen.integers(0, 16, size=(ops.params.N, count))]


def test_synthesis_waveform_is_subcarrier_sum():
    p, g, _ = built(8, 3, beta=0.4)
    f0, F0 = synthesis_waveform(g, p)
    want = sum(shifted_filter(g, k, 0, p.K, p.M) for k in range(p.K))
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
    _, _, _, ops = built_ops(K, M, n_cp, beta, V)
    res = operator_identity_residuals(ops)
    tol = identity_tolerance(V)
    for name in ("pf_symmetric", "pf_product", "idempotent", "decode_fixed", "decode_basis"):
        assert res[name] <= tol, (name, res[name])
    # n_cp is a multiple of K in all cases above, so the Gram identity applies
    assert res["p1p2_gram"] <= tol


def test_gram_identity_requires_cp_multiple_of_k():
    # non-unitary matrix and K does not divide n_cp: the Gram identity breaks
    p, g, tm = built(8, 4, n_cp=5, beta=0.5, V=2)
    basis = build_basis(g, p)
    ops = build_nc_operators(tm, basis, p, check=True)  # build check skips the gram
    res = operator_identity_residuals(ops)
    assert res["p1p2_gram"] > 1e-6
    # with the unitary prototype it holds regardless of the CP length
    _, _, _, ops_u = built_ops(8, 4, 5, 0.0, 2)
    assert operator_identity_residuals(ops_u)["p1p2_gram"] <= 1e-9


def test_trace_equals_rank_even_off_unitary():
    # idempotency forces trace = rank = V+1 at every roll-off
    for beta in (0.0, 0.3, 0.5):
        _, _, _, ops = built_ops(8, 4, 8, beta, 2)
        assert abs(np.trace(dense_p_tilde(ops)) - (ops.V + 1)) < 1e-8


def test_build_rejects_identity_violations():
    p, g, tm = built(8, 4, n_cp=8, beta=0.5, V=2)
    basis = build_basis(g, p)
    ops = build_nc_operators(tm, basis, p)
    bad = with_corrupted_p2(ops)
    res = operator_identity_residuals(bad)
    assert res["idempotent"] > 1e-6


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
    assert np.allclose(X_bar, ops.tm.A @ D + ops.Q @ B, atol=1e-11)


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


@pytest.mark.parametrize("K,M,n_cp,beta", [(8, 4, 8, 0.1), (16, 7, 16, 0.5)])
def test_coefficient_stream_matches_reference_at_v6(K, M, n_cp, beta):
    # pf_cond is about 2.5e8 at V=6; the symbol-by-symbol loop reaches
    # 5-7e-9 here and a blocked scan without its refinement round 4e-7
    # to 1.9e-6, so the bound separates the two
    _, _, _, ops = built_ops(K, M, n_cp, beta, 6)
    D = random_data(ops, 300, seed=11)
    want_x, _ = reference_smooth(ops, D)
    B, _ = coefficient_stream(ops, D)
    assert np.max(np.abs(ops.tm.modulate(D) + ops.Q @ B - want_x)) <= 5e-8
    B1, carry = coefficient_stream(ops, D[:, :100])
    B2, _ = coefficient_stream(ops, D[:, 100:], carry)
    X_split = ops.tm.modulate(D) + ops.Q @ np.concatenate([B1, B2], axis=1)
    assert np.max(np.abs(X_split - want_x)) <= 5e-8


def test_coefficient_stream_parallel_streams_over_several_blocks():
    # 150 symbols span three scan blocks, the last one partial
    _, _, _, ops = built_ops(16, 7, 16, 0.5, 3)
    D = np.stack([random_data(ops, 150, seed=s) for s in range(3)], axis=2)
    B, carry = coefficient_stream(ops, D)
    for s in range(3):
        want_x, want_d = reference_smooth(ops, D[:, :, s])
        assert np.allclose(ops.tm.modulate(D[:, :, s]) + ops.Q @ B[:, :, s], want_x, atol=1e-11)
        assert np.allclose(carry[:, s], ops.P_1 @ want_d[:, -1], atol=1e-11)


def test_stream_state_carries_across_chunks():
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_data(ops, 6)
    X_all, _, _ = smooth_stream(ops, D)
    X1, _, carry = smooth_stream(ops, D[:, :3])
    X2, _, _ = smooth_stream(ops, D[:, 3:], carry)
    assert np.allclose(np.concatenate([X1, X2], axis=1), X_all, atol=1e-12)


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
        op_gaps = boundary_mismatch(ops, D_bar[:, i - 1], D_bar[:, i])
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
    assert np.allclose(boundary_mismatch(ops, d, d), 0.0, atol=1e-12)


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
