import numpy as np
import pytest

from conftest import built
from ncgfdm.filterbank import (
    PrototypeFilter,
    SingularMatrixError,
    build_transmit_matrix,
    prototype_filter,
    shifted_filter,
)
from ncgfdm.params import WaveformParams


def rc_response_reference(N, M, beta):
    """Independent raised-cosine evaluation, bin by bin with explicit cases.

    Works on signed bin offsets; for even M the response is sampled half a
    bin above each integer offset (the documented edge-bin convention).
    """
    resp = np.zeros(N)
    for l in range(N):
        f = l if l <= N // 2 else l - N
        if M % 2 == 0:
            f = f + 0.5
        a = abs(f)
        if beta == 0.0:
            resp[l] = 1.0 if a < M / 2 else 0.0
        elif a <= (1 - beta) * M / 2:
            resp[l] = 1.0
        elif a < (1 + beta) * M / 2:
            resp[l] = 0.5 * (1 + np.cos(np.pi / (beta * M) * (a - (1 - beta) * M / 2)))
    return resp


@pytest.mark.parametrize("K,M,beta", [(4, 3, 0.0), (8, 4, 0.5), (16, 7, 0.25), (8, 5, 1.0)])
def test_prototype_matches_reference_response(K, M, beta):
    p, g, _ = built(K, M, beta=beta)
    ref = rc_response_reference(p.N, M, beta)
    ref_g = np.fft.ifft(ref)
    ref_g /= np.linalg.norm(ref_g)
    assert np.allclose(g.samples, ref_g, atol=1e-12)


def test_prototype_unit_energy():
    for K, M, beta in [(4, 2, 0.0), (16, 7, 0.5), (8, 4, 0.3)]:
        _, g, _ = built(K, M, beta=beta)
        assert abs(np.sum(np.abs(g.samples) ** 2) - 1.0) < 1e-12


def test_dirichlet_occupies_exactly_m_equal_bins():
    for K, M in [(4, 3), (8, 4), (16, 7)]:
        p, g, _ = built(K, M, beta=0.0)
        G = g.spectrum()
        occupied = np.abs(G) > 1e-9
        assert occupied.sum() == M
        mags = np.abs(G[occupied])
        assert np.allclose(mags, mags[0])
        # symmetric around DC; for even M the extra bin sits on the negative side
        signed = np.where(np.arange(p.N) <= p.N // 2, np.arange(p.N), np.arange(p.N) - p.N)
        lo, hi = signed[occupied].min(), signed[occupied].max()
        assert (lo, hi) == (-(M // 2), (M - 1) // 2)


def test_small_rolloff_degenerates_to_dirichlet():
    # no DFT bin falls inside the roll-off region, so the taper quantizes away
    p, g, _ = built(256, 7, beta=0.1)
    assert g.is_dirichlet
    _, g0, _ = built(256, 7, beta=0.0)
    assert np.allclose(g.samples, g0.samples)
    # a wide roll-off does not degenerate
    _, gw, _ = built(256, 7, beta=0.5)
    assert not gw.is_dirichlet


def test_dirichlet_kind_equals_beta_zero_rc():
    _, g_rc, _ = built(8, 4, beta=0.0, filter_kind="rc")
    _, g_d, _ = built(8, 4, beta=0.7, filter_kind="dirichlet")
    assert np.allclose(g_rc.samples, g_d.samples)


def test_shifted_filter_bruteforce(rng):
    p, g, _ = built(8, 4, beta=0.5)
    N, K, M = p.N, p.K, p.M
    for k, m in [(0, 0), (3, 1), (7, 3), (5, 2)]:
        got = shifted_filter(g, k, m, K, M)
        want = np.array(
            [g.samples[(n - m * K) % N] * np.exp(-2j * np.pi * k * n / K) for n in range(N)]
        )
        assert np.allclose(got, want, atol=1e-13)


def test_shifted_filter_index_errors():
    _, g, _ = built(4, 2)
    with pytest.raises(IndexError):
        shifted_filter(g, 4, 0, 4, 2)
    with pytest.raises(IndexError):
        shifted_filter(g, 0, 2, 4, 2)


def test_transmit_matrix_columns_are_shifted_filters():
    p, g, tm = built(8, 3, beta=0.4)
    for k in range(p.K):
        for m in range(p.M):
            assert np.allclose(tm.A[:, m * p.K + k], shifted_filter(g, k, m, p.K, p.M))


def test_transmit_matrix_unit_norm_columns():
    _, _, tm = built(16, 7, beta=0.5)
    assert np.allclose(np.linalg.norm(tm.A, axis=0), 1.0)


def test_inverse_is_actual_inverse():
    for K, M, beta in [(4, 2, 0.5), (8, 4, 0.1), (16, 7, 0.5), (4, 2, 0.0)]:
        p, _, tm = built(K, M, beta=beta)
        assert np.allclose(tm.demodulate(tm.A), np.eye(p.N), atol=1e-9)


def test_unitary_at_beta_zero():
    for K, M in [(4, 2), (8, 4), (256, 7)]:
        p, g, tm = built(K, M, beta=0.0)
        assert g.is_dirichlet
        resid = np.linalg.norm(tm.A.conj().T @ tm.A - np.eye(p.N)) / np.sqrt(p.N)
        assert resid <= 1e-9


def test_subcarrier_zero_is_superposition_of_shifts(rng):
    # data on subcarrier 0 only: x = sum_m d_m * roll(g, m*K)
    p, g, tm = built(8, 4, beta=0.3)
    d = np.zeros(p.N, dtype=complex)
    coef = rng.standard_normal(p.M) + 1j * rng.standard_normal(p.M)
    for m in range(p.M):
        d[m * p.K] = coef[m]
    want = sum(coef[m] * np.roll(g.samples, m * p.K) for m in range(p.M))
    assert np.allclose(tm.A @ d, want)


def _relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("K", [4, 16])
@pytest.mark.parametrize("M", [1, 2, 4, 7])
@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5])
def test_structured_modulation_matches_dense_product(rng, K, M, beta):
    p, _, tm = built(K, M, beta=beta)
    d = rng.standard_normal(p.N) + 1j * rng.standard_normal(p.N)
    x = tm.modulate(d)
    assert x.shape == (p.N,)
    assert _relative_error(x, tm.A @ d) <= 1e-12
    # symbol-major (Fortran-ordered) columns, as the experiment runners draw them
    D = np.asfortranarray(rng.standard_normal((p.N, 5)) + 1j * rng.standard_normal((p.N, 5)))
    X = tm.modulate(D)
    assert X.shape == (p.N, 5)
    assert _relative_error(X, tm.A @ D) <= 1e-12
    with pytest.raises(ValueError):
        tm.modulate(np.zeros(p.N + 1))
    with pytest.raises(ValueError):
        tm.modulate(np.zeros((p.N, 2, 2)))


def test_structured_modulation_matches_dense_product_at_paper_size(rng):
    p, g, tm = built(256, 7, beta=0.5)
    assert not g.is_dirichlet
    D = rng.standard_normal((p.N, 40)) + 1j * rng.standard_normal((p.N, 40))
    assert _relative_error(tm.modulate(D), tm.A @ D) <= 1e-12


@pytest.mark.parametrize("K", [4, 16])
@pytest.mark.parametrize("M", [1, 2, 4, 7])
@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5])
def test_structured_demodulation_and_adjoint_match_dense(rng, K, M, beta):
    p, _, tm = built(K, M, beta=beta)
    A = tm.A
    y = rng.standard_normal(p.N) + 1j * rng.standard_normal(p.N)
    Y = np.asfortranarray(rng.standard_normal((p.N, 5)) + 1j * rng.standard_normal((p.N, 5)))
    for data in (y, Y):
        d = tm.demodulate(data)
        assert d.shape == data.shape
        assert _relative_error(d, np.linalg.solve(A, data)) <= 1e-12
        a = tm.adjoint(data)
        assert a.shape == data.shape
        assert _relative_error(a, A.conj().T @ data) <= 1e-12
    with pytest.raises(ValueError):
        tm.demodulate(np.zeros(p.N + 1))
    with pytest.raises(ValueError):
        tm.adjoint(np.zeros((p.N, 2, 2)))


def test_structured_demodulation_and_adjoint_match_dense_at_paper_size(rng):
    p, g, tm = built(256, 7, beta=0.5)
    assert not g.is_dirichlet
    A = tm.A
    Y = rng.standard_normal((p.N, 40)) + 1j * rng.standard_normal((p.N, 40))
    assert _relative_error(tm.demodulate(Y), np.linalg.solve(A, Y)) <= 1e-12
    assert _relative_error(tm.adjoint(Y), A.conj().T @ Y) <= 1e-12


def test_block_structure_at_beta_zero():
    """At beta = 0 the matrix factors as IDFT x (per-subsymbol phase ramps
    applied to a block-constant spreading matrix), up to a fixed time
    modulation, a subcarrier reversal, and per-column phases.

    The spreading structure: column (k, m) of the reference matrix is the
    inverse DFT of sqrt(K) e^{-j2pi m l / M} restricted to bins kM..(k+1)M-1.
    """
    for K, M in [(4, 3), (8, 4), (16, 7)]:
        p, g, tm = built(K, M, beta=0.0)
        N = p.N
        n = np.arange(N)
        ref = np.empty((N, N), dtype=complex)
        for m in range(M):
            phi = np.exp(-2j * np.pi * m * n / M)
            for k in range(K):
                spec = np.zeros(N, dtype=complex)
                spec[k * M : (k + 1) * M] = np.sqrt(K) * phi[k * M : (k + 1) * M]
                ref[:, m * K + k] = np.fft.ifft(spec)
        # our prototype centers its bins around DC: lowest occupied bin s
        s = -(M // 2)
        time_mod = np.exp(2j * np.pi * s * n / N)
        for m in range(M):
            col_phase = np.exp(-2j * np.pi * s * m / M)
            for k in range(K):
                want = time_mod * ref[:, m * K + ((-k) % K)] * col_phase
                assert np.allclose(tm.A[:, m * K + k], want, atol=1e-12)


@pytest.mark.parametrize("K,M,beta", [(8, 4, 0.5), (16, 7, 0.3), (16, 7, 0.5), (4, 2, 0.0)])
def test_condition_from_polyphase_matches_svd(K, M, beta):
    _, _, tm = built(K, M, beta=beta)
    assert abs(tm.cond - np.linalg.cond(tm.A)) <= 1e-10 * tm.cond


def test_pulse_with_zero_polyphase_bin_is_singular():
    # equal samples on every residue: fft_M is zero off its first bin
    p = WaveformParams(K=4, M=2, beta=0.5)
    g = PrototypeFilter(samples=np.full(p.N, 1 / np.sqrt(p.N), dtype=complex), kind="rc", beta=0.5)
    with pytest.raises(SingularMatrixError) as err:
        build_transmit_matrix(g, p)
    assert np.isinf(err.value.cond)


def test_even_m_edge_convention_keeps_matrix_invertible():
    # equal edge bins would make these exactly singular
    for K, M, beta in [(4, 2, 0.5), (8, 4, 0.1), (8, 4, 0.5)]:
        p = WaveformParams(K=K, M=M, beta=beta)
        g = prototype_filter(p)
        tm = build_transmit_matrix(g, p)
        assert np.allclose(tm.demodulate(tm.A), np.eye(p.N), atol=1e-8)
