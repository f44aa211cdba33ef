import numpy as np
import pytest

from conftest import built, built_ops, dense_p_tilde
from ncgfdm.channel import JakesFadingProcess, eva_profile, zf_equalize
from ncgfdm.params import SeededRng, decision_labels, qam_constellation
from ncgfdm.smoothing import smooth_stream
from ncgfdm.spectrum import psd_sample_stream
from ncgfdm.transceiver import recover_iterative


def random_symbols(c, N, count, seed=0):
    gen = SeededRng(seed).generator
    return c.points[gen.integers(0, c.points.size, size=(N, count))]


def test_modulate_matches_double_sum_oracle(rng):
    """x[n] = sum_k sum_m d[k,m] g[(n - mK) mod N] e^{-j 2 pi k n / K}."""
    p, g, tm = built(4, 3, beta=0.4)
    d = rng.standard_normal(p.N) + 1j * rng.standard_normal(p.N)
    n = np.arange(p.N)
    want = np.zeros(p.N, dtype=complex)
    for k in range(p.K):
        for m in range(p.M):
            want += d[m * p.K + k] * g.samples[(n - m * p.K) % p.N] * np.exp(
                -2j * np.pi * k * n / p.K
            )
    assert np.allclose(tm.modulate(d), want, atol=1e-12)


def test_modulate_shape_handling(rng):
    p, _, tm = built(4, 2)
    D = rng.standard_normal((p.N, 3)) + 0j
    X = tm.modulate(D)
    assert X.shape == (p.N, 3)
    assert np.allclose(X[:, 1], tm.modulate(D[:, 1]))
    with pytest.raises(ValueError):
        tm.modulate(np.zeros(p.N + 1))
    with pytest.raises(ValueError):
        tm.modulate(np.zeros((2, 2, 2)))


def test_cyclic_prefix_roundtrip(rng):
    # at oversample 1 the PSD sample stream is the plain CP-framed stream
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    framed = psd_sample_stream(x, 5, 1)
    assert framed.size == 21
    assert np.array_equal(framed[:5], x[-5:])
    assert np.array_equal(framed[5:], x)
    with pytest.raises(ValueError):
        psd_sample_stream(x, 16, 1)
    with pytest.raises(ValueError):
        psd_sample_stream(x, -1, 1)


def test_frame_unframe_roundtrip(rng):
    N, n_cp, count = 12, 4, 5
    X = rng.standard_normal((N, count)) + 1j * rng.standard_normal((N, count))
    stream = psd_sample_stream(X, n_cp, 1)
    assert stream.size == (N + n_cp) * count
    # symbol i occupies a contiguous block, prefix first
    block = stream[(N + n_cp) * 2 : (N + n_cp) * 3]
    assert np.array_equal(block[:n_cp], X[-n_cp:, 2])
    assert np.array_equal(block[n_cp:], X[:, 2])
    assert np.array_equal(stream.reshape(count, N + n_cp)[:, n_cp:].T, X)


def test_zf_demodulation_inverts_modulation(rng):
    p, _, tm = built(8, 4, beta=0.5)
    d = rng.standard_normal(p.N) + 1j * rng.standard_normal(p.N)
    assert np.allclose(tm.demodulate(tm.modulate(d)), d, atol=1e-10)


def test_transmit_stream_fields(qam16):
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_symbols(qam16, p.N, 4)
    X, B, _ = smooth_stream(ops, D)
    waveform = psd_sample_stream(X, p.n_cp, 1)
    assert waveform.size == (p.N + p.n_cp) * 4
    # each core carries the effective data d + A^-1 Q b
    assert np.allclose(X, ops.tm.A @ (D + ops.A_inv_Q @ B), atol=1e-11)
    # unframed waveform gives back the smoothed cores
    assert np.allclose(waveform.reshape(4, -1)[:, p.n_cp :].T, X)


def test_recovery_perfect_decision_fixed_point(qam16):
    # if the hard decisions already equal the data, one round recovers it
    p, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = random_symbols(qam16, p.N, 3, seed=5)
    X, _, _ = smooth_stream(ops, D)
    # second symbol onward carries a nonzero smooth component
    y = X[:, 1]
    z = np.linalg.inv(ops.tm.A) @ y
    b = (ops.P_f_inv @ ops.P_2) @ (z - D[:, 1])
    soft = z - ops.A_inv_Q @ b
    assert np.allclose(soft, D[:, 1], atol=1e-10)


def test_recovery_converges_noiselessly_at_large_n(qam16):
    p, _, _, ops = built_ops(256, 7, 280, 0.1, 2)
    D = random_symbols(qam16, p.N, 6, seed=1)
    X, _, _ = smooth_stream(ops, D)
    soft = recover_iterative(ops, X, qam16, n_iter=4)
    labels = decision_labels(soft, qam16)
    assert np.array_equal(labels, decision_labels(D, qam16))
    assert np.allclose(soft, D, atol=1e-9)


def test_recovery_error_count_nonincreasing(qam16):
    p, _, _, ops = built_ops(256, 7, 280, 0.1, 4)
    D = random_symbols(qam16, p.N, 4, seed=2)
    X, _, _ = smooth_stream(ops, D)
    # recovery is deterministic, so n_iter = r gives the r-th round's estimate
    errors = [
        int(np.count_nonzero(decision_labels(s, qam16) != decision_labels(D, qam16)))
        for s in (recover_iterative(ops, X, qam16, n_iter=r) for r in range(1, 6))
    ]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[-1] == 0


def test_recovery_first_iteration_is_projection_complement(qam16):
    # with d_hat(0) = 0 the first soft output is (I - P_tilde) applied to
    # the effective data
    p, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = random_symbols(qam16, p.N, 2, seed=3)
    X, B, _ = smooth_stream(ops, D)
    soft = recover_iterative(ops, X[:, 1], qam16, n_iter=1)
    want = (np.eye(p.N) - dense_p_tilde(ops)) @ (D + ops.A_inv_Q @ B)[:, 1]
    assert soft.shape == (p.N,)
    assert np.allclose(soft, want, atol=1e-10)


def test_recovery_keeps_no_unrequested_trajectory(qam16):
    # no per-round copy of the soft estimates may outlive its round: the
    # working set stays near five input sizes (measured 5.0x here), where
    # keeping all eight rounds costs 12x
    import tracemalloc

    p, _, _, ops = built_ops(64, 7, 64, 0.1, 2)
    Y = random_symbols(qam16, p.N, 2000, seed=4)
    tracemalloc.start()
    try:
        recover_iterative(ops, Y, qam16, n_iter=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * Y.nbytes


def test_recovery_requires_positive_iterations(qam16):
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    with pytest.raises(ValueError):
        recover_iterative(ops, np.zeros(p.N), qam16, n_iter=0)


def test_full_chain_over_fading_channel(qam16):
    # one smoothed frame through EVA fading, ZF equalization, and recovery
    p, _, _, ops = built_ops(256, 7, 280, 0.1, 2)
    D = random_symbols(qam16, p.N, 3, seed=9)
    X, _, _ = smooth_stream(ops, D)
    framed = psd_sample_stream(X, p.n_cp, 1).reshape(p.N + p.n_cp, -1, order="F")
    h = JakesFadingProcess(eva_profile(), p.N, 1e-4, np.random.default_rng(7)).realization(0)
    cores = np.empty((p.N, 3), dtype=complex)
    for i in range(3):
        rx = np.convolve(framed[:, i], np.trim_zeros(h.taps, "b"))[: p.N + p.n_cp]
        cores[:, i] = zf_equalize(h, rx[p.n_cp :])
    soft = recover_iterative(ops, cores, qam16, n_iter=6)
    assert np.array_equal(decision_labels(soft, qam16), decision_labels(D, qam16))
