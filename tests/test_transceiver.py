import numpy as np
import pytest

from conftest import built, built_ops, dense_p_tilde
from ncgfdm.channel import JakesFadingProcess, eva_profile, zf_equalize
from ncgfdm.params import SeededRng, decision_labels, qam_constellation, vector_to_grid
from ncgfdm.transceiver import (
    TransmitResult,
    add_cyclic_prefix,
    demodulate,
    frame_stream,
    gfdm_modulate,
    nc_transmit_stream,
    recover_iterative,
    strip_cyclic_prefix,
    unframe_stream,
)


def random_symbols(c, N, count, seed=0):
    gen = SeededRng(seed).generator
    return c.points[gen.integers(0, c.points.size, size=(N, count))]


def test_modulate_matches_double_sum_oracle(rng):
    """x[n] = sum_k sum_m d[k,m] g[(n - mK) mod N] e^{-j 2 pi k n / K}."""
    p, g, tm = built(4, 3, beta=0.4)
    d = rng.standard_normal(p.N) + 1j * rng.standard_normal(p.N)
    grid = vector_to_grid(d, p.K, p.M)
    n = np.arange(p.N)
    want = np.zeros(p.N, dtype=complex)
    for k in range(p.K):
        for m in range(p.M):
            want += grid[k, m] * g.samples[(n - m * p.K) % p.N] * np.exp(
                -2j * np.pi * k * n / p.K
            )
    assert np.allclose(gfdm_modulate(tm, d), want, atol=1e-12)


def test_modulate_shape_handling(rng):
    p, _, tm = built(4, 2)
    D = rng.standard_normal((p.N, 3)) + 0j
    X = gfdm_modulate(tm, D)
    assert X.shape == (p.N, 3)
    assert np.allclose(X[:, 1], gfdm_modulate(tm, D[:, 1]))
    with pytest.raises(ValueError):
        gfdm_modulate(tm, np.zeros(p.N + 1))
    with pytest.raises(ValueError):
        gfdm_modulate(tm, np.zeros((2, 2, 2)))


def test_cyclic_prefix_roundtrip(rng):
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    framed = add_cyclic_prefix(x, 5)
    assert framed.size == 21
    assert np.array_equal(framed[:5], x[-5:])
    assert np.array_equal(strip_cyclic_prefix(framed, 5), x)
    with pytest.raises(ValueError):
        add_cyclic_prefix(x, 16)
    with pytest.raises(ValueError):
        strip_cyclic_prefix(framed, -1)


def test_frame_unframe_roundtrip(rng):
    N, n_cp, count = 12, 4, 5
    X = rng.standard_normal((N, count)) + 1j * rng.standard_normal((N, count))
    stream = frame_stream(X, n_cp)
    assert stream.size == (N + n_cp) * count
    # symbol i occupies a contiguous block, prefix first
    block = stream[(N + n_cp) * 2 : (N + n_cp) * 3]
    assert np.array_equal(block[:n_cp], X[-n_cp:, 2])
    assert np.array_equal(block[n_cp:], X[:, 2])
    assert np.array_equal(unframe_stream(stream, N, n_cp), X)
    with pytest.raises(ValueError):
        unframe_stream(stream[:-1], N, n_cp)


def test_zf_demodulation_inverts_modulation(rng):
    p, _, tm = built(8, 4, beta=0.5)
    d = rng.standard_normal(p.N) + 1j * rng.standard_normal(p.N)
    assert np.allclose(demodulate(tm, gfdm_modulate(tm, d)), d, atol=1e-10)


def test_transmit_stream_fields(qam16):
    p, _, _, ops = built_ops(8, 4, 8, 0.3, 2)
    D = random_symbols(qam16, p.N, 4)
    res = nc_transmit_stream(ops, D)
    assert isinstance(res, TransmitResult)
    assert res.waveform.size == (p.N + p.n_cp) * 4
    assert np.allclose(res.cores, ops.tm.A @ res.data_effective, atol=1e-11)
    assert np.allclose(res.data_effective, res.data + res.smooth_equivalent, atol=1e-12)
    # unframed waveform gives back the smoothed cores
    assert np.allclose(unframe_stream(res.waveform, p.N, p.n_cp), res.cores)


def test_recovery_perfect_decision_fixed_point(qam16):
    # if the hard decisions already equal the data, one round recovers it
    p, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = random_symbols(qam16, p.N, 3, seed=5)
    res = nc_transmit_stream(ops, D)
    # second symbol onward carries a nonzero smooth component
    y = res.cores[:, 1]
    z = np.linalg.inv(ops.tm.A) @ y
    b = (ops.P_f_inv @ ops.P_2) @ (z - D[:, 1])
    soft = z - ops.A_inv_Q @ b
    assert np.allclose(soft, D[:, 1], atol=1e-10)


def test_recovery_converges_noiselessly_at_large_n(qam16):
    p, _, _, ops = built_ops(256, 7, 280, 0.1, 2)
    D = random_symbols(qam16, p.N, 6, seed=1)
    res = nc_transmit_stream(ops, D)
    soft = recover_iterative(ops, res.cores, qam16, n_iter=4)
    labels = decision_labels(soft, qam16)
    assert np.array_equal(labels, decision_labels(D, qam16))
    assert np.allclose(soft, D, atol=1e-9)


def test_recovery_error_count_nonincreasing(qam16):
    p, _, _, ops = built_ops(256, 7, 280, 0.1, 4)
    D = random_symbols(qam16, p.N, 4, seed=2)
    res = nc_transmit_stream(ops, D)
    _, traj = recover_iterative(ops, res.cores, qam16, n_iter=5, return_trajectory=True)
    errors = [
        int(np.count_nonzero(decision_labels(s, qam16) != decision_labels(D, qam16)))
        for s in traj
    ]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[-1] == 0


def test_recovery_first_iteration_is_projection_complement(qam16):
    # with d_hat(0) = 0 the first soft output is (I - P_tilde) applied to
    # the effective data
    p, _, _, ops = built_ops(16, 7, 16, 0.3, 2)
    D = random_symbols(qam16, p.N, 2, seed=3)
    res = nc_transmit_stream(ops, D)
    _, traj = recover_iterative(ops, res.cores[:, 1], qam16, n_iter=1, return_trajectory=True)
    want = (np.eye(p.N) - dense_p_tilde(ops)) @ res.data_effective[:, 1]
    assert np.allclose(traj[0], want, atol=1e-10)


def test_recovery_keeps_no_unrequested_trajectory(qam16):
    # without return_trajectory no per-round copy of the soft estimates may
    # outlive its round: the working set stays near five input sizes
    # (measured 5.0x here), where keeping all eight rounds costs 12x
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
    res = nc_transmit_stream(ops, D)
    framed = res.waveform.reshape(p.N + p.n_cp, -1, order="F")
    h = JakesFadingProcess(eva_profile(), p.N, 1e-4, np.random.default_rng(7)).realization(0)
    cores = np.empty((p.N, 3), dtype=complex)
    for i in range(3):
        rx = np.convolve(framed[:, i], np.trim_zeros(h.taps, "b"))[: p.N + p.n_cp]
        cores[:, i] = zf_equalize(h, rx[p.n_cp :])
    soft = recover_iterative(ops, cores, qam16, n_iter=6)
    assert np.array_equal(decision_labels(soft, qam16), decision_labels(D, qam16))
