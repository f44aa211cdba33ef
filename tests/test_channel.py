import numpy as np
import pytest
from scipy.special import j0

from conftest import dense_taps
from ncgfdm.channel import (
    ChannelProfile,
    ChannelRealization,
    DeepFadeError,
    JakesFadingProcess,
    apply_channel,
    awgn,
    eva_profile,
    zf_equalize,
)


def test_eva_tap_positions_at_lte_rate():
    prof = eva_profile(sample_interval_ns=9.3)
    assert list(prof.tap_positions()) == [0, 3, 16, 33, 40, 76, 117, 186, 270]


def test_eva_powers_normalized():
    prof = eva_profile()
    p = prof.linear_powers()
    assert abs(p.sum() - 1.0) < 1e-12
    # ordering survives normalization: strongest path is the first (0 dB)
    assert np.argmax(p) == 0
    assert p[8] / p[0] == pytest.approx(10 ** (-16.9 / 10))


def test_profile_validation():
    with pytest.raises(ValueError):
        ChannelProfile((0.0, 30.0), (0.0,))
    with pytest.raises(ValueError):
        ChannelProfile((30.0, 10.0), (0.0, -1.0))
    with pytest.raises(ValueError):
        ChannelProfile((-5.0, 10.0), (0.0, -1.0))
    with pytest.raises(ValueError):
        ChannelProfile((), ())


def test_profile_rejects_a_sample_interval_whose_delays_overflow_the_tap_positions():
    # at 1e-300 ns every tap position once read -2^63, below any block length
    for dt in (1e-300, 2.72e-16):
        with pytest.raises(ValueError, match=rf"^sample_interval_ns = {dt!r} puts the 2510 ns"):
            eva_profile(sample_interval_ns=dt)
    # the smallest delays in range still give exact positions
    assert eva_profile(sample_interval_ns=2.8e-16).tap_positions()[-1] == 8964285714285713408


@pytest.mark.parametrize("name", ["sample_interval_ns", "doppler_hz"])
def test_profile_rejects_a_boolean_setting_by_name(name):
    # bool is a Real, but True is neither a sample interval nor a Doppler shift
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number >=? 0, got True$"):
        eva_profile(**{name: True})


def test_apply_channel_matches_direct_circular_convolution(rng):
    N = 32
    taps = np.zeros(N, dtype=complex)
    taps[[0, 3, 7]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = ChannelRealization.from_paths([0, 3, 7], taps[[0, 3, 7]], N)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    want = np.array(
        [sum(taps[l] * x[(n - l) % N] for l in range(N)) for n in range(N)]
    )
    # a CP covering the largest delay (7) leaves the circular product
    assert np.allclose(apply_channel(h, x, 7), want, atol=1e-12)
    # row-wise application agrees with per-row calls
    X = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
    got = apply_channel(h, X, 7)
    for j in range(3):
        assert np.allclose(got[j], apply_channel(h, X[j], 7))


def test_apply_channel_length_mismatch():
    h = ChannelRealization.from_paths(np.arange(8), np.ones(8), 8)
    with pytest.raises(ValueError):
        apply_channel(h, np.zeros(9), 7)


def test_awgn_moments_and_circularity():
    gen = np.random.default_rng(5)
    n = 200_000
    y = awgn(np.zeros(n), 2.5, gen)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(2.5, rel=0.02)
    # circular symmetry: E[y^2] = 0 and equal per-quadrature variance
    assert abs(np.mean(y**2)) < 0.02
    assert np.var(y.real) == pytest.approx(1.25, rel=0.03)
    assert np.var(y.imag) == pytest.approx(1.25, rel=0.03)


def test_awgn_zero_variance_is_identity(rng):
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.array_equal(awgn(x, 0.0, rng), x)
    with pytest.raises(ValueError):
        awgn(x, -1.0, rng)


def test_jakes_autocorrelation_follows_bessel():
    """Empirical gain autocorrelation tracks J0(2 pi f_D tau).

    Averaged over many independent processes; the sum-of-sinusoids model
    converges slowly, so the tolerance is loose.
    """
    prof = eva_profile(doppler_hz=100.0)
    t_sym = 1e-4
    lags = np.arange(0, 40, 8)
    acc = np.zeros(lags.size, dtype=complex)
    n_proc = 400
    gen = np.random.default_rng(11)
    for _ in range(n_proc):
        proc = JakesFadingProcess(prof, block_len=512, symbol_duration_s=t_sym, rng=gen)
        g = np.array([proc.gains(int(i))[0] for i in range(lags.max() + 1)])
        acc += g[lags] * np.conj(g[0])
    acorr = (acc / n_proc).real
    want = j0(2 * np.pi * 100.0 * lags * t_sym)
    assert np.max(np.abs(acorr - want)) < 0.12


def test_jakes_gains_unit_mean_power():
    prof = eva_profile()
    gen = np.random.default_rng(2)
    total = 0.0
    n_proc = 2000
    for _ in range(n_proc):
        proc = JakesFadingProcess(prof, block_len=512, symbol_duration_s=1e-4, rng=gen)
        total += np.mean(np.abs(proc.gains(0)) ** 2)
    assert total / n_proc == pytest.approx(1.0, rel=0.05)


def test_realization_energy_and_sparsity():
    prof = eva_profile()
    h = JakesFadingProcess(prof, 512, 1e-4, np.random.default_rng(3)).realization(0)
    nz = np.flatnonzero(dense_taps(h))
    assert list(nz) == [0, 3, 16, 33, 40, 76, 117, 186, 270]
    assert np.allclose(h.H_diag, np.fft.fft(dense_taps(h)))


def test_realization_rejects_short_block():
    prof = eva_profile()
    with pytest.raises(ValueError):
        JakesFadingProcess(prof, 128, 1e-4, np.random.default_rng(0)).realization(0)


def test_cyclic_prefix_absorbs_delay_spread(rng):
    """CP theorem: linear convolution of [cp | core], windowed to the core,
    equals the circular convolution of the core when the delay spread fits
    inside the prefix."""
    N, n_cp = 64, 12
    taps_short = np.zeros(N, dtype=complex)
    taps_short[[0, 4, 11]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = ChannelRealization.from_paths([0, 4, 11], taps_short[[0, 4, 11]], N)
    core = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    frame = np.concatenate([core[-n_cp:], core])
    lin = np.convolve(frame, taps_short[:12])[n_cp : n_cp + N]
    assert np.allclose(lin, apply_channel(h, core, n_cp), atol=1e-12)


def test_zf_equalize_inverts_channel(rng):
    N = 64
    prof = eva_profile()
    h = JakesFadingProcess(prof, 512, 1e-4, np.random.default_rng(9)).realization(0)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    y = apply_channel(h, x, 270)
    assert np.allclose(zf_equalize(h, y), x, atol=1e-9)
    with pytest.raises(ValueError):
        zf_equalize(h, np.zeros(N))


def test_zf_deep_fade_detection():
    # taps [1, -1, 0, ...] put an exact spectral null at bin 0
    h = ChannelRealization.from_paths([0, 1], [1.0, -1.0], 16)
    with pytest.raises(DeepFadeError) as info:
        zf_equalize(h, np.ones(16, dtype=complex))
    assert info.value.bin_index == 0
    # batched: every block is checked and the first faded one is named
    gains = np.zeros((3, 3), dtype=complex)
    gains[:, 0] = 1.0
    gains[1, 1], gains[2, 2] = -1.0, 0.5
    h = ChannelRealization.from_paths([0, 1, 2], gains, 16, symbols=np.array([40, 41, 42]))
    with pytest.raises(DeepFadeError, match="bin 0 of symbol 41") as info:
        zf_equalize(h, np.ones((3, 16), dtype=complex))
    assert (info.value.bin_index, info.value.symbol_index) == (0, 41)
    # a NaN bin compares False with ZF_MIN_GAIN either way, so it once passed
    gains[1, 1], gains[2, 2] = 0.5, np.nan
    h = ChannelRealization.from_paths([0, 1, 2], gains, 16, symbols=np.array([40, 41, 42]))
    with pytest.raises(DeepFadeError, match="bin 0 of symbol 42 magnitude nan") as info:
        zf_equalize(h, np.ones((3, 16), dtype=complex))
    assert (info.value.bin_index, info.value.symbol_index) == (0, 42)


def test_awgn_per_row_draws_match_per_row_calls():
    x = np.arange(12.0).reshape(3, 4) * (1 + 1j)
    got = awgn(x, 0.5, np.random.default_rng(4))
    gen = np.random.default_rng(4)
    want = np.array([awgn(row, 0.5, gen) for row in x])
    assert np.array_equal(got, want)


def test_batched_gains_and_realizations_equal_per_index_calls():
    proc = JakesFadingProcess(eva_profile(), 512, 2.2e-5, np.random.default_rng(6))
    idx = np.array([0, 1, 7, 279, 280, 5000])
    gains = proc.gains(idx)
    h = proc.realization(idx)
    assert gains.shape == (idx.size, 9) and h.H_diag.shape == (idx.size, 512)
    for j, i in enumerate(idx):
        one = proc.realization(int(i))
        assert np.array_equal(gains[j], proc.gains(int(i)))
        assert np.array_equal(h.delays, one.delays)
        assert np.array_equal(h.gains[j], one.gains)
        # a 9-term sum per bin; the batched and the single product take
        # different BLAS kernels (gemm, gemv), which round it differently
        assert np.allclose(h.H_diag[j], one.H_diag, rtol=0, atol=1e-14)
    assert list(h.symbols) == list(idx)
    # the sum over paths is the DFT of the dense response
    assert np.allclose(h.H_diag, np.fft.fft(dense_taps(h)), rtol=0, atol=1e-14)


def framed_convolution(taps, cores, n_cp):
    """Oracle: the tapped-delay line run sample by sample over the framed
    stream [core_0[-n_cp:], core_0, core_1[-n_cp:], core_1, ...] with zeros
    before it, each output sample weighted by its own block's taps, and the
    CP of every block dropped afterwards."""
    count, N = cores.shape
    L = N + n_cp
    stream = np.concatenate([np.concatenate([c[N - n_cp :], c]) for c in cores])
    out = np.empty((count, N), dtype=complex)
    for i in range(count):
        delays = np.flatnonzero(taps[i])
        for r in range(N):
            n = i * L + n_cp + r
            out[i, r] = sum(taps[i, d] * stream[n - d] for d in delays if n >= d)
    return out


@pytest.mark.parametrize("n_cp", [280, 100, 0])
def test_framed_channel_matches_direct_convolution(n_cp):
    """EVA's last path is 270 samples: inside the CP at 280, past it at 100 and 0."""
    N, count, split = 512, 5, 2
    proc = JakesFadingProcess(eva_profile(), N, 1e-4, np.random.default_rng(8))
    h = proc.realization(np.arange(count))
    gen = np.random.default_rng(n_cp)
    X = gen.standard_normal((count, N)) + 1j * gen.standard_normal((count, N))
    want = framed_convolution(dense_taps(h), X, n_cp)
    framed = apply_channel(h, X, n_cp)
    assert np.allclose(framed, want, rtol=0, atol=1e-12)
    # a stream split in two chunks continues from the carried tail, of which
    # only the samples that reach past the CP are needed
    first = ChannelRealization.from_paths(h.delays, h.gains[:split], N)
    second = ChannelRealization.from_paths(h.delays, h.gains[split:], N)
    tail = X[split - 1, N - 270 + n_cp :] if n_cp < 270 else None
    got = np.vstack(
        [apply_channel(first, X[:split], n_cp), apply_channel(second, X[split:], n_cp, tail)]
    )
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # it equals the per-block circular product exactly when the CP covers
    # the delay spread; otherwise the ISI shows
    circular = np.array([apply_channel(proc.realization(i), X[i], 270) for i in range(count)])
    assert np.allclose(framed, circular, rtol=0, atol=1e-12) == (n_cp >= 270)


def test_framed_channel_rejects_a_short_tail():
    h = JakesFadingProcess(eva_profile(), 512, 1e-4, np.random.default_rng(1)).realization(0)
    with pytest.raises(ValueError, match="tail of 100 samples"):
        apply_channel(h, np.ones(512), 100, np.zeros(100))
