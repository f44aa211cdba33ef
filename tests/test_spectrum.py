import tracemalloc

import numpy as np
import pytest
import scipy.signal

from conftest import (
    built_ops,
    dense_p_hat,
    dense_p_tilde,
    oversample_symbol,
    reference_empirical_sir,
    reference_psd_sample_stream,
    reference_welch,
)
from ncgfdm.params import SeededRng, qam_constellation
from ncgfdm.smoothing import coefficient_stream, smooth_stream
from ncgfdm.spectrum import (
    PsdEstimate,
    WelchAccumulator,
    closed_form_sir,
    empirical_sir,
    mc_smooth_power,
    normalize_inband,
    psd_sample_stream,
    sidelobe_level,
    sir_report,
    welch_psd,
)


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _unrecentred(stream, ov):
    """The stream times the conjugate recentring phase exp(+j pi n / ov)."""
    if ov == 1:
        return stream
    return stream * np.exp(1j * np.pi * np.arange(stream.size) / ov)


def test_oversample_symbol_interpolates_original_samples(rng):
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    up = _unrecentred(psd_sample_stream(x, 0, 4), 4)
    assert up.size == 128
    assert np.allclose(up[::4], x, atol=1e-12)
    assert np.array_equal(psd_sample_stream(x, 0, 1), x)
    with pytest.raises(ValueError):
        psd_sample_stream(x, 0, 0)


def test_oversample_stream_tone_and_energy(rng):
    n, ov = 64, 4
    k = 5
    tone = np.exp(2j * np.pi * k * np.arange(n) / n)
    up = _unrecentred(psd_sample_stream(tone, 0, ov), ov)
    spec = np.fft.fft(up)
    # the tone stays on bin k of the widened grid
    assert np.argmax(np.abs(spec)) == k
    # Parseval with the rate compensation: energy scales by the factor
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    upx = _unrecentred(psd_sample_stream(x, 0, ov), ov)
    assert np.sum(np.abs(upx) ** 2) == pytest.approx(ov * np.sum(np.abs(x) ** 2))


def test_psd_sample_stream_layout(rng):
    N, n_cp, ov = 16, 4, 2
    cores = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    stream = _unrecentred(psd_sample_stream(cores, n_cp, ov), ov)
    block = (N + n_cp) * ov
    assert stream.size == block * 3
    up = oversample_symbol(cores[:, 1], ov)
    sym = stream[block : 2 * block]
    assert np.allclose(sym[: n_cp * ov], up[-n_cp * ov :])
    assert np.allclose(sym[n_cp * ov :], up)


@pytest.mark.parametrize(
    "N,n_cp,count",
    [(12, 3, 5), (12, 0, 4), (16, 4, 3), (1, 0, 7)],  # N + n_cp = 15 is odd
)
@pytest.mark.parametrize("ov", [1, 2, 3, 4])
@pytest.mark.parametrize("recenter", [True, False])
def test_psd_sample_stream_matches_column_reference(rng, N, n_cp, count, ov, recenter):
    cores = rng.standard_normal((N, count)) + 1j * rng.standard_normal((N, count))
    want = reference_psd_sample_stream(cores, n_cp, ov, recenter)
    got = psd_sample_stream(cores, n_cp, ov)
    # a single core given as a vector frames like a one-column matrix
    one = psd_sample_stream(cores[:, 0], n_cp, ov)
    if not recenter:
        got, one = _unrecentred(got, ov), _unrecentred(one, ov)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(one, got[: (N + n_cp) * ov])


@pytest.mark.parametrize(
    "sizes",
    [
        [5000],  # one chunk holding more segments than one FFT batch
        [0, 7, 3, 5000, 0, 1, 40, 2],  # empty chunks and chunks shorter than a window
        [13, 13, 2100, 3, 11, 2900],  # splits inside a segment and inside a step
    ],
)
def test_batched_welch_matches_segment_loop(sizes):
    gen = np.random.default_rng(sum(sizes) + len(sizes))
    x = gen.standard_normal(sum(sizes)) + 1j * gen.standard_normal(sum(sizes))
    chunks = np.split(x, np.cumsum(sizes)[:-1])
    window_len, overlap = 16, 6
    acc = WelchAccumulator(window_len, overlap=overlap)
    for chunk in chunks:
        acc.process(chunk)
    want_acc, want_count, want_tail = reference_welch(chunks, window_len, overlap)
    assert acc._count == want_count
    assert acc._tail.size == want_tail.size
    assert np.array_equal(acc._tail, want_tail)
    assert np.max(np.abs(acc._acc - want_acc)) <= 1e-12 * np.max(want_acc)


def test_welch_process_does_not_copy_the_chunk():
    gen = np.random.default_rng(12)
    x = gen.standard_normal(2**20) + 1j * gen.standard_normal(2**20)
    acc = WelchAccumulator(512, overlap=128)
    acc.process(x[:1000])  # leave a tail to join
    assert _traced_peak(acc.process, x) < x.nbytes // 2


def test_welch_tone_peak(rng):
    n = 1 << 15
    f0 = 0.125
    x = np.exp(2j * np.pi * f0 * np.arange(n))
    x += 0.001 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    est = welch_psd(x, 1024)
    db = est.db()
    peak = np.argmax(db)
    assert abs(est.freqs[peak] - f0) < 1.5 / 1024
    assert db[peak] - np.median(db) > 40.0


def test_welch_white_noise_flat():
    gen = np.random.default_rng(8)
    x = (gen.standard_normal(1 << 19) + 1j * gen.standard_normal(1 << 19)) / np.sqrt(2)
    est = welch_psd(x, 256)
    db = est.db()
    assert np.max(np.abs(db - db.mean())) < 0.5
    # the per-bin mean equals the sample variance (unit here)
    assert est.psd.mean() == pytest.approx(1.0, rel=0.05)


def test_welch_amplitude_linearity(rng):
    x = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    a = welch_psd(x, 512).db()
    b = welch_psd(10.0 * x, 512).db()
    assert np.allclose(b - a, 20.0, atol=1e-9)


def test_streaming_matches_one_shot(rng):
    x = rng.standard_normal(9000) + 1j * rng.standard_normal(9000)
    one = welch_psd(x, 512, overlap=128)
    acc = WelchAccumulator(512, overlap=128)
    for start in range(0, 9000, 700):
        acc.process(x[start : start + 700])
    streamed = acc.result()
    assert streamed.segments == one.segments
    assert np.allclose(streamed.psd, one.psd, atol=1e-15)


@pytest.mark.parametrize("n", [8, 9, 1792, 1793])
def test_welch_window_is_scipy_periodic_hann_to_the_bit(n):
    assert np.array_equal(WelchAccumulator(n).window, scipy.signal.get_window("hann", n))


def test_welch_validation_errors():
    with pytest.raises(ValueError):
        WelchAccumulator(4)
    with pytest.raises(ValueError):
        WelchAccumulator(64, overlap=64)
    acc = WelchAccumulator(256)
    acc.process(np.zeros(100))
    with pytest.raises(ValueError):
        acc.result()


def test_normalize_and_sidelobe_level(rng):
    freqs = np.fft.fftshift(np.fft.fftfreq(256))
    psd = np.full(256, 1e-6)
    band = 0.25
    psd[np.abs(freqs) <= band / 2] = 2.0
    est = PsdEstimate(freqs=freqs, psd=psd, segments=1)
    norm = normalize_inband(est, band)
    assert norm.psd[np.abs(freqs) <= band / 2].mean() == pytest.approx(1.0)
    # far outside the band the level is -63 dB relative to in-band
    lvl = sidelobe_level(est, band, offset=0.2)
    assert lvl == pytest.approx(10 * np.log10(1e-6 / 2.0), abs=0.5)
    with pytest.raises(ValueError):
        sidelobe_level(est, band, offset=-0.01)
    with pytest.raises(ValueError):
        sidelobe_level(est, band, offset=0.6)
    with pytest.raises(ValueError):
        normalize_inband(est, -1.0)
    with pytest.raises(ValueError):
        normalize_inband(PsdEstimate(freqs=freqs, psd=np.zeros(256), segments=1), band)


def dense_power_oracle(ops, n_symbols):
    """Full N x N covariance recursion, straight from the definitions."""
    N = ops.params.N
    P_t, P_h = dense_p_tilde(ops), dense_p_hat(ops)
    E = np.eye(N, dtype=complex)
    smooth = [0.0]
    for _ in range(1, n_symbols):
        smooth.append(float(np.real(np.trace(P_h @ E @ P_h.conj().T + P_t @ P_t.conj().T))))
        E = (
            np.eye(N)
            - P_t
            - P_t.conj().T
            + P_t @ P_t.conj().T
            + P_h @ E @ P_h.conj().T
        )
    return np.array(smooth)


@pytest.mark.parametrize("K,M,n_cp,beta,V", [(8, 4, 8, 0.0, 2), (8, 4, 8, 0.5, 1)])
def test_low_rank_power_matches_dense_recursion(K, M, n_cp, beta, V):
    _, _, _, ops = built_ops(K, M, n_cp, beta, V)
    got = sir_report(ops, 8).smooth_power
    want = dense_power_oracle(ops, 8)
    assert np.allclose(got, want, rtol=1e-10)


def test_beta_zero_steady_power_and_sir():
    _, _, _, ops = built_ops(16, 7, 16, 0.0, 2)
    rep = sir_report(ops, 30)
    curve = rep.smooth_power
    assert curve[0] == 0.0
    assert curve[-1] == pytest.approx(2 * (ops.V + 1), rel=1e-9)
    assert rep.per_symbol_power[0] == ops.params.N
    assert rep.closed_form_db == pytest.approx(
        10 * np.log10(16 * 7 / (2 * (ops.V + 1)))
    )
    assert rep.sir_db[-1] == pytest.approx(rep.closed_form_db, abs=1e-6)
    with np.errstate(divide="ignore"):
        lin = ops.params.N / sir_report(ops, 5).smooth_power
    assert np.isinf(lin[0])
    assert np.all(np.isfinite(lin[1:]))


def test_closed_form_values():
    from ncgfdm.params import WaveformParams

    assert closed_form_sir(WaveformParams(K=256, M=7, n_cp=280, V=2)) == pytest.approx(
        24.75, abs=0.01
    )
    single = WaveformParams(K=256, M=1, n_cp=40, V=2)
    assert closed_form_sir(single) == pytest.approx(16.30, abs=0.01)
    diff = closed_form_sir(WaveformParams(K=256, M=7, n_cp=280, V=2)) - closed_form_sir(single)
    assert diff == pytest.approx(10 * np.log10(7), abs=1e-9)
    # beta = 0.1 at K=16, M=7 quantizes to the Dirichlet pulse
    assert closed_form_sir(WaveformParams(K=16, M=7, beta=0.1, V=2)) == pytest.approx(
        10 * np.log10(16 * 7 / 6)
    )
    with pytest.raises(ValueError):
        closed_form_sir(WaveformParams(K=8, M=4, beta=0.5, V=2))


def test_sir_report_attaches_closed_form_only_when_unitary():
    _, _, _, ops = built_ops(8, 4, 8, 0.5, 2)
    assert sir_report(ops, 4).closed_form_db is None
    _, _, _, unitary = built_ops(16, 7, 16, 0.1, 2)
    assert sir_report(unitary, 4).closed_form_db == pytest.approx(10 * np.log10(16 * 7 / 6))
    with pytest.raises(ValueError):
        sir_report(ops, 0)


def test_sir_report_prefix_equals_shorter_report():
    # run_sir reads the plateau after 8, 16, ..., 128 symbols off one
    # 128-symbol report; each prefix must be the shorter report, bit for bit
    _, _, _, ops = built_ops(16, 7, 16, 0.5, 2)
    full = sir_report(ops, 128)
    for n in (8, 16, 32, 64):
        short = sir_report(ops, n)
        assert np.array_equal(full.sir_db[:n], short.sir_db)
        assert np.array_equal(full.smooth_power[:n], short.smooth_power)


def test_empirical_sir_tracks_theory():
    _, _, _, ops = built_ops(16, 7, 16, 0.0, 2)
    want = 16 * 7 / (2 * (ops.V + 1))
    pts = qam_constellation(16).points
    got_qam = empirical_sir(ops, SeededRng(22).generator, 5000, points=pts)
    assert got_qam == pytest.approx(want, rel=0.05)
    with pytest.raises(ValueError):
        empirical_sir(ops, SeededRng(21).generator, 1, points=pts)


@pytest.mark.parametrize("V,rel", [(2, 1e-12), (6, 1e-8)])
def test_empirical_sir_matches_whole_array_reference(V, rel):
    # N = 112 is not a multiple of the 64-row draw block, so the last block
    # is partial; the same seed must give the same labels as one whole draw.
    # At V=6 (pf_cond 2.5e8) the summation order of the products alone moves
    # the SIR by up to 6.5e-9 relative over 30 seeds, so 1e-8 is the bound
    _, _, _, ops = built_ops(16, 7, 16, 0.5, V)
    pts = qam_constellation(16).points
    got = empirical_sir(ops, SeededRng(31).generator, 700, points=pts)
    want = reference_empirical_sir(ops, SeededRng(31).generator, 700, pts)
    assert got == pytest.approx(want, rel=rel)


def test_mc_smooth_power_matches_whole_array_draw():
    _, _, _, ops = built_ops(16, 7, 16, 0.5, 2)
    pts = qam_constellation(16).points
    got = mc_smooth_power(ops, SeededRng(8).generator, 150, 4, points=pts)
    gen = SeededRng(8).generator
    D = np.stack([pts[gen.integers(0, 16, size=(ops.params.N, 150))] for _ in range(4)], axis=1)
    B, _ = coefficient_stream(ops, D)
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    want = np.real(np.einsum("vis,vw,wis->i", B.conj(), gram, B)) / 150
    assert want[1] > 0
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_monte_carlo_memory_does_not_scale_with_the_draw():
    # at paper N a whole (N, 4000) draw is 16 bytes a point and its int64
    # labels 8 more; the row-blocked draw must stay under an eighth of that
    _, _, _, ops = built_ops(256, 7, 280, 0.5, 2)
    pts = qam_constellation(16).points
    bound = ops.params.N * 4000 * 16 // 8
    assert _traced_peak(empirical_sir, ops, SeededRng(5).generator, 4000, points=pts) < bound
    assert _traced_peak(mc_smooth_power, ops, SeededRng(5).generator, 4000, 1, points=pts) < bound


def test_empirical_sir_rejects_degenerate_stream():
    # with n_cp = 0 and repeated data the boundaries are already continuous,
    # so there is nothing to smooth and the interference energy is zero
    _, _, _, ops = built_ops(8, 4, 0, 0.0, 2)
    pts = np.array([1.0 + 0.0j, -1.0 + 0.0j])

    class Constant:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=int)

    with pytest.raises(ZeroDivisionError):
        empirical_sir(ops, Constant(), 50, points=pts[:1].repeat(2))


def test_mc_smooth_power_matches_curve():
    _, _, _, ops = built_ops(16, 7, 16, 0.1, 2)
    theory = sir_report(ops, 10).smooth_power
    pts = qam_constellation(16).points
    mc = mc_smooth_power(ops, SeededRng(4).generator, n_streams=3000, n_symbols=10, points=pts)
    assert mc[0] == 0.0
    assert np.allclose(mc[1:], theory[1:], rtol=0.05)
    with pytest.raises(ValueError):
        mc_smooth_power(ops, SeededRng(0).generator, 0, 5, points=pts)


def test_smoothing_suppresses_boundary_radiation():
    # the actual PSD claim: smoothed streams radiate less out of band
    p, _, _, ops = built_ops(16, 7, 16, 0.5, 4)
    c = qam_constellation(16)
    gen = SeededRng(6).generator
    D = c.points[gen.integers(0, 16, size=(p.N, 400))]
    X_smooth, _, _ = smooth_stream(ops, D)
    X_plain = ops.tm.A @ D
    ov, band = 4, 0.25
    est_s = welch_psd(psd_sample_stream(X_smooth, p.n_cp, ov), 512)
    est_p = welch_psd(psd_sample_stream(X_plain, p.n_cp, ov), 512)
    off = 2.0 / 16 / ov  # two subcarrier spacings beyond the edge
    assert sidelobe_level(est_s, band, off) < sidelobe_level(est_p, band, off) - 3.0
