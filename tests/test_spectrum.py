import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal
import scipy.stats

from conftest import (
    built,
    built_ops,
    dense_p_hat,
    dense_p_tilde,
    oversample_symbol,
    reference_empirical_sir,
    reference_labels,
    reference_psd_sample_stream,
    reference_welch,
)
from ncgfdm import spectrum
from ncgfdm.params import SeededRng, _draw_fields, _draw_units, _label_table, qam_constellation
from ncgfdm.smoothing import build_basis, build_nc_operators, coefficient_stream, smooth_stream
from ncgfdm.spectrum import (
    PsdEstimate,
    WelchAccumulator,
    _draw_products,
    closed_form_sir,
    empirical_sir,
    mc_smooth_power,
    normalize_inband,
    psd_sample_stream,
    sidelobe_level,
    sir_report,
)


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversample_symbol_interpolates_original_samples(rng):
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    up = psd_sample_stream(x, 0, 4)
    assert up.size == 128
    assert np.allclose(up[::4], x, atol=1e-12)
    assert np.array_equal(psd_sample_stream(x, 0, 1), x)
    with pytest.raises(ValueError):
        psd_sample_stream(x, 0, 0)


def test_oversample_stream_tone_and_energy(rng):
    n, ov = 64, 4
    k = 5
    tone = np.exp(2j * np.pi * k * np.arange(n) / n)
    up = psd_sample_stream(tone, 0, ov)
    spec = np.fft.fft(up)
    # the tone stays on bin k of the widened grid
    assert np.argmax(np.abs(spec)) == k
    # Parseval with the rate compensation: energy scales by the factor
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    upx = psd_sample_stream(x, 0, ov)
    assert np.sum(np.abs(upx) ** 2) == pytest.approx(ov * np.sum(np.abs(x) ** 2))


def test_psd_sample_stream_layout(rng):
    N, n_cp, ov = 16, 4, 2
    cores = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    stream = psd_sample_stream(cores, n_cp, ov)
    block = (N + n_cp) * ov
    assert stream.size == block * 3
    up = oversample_symbol(cores[:, 1], ov)
    sym = stream[block : 2 * block]
    assert np.allclose(sym[: n_cp * ov], up[-n_cp * ov :])
    assert np.allclose(sym[n_cp * ov :], up)


def _welch_of_reference(cores, n_cp, ov, window_len, overlap):
    """(PSD, segments): plain Welch of the recentred column-reference stream."""
    stream = reference_psd_sample_stream(cores, n_cp, ov, recenter=True)
    acc, count, _ = reference_welch([stream], window_len, overlap)
    wnorm = np.sum(scipy.signal.get_window("hann", window_len) ** 2)
    return np.fft.fftshift(acc / (count * wnorm)), count


@pytest.mark.parametrize(
    "N,n_cp,count",
    [(12, 3, 5), (12, 0, 4), (16, 4, 3), (1, 0, 7)],  # N + n_cp = 15 is odd
)
@pytest.mark.parametrize("ov", [1, 2, 3, 4])
@pytest.mark.parametrize("recenter", [True, False])
def test_psd_sample_stream_matches_column_reference(rng, N, n_cp, count, ov, recenter):
    cores = rng.standard_normal((N, count)) + 1j * rng.standard_normal((N, count))
    got = psd_sample_stream(cores, n_cp, ov)
    # a single core given as a vector frames like a one-column matrix
    one = psd_sample_stream(cores[:, 0], n_cp, ov)
    assert np.array_equal(one, got[: (N + n_cp) * ov])
    if recenter and ov > 1:
        # the recentring lives in the Welch window: its estimate equals plain
        # Welch of the reference stream recentred as a whole
        acc = WelchAccumulator(8, 3, oversample=ov)
        acc.process(got)
        est = acc.result()
        want, segments = _welch_of_reference(cores, n_cp, ov, 8, 3)
        assert est.segments == segments
        assert np.max(np.abs(est.psd - want)) <= 1e-12 * np.max(want)
    else:  # the plain stream, which at oversample 1 is also the recentred one
        want = reference_psd_sample_stream(cores, n_cp, ov, recenter=False)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "sizes",
    [
        # every chunk holds an odd number of symbols
        [1, 3, 5, 7, 11, 13, 5],
        # 64 or more segments (a full batch of the reused buffer, then a
        # short one), then a short batch alone, then an empty chunk, which
        # yields none, then a short batch again
        [71, 7, 0, 3],
    ],
)
@pytest.mark.parametrize("ov", [2, 3, 4])
def test_welch_of_odd_chunks_matches_one_call_and_reference(rng, ov, sizes):
    # N + n_cp = 15 is odd: a phase that restarts on each chunk of an odd
    # number of symbols would flip sign at the joins
    N, n_cp, window_len, overlap = 12, 3, 40, 10
    n = sum(sizes)
    cores = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
    one = WelchAccumulator(window_len, overlap, oversample=ov)
    one.process(psd_sample_stream(cores, n_cp, ov))
    chunked = WelchAccumulator(window_len, overlap, oversample=ov)
    for part in np.split(cores, np.cumsum(sizes)[:-1], axis=1):
        chunked.process(psd_sample_stream(part, n_cp, ov))
    want, segments = _welch_of_reference(cores, n_cp, ov, window_len, overlap)
    got, whole = chunked.result(), one.result()
    assert got.segments == whole.segments == segments
    assert np.max(np.abs(got.psd - whole.psd)) <= 1e-12 * np.max(want)
    assert np.max(np.abs(got.psd - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("ov", [0, -1, 2.5, 2.0, True, "2", None])
def test_oversample_rejects_all_but_a_whole_factor_of_at_least_one(ov):
    cores = np.ones((8, 2), dtype=complex)
    with pytest.raises(ValueError, match=r"^oversample must be an integer >= 1"):
        WelchAccumulator(16, 4, oversample=ov)
    with pytest.raises(ValueError, match=r"^oversample must be an integer >= 1"):
        psd_sample_stream(cores, 2, ov)


@pytest.mark.parametrize(
    "name,least,call",
    [
        ("overlap", 0, lambda ops, gen, pts: WelchAccumulator(16, 4.5)),
        ("window_len", 8, lambda ops, gen, pts: WelchAccumulator(16.0, 4)),
        ("n_symbols", 1, lambda ops, gen, pts: sir_report(ops, 3.0)),
        ("n_symbols", 2, lambda ops, gen, pts: empirical_sir([ops], gen, 10.0, pts)),
        ("n_streams", 1, lambda ops, gen, pts: mc_smooth_power(ops, gen, 3.0, 2, pts)),
        ("n_cp", 0, lambda ops, gen, pts: psd_sample_stream(np.ones((8, 2)), 2.0, 1)),
    ],
    ids=["welch-overlap", "welch-window", "sir_report", "empirical_sir", "mc_smooth_power", "psd"],
)
def test_entry_points_reject_a_fractional_count_by_name(name, least, call):
    _, _, _, ops = built_ops(8, 4, 8, 0.5, 2)
    gen = np.random.default_rng(5)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got [0-9.]+$"):
        call(ops, gen, qam_constellation(16).points)
    assert gen.bit_generator.state == before  # rejected before any draw


def test_psd_sample_stream_holds_little_beyond_its_output():
    # one paper chunk: 126 symbols of N = 1792, n_cp = 280, oversample 4, a
    # 15.93 MiB stream.  The call peaked at 15.94 MiB; copying the CP of all
    # rows in one assignment made a 2.15 MiB temporary (18.09 MiB), which
    # the bound of 1 MiB over the output rejects
    gen = np.random.default_rng(3)
    cores = (gen.standard_normal((126, 1792)) + 1j * gen.standard_normal((126, 1792))).T
    out_bytes = 126 * (1792 + 280) * 4 * 16
    assert _traced_peak(psd_sample_stream, cores, 280, 4) < out_bytes + 2**20


def test_oversample_accepts_a_numpy_integer():
    cores = np.ones((8, 2), dtype=complex)
    assert psd_sample_stream(cores, 2, np.int64(2)).size == 2 * 20
    assert WelchAccumulator(16, 4, oversample=np.int64(2)).window.dtype == np.complex128


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
    acc = WelchAccumulator(1024)
    acc.process(x)
    est = acc.result()
    db = est.db()
    peak = np.argmax(db)
    assert abs(est.freqs[peak] - f0) < 1.5 / 1024
    assert db[peak] - np.median(db) > 40.0


def test_welch_white_noise_flat():
    gen = np.random.default_rng(8)
    x = (gen.standard_normal(1 << 19) + 1j * gen.standard_normal(1 << 19)) / np.sqrt(2)
    acc = WelchAccumulator(256)
    acc.process(x)
    est = acc.result()
    db = est.db()
    assert np.max(np.abs(db - db.mean())) < 0.5
    # the per-bin mean equals the sample variance (unit here)
    assert est.psd.mean() == pytest.approx(1.0, rel=0.05)


def test_welch_amplitude_linearity(rng):
    x = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    a, b = WelchAccumulator(512), WelchAccumulator(512)
    a.process(x)
    b.process(10.0 * x)
    assert np.allclose(b.result().db() - a.result().db(), 20.0, atol=1e-9)


def test_streaming_matches_one_shot(rng):
    x = rng.standard_normal(9000) + 1j * rng.standard_normal(9000)
    whole = WelchAccumulator(512, overlap=128)
    whole.process(x)
    one = whole.result()
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
    got_qam = empirical_sir([ops], np.random.default_rng(22), 5000, points=pts)[0]
    assert got_qam == pytest.approx(want, rel=0.05)
    with pytest.raises(ValueError):
        empirical_sir([ops], np.random.default_rng(21), 1, points=pts)


@pytest.mark.parametrize(
    "K,M,V,rel,order,n_symbols,chunk",
    [(16, 7, 2, 1e-12, 16, 700, None), (16, 7, 6, 1e-8, 16, 700, None)]
    + [(15, 5, 2, 1e-12, order, 101, None) for order in (4, 16, 64, 256, 1024, 4096)]
    + [(16, 7, 2, 1e-12, 16, 401, 150), (16, 7, 6, 1e-8, 16, 401, 150),
       (15, 5, 2, 1e-12, 4096, 101, 37)],
    ids=["2-1e-12", "6-1e-8"] + [f"qam{order}-odd" for order in (4, 16, 64, 256, 1024, 4096)]
    + ["chunks-2-1e-12", "chunks-6-1e-8", "chunks-qam4096-odd"],
)
def test_empirical_sir_matches_whole_array_reference(
    monkeypatch, K, M, V, rel, order, n_symbols, chunk
):
    # N = 112 and N = 75 are not multiples of the 64-row draw block, so the
    # last block is partial, and at N = 75 with an odd symbol count it ends
    # inside a byte; the same seed must give the same labels as one whole
    # draw.  At V=6 (pf_cond 2.5e8) the summation order of the products
    # alone moves the SIR by up to 6.5e-9 relative over 30 seeds, so 1e-8 is
    # the bound.  With a small chunk the stream crosses two chunk joins and
    # ends in a partial chunk; each chunk is one whole draw, and at N = 75
    # with odd chunks each ends inside a byte
    if chunk:
        monkeypatch.setattr(spectrum, "_SIR_CHUNK", chunk)
    _, _, _, ops = built_ops(K, M, K, 0.5, V)
    pts = qam_constellation(order).points
    gen = np.random.default_rng(31)
    got = empirical_sir([ops], gen, n_symbols, points=pts)[0]
    ref_gen = np.random.default_rng(31)
    want = reference_empirical_sir(ops, ref_gen, n_symbols, pts, chunk=chunk)
    assert got == pytest.approx(want, rel=rel)
    assert gen.bytes(16) == ref_gen.bytes(16)


def _orders_on_one_transmit_matrix(K, M, n_cp, beta, orders):
    """Operator sets of one waveform at each order, all on one transmit matrix."""
    p, g, tm = built(K, M, n_cp, beta)
    sets = []
    for V in orders:
        q = replace(p, V=V)
        sets.append(build_nc_operators(tm, build_basis(g, q), q, is_unitary=g.is_dirichlet))
    return sets


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_boundary_operators_of_an_order_are_the_first_rows_of_a_higher_order(beta):
    # row v of P_1 and P_2 depends on v alone, so every order's products are
    # read off the highest order's; this is what lets empirical_sir share a draw
    sets = _orders_on_one_transmit_matrix(256, 7, 280, beta, range(8))
    top = sets[-1]
    for ops in sets:
        assert np.array_equal(ops.P_1, top.P_1[: ops.V + 1])
        assert np.array_equal(ops.P_2, top.P_2[: ops.V + 1])


def test_empirical_sir_of_a_grid_matches_each_order_alone():
    # one draw serves every order: each set must match the whole-array
    # reference on the same seed, at the bounds of the one-set test above,
    # and the generator must advance by exactly one (N, n_symbols) draw
    sets = _orders_on_one_transmit_matrix(16, 7, 16, 0.5, (2, 6, 0))
    pts = qam_constellation(16).points
    gen = np.random.default_rng(31)
    got = empirical_sir(sets, gen, 700, points=pts)
    assert len(got) == len(sets)
    for ops, value in zip(sets, got):
        ref_gen = np.random.default_rng(31)
        want = reference_empirical_sir(ops, ref_gen, 700, pts)
        assert value == pytest.approx(want, rel=1e-8 if ops.V == 6 else 1e-12)
    assert gen.bytes(16) == ref_gen.bytes(16)


def test_empirical_sir_of_sets_on_several_transmit_matrices_matches_each_set_alone(monkeypatch):
    # one stream serves sets of two roll-offs and two CP lengths at one N,
    # in chunks with a partial last one; each set must give its one-set
    # value on the same seed, and the generator must advance by that stream
    monkeypatch.setattr(spectrum, "_SIR_CHUNK", 150)
    sets = _orders_on_one_transmit_matrix(16, 7, 16, 0.0, (0, 2))
    sets += _orders_on_one_transmit_matrix(16, 7, 16, 0.5, (6, 2))
    p, g, tm = built(16, 7, 16, 0.5)
    q = replace(p, n_cp=8, V=2)  # on the beta = 0.5 transmit matrix, another CP
    sets.append(build_nc_operators(tm, build_basis(g, q), q, is_unitary=g.is_dirichlet))
    assert sets[2].tm is tm and sets[0].tm is not tm
    pts = qam_constellation(16).points
    gen = np.random.default_rng(31)
    got = empirical_sir(sets, gen, 401, points=pts)
    assert len(got) == len(sets)
    for ops, value in zip(sets, got):
        one_gen = np.random.default_rng(31)
        want = empirical_sir([ops], one_gen, 401, points=pts)[0]
        assert value == pytest.approx(want, rel=1e-8 if ops.V == 6 else 1e-12)
    assert gen.bytes(16) == one_gen.bytes(16)


def test_empirical_sir_rejects_sets_of_another_block_length():
    sets = [built_ops(16, 7, 16, 0.0, 2)[3], built_ops(8, 4, 8, 0.0, 2)[3]]
    pts = qam_constellation(16).points
    gen = np.random.default_rng(3)
    with pytest.raises(ValueError, match=r"one stream, of one block length; got N = \[32, 112\]"):
        empirical_sir(sets, gen, 10, points=pts)
    assert gen.bytes(8) == np.random.default_rng(3).bytes(8)  # nothing was drawn


@pytest.mark.parametrize("sets", [[], ()])
def test_empirical_sir_rejects_no_sets(sets):
    gen = np.random.default_rng(3)
    with pytest.raises(ValueError, match="^sets must hold at least one operator set"):
        empirical_sir(sets, gen, 10, points=qam_constellation(16).points)
    assert gen.bytes(8) == np.random.default_rng(3).bytes(8)  # nothing was drawn


@pytest.mark.parametrize("n_streams", [150, 151])
def test_mc_smooth_power_matches_whole_array_draw(n_streams):
    _, _, _, ops = built_ops(16, 7, 16, 0.5, 2)
    pts = qam_constellation(16).points
    got = mc_smooth_power(ops, np.random.default_rng(8), n_streams, 4, points=pts)
    gen = np.random.default_rng(8)
    shape = (ops.params.N, n_streams)
    D = np.stack([pts[reference_labels(gen, 16, shape)] for _ in range(4)], axis=1)
    B, _ = coefficient_stream(ops, D)
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    want = np.real(np.einsum("vis,vw,wis->i", B.conj(), gram, B)) / n_streams
    assert want[1] > 0
    assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("order", [2**b for b in range(1, 13)])
def test_row_blocked_draw_is_one_whole_draw(order):
    # N = 75 rows is one full 64-row block and a partial one of 11; with 7
    # columns the partial block ends inside a byte for every odd label width
    _, _, _, ops = built_ops(15, 5, 15, 0.5, 2)
    pts = np.exp(2j * np.pi * np.arange(order) / order) * (1 + np.arange(order) / order)
    gen = np.random.default_rng(order)
    stacked = np.vstack([ops.P_1, ops.P_2])
    products, energy = _draw_products(stacked, gen, pts, 7, energy=True)
    after = gen.bytes(16)
    whole = np.random.default_rng(order)
    D = pts[reference_labels(whole, order, (ops.params.N, 7))]
    assert whole.bytes(16) == after  # the blocks consumed exactly one whole draw
    assert np.allclose(products, stacked @ D, rtol=0, atol=1e-13 * np.abs(stacked).sum())
    assert np.allclose(energy, np.sum(np.abs(D) ** 2, axis=0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("bits", range(1, 13))
def test_drawn_labels_are_uniform(bits):
    # Pearson chi-square over 64 expected draws per label, against the
    # 1 - 1e-6 quantile of chi-square with order - 1 degrees of freedom:
    # each order falsely fails with probability 1e-6, the twelve together
    # with at most 1.2e-5
    order = 2**bits
    n = 64 * order
    table, width = _label_table(np.arange(order))
    assert width == bits
    units = _draw_units(SeededRng(2026).child(bits), n, bits)
    labels = np.take(table, units, axis=0).ravel()[:n]
    counts = np.bincount(labels, minlength=order)
    assert counts.size == order
    stat = float(np.sum((counts - 64.0) ** 2) / 64.0)
    assert stat < scipy.stats.chi2.isf(1e-6, order - 1)


@pytest.mark.parametrize("bits", range(1, 13))
def test_drawn_labels_are_the_msb_first_fields_of_the_drawn_bytes(bits):
    # both paths, the byte units (b divides 8) and the unpacked labels; the
    # counts end inside a byte for every odd label width
    table, _ = _label_table(np.arange(2**bits))
    for n in (1, 2, 3, 1001):
        units = _draw_units(np.random.default_rng(n), n, bits)
        if 8 % bits == 0:
            assert units.size == -(-n * bits // 8)  # the drawn bytes
        else:
            assert n <= units.size < n + 8  # whole groups of labels
        gen = np.random.default_rng(n)
        labels = _draw_fields(gen, table, bits, n)[:n]
        after = gen.bytes(8)
        whole = np.random.default_rng(n)
        stream = "".join(format(byte, "08b") for byte in whole.bytes(-(-n * bits // 8)))
        want = [int(stream[i * bits : (i + 1) * bits], 2) for i in range(n)]
        assert labels.tolist() == want
        assert whole.bytes(8) == after  # the draw took exactly ceil(n b / 8) bytes


@pytest.mark.parametrize("size", [1, 3, 6, 12])
def test_monte_carlo_rejects_point_counts_off_a_power_of_two(size):
    _, _, _, ops = built_ops(8, 4, 8, 0.5, 2)
    pts = np.ones(size, dtype=complex)
    gen = np.random.default_rng(3)
    with pytest.raises(ValueError, match=f"power-of-two count .*got {size}"):
        empirical_sir([ops], gen, 10, points=pts)
    with pytest.raises(ValueError, match=f"power-of-two count .*got {size}"):
        mc_smooth_power(ops, gen, 10, 3, points=pts)
    assert gen.bytes(8) == np.random.default_rng(3).bytes(8)  # nothing was drawn


def test_monte_carlo_memory_does_not_scale_with_the_draw():
    # at paper N a whole (N, 4000) draw is 16 bytes a point and its packed
    # labels half a byte more; the row-blocked draw must stay under an
    # eighth of the points alone
    _, _, _, ops = built_ops(256, 7, 280, 0.5, 2)
    pts = qam_constellation(16).points
    bound = ops.params.N * 4000 * 16 // 8
    assert _traced_peak(empirical_sir, [ops], np.random.default_rng(5), 4000, points=pts) < bound
    assert _traced_peak(mc_smooth_power, ops, np.random.default_rng(5), 4000, 1, points=pts) < bound
    # a grid call holds the highest order's products, not one draw per order
    sets = _orders_on_one_transmit_matrix(256, 7, 280, 0.5, (0, 2, 4, 6))
    assert _traced_peak(empirical_sir, sets, np.random.default_rng(5), 4000, points=pts) < bound


def test_empirical_sir_rejects_degenerate_stream():
    # with n_cp = 0 and repeated data the boundaries are already continuous,
    # so there is nothing to smooth and the interference energy is zero;
    # two equal points make every draw that repeated stream
    _, _, _, ops = built_ops(8, 4, 0, 0.0, 2)
    pts = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    with pytest.raises(ZeroDivisionError):
        empirical_sir([ops], np.random.default_rng(50), 50, points=pts)


def test_mc_smooth_power_matches_curve():
    _, _, _, ops = built_ops(16, 7, 16, 0.1, 2)
    theory = sir_report(ops, 10).smooth_power
    pts = qam_constellation(16).points
    mc = mc_smooth_power(ops, np.random.default_rng(4), n_streams=3000, n_symbols=10, points=pts)
    assert mc[0] == 0.0
    assert np.allclose(mc[1:], theory[1:], rtol=0.05)
    with pytest.raises(ValueError):
        mc_smooth_power(ops, np.random.default_rng(0), 0, 5, points=pts)


def test_smoothing_suppresses_boundary_radiation():
    # the actual PSD claim: smoothed streams radiate less out of band
    p, _, _, ops = built_ops(16, 7, 16, 0.5, 4)
    c = qam_constellation(16)
    gen = np.random.default_rng(6)
    D = c.points[gen.integers(0, 16, size=(p.N, 400))]
    X_smooth, _, _ = smooth_stream(ops, D)
    X_plain = ops.tm.A @ D
    ov, band = 4, 0.25
    est_s, est_p = WelchAccumulator(512, oversample=ov), WelchAccumulator(512, oversample=ov)
    est_s.process(psd_sample_stream(X_smooth, p.n_cp, ov))
    est_p.process(psd_sample_stream(X_plain, p.n_cp, ov))
    est_s, est_p = est_s.result(), est_p.result()
    off = 2.0 / 16 / ov  # two subcarrier spacings beyond the edge
    assert sidelobe_level(est_s, band, off) < sidelobe_level(est_p, band, off) - 3.0
