"""Spectral and power analysis: Welch PSD, oversampling, SIR and power curves.

The PSD path is streaming-friendly and FFT-domain throughout: symbols are
oversampled one row at a time by DFT zero-padding, and a
:class:`WelchAccumulator` consumes sample chunks of any length and averages
Hann-windowed periodograms, transforming its segments in fixed-size batches
and holding only its running sums and an unfinished segment between chunks,
so long waveforms never need to be held in memory at once.  Its window also
recentres the oversampled band on DC.  Power and SIR estimators run entirely
on the low-rank smoothing factors; no N x N product is formed per symbol.
Both Monte-Carlo estimators run one loop, :func:`_smooth_energy`: it reduces
each chunk's data draw to thin products in blocks of about 8 MiB of drawn
points, scans them by recursive doubling and frees them before the next
draw, so memory does not grow with N times the number of symbols or streams.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filterbank import prototype_filter
from .params import WaveformParams, _check_count, _draw_fields, _label_table
from .smoothing import NcOperators, coefficient_scan
from .smoothing import coefficient_stream  # noqa: F401  (timed here by perfbench/trace.py)

__all__ = [
    "psd_sample_stream",
    "PsdEstimate",
    "WelchAccumulator",
    "normalize_inband",
    "sidelobe_level",
    "SirReport",
    "sir_report",
    "closed_form_sir",
    "empirical_sir",
    "mc_smooth_power",
]


def psd_sample_stream(cores: np.ndarray, n_cp: int, oversample: int) -> np.ndarray:
    """Serialize symbol cores into an oversampled CP-framed stream.

    Each core column is interpolated separately by zero-padding its DFT
    above the top bin (the occupied band lives on bins 0..N-1, so padding
    is one-sided) and rescaled so the original samples are interpolated
    exactly.  It is then CP-extended by ``n_cp * oversample`` samples (the
    CP is a circular extension, so per-symbol interpolation and framing
    commute).  Interpolating per symbol, not globally, is what makes
    boundary discontinuities visible as out-of-band radiation.  The
    occupied band sits at the bottom ``1/oversample`` of the widened
    spectrum; a :class:`WelchAccumulator` given the same ``oversample``
    centres it on DC.  At oversample 1 the result is the plain CP-framed
    stream, each symbol's last ``n_cp`` samples then its core; ``n_cp``
    must be an integer in [0, N) and ``oversample`` one >= 1.  The map is
    linear and acts on each symbol alone, so the stream of cores A D + Q B
    is that of A D plus B^T times the framed rows of Q's columns.  Each
    spectrum is written into the core of its framed row, zero-padded there
    and inverse-transformed in place, so no spectrum or padded copy is held.

    The cores are read fastest with one symbol per contiguous row, i.e. as
    the transpose of a C-ordered (count, N) array, which is how
    :meth:`~ncgfdm.filterbank.TransmitMatrix.modulate` and
    :func:`~ncgfdm.smoothing.smooth_stream` return them.  A C-ordered
    (N, count) array is read through a strided gather, and its spectra
    inherit that layout: the forward FFT of 126 symbols of N = 1792 took
    4.5 ms against 2.8 ms for contiguous rows (2-vCPU Xeon VM).
    """
    _check_count("n_cp", n_cp, 0)
    _check_count("oversample", oversample, 1)
    rows = np.asarray(cores, dtype=np.complex128).T  # one symbol per row
    if rows.ndim == 1:
        rows = rows[None, :]
    N = rows.shape[1]
    if not 0 <= n_cp < N:
        raise ValueError(f"CP length {n_cp} out of range for block of {N}")
    L, cp = N * oversample, n_cp * oversample
    framed = np.empty((rows.shape[0], cp + L), dtype=np.complex128)
    if oversample > 1:
        # forward-normalized both ways, the round trip carries 1/N: the 1/L
        # of a plain inverse times the gain ``oversample``
        core = framed[:, cp:]
        np.fft.fft(rows, axis=1, norm="forward", out=core[:, :N])
        core[:, N:] = 0
        np.fft.ifft(core, axis=1, norm="forward", out=core)
    else:
        framed[:, cp:] = rows
    # row by row: the two slices of one row are disjoint, but those of the
    # whole array span one range, and numpy would copy through a temporary
    for row in framed:
        row[:cp] = row[L:]
    return framed.ravel()


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged periodogram: normalized frequencies in [-1/2, 1/2) and PSD."""

    freqs: np.ndarray
    psd: np.ndarray
    segments: int

    def db(self, floor: float = 1e-300) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.psd, floor))


#: segments transformed per batch in :meth:`WelchAccumulator.process`; bounds
#: its working memory to this many windows, allocated per call
_WELCH_BLOCK = 64


class WelchAccumulator:
    """Streaming Welch PSD: feed chunks, read the average at the end.

    Hann-windowed segments advance by ``window_len - overlap``.
    Output frequencies are normalized to the sample rate of the chunks and
    fftshifted to [-1/2, 1/2).  For a stream from :func:`psd_sample_stream`
    at ``oversample`` > 1, the window also carries exp(-j pi k / oversample),
    which moves the occupied band from [0, 1/oversample) to be symmetric
    around DC.  A periodogram drops any constant phase of its segment, so
    this equals recentring the whole stream by exp(-j pi n / oversample),
    whatever its chunking.  ``oversample`` must be an integer >= 1.  Between
    chunks it holds only its running sums and the samples of an unfinished
    segment; :meth:`process` allocates its batch scratch on each call.
    """

    def __init__(self, window_len: int, overlap: int | None = None, oversample: int = 1):
        _check_count("window_len", window_len, 8)
        if overlap is None:
            overlap = window_len // 2
        _check_count("overlap", overlap, 0)
        if overlap >= window_len:
            raise ValueError("overlap must lie in [0, window_len)")
        _check_count("oversample", oversample, 1)
        self.window_len = window_len
        self.step = window_len - overlap
        # periodic Hann window; the textbook 0.5 - 0.5 cos(2 pi k / n)
        # differs from this form in the last bits, and so would the PSD
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_len + 1)[:-1])
        self._wnorm = np.sum(self.window**2)
        if oversample > 1:
            self.window = self.window * np.exp(-1j * np.pi * np.arange(window_len) / oversample)
        self._acc = np.zeros(window_len)
        self._count = 0
        self._tail = np.zeros(0, dtype=np.complex128)

    def process(self, chunk: np.ndarray) -> None:
        """Add every whole segment of the held tail plus ``chunk``; keep the rest.

        Only the tail and the first ``window_len - 1`` samples of the chunk
        are joined; the segments that start inside the chunk are views into
        it, so the chunk itself is never copied.  Each batch of segments is
        windowed into one buffer of this call and transformed there in place.
        """
        chunk = np.asarray(chunk, dtype=np.complex128).ravel()
        held, W, step = self._tail.size, self.window_len, self.step
        count = max(0, (held + chunk.size - W) // step + 1)
        if count:
            n_head = min(count, -(-held // step))  # segments starting in the tail
            head = body = np.empty((0, W), dtype=np.complex128)
            if n_head:
                joined = np.concatenate([self._tail, chunk[: W - 1]])
                head = sliding_window_view(joined, W)[::step][:n_head]
            if count > n_head:
                body = sliding_window_view(chunk, W)[n_head * step - held :: step]
            scratch = np.empty((min(count, _WELCH_BLOCK), W), dtype=np.complex128)
            for start in range(0, count, _WELCH_BLOCK):
                stop = min(start + _WELCH_BLOCK, count)
                batch = scratch[: stop - start]
                mid = min(max(n_head, start), stop)  # segments before mid start in the tail
                k = mid - start
                np.multiply(head[start:mid], self.window, out=batch[:k])
                np.multiply(body[mid - n_head : stop - n_head], self.window, out=batch[k:])
                np.fft.fft(batch, axis=1, out=batch)
                # |X|^2 summed over the batch: the squares of the interleaved
                # real and imaginary parts, reduced in one pass
                parts = batch.view(np.float64)
                power = np.einsum("ij,ij->j", parts, parts)
                self._acc += power[0::2]
                self._acc += power[1::2]
        self._count += count
        used = count * step - held  # samples of the chunk no later segment needs
        if used >= 0:
            self._tail = chunk[used:].copy()
        else:
            self._tail = np.concatenate([self._tail[count * step :], chunk])

    def result(self) -> PsdEstimate:
        if self._count == 0:
            raise ValueError("stream shorter than one Welch segment")
        psd = np.fft.fftshift(self._acc / (self._count * self._wnorm))
        freqs = np.fft.fftshift(np.fft.fftfreq(self.window_len))
        return PsdEstimate(freqs=freqs, psd=psd, segments=self._count)


def normalize_inband(est: PsdEstimate, band: float) -> PsdEstimate:
    """Rescale so the mean PSD over |f| <= band/2 is one (0 dB)."""
    mask = np.abs(est.freqs) <= band / 2
    if not mask.any():
        raise ValueError("normalization band contains no frequency bins")
    ref = est.psd[mask].mean()
    if ref <= 0:
        raise ValueError("in-band power is zero; cannot normalize")
    return PsdEstimate(freqs=est.freqs, psd=est.psd / ref, segments=est.segments)


def sidelobe_level(est: PsdEstimate, band: float, offset: float) -> float:
    """PSD level, in dB relative to the in-band mean, at band-edge + offset.

    ``offset`` is a normalized frequency offset beyond the positive band
    edge; the dB value is linearly interpolated between the two neighboring
    bins.  Offset 0 reads the band edge itself.
    """
    norm = normalize_inband(est, band)
    f = band / 2 + offset
    if offset < 0 or f > norm.freqs[-1]:
        raise ValueError(f"offset {offset} falls outside the frequency grid")
    return float(np.interp(f, norm.freqs, norm.db()))


# ---------------------------------------------------------------------------
# smooth-signal power and SIR


@dataclass(frozen=True)
class SirReport:
    """Per-symbol-index power and SIR sequences, plus the closed form.

    ``per_symbol_power`` is the expected effective-data energy trace,
    ``smooth_power`` the expected data-domain smooth-signal energy
    E{||A^{-1} w_i||^2} for i.i.d. unit data (zero at index 0, which is
    sent unsmoothed), and ``sir_db`` their ratio against the signal power
    N.  ``closed_form_db`` is present only when A is unitary (the
    Dirichlet pulse).
    """

    per_symbol_power: np.ndarray
    smooth_power: np.ndarray
    sir_db: np.ndarray
    closed_form_db: float | None = None


def _recursion_terms(ops: NcOperators) -> tuple:
    """(RL, base, RRh, LhL, smooth_fixed, tr_pt): the covariance recursion on
    the low-rank factors.

    With P_hat = L P_1 and P_tilde = L P_2, L = A^{-1} Q P_f^{-1}, the
    recursion E_i = I - P_tilde - P_tilde^H + P_tilde P_tilde^H
    + P_hat E_{i-1} P_hat^H reduces to S_{i+1} = base + RL S_i RL^H on
    (V+1) x (V+1) matrices, from S_1 = RRh = P_1 P_1^H, and the smooth power
    at index i >= 1 is tr(S_i LhL) + smooth_fixed.  ``tr_pt`` is
    trace(P_tilde).
    """
    L, R, T = ops.gain, ops.P_1, ops.P_2
    LhL = L.conj().T @ L
    RL = R @ L
    TL = T @ L
    RRh = R @ R.conj().T
    TRh = T @ R.conj().T
    TTh = T @ T.conj().T
    base = RRh - RL @ TRh - TRh.conj().T @ RL.conj().T + RL @ TTh @ RL.conj().T
    # trace(P_tilde P_tilde^H): the smooth power's fixed part
    smooth_fixed = float(np.real(np.trace(TTh @ LhL)))
    return RL, base, RRh, LhL, smooth_fixed, complex(np.trace(TL))


def sir_report(ops: NcOperators, n_symbols: int) -> SirReport:
    """Theoretical power and SIR sequences over symbol indices 0..n-1.

    Everything reduces to (V+1) x (V+1) products once the covariance
    recursion is projected onto the low-rank factors (:func:`_recursion_terms`).
    """
    _check_count("n_symbols", n_symbols, 1)
    RL, base_S, S, LhL, smooth_fixed, tr_pt = _recursion_terms(ops)
    N = ops.params.N
    data_power = np.empty(n_symbols)
    smooth_power = np.zeros(n_symbols)
    data_power[0] = float(N)
    for i in range(1, n_symbols):
        tr_hat = float(np.real(np.trace(S @ LhL)))
        smooth_power[i] = tr_hat + smooth_fixed
        data_power[i] = N - 2 * tr_pt.real + smooth_fixed + tr_hat
        S = base_S + RL @ S @ RL.conj().T
    with np.errstate(divide="ignore"):
        sir_db = 10.0 * np.log10(N / smooth_power)
    closed = closed_form_sir(ops.params) if ops.is_unitary else None
    return SirReport(
        per_symbol_power=data_power,
        smooth_power=smooth_power,
        sir_db=sir_db,
        closed_form_db=closed,
    )


def _steady_smooth_power(ops: NcOperators) -> float:
    """The limit of ``sir_report(ops, n).smooth_power`` as n grows.

    The limit X of S_i solves the Stein equation X = base + RL X RL^H
    (:func:`_recursion_terms`); in row-major vec form that is
    (I - RL kron conj(RL)) vec X = vec base, one solve in (V+1)^2 unknowns.
    It has one solution whenever the recursion is damped: the eigenvalues of
    RL are those of the scan matrix S, and rho(S) < 1 with a CP.
    """
    RL, base, _, LhL, smooth_fixed, _ = _recursion_terms(ops)
    n = RL.shape[0]
    X = np.linalg.solve(np.eye(n * n) - np.kron(RL, RL.conj()), base.ravel()).reshape(n, n)
    return float(np.real(np.trace(X @ LhL))) + smooth_fixed


def closed_form_sir(p: WaveformParams) -> float:
    """Steady-state SIR in dB of the unitary configuration: KM/(2V+2).

    Only valid when the prototype is the Dirichlet pulse, where the
    modulation matrix is unitary: at beta = 0, and at any roll-off too
    narrow to shape a DFT bin.
    """
    if not prototype_filter(p).is_dirichlet:
        raise ValueError(f"closed-form SIR requires the Dirichlet pulse, got beta = {p.beta}")
    return 10.0 * np.log10(p.K * p.M / (2.0 * (p.V + 1)))


#: bytes of drawn points per block of :func:`_draw_products` (see
#: :func:`_block_rows`), and symbols per chunk of :func:`empirical_sir`; they
#: bound the estimators' working memory to a few (rows, columns) arrays,
#: whatever N and the symbol count
_DRAW_BYTES = 8 * 2**20
_SIR_CHUNK = 2048


def _block_rows(cols: int) -> int:
    """Label rows per block of :func:`_draw_products` for a draw of ``cols`` columns.

    As many rows of complex points as fit in ``_DRAW_BYTES``, rounded down to
    a multiple of 32, and never fewer than 64: 256 rows at the 2048 columns
    of an :func:`empirical_sir` chunk, 64 at 10 000 parallel streams.  A
    deep block keeps the stacked product near the GEMM's peak.  32 rows of
    b-bit labels are 4 b cols bytes, a whole number of the generator's
    32-bit words and of the label groups of
    :func:`ncgfdm.params._draw_units`, so the blocks concatenate to one draw.
    """
    return max(64, _DRAW_BYTES // (16 * cols) // 32 * 32)


def _draw_products(
    stacked: np.ndarray, rng: np.random.Generator, pts: np.ndarray, cols: int, energy: bool = False
) -> tuple[np.ndarray, tuple[float, float] | None]:
    """Thin products stacked @ D of an (N, cols) draw D of constellation points.

    ``stacked`` stacks thin operators, such as [P_1; P_2], over N columns.
    ``pts`` holds 2**b points (else ValueError, before any draw), and D, in
    C order, is one draw of :func:`ncgfdm.params._draw_fields` taken
    :func:`_block_rows` rows at a time, which concatenate to one (N, cols)
    draw.  Each block adds stacked[:, rows] @ D[rows] in one product.  With
    ``energy``, also returns the energy of D and that of its first column,
    each summed as one dot product per block; else None.
    """
    table, bits = _label_table(np.asarray(pts, dtype=np.complex128))
    acc = np.zeros((stacked.shape[0], cols), dtype=np.complex128)
    total = head = 0.0
    step = _block_rows(cols)
    gathered = None  # the first block is the largest; later blocks reuse its memory
    for start in range(0, stacked.shape[1], step):
        stop = min(start + step, stacked.shape[1])
        n = (stop - start) * cols
        flat = _draw_fields(rng, table, bits, n, gathered)
        if gathered is None:
            gathered = flat.reshape(-1, table.shape[1])
        block = flat[:n].reshape(stop - start, cols)
        acc += stacked[:, start:stop] @ block
        if energy:
            total += np.vdot(block, block).real
            head += np.vdot(block[:, 0], block[:, 0]).real
    return acc, (total, head) if energy else None


def _smooth_energy(sets, rng, points, counts, streams: int = 1, energy: bool = False):
    """The Monte-Carlo loop over the smoothing recursion of each operator set.

    Chunk k is one :func:`_draw_products` draw of ``counts[k]`` symbols of
    ``streams`` parallel streams, and each set's :func:`coefficient_scan`
    carries across the chunk joins.  Row v of P_1 and P_2 depends on v, the
    transmit matrix and the CP alone, so the sets on one transmit matrix and
    CP read the first V+1 rows of their highest order's products.  Yields
    the draw's energy and its first column's (None unless ``energy``, see
    :func:`_draw_products`) and each set's sum of ||A^{-1} Q b||^2 over the
    chunk, one dot product B^H (Q^H A^{-H} A^{-1} Q B), its products freed
    before the yield.
    """
    keys = [(id(ops.tm), ops.params.n_cp) for ops in sets]  # (transmit matrix, CP)
    tops = dict(sorted(zip(keys, sets), key=lambda kv: kv[1].V))  # each key's highest order
    stacked = np.vstack([m for top in tops.values() for m in (top.P_1, top.P_2)])
    ends = np.cumsum([2 * top.V + 2 for top in tops.values()])
    rows = {key: slice(end - 2 * top.V - 2, end) for (key, top), end in zip(tops.items(), ends)}
    grams = [ops.A_inv_Q.conj().T @ ops.A_inv_Q for ops in sets]
    carries = [None] * len(sets)
    for count in counts:
        acc, sig = _draw_products(stacked, rng, points, count * streams, energy)
        intf = np.empty(len(sets))
        for j, (key, ops) in enumerate(zip(keys, sets)):
            PD = acc[rows[key]].reshape(2, -1, count, streams)[:, : ops.V + 1]  # the top's, cut
            B, carries[j] = coefficient_scan(ops, PD, carries[j])
            B = B.reshape(ops.V + 1, -1)
            intf[j] = np.vdot(B, grams[j] @ B).real
        del acc, PD, B  # a generator's frame would hold them across the next draw
        yield sig, intf


def empirical_sir(
    sets: Sequence[NcOperators],
    rng: np.random.Generator,
    n_symbols: int,
    points: np.ndarray,
) -> list[float]:
    """Monte-Carlo SIR (linear) of each operator set over one smoothed stream's data.

    Measured at the demodulator output, where the soft estimate is
    d + A^{-1} w: signal and interference are the data vectors and the
    data-domain smooth contributions.  The data draw i.i.d. from ``points``,
    a unit-energy constellation of 2**b points, as one stream that every set
    reads through :func:`_smooth_energy`, ``_SIR_CHUNK`` symbols at a time,
    so no (N, n_symbols) array is formed; the stream's first symbol, sent
    unsmoothed, is left out of the signal: its energy, the first column's of
    the first chunk, is taken off that chunk's total.  ``sets`` are one or
    more operator sets of one block length N; an empty list, mixed lengths
    or bad points raise ValueError before any draw.  A stream with no boundary
    discontinuity to smooth raises ZeroDivisionError (zero interference).
    """
    if not sets:
        raise ValueError("sets must hold at least one operator set")
    _check_count("n_symbols", n_symbols, 2)  # one smoothed symbol after the head
    if len(lengths := sorted({ops.params.N for ops in sets})) > 1:
        raise ValueError(f"empirical_sir draws one stream, of one block length; got N = {lengths}")
    counts = [min(_SIR_CHUNK, n_symbols - start) for start in range(0, n_symbols, _SIR_CHUNK)]
    intf, sig = np.zeros(len(sets)), 0.0
    for k, ((total, head), chunk) in enumerate(
        _smooth_energy(sets, rng, points, counts, energy=True)
    ):
        sig += total if k else total - head
        intf += chunk
    if intf.min() <= 0:
        raise ZeroDivisionError("stream produced no smoothing interference")
    return (sig / intf).tolist()


def mc_smooth_power(
    ops: NcOperators,
    rng: np.random.Generator,
    n_streams: int,
    n_symbols: int,
    points: np.ndarray,
) -> np.ndarray:
    """Monte-Carlo mean of ||A^{-1} w_i||^2 per symbol index over streams.

    Data draw i.i.d. from ``points``, a unit-energy constellation of 2**b
    points (else ValueError, before any draw).  Each symbol index is one
    chunk of :func:`_smooth_energy`, one symbol of ``n_streams`` parallel
    streams, whose recursions carry across indices; no modulation is
    performed and no (N, n_streams) array is formed.
    """
    _check_count("n_streams", n_streams, 1)
    _check_count("n_symbols", n_symbols, 1)
    chunks = _smooth_energy([ops], rng, points, [1] * n_symbols, streams=n_streams)
    return np.array([intf[0] for _, intf in chunks]) / n_streams
