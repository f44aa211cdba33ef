"""Spectral and power analysis: Welch PSD, oversampling, SIR and power curves.

The PSD path is streaming-friendly and FFT-domain throughout: symbols are
oversampled one row at a time by DFT zero-padding, and a
:class:`WelchAccumulator` consumes sample chunks of any length and averages
Hann-windowed periodograms, transforming its segments in fixed-size
batches, so long waveforms never need to be held in memory at once.  Power
and SIR estimators run entirely on the low-rank smoothing factors; no N x N
product is formed per symbol, and the Monte-Carlo estimators reduce their
data draws to thin products row block by row block, so their memory does
not grow with N times the number of symbols or streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filterbank import prototype_filter
from .params import WaveformParams
from .smoothing import NcOperators, coefficient_scan
from .smoothing import coefficient_stream  # noqa: F401  (timed here by perfbench/trace.py)

__all__ = [
    "psd_sample_stream",
    "PsdEstimate",
    "WelchAccumulator",
    "welch_psd",
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
    occupied band, which sits at the bottom ``1/oversample`` of the widened
    spectrum, is shifted to be symmetric around DC by
    exp(-j pi n / oversample), with n restarting at 0 on each call.  At
    oversample 1 the result is the plain CP-framed stream, each symbol's
    last ``n_cp`` samples then its core; ``n_cp`` must lie in [0, N).
    """
    if oversample < 1:
        raise ValueError("oversample factor must be >= 1")
    rows = np.asarray(cores, dtype=np.complex128).T  # one symbol per row
    if rows.ndim == 1:
        rows = rows[None, :]
    N = rows.shape[1]
    if not 0 <= n_cp < N:
        raise ValueError(f"CP length {n_cp} out of range for block of {N}")
    L, cp = N * oversample, n_cp * oversample
    if oversample > 1:
        rows = np.fft.ifft(np.fft.fft(rows, axis=1), n=L, axis=1)
    # The recentring phase at n = j*(L + cp) + t, for row j and position t
    # in the framed symbol, is (-1)^(j*(N + n_cp)) exp(-j pi t / oversample):
    # a period-2*oversample vector in t, with the sign of odd rows flipped
    # when N + n_cp is odd.  The interpolation gain is folded in.
    signs = (1.0,)
    if oversample > 1:
        period = np.exp(-1j * np.pi * np.arange(2 * oversample) / oversample)
        phase = oversample * np.resize(period, cp + L)
        if (N + n_cp) % 2:
            signs = (1.0, -1.0)
    else:
        phase = np.ones(cp + L)
    framed = np.empty((rows.shape[0], cp + L), dtype=np.complex128)
    step = len(signs)
    for j, sign in enumerate(signs):
        ph = sign * phase
        np.multiply(rows[j::step, L - cp :], ph[:cp], out=framed[j::step, :cp])
        np.multiply(rows[j::step], ph[cp:], out=framed[j::step, cp:])
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
#: its working memory to two arrays of this many windows
_WELCH_BLOCK = 64


def _stacked_rows(first: np.ndarray, second: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of ``first`` stacked on ``second``; copies only across the join."""
    n = len(first)
    if stop <= n:
        return first[start:stop]
    if start >= n:
        return second[start - n : stop - n]
    return np.concatenate([first[start:], second[: stop - n]])


class WelchAccumulator:
    """Streaming Welch PSD: feed chunks, read the average at the end.

    Hann-windowed segments advance by ``window_len - overlap``.
    Output frequencies are normalized to the sample rate of the chunks and
    fftshifted to [-1/2, 1/2).
    """

    def __init__(self, window_len: int, overlap: int | None = None):
        if window_len < 8:
            raise ValueError("segment length too short")
        if overlap is None:
            overlap = window_len // 2
        if not 0 <= overlap < window_len:
            raise ValueError("overlap must lie in [0, window_len)")
        self.window_len = window_len
        self.step = window_len - overlap
        # periodic Hann window; the textbook 0.5 - 0.5 cos(2 pi k / n)
        # differs from this form in the last bits, and so would the PSD
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_len + 1)[:-1])
        self._wnorm = np.sum(self.window**2)
        self._acc = np.zeros(window_len)
        self._count = 0
        self._tail = np.zeros(0, dtype=np.complex128)

    def process(self, chunk: np.ndarray) -> None:
        """Add every whole segment of the held tail plus ``chunk``; keep the rest.

        Only the tail and the first ``window_len - 1`` samples of the chunk
        are joined; the segments that start inside the chunk are views into
        it, so the chunk itself is never copied.
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
            for start in range(0, count, _WELCH_BLOCK):
                batch = _stacked_rows(head, body, start, min(start + _WELCH_BLOCK, count))
                spec = np.fft.fft(batch * self.window, axis=1)
                self._acc += np.sum(spec.real**2 + spec.imag**2, axis=0)
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


def welch_psd(samples: np.ndarray, window_len: int, overlap: int | None = None) -> PsdEstimate:
    """One-shot Welch estimate of an in-memory sample stream."""
    acc = WelchAccumulator(window_len, overlap=overlap)
    acc.process(samples)
    return acc.result()


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


class _LowRankPowerRecursion:
    """Shared small-matrix recursion behind the power/SIR evaluators.

    Everything reduces to (V+1) x (V+1) products once the covariance
    recursion E_i = I - P_tilde - P_tilde^H + P_tilde P_tilde^H
    + P_hat E_{i-1} P_hat^H is projected onto the low-rank factors
    P_hat = L P_1 and P_tilde = L P_2 with L = A^{-1} Q P_f^{-1}.
    """

    def __init__(self, ops: NcOperators):
        L, R, T = ops.gain, ops.P_1, ops.P_2
        self.N = ops.params.N
        self.LhL = L.conj().T @ L
        self.RL = R @ L
        self.TL = T @ L
        RRh = R @ R.conj().T
        TRh = T @ R.conj().T
        self.TTh = T @ T.conj().T
        self.base_S = (
            RRh
            - self.RL @ TRh
            - TRh.conj().T @ self.RL.conj().T
            + self.RL @ self.TTh @ self.RL.conj().T
        )
        self.S0 = RRh
        # trace(P_tilde P_tilde^H): the smooth power's fixed part and a
        # trace(E_i) piece, with trace(P_tilde)
        self.smooth_fixed = float(np.real(np.trace(self.TTh @ self.LhL)))
        self.tr_pt = complex(np.trace(self.TL))

    def run(self, n_symbols: int) -> tuple[np.ndarray, np.ndarray]:
        """(per_symbol_power, smooth_power) for indices 0..n_symbols-1."""
        data_power = np.empty(n_symbols)
        smooth_power = np.zeros(n_symbols)
        data_power[0] = float(self.N)
        S = self.S0.copy()
        for i in range(1, n_symbols):
            tr_hat = float(np.real(np.trace(S @ self.LhL)))
            smooth_power[i] = tr_hat + self.smooth_fixed
            data_power[i] = self.N - 2 * self.tr_pt.real + self.smooth_fixed + tr_hat
            S = self.base_S + self.RL @ S @ self.RL.conj().T
        return data_power, smooth_power


def sir_report(ops: NcOperators, n_symbols: int) -> SirReport:
    """Theoretical power and SIR sequences over symbol indices 0..n-1."""
    if n_symbols < 1:
        raise ValueError("need at least one symbol")
    data_power, smooth_power = _LowRankPowerRecursion(ops).run(n_symbols)
    with np.errstate(divide="ignore"):
        sir_db = 10.0 * np.log10(ops.params.N / smooth_power)
    closed = closed_form_sir(ops.params) if ops.is_unitary else None
    return SirReport(
        per_symbol_power=data_power,
        smooth_power=smooth_power,
        sir_db=sir_db,
        closed_form_db=closed,
    )


def closed_form_sir(p: WaveformParams) -> float:
    """Steady-state SIR in dB of the unitary configuration: KM/(2V+2).

    Only valid when the prototype is the Dirichlet pulse, where the
    modulation matrix is unitary: at beta = 0, and at any roll-off too
    narrow to shape a DFT bin.
    """
    if not prototype_filter(p).is_dirichlet:
        raise ValueError(f"closed-form SIR requires the Dirichlet pulse, got beta = {p.beta}")
    return 10.0 * np.log10(p.K * p.M / (2.0 * (p.V + 1)))


#: label rows drawn per block by :func:`empirical_sir` and
#: :func:`mc_smooth_power`; bounds their working memory to a few
#: (rows, columns) arrays, so no (N, columns) array is formed
_DRAW_BLOCK = 64


def _draw_products(
    ops: NcOperators, rng: np.random.Generator, pts: np.ndarray, cols: int, count: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Thin products P_1 D and P_2 D of an (N, cols) draw of constellation points.

    The labels are drawn ``_DRAW_BLOCK`` rows at a time.  ``integers`` fills
    in C order from the generator's own state, so consecutive row blocks are
    consecutive pieces of one (N, cols) draw.  Each block adds
    [P_1; P_2][:, rows] @ pts[labels] in one stacked product.  With
    ``count``, also returns how often each point occurs in columns 1..,
    the symbols after the unsmoothed head; else None.
    """
    N, V1 = ops.params.N, ops.V + 1
    stacked = np.vstack([ops.P_1, ops.P_2])
    acc = np.zeros((2 * V1, cols), dtype=np.complex128)
    counts = np.zeros(pts.size, dtype=np.int64) if count else None
    for start in range(0, N, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, N)
        labels = rng.integers(0, pts.size, size=(stop - start, cols))
        acc += stacked[:, start:stop] @ pts[labels]
        if count:
            counts += np.bincount(labels.ravel(), minlength=pts.size)
            counts -= np.bincount(labels[:, 0], minlength=pts.size)
    return acc[:V1], acc[V1:], counts


def empirical_sir(
    ops: NcOperators,
    rng: np.random.Generator,
    n_symbols: int,
    points: np.ndarray,
) -> float:
    """Monte-Carlo SIR (linear) over a smoothed stream, skipping the head.

    Measured where it matters: at the demodulator output, where the soft
    estimate is d + A^{-1} w, so signal and interference are the data
    vectors and the data-domain smooth contributions.  Data vectors draw
    i.i.d. from ``points``, a unit-energy constellation.  No (N, n_symbols)
    array is formed: the draw is reduced to its thin products P_1 D and
    P_2 D row block by row block, the recursion runs on them
    (:func:`coefficient_scan`), and the signal energy comes from label
    counts.  Raises when the stream carries no boundary discontinuity to
    smooth (zero interference).
    """
    if n_symbols < 2:
        raise ValueError("need at least two symbols to observe smoothing")
    pts = np.asarray(points, dtype=np.complex128)
    P1D, P2D, counts = _draw_products(ops, rng, pts, n_symbols, count=True)
    B, _ = coefficient_scan(ops, P1D, P2D)
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    intf = float(np.real(np.einsum("vi,vw,wi->", B[:, 1:].conj(), gram, B[:, 1:])))
    if intf <= 0:
        raise ZeroDivisionError("stream produced no smoothing interference")
    sig = float(counts @ np.abs(pts) ** 2)
    return sig / intf


def mc_smooth_power(
    ops: NcOperators,
    rng: np.random.Generator,
    n_streams: int,
    n_symbols: int,
    points: np.ndarray,
) -> np.ndarray:
    """Monte-Carlo mean of ||A^{-1} w_i||^2 per symbol index over streams.

    Data draw i.i.d. from ``points``, a unit-energy constellation.  Each
    symbol index draws its (N, n_streams) data in row blocks, reduced to
    the thin products P_1 D and P_2 D, and advances the coefficient
    recursion of all streams at once (:func:`coefficient_scan`), carrying
    across indices; no modulation is performed and no (N, n_streams) array
    is formed.
    """
    if n_streams < 1 or n_symbols < 1:
        raise ValueError("need at least one stream and one symbol")
    pts = np.asarray(points, dtype=np.complex128)
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    powers = np.zeros(n_symbols)
    carry = None
    for i in range(n_symbols):
        P1D, P2D, _ = _draw_products(ops, rng, pts, n_streams)
        B, carry = coefficient_scan(ops, P1D[:, None], P2D[:, None], carry)
        b = B[:, 0]
        powers[i] = float(np.real(np.einsum("vi,vw,wi->", b.conj(), gram, b))) / n_streams
    return powers
