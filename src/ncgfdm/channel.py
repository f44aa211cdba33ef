"""Channel models: AWGN, multipath Rayleigh block fading on the CP-framed
stream, ZF equalization.

The fading channel is a tapped-delay line over the CP-framed stream: output
sample n is sum_l h_l(block of n) s[n - d_l], with the path gains held for
the whole block (block fading).  After CP removal, paths within the CP act
on each core as a circular convolution; a path delayed past the CP reaches
into the previous block, which is inter-symbol interference.  Gains evolve
across symbols with a Jakes Doppler spectrum synthesized by a sum of
sinusoids (Clarke's model), one independent set of arrival angles and phases
per path.

Blocks are held one per row, (count, N): the layout in which the Gabor
modulator returns them in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelProfile",
    "ChannelRealization",
    "EVA_DELAYS_NS",
    "EVA_POWERS_DB",
    "eva_profile",
    "JakesFadingProcess",
    "awgn",
    "apply_channel",
    "zf_equalize",
    "DeepFadeError",
]

# 9-path Extended Vehicular A delay/power profile (3GPP LTE)
EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)

#: channel bin magnitude at or below which zero forcing counts as a deep fade
ZF_MIN_GAIN = 1e-12


class DeepFadeError(ArithmeticError):
    """ZF equalization hit a near-zero channel bin; carries the bin and symbol index."""

    def __init__(self, bin_index: int, magnitude: float, symbol_index: int | None = None):
        at = "" if symbol_index is None else f" of symbol {symbol_index}"
        super().__init__(
            f"channel bin {bin_index}{at} magnitude {magnitude:.3e} too small for ZF"
        )
        self.bin_index = bin_index
        self.symbol_index = symbol_index


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped-delay-line power profile plus Doppler for the fading process."""

    delays_ns: tuple
    powers_db: tuple
    sample_interval_ns: float = 9.3
    doppler_hz: float = 100.0

    def __post_init__(self):
        d = np.asarray(self.delays_ns, dtype=float)
        if d.size != len(self.powers_db):
            raise ValueError("delay and power lists must have equal length")
        if d.size == 0 or d[0] < 0 or np.any(np.diff(d) <= 0):
            raise ValueError("delays must be non-negative and strictly increasing")

    def tap_positions(self) -> np.ndarray:
        """Path delays rounded to the nearest sample."""
        return np.rint(np.asarray(self.delays_ns) / self.sample_interval_ns).astype(int)

    def linear_powers(self) -> np.ndarray:
        """Per-path linear powers, normalized to unit total."""
        p = 10.0 ** (np.asarray(self.powers_db) / 10.0)
        return p / p.sum()


def eva_profile(sample_interval_ns: float = 9.3, doppler_hz: float = 100.0) -> ChannelProfile:
    return ChannelProfile(EVA_DELAYS_NS, EVA_POWERS_DB, sample_interval_ns, doppler_hz)


@dataclass(frozen=True)
class ChannelRealization:
    """Block-fading realizations: sparse impulse responses and their DFTs.

    ``delays`` (P,) are the tap positions in samples, shared by every block;
    ``gains`` is (P,) for one block or (count, P) with one block per row,
    and ``H_diag`` is the N-point DFT of the response, (N,) or (count, N).
    ``symbols`` holds the symbol index of each block, or is None when the
    taps did not come from a fading process.
    """

    delays: np.ndarray
    gains: np.ndarray
    H_diag: np.ndarray
    symbols: np.ndarray | None = None

    @classmethod
    def from_taps(cls, taps: np.ndarray, symbols=None) -> "ChannelRealization":
        """From dense taps, (N,) or one block per row (count, N)."""
        taps = np.asarray(taps, dtype=np.complex128)
        delays = np.flatnonzero(np.any(np.atleast_2d(taps), axis=0))
        return cls(delays, taps[..., delays], np.fft.fft(taps, axis=-1), symbols)

    @property
    def taps(self) -> np.ndarray:
        """The dense impulse response, assembled on each access."""
        taps = np.zeros(self.gains.shape[:-1] + self.H_diag.shape[-1:], dtype=np.complex128)
        taps[..., self.delays] = self.gains
        return taps


@dataclass
class JakesFadingProcess:
    """Per-path Rayleigh gains with Jakes Doppler autocorrelation.

    Each path is a sum of ``n_sinusoids`` complex sinusoids at Doppler
    frequencies f_D cos(theta) with uniformly random angles and phases, so
    the gain autocorrelation across symbols follows J0(2 pi f_D tau).
    Gains are read at t = symbol_index * symbol_duration and held for the
    whole symbol (block fading).
    """

    profile: ChannelProfile
    block_len: int
    symbol_duration_s: float
    rng: np.random.Generator
    n_sinusoids: int = 32
    _angles: np.ndarray = field(init=False, repr=False)
    _phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_paths = len(self.profile.delays_ns)
        self._angles = self.rng.uniform(0.0, 2 * np.pi, size=(n_paths, self.n_sinusoids))
        self._phases = self.rng.uniform(0.0, 2 * np.pi, size=(n_paths, self.n_sinusoids))

    def gains(self, symbol_index) -> np.ndarray:
        """Unit-mean-power complex gain per path: (paths,) at one symbol index,
        (count, paths) for an array of them, each row equal to its own call."""
        t = np.asarray(symbol_index)[..., None, None] * self.symbol_duration_s
        arg = (
            2 * np.pi * self.profile.doppler_hz * t * np.cos(self._angles)
            + self._phases
        )
        # the sum over sinusoids runs along the contiguous last axis, as in a
        # per-index call, so batched gains are bitwise equal to per-index ones
        return np.exp(1j * arg).sum(axis=-1) / np.sqrt(self.n_sinusoids)

    def realization(self, symbol_index) -> ChannelRealization:
        """Taps of the block at one symbol index, or one block per row for an array."""
        positions = self.profile.tap_positions()
        if positions.max(initial=0) >= self.block_len:
            raise ValueError(
                f"path delay {positions.max()} samples exceeds block length {self.block_len}"
            )
        amps = np.sqrt(self.profile.linear_powers()) * self.gains(symbol_index)
        taps = np.zeros(amps.shape[:-1] + (self.block_len,), dtype=np.complex128)
        np.add.at(taps.T, positions, amps.T)
        return ChannelRealization.from_taps(taps, symbols=np.asarray(symbol_index))


def awgn(
    x: np.ndarray, sigma2: float, rng: np.random.Generator, per_row: bool = False
) -> np.ndarray:
    """Add circular complex Gaussian noise of total variance sigma2.

    The draw is all real parts, then all imaginary parts, in the C order of
    x; with ``per_row`` it is real then imaginary parts row by row, the
    order of one call per row.
    """
    if sigma2 < 0:
        raise ValueError("noise variance must be non-negative")
    x = np.asarray(x, dtype=np.complex128)
    if sigma2 == 0:
        return x
    if per_row:
        z = rng.standard_normal(x.shape[:-1] + (2, x.shape[-1]))
        noise = z[..., 0, :] + 1j * z[..., 1, :]
    else:
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    # in place, and bitwise equal to x + sqrt(sigma2 / 2) * noise
    noise *= np.sqrt(sigma2 / 2)
    noise += x
    return noise


def _check_length(h: ChannelRealization, x: np.ndarray) -> None:
    if x.shape[-1] != h.H_diag.shape[-1]:
        raise ValueError(
            f"length mismatch: signal {x.shape[-1]}, channel {h.H_diag.shape[-1]}"
        )


def apply_channel(
    h: ChannelRealization,
    x: np.ndarray,
    n_cp: int | None = None,
    tail: np.ndarray | None = None,
) -> np.ndarray:
    """Received cores of CP-framed blocks after the tapped-delay line.

    ``x`` holds the cores, (N,) or one block per row (count, N), and ``h``
    one realization for all of them or one per row.  Block i is sent as
    [x_i[N - n_cp:], x_i], the blocks back to back, and the cores are
    returned after CP removal.  Paths within the CP give each core's
    circular convolution, computed through the DFT; ``n_cp`` None takes
    every path to be within it.  A path d > n_cp adds, over the first
    d - n_cp samples of a core, the previous block's last samples minus
    the core's own wrapped ones.  ``tail`` ends the framed stream sent
    before x[0] and holds at least its last max-delay samples (the previous
    core will do); None means zeros, the start of a stream.
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_length(h, x)
    spec = np.fft.fft(x, axis=-1)
    spec *= h.H_diag
    y = np.fft.ifft(spec, axis=-1)
    if n_cp is None:
        return y
    N = x.shape[-1]
    xr, yr, gains = np.atleast_2d(x), np.atleast_2d(y), np.atleast_2d(h.gains)
    reach = h.delays.max(initial=n_cp) - n_cp
    if tail is not None and np.shape(tail)[-1] < reach:
        raise ValueError(
            f"tail of {np.shape(tail)[-1]} samples is shorter than the "
            f"{reach} samples that reach past the CP"
        )
    for path in np.flatnonzero(h.delays > n_cp):
        d = h.delays[path]
        e = d - n_cp
        isi = -xr[:, N - d : N - n_cp]
        isi[1:] += xr[:-1, N - e :]
        if tail is not None:
            isi[0] += tail[-e:]
        yr[:, :e] += gains[:, path, None] * isi
    return y


def zf_equalize(h: ChannelRealization, y: np.ndarray) -> np.ndarray:
    """DFT-domain division by the channel response (zero forcing), per block.

    Raises :class:`DeepFadeError` naming the first block, in row order,
    whose response has a bin at or below ``ZF_MIN_GAIN``.
    """
    y = np.asarray(y, dtype=np.complex128)
    _check_length(h, y)
    faded = np.flatnonzero(np.atleast_1d(np.abs(h.H_diag).min(axis=-1)) <= ZF_MIN_GAIN)
    if faded.size:
        row = faded[0]
        mags = np.abs(np.atleast_2d(h.H_diag)[row])
        worst = int(np.argmin(mags))
        symbol = None if h.symbols is None else int(np.atleast_1d(h.symbols)[row])
        raise DeepFadeError(worst, float(mags[worst]), symbol)
    spec = np.fft.fft(y, axis=-1)
    spec /= h.H_diag
    return np.fft.ifft(spec, axis=-1)
