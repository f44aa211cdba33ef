"""Prototype filter, circularly shifted filter bank, and the transmit matrix.

The prototype is defined by its length-N DFT: a raised-cosine taper of
roll-off ``beta`` across one subcarrier spacing (M bins), linear phase (real
response), then inverse DFT and energy normalization.  At ``beta = 0`` the
response degenerates to M equal-magnitude bins, i.e. a Dirichlet pulse; for
even M the extra bin goes to the negative-frequency side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DIRICHLET, WaveformParams

__all__ = [
    "PrototypeFilter",
    "TransmitMatrix",
    "prototype_filter",
    "shifted_filter",
    "build_transmit_matrix",
    "SingularMatrixError",
]

#: condition number above which a matrix is treated as singular
COND_LIMIT = 1e12


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix is numerically singular; carries its condition number."""

    def __init__(self, what: str, cond: float):
        super().__init__(f"{what} is numerically singular (condition {cond:.3e})")
        self.cond = cond


@dataclass(frozen=True)
class PrototypeFilter:
    """Length-N prototype pulse g(n), unit energy.

    ``is_dirichlet`` marks pulses whose DFT has exactly M equal-magnitude
    bins.  This covers beta = 0 and also small roll-offs where no DFT bin
    falls inside the roll-off region (the bin grid quantizes the taper), in
    which case the modulation matrix is unitary.
    """

    samples: np.ndarray
    kind: str
    beta: float
    is_dirichlet: bool = False

    @property
    def N(self) -> int:
        return self.samples.size

    def spectrum(self) -> np.ndarray:
        """N-point DFT of the pulse."""
        return np.fft.fft(self.samples)


@dataclass(frozen=True)
class TransmitMatrix:
    """The N x N modulation matrix A, held as the pulse's polyphase factor.

    Column ``m*K + k`` of A is the subcarrier-k, subsymbol-m shifted filter.
    A is a Gabor synthesis operator, A = IFFT_M diag(Zg) FFT_M FFT_K, with
    the M-point transforms per residue r = n mod K, the K-point one per
    subsymbol and Zg = ``polyphase`` = fft_M(g.reshape(M, K)).  FFT_K / sqrt(K)
    is unitary and the unitary DFT diagonalizes IFFT_M diag(Zg) FFT_M, so the
    singular values of A are sqrt(K)|Zg|.  These N numbers give A, A^{-1},
    A^H and cond(A) in O(N log N) per symbol; no N x N array is stored.
    """

    g: np.ndarray
    K: int
    M: int
    polyphase: np.ndarray

    @property
    def N(self) -> int:
        return self.g.size

    @property
    def cond(self) -> float:
        """Exact 2-norm condition number of A, max|Zg| / min|Zg| (inf if singular)."""
        mag = np.abs(self.polyphase)
        return np.inf if mag.min() == 0 else float(mag.max() / mag.min())

    @property
    def A(self) -> np.ndarray:
        """Dense A assembled from the shifted filters on every access: an oracle."""
        n, K = np.arange(self.N), self.K
        phases = np.exp(-2j * np.pi * np.outer(n, np.arange(K)) / K)  # N x K
        return np.hstack([np.roll(self.g, m * K)[:, None] * phases for m in range(self.M)])

    def _rows(self, D: np.ndarray) -> tuple[np.ndarray, tuple]:
        """One symbol per row as (count, M, K), and the shape to return."""
        D = np.asarray(D, dtype=np.complex128)
        if D.ndim not in (1, 2) or D.shape[0] != self.N:
            raise ValueError(f"data shape {D.shape} is not (N,) or (N, count), N = {self.N}")
        return D.T.reshape(-1, self.M, self.K), D.shape

    def modulate(self, D: np.ndarray) -> np.ndarray:
        """A D for one symbol (N,) or one symbol per column (N, count).

        With D[m*K + k] = d_m[k] and n = q*K + r,
        x[q*K + r] = sum_m g[((q - m) mod M)*K + r] s_m[r], where
        s_m = fft_K(d_m): a K-point FFT per subsymbol, then one M-point
        circular convolution in the subsymbol index per residue r, applied
        through ``polyphase``.
        """
        rows, shape = self._rows(D)
        S = np.fft.fft(np.fft.fft(rows, axis=2), axis=1)
        S *= self.polyphase
        return np.fft.ifft(S, axis=1).reshape(-1, self.N).T.reshape(shape)

    def _analyse(self, Y: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """IFFT_K IFFT_M diag(factor) FFT_M applied to each symbol of Y."""
        rows, shape = self._rows(Y)
        S = np.fft.fft(rows, axis=1)
        S *= factor
        out = np.fft.ifft(np.fft.ifft(S, axis=1), axis=2)
        return out.reshape(-1, self.N).T.reshape(shape)

    def demodulate(self, Y: np.ndarray) -> np.ndarray:
        """Zero-forcing A^{-1} Y, same shapes as :meth:`modulate`."""
        return self._analyse(Y, 1.0 / self.polyphase)

    def adjoint(self, Y: np.ndarray) -> np.ndarray:
        """Gabor analysis A^H Y; FFT_K^H = K IFFT_K gives the factor K conj(Zg)."""
        return self._analyse(Y, self.K * self.polyphase.conj())


def _rc_frequency_response(N: int, M: int, beta: float) -> np.ndarray:
    """Real raised-cosine response over the N DFT bins, one subcarrier wide.

    Bin offsets are taken symmetrically around DC (fftfreq convention).  For
    even M the response is evaluated half a bin up, which assigns the extra
    passband bin to the negative-frequency side at beta = 0 and, for
    beta > 0, keeps the two edge bins unequal.  Equal edge bins would make
    the modulation matrix exactly singular (the circulant factor per bin
    residue acquires a zero eigenvalue when the decimated response repeats).
    """
    f = np.fft.fftfreq(N) * N + (0.5 if M % 2 == 0 else 0.0)
    if beta == 0.0:
        return (np.abs(f) < M / 2).astype(float)
    a = np.abs(f)
    flat = (1 - beta) * M / 2
    stop = (1 + beta) * M / 2
    resp = np.zeros(N)
    resp[a <= flat] = 1.0
    roll = (a > flat) & (a < stop)
    resp[roll] = 0.5 * (1 + np.cos(np.pi * (a[roll] - flat) / (beta * M)))
    return resp


def prototype_filter(p: WaveformParams) -> PrototypeFilter:
    """Build the unit-energy prototype pulse for the validated params."""
    p.validate()
    beta = 0.0 if p.filter_kind == DIRICHLET else p.beta
    resp = _rc_frequency_response(p.N, p.M, beta)
    flat = bool(np.all((resp == 0.0) | (resp == 1.0)))
    g = np.fft.ifft(resp)
    g /= np.linalg.norm(g)
    return PrototypeFilter(samples=g, kind=p.filter_kind, beta=beta, is_dirichlet=flat)


def shifted_filter(g: PrototypeFilter, k: int, m: int, K: int, M: int) -> np.ndarray:
    """Subcarrier/subsymbol shifted filter: g((n - m*K) mod N) e^{-j2pi k n / K}."""
    if not 0 <= k < K:
        raise IndexError(f"subcarrier index {k} out of range [0, {K})")
    if not 0 <= m < M:
        raise IndexError(f"subsymbol index {m} out of range [0, {M})")
    N = g.N
    n = np.arange(N)
    return np.roll(g.samples, m * K) * np.exp(-2j * np.pi * k * n / K)


def build_transmit_matrix(g: PrototypeFilter, p: WaveformParams) -> TransmitMatrix:
    """The modulation matrix of pulse ``g`` as its polyphase factor Zg.

    Raises :class:`SingularMatrixError` when cond(A) exceeds ``COND_LIMIT``.
    """
    p.validate()
    polyphase = np.fft.fft(g.samples.reshape(p.M, p.K), axis=0)
    tm = TransmitMatrix(g=g.samples, K=p.K, M=p.M, polyphase=polyphase)
    if tm.cond > COND_LIMIT:
        raise SingularMatrixError("transmit matrix", tm.cond)
    return tm
