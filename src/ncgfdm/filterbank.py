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
import scipy.linalg

from .params import DIRICHLET, RAISED_COSINE, WaveformParams

__all__ = [
    "PrototypeFilter",
    "TransmitMatrix",
    "prototype_filter",
    "shifted_filter",
    "build_transmit_matrix",
    "SingularMatrixError",
]

#: condition estimate above which a dense inverse is refused
COND_LIMIT = 1e12


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix is numerically singular; carries the estimate."""

    def __init__(self, what: str, cond: float):
        super().__init__(f"{what} is numerically singular (condition estimate {cond:.3e})")
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

    def to_csv(self) -> str:
        """Filter dump: sample index, g real/imag, |DFT| magnitude."""
        mag = np.abs(self.spectrum())
        lines = ["n,g_real,g_imag,dft_magnitude"]
        for n in range(self.N):
            g = self.samples[n]
            lines.append(f"{n},{g.real:.17g},{g.imag:.17g},{mag[n]:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TransmitMatrix:
    """The N x N modulation matrix, its inverse, and the pulse's polyphase factor.

    Column ``m*K + k`` is the subcarrier-k, subsymbol-m shifted filter.  At
    beta = 0 the matrix is unitary and the inverse is the conjugate
    transpose.  ``polyphase`` is fft_M(g.reshape(M, K)) along the subsymbol
    axis, the M x K factor through which :meth:`modulate` applies A.
    """

    A: np.ndarray
    A_inv: np.ndarray
    K: int
    M: int
    polyphase: np.ndarray

    @property
    def N(self) -> int:
        return self.A.shape[0]

    def modulate(self, D: np.ndarray) -> np.ndarray:
        """A D for one symbol (N,) or one symbol per column (N, count).

        A is a Gabor synthesis operator.  With D[m*K + k] = d_m[k] and
        n = q*K + r, x[q*K + r] = sum_m g[((q - m) mod M)*K + r] s_m[r],
        where s_m = fft_K(d_m): a K-point FFT per subsymbol, then one
        M-point circular convolution in the subsymbol index per residue r,
        applied through ``polyphase``.  O(N log N) per symbol, against N^2
        for the dense product; A is never read.
        """
        D = np.asarray(D, dtype=np.complex128)
        if D.ndim not in (1, 2) or D.shape[0] != self.N:
            raise ValueError(f"data shape {D.shape} is not (N,) or (N, count), N = {self.N}")
        rows = D.T.reshape(-1, self.M, self.K)  # one symbol per row
        S = np.fft.fft(np.fft.fft(rows, axis=2), axis=1)
        S *= self.polyphase
        return np.fft.ifft(S, axis=1).reshape(-1, self.N).T.reshape(D.shape)


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
    if p.filter_kind not in (RAISED_COSINE, DIRICHLET):
        raise ValueError(f"unsupported filter kind {p.filter_kind!r}")
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


def estimate_condition(a: np.ndarray) -> tuple[float, tuple]:
    """1-norm condition estimate from an LU factorization; returns (cond, lu)."""
    lu, piv = scipy.linalg.lu_factor(a)
    anorm = np.linalg.norm(a, 1)
    rcond, _ = scipy.linalg.lapack.zgecon(lu, anorm)
    cond = np.inf if rcond == 0 else 1.0 / rcond
    return cond, (lu, piv)


def build_transmit_matrix(g: PrototypeFilter, p: WaveformParams) -> TransmitMatrix:
    """Assemble the modulation matrix, invert it, and keep the polyphase factor.

    The inverse comes from a pivoted dense solve; when the pulse is a
    Dirichlet (beta = 0) the matrix is unitary and the conjugate transpose
    is used directly.
    """
    p.validate()
    K, M, N = p.K, p.M, p.N
    n = np.arange(N)
    phases = np.exp(-2j * np.pi * np.outer(n, np.arange(K)) / K)  # N x K
    A = np.empty((N, N), dtype=np.complex128)
    for m in range(M):
        shifted = np.roll(g.samples, m * K)
        A[:, m * K : (m + 1) * K] = shifted[:, None] * phases
    if g.is_dirichlet:
        A_inv = A.conj().T
    else:
        cond, (lu, piv) = estimate_condition(A)
        if cond > COND_LIMIT:
            raise SingularMatrixError("transmit matrix", cond)
        A_inv = scipy.linalg.lu_solve((lu, piv), np.eye(N, dtype=np.complex128))
    polyphase = np.fft.fft(g.samples.reshape(M, K), axis=0)
    return TransmitMatrix(A=A, A_inv=A_inv, K=K, M=M, polyphase=polyphase)
