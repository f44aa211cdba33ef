import functools

import numpy as np
import pytest
import scipy.signal

from ncgfdm import smoothing
from ncgfdm.filterbank import build_transmit_matrix, prototype_filter
from ncgfdm.params import WaveformParams, decision_labels, qam_constellation
from ncgfdm.smoothing import build_basis, build_nc_operators


@functools.lru_cache(maxsize=32)
def built(K, M, n_cp=0, beta=0.0, V=0):
    """Cached (params, filter, transmit matrix) for a configuration."""
    p = WaveformParams(K=K, M=M, n_cp=n_cp, beta=beta, V=V)
    g = prototype_filter(p)
    return p, g, build_transmit_matrix(g, p)


@functools.lru_cache(maxsize=32)
def built_ops(K, M, n_cp, beta, V):
    """Cached full operator set."""
    p, g, tm = built(K, M, n_cp, beta, V)
    basis = build_basis(g, p)
    ops = build_nc_operators(tm, basis, p, is_unitary=g.is_dirichlet)
    return p, g, tm, ops


def shifted_filter(g, k: int, m: int, K: int) -> np.ndarray:
    """Oracle: the subcarrier-k, subsymbol-m shifted filter, sample by sample.

    g((n - m*K) mod N) e^{-j 2 pi k n / K} for n = 0..N-1: column m*K + k of A.
    """
    N = g.samples.size
    return np.array(
        [g.samples[(n - m * K) % N] * np.exp(-2j * np.pi * k * n / K) for n in range(N)]
    )


def basis_signal(F0: np.ndarray, order: int, n, n_cp: int, max_order: int | None = None):
    """Oracle: the order-v basis signal at sample index n in -n_cp..N-1.

    f_v(n) = (1/N) sum_l (j 2 pi l / N)^v F0(l) exp(j 2 pi (n + n_cp) l / N).
    Accepts scalar or array n, including fractional indices.
    """
    if order < 0 or (max_order is not None and order > max_order):
        raise ValueError(f"basis order {order} out of range [0, {max_order}]")
    F0 = np.asarray(F0)
    N = F0.size
    l = np.arange(N)
    fac = (2j * np.pi * l / N) ** order * F0
    t = np.atleast_1d(np.asarray(n)) + n_cp
    vals = (np.exp(2j * np.pi * np.outer(t, l) / N) @ fac) / N
    return vals if np.ndim(n) else vals[0]


def reference_smooth(ops, D):
    """Oracle: the smoothing recursion one symbol at a time, on dense A.

    b_i = P_f^-1 (P_1 d_bar_{i-1} - P_2 d_i), x_bar_i = A d_i + Q b_i and
    d_bar_i = d_i + A^-1 Q b_i; the first symbol goes out unsmoothed.
    Returns (X_bar, D_bar) with one symbol per column.
    """
    A = ops.tm.A
    A_inv = np.linalg.inv(A)
    X_bar, D_bar = [], []
    for i, d in enumerate(np.asarray(D, dtype=complex).T):
        if i == 0:
            b = np.zeros(ops.V + 1, dtype=complex)
        else:
            b = ops.P_f_inv @ (ops.P_1 @ D_bar[-1] - ops.P_2 @ d)
        w = ops.basis.Q @ b
        X_bar.append(A @ d + w)
        D_bar.append(d + A_inv @ w)
    return np.stack(X_bar, axis=1), np.stack(D_bar, axis=1)


def reference_recover(ops, y, c, n_iter):
    """Oracle: iterative recovery over all columns at once, every round run.

    z = A^-1 y; round r strips Q P_f^-1 P_2 (z - d_hat) with d_hat = 0 in
    round 0 and the nearest points to the previous round's soft estimate
    after; returns the soft estimate of the last round, in the shape of y.
    """
    z = ops.tm.demodulate(y)
    pf_p2 = ops.P_f_inv @ ops.P_2
    d_hat = np.zeros_like(z)
    for r in range(n_iter):
        if r:
            d_hat = c.points[decision_labels(soft, c)]
        soft = z - ops.A_inv_Q @ (pf_p2 @ (z - d_hat))
    return soft


def reference_labels(rng, order, shape):
    """Oracle: labels of ``order`` = 2**b points as b-bit fields of random bytes.

    One call to ``rng.bytes`` supplies ceil(n b / 8) bytes for the n labels
    of ``shape``; their bits, each byte most significant bit first, are cut
    into consecutive b-bit fields, read most significant bit first and laid
    out in C order.
    """
    bits = int(order).bit_length() - 1
    n = int(np.prod(shape))
    buf = np.frombuffer(rng.bytes(-(-n * bits // 8)), dtype=np.uint8)
    fields = np.unpackbits(buf, count=n * bits).reshape(n, bits).astype(np.int64)
    return (fields @ (1 << np.arange(bits - 1, -1, -1))).reshape(shape)


def reference_empirical_sir(ops, rng, n_symbols, points, chunk=None):
    """Oracle: Monte-Carlo SIR over whole (N, chunk) draws, one after another.

    Draws every label of a chunk in one call and gathers all of its D, then
    runs the smoothing recursion one symbol at a time on the thin products
    P_1 D and P_2 D, carrying it from one chunk into the next, and sums |D|^2
    over the symbols after the unsmoothed head.  ``chunk`` None draws the
    whole (N, n_symbols) stream at once.
    """
    pts = np.asarray(points, dtype=np.complex128)
    chunk = chunk or n_symbols
    G = ops.P_1 @ ops.A_inv_Q
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    carry = None
    sig = intf = 0.0
    for start in range(0, n_symbols, chunk):
        D = pts[reference_labels(rng, pts.size, (ops.params.N, min(chunk, n_symbols - start)))]
        P1D, P2D = ops.P_1 @ D, ops.P_2 @ D
        for i in range(D.shape[1]):
            if carry is None:  # the head is sent unsmoothed
                b = np.zeros(ops.V + 1, dtype=complex)
            else:
                b = ops.P_f_inv @ (carry - P2D[:, i])
            carry = P1D[:, i] + G @ b
            intf += float(np.real(b.conj() @ gram @ b))
        sig += float(np.sum(np.abs(D[:, 1 if start == 0 else 0 :]) ** 2))
    return sig / intf


def oversample_symbol(x: np.ndarray, oversample: int) -> np.ndarray:
    """Oracle: bandlimited interpolation of each column by DFT zero-padding.

    The occupied band lives on bins 0..N-1, so padding is one-sided: the
    original N bins stay in place and empty bins are appended.  Amplitude is
    rescaled so the original samples are interpolated exactly.
    """
    x = np.asarray(x, dtype=np.complex128)
    if oversample < 1:
        raise ValueError("oversample factor must be >= 1")
    if oversample == 1:
        return x.copy()
    N = x.shape[0]
    X = np.fft.fft(x, axis=0)
    shape = (oversample * N,) + x.shape[1:]
    Xp = np.zeros(shape, dtype=np.complex128)
    Xp[:N] = X
    return oversample * np.fft.ifft(Xp, axis=0)


def reference_psd_sample_stream(cores, n_cp, oversample, recenter=True):
    """Oracle: the oversampled CP-framed stream, one column at a time.

    Zero-pads each core column, CP-frames the columns, serializes them in
    column order and multiplies the whole stream by exp(-j pi n / oversample)
    with n counted from 0.
    """
    cores = np.asarray(cores, dtype=np.complex128)
    if cores.ndim == 1:
        cores = cores[:, None]
    up = oversample_symbol(cores, oversample)
    cp = n_cp * oversample
    framed = np.concatenate([up[up.shape[0] - cp :, :], up], axis=0)
    stream = framed.reshape(-1, order="F")
    if recenter and oversample > 1:
        n = np.arange(stream.size)
        stream = stream * np.exp(-1j * np.pi * n / oversample)
    return stream


def reference_welch(chunks, window_len, overlap):
    """Oracle: Welch sums one segment at a time over a chunked stream.

    Returns (sum of |FFT|^2 over segments, segment count, leftover tail).
    """
    window = scipy.signal.get_window("hann", window_len)
    step = window_len - overlap
    acc = np.zeros(window_len)
    count = 0
    tail = np.zeros(0, dtype=np.complex128)
    for chunk in chunks:
        buf = np.concatenate([tail, np.asarray(chunk, dtype=np.complex128)])
        pos = 0
        while pos + window_len <= buf.size:
            acc += np.abs(np.fft.fft(buf[pos : pos + window_len] * window)) ** 2
            count += 1
            pos += step
        tail = buf[pos:]
    return acc, count, tail


def dense_taps(h):
    """Oracle: the dense impulse response of a channel realization, (N,) or
    one block per row (count, N), with the gains of equal delays summed."""
    taps = np.zeros(h.gains.shape[:-1] + h.H_diag.shape[-1:], dtype=np.complex128)
    np.add.at(taps.T, h.delays, h.gains.T)
    return taps


def dense_p_tilde(ops):
    """P_tilde = A^-1 Q P_f^-1 P_2 as a dense N x N matrix (small N only)."""
    return np.linalg.inv(ops.tm.A) @ ops.basis.Q @ ops.P_f_inv @ ops.P_2


def dense_p_hat(ops):
    """P_hat = A^-1 Q P_f^-1 P_1 as a dense N x N matrix (small N only)."""
    return np.linalg.inv(ops.tm.A) @ ops.basis.Q @ ops.P_f_inv @ ops.P_1


#: numpy's BLAS is the OpenBLAS 0.3.31 build for which column blocks are
#: stated to give the whole product's bits (see ``smoothing._matmul_blocks``)
BLOCKS_BITWISE = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"].startswith("0.3.31")


def record_products(monkeypatch) -> list:
    """(rows, inner, columns) of every ``np.matmul`` call that follows."""
    calls = []
    original = np.matmul

    def record(a, b, out=None):
        calls.append((a.shape[0], a.shape[1], b.shape[1]))
        return original(a, b, out=out)

    monkeypatch.setattr(np, "matmul", record)
    return calls


def one_thread(calls) -> bool:
    """Every product within the multiply-adds or the columns OpenBLAS forms
    on the calling thread."""
    return all(r * k * c <= smoothing._BLOCK_MACS or c < 32 for r, k, c in calls)


@pytest.fixture(scope="session")
def qam16():
    return qam_constellation(16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
