import functools

import numpy as np
import pytest
import scipy.signal

from ncgfdm.filterbank import build_transmit_matrix, prototype_filter
from ncgfdm.params import WaveformParams, qam_constellation
from ncgfdm.smoothing import build_basis, build_nc_operators


@functools.lru_cache(maxsize=32)
def built(K, M, n_cp=0, beta=0.0, V=0, filter_kind="rc"):
    """Cached (params, filter, transmit matrix) for a configuration."""
    p = WaveformParams(K=K, M=M, n_cp=n_cp, beta=beta, V=V, filter_kind=filter_kind)
    g = prototype_filter(p)
    return p, g, build_transmit_matrix(g, p)


@functools.lru_cache(maxsize=32)
def built_ops(K, M, n_cp, beta, V):
    """Cached full operator set."""
    p, g, tm = built(K, M, n_cp, beta, V)
    basis = build_basis(g, p)
    ops = build_nc_operators(tm, basis, p, is_unitary=g.is_dirichlet)
    return p, g, tm, ops


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
        w = ops.Q @ b
        X_bar.append(A @ d + w)
        D_bar.append(d + A_inv @ w)
    return np.stack(X_bar, axis=1), np.stack(D_bar, axis=1)


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


def dense_p_tilde(ops):
    """P_tilde = A^-1 Q P_f^-1 P_2 as a dense N x N matrix (small N only)."""
    return np.linalg.inv(ops.tm.A) @ ops.Q @ ops.P_f_inv @ ops.P_2


def dense_p_hat(ops):
    """P_hat = A^-1 Q P_f^-1 P_1 as a dense N x N matrix (small N only)."""
    return np.linalg.inv(ops.tm.A) @ ops.Q @ ops.P_f_inv @ ops.P_1


@pytest.fixture(scope="session")
def qam16():
    return qam_constellation(16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
