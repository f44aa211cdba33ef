"""Transceiver chain: modulation, CP framing, demodulation, iterative recovery.

All routines accept either a single vectorized symbol (1-D) or a batch of
symbols as columns of a 2-D array and preserve that shape on output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filterbank import TransmitMatrix
from .params import Constellation, hard_decision
from .smoothing import NcOperators, smooth_stream

__all__ = [
    "gfdm_modulate",
    "add_cyclic_prefix",
    "strip_cyclic_prefix",
    "frame_stream",
    "unframe_stream",
    "demodulate",
    "TransmitResult",
    "nc_transmit_stream",
    "recover_iterative",
]


def _as_columns(d: np.ndarray) -> tuple[np.ndarray, bool]:
    d = np.asarray(d, dtype=np.complex128)
    if d.ndim == 1:
        return d[:, None], True
    if d.ndim == 2:
        return d, False
    raise ValueError("expected a vector or a matrix of column vectors")


def gfdm_modulate(tm: TransmitMatrix, d: np.ndarray) -> np.ndarray:
    """Core samples of one or more symbols: x = A d, through the Gabor structure."""
    return tm.modulate(d)


def add_cyclic_prefix(x: np.ndarray, n_cp: int) -> np.ndarray:
    """Prepend the last n_cp core samples."""
    cols, squeeze = _as_columns(x)
    if not 0 <= n_cp < cols.shape[0]:
        raise ValueError(f"CP length {n_cp} out of range for block of {cols.shape[0]}")
    framed = np.concatenate([cols[cols.shape[0] - n_cp :, :], cols], axis=0)
    return framed[:, 0] if squeeze else framed


def strip_cyclic_prefix(y: np.ndarray, n_cp: int) -> np.ndarray:
    """Drop the first n_cp samples of each framed block."""
    cols, squeeze = _as_columns(y)
    if not 0 <= n_cp < cols.shape[0]:
        raise ValueError(f"CP length {n_cp} out of range for block of {cols.shape[0]}")
    core = cols[n_cp:, :]
    return core[:, 0] if squeeze else core


def frame_stream(X: np.ndarray, n_cp: int) -> np.ndarray:
    """Serialize symbol cores (columns) into one CP-framed sample stream."""
    framed = add_cyclic_prefix(X, n_cp)
    cols, _ = _as_columns(framed)
    return cols.reshape(-1, order="F")


def unframe_stream(samples: np.ndarray, N: int, n_cp: int) -> np.ndarray:
    """Split a framed sample stream back into core columns."""
    samples = np.asarray(samples, dtype=np.complex128)
    block = N + n_cp
    if samples.size % block != 0:
        raise ValueError(f"stream length {samples.size} is not a multiple of {block}")
    framed = samples.reshape(block, -1, order="F")
    return framed[n_cp:, :]


def demodulate(tm: TransmitMatrix, y: np.ndarray) -> np.ndarray:
    """Zero-forcing soft data vectors d = A^{-1} y from equalized core samples."""
    return tm.demodulate(y)


@dataclass(frozen=True)
class TransmitResult:
    """Output of one smoothed transmit run.

    ``waveform`` is the framed sample stream; ``cores`` the smoothed symbol
    cores (columns); ``data`` the transmitted data vectors; ``data_effective``
    the effective vectors d + A^{-1} w actually carried by each core;
    ``smooth_equivalent`` the data-domain smooth contributions A^{-1} w;
    ``carry`` continues the stream (see :func:`smooth_stream`).
    """

    waveform: np.ndarray
    cores: np.ndarray
    data: np.ndarray
    data_effective: np.ndarray
    smooth_equivalent: np.ndarray
    carry: np.ndarray | None


def nc_transmit_stream(
    ops: NcOperators, D: np.ndarray, carry: np.ndarray | None = None
) -> TransmitResult:
    """Smooth and frame a stream of vectorized data symbols (columns of D)."""
    cols, _ = _as_columns(D)
    X_bar, B, carry = smooth_stream(ops, cols, carry)
    W_equiv = ops.A_inv_Q @ B
    return TransmitResult(
        waveform=frame_stream(X_bar, ops.params.n_cp),
        cores=X_bar,
        data=cols,
        data_effective=cols + W_equiv,
        smooth_equivalent=W_equiv,
        carry=carry,
    )


def recover_iterative(
    ops: NcOperators,
    y: np.ndarray,
    c: Constellation,
    n_iter: int = 4,
    return_trajectory: bool = False,
):
    """Strip the unknown smooth signal from equalized cores by iteration.

    Each round estimates the smooth contribution from the current hard data
    estimate, removes it, and re-demodulates:

        w(r)  = Q P_f^{-1} P_2 (A^{-1} y - d_hat(r-1))
        y(r)  = A^{-1} y - A^{-1} w(r)
        d_hat(r) = hard_decision(y(r))

    starting from d_hat(0) = 0.  Noiseless streams converge exactly once the
    hard decisions are correct.  Returns the last soft estimates y(n_iter),
    undecided, or (soft, trajectory) with the per-iteration soft estimates
    when ``return_trajectory`` is set.
    """
    cols, squeeze = _as_columns(y)
    if n_iter < 1:
        raise ValueError("at least one recovery iteration is required")
    z = ops.tm.demodulate(cols)  # A^{-1} y, reused every round
    pf_p2 = ops.P_f_inv @ ops.P_2
    d_hat = np.zeros_like(z)
    trajectory = []
    for r in range(n_iter):
        if r:
            d_hat = hard_decision(soft, c)
        b = pf_p2 @ (z - d_hat)
        soft = z - ops.A_inv_Q @ b
        if return_trajectory:
            trajectory.append(soft[:, 0] if squeeze else soft)
    out = soft[:, 0] if squeeze else soft
    return (out, trajectory) if return_trajectory else out
