"""Receiver: iterative recovery of the data from smoothed symbol cores.

Modulation and zero-forcing demodulation are :meth:`TransmitMatrix.modulate`
and :meth:`TransmitMatrix.demodulate`, smoothing is
:func:`ncgfdm.smoothing.smooth_stream`, and CP framing is
:func:`ncgfdm.spectrum.psd_sample_stream` at oversample 1.
"""

from __future__ import annotations

import numpy as np

from .params import Constellation, hard_decision
from .smoothing import NcOperators

__all__ = ["recover_iterative"]


def recover_iterative(ops: NcOperators, y: np.ndarray, c: Constellation, n_iter: int = 4):
    """Strip the unknown smooth signal from equalized cores by iteration.

    Each round estimates the smooth contribution from the current hard data
    estimate, removes it, and re-demodulates:

        w(r)  = Q P_f^{-1} P_2 (A^{-1} y - d_hat(r-1))
        y(r)  = A^{-1} y - A^{-1} w(r)
        d_hat(r) = hard_decision(y(r))

    starting from d_hat(0) = 0.  Noiseless streams converge exactly once the
    hard decisions are correct.  ``y`` is one core (N,) or one core per
    column (N, count); returns the last soft estimates y(n_iter), undecided,
    in the same shape.
    """
    if n_iter < 1:
        raise ValueError("at least one recovery iteration is required")
    z = ops.tm.demodulate(y)  # A^{-1} y, reused every round
    pf_p2 = ops.P_f_inv @ ops.P_2
    d_hat = np.zeros_like(z)
    for r in range(n_iter):
        if r:
            d_hat = hard_decision(soft, c)
        b = pf_p2 @ (z - d_hat)
        soft = z - ops.A_inv_Q @ b
    return soft
