"""Receiver: iterative recovery of the data from demodulated smoothed cores.

Modulation and zero-forcing demodulation are :meth:`TransmitMatrix.modulate`
and :meth:`TransmitMatrix.demodulate`, the one way into each; recovery takes
the demodulated cores z = A^{-1} y and only strips the smooth signal from
them.  Smoothing is :func:`ncgfdm.smoothing.smooth_stream`, and CP framing
is :func:`ncgfdm.spectrum.psd_sample_stream` at oversample 1.
"""

from __future__ import annotations

import numpy as np

from .params import Constellation, _check_count, hard_decision
from .smoothing import NcOperators

__all__ = ["recover_iterative"]


#: a recovery block holds about this many complex values (512 KiB) per array,
#: so that all rounds of one block run in cache
_RECOVER_BLOCK = 1 << 15


def recover_iterative(ops: NcOperators, z: np.ndarray, c: Constellation, n_iter: int = 4):
    """Strip the unknown smooth signal from demodulated cores by iteration.

    ``z = A^{-1} y`` holds the zero-forcing demodulation of the equalized
    cores y (:meth:`TransmitMatrix.demodulate`).  Each round estimates the
    smooth contribution from the current hard data estimate and removes its
    image under A^{-1}:

        w(r)  = Q P_f^{-1} P_2 (z - d_hat(r-1))
        y(r)  = z - A^{-1} w(r)
        d_hat(r) = hard_decision(y(r))

    starting from d_hat(0) = 0.  Noiseless streams converge exactly once the
    hard decisions are correct.  ``z`` is one core (N,) or one core per
    column (N, count); returns the last soft estimates y(n_iter), undecided,
    in the same shape.

    The columns are recovered in blocks of about ``_RECOVER_BLOCK`` values,
    all rounds on one block before the next, each block held one symbol per
    row as :meth:`TransmitMatrix.demodulate` stores it.  A block stops at
    the first round whose hard decisions equal the previous round's: every
    later round would repeat the same arithmetic on the same inputs, so the
    block's estimate is still round ``n_iter``'s.
    """
    _check_count("n_iter", n_iter, 1)  # at least one recovery iteration
    rows = np.ascontiguousarray(np.atleast_2d(z.T))  # one symbol per row
    pf_p2 = (ops.P_f_inv @ ops.P_2).T
    a_inv_q = ops.A_inv_Q.T
    soft = np.empty_like(rows)
    step = max(1, _RECOVER_BLOCK // rows.shape[1])
    for lo in range(0, rows.shape[0], step):
        z_blk, soft_blk = rows[lo : lo + step], soft[lo : lo + step]
        d_hat = None
        for r in range(n_iter):
            if r:
                decided = hard_decision(soft_blk, c)
                # points are never nan, so equal floats mean equal decisions
                if d_hat is not None and np.array_equal(
                    decided.view(np.float64), d_hat.view(np.float64)
                ):
                    break  # a fixed point: soft_blk is every later round's
                d_hat = decided
            b = (z_blk if d_hat is None else z_blk - d_hat) @ pf_p2
            np.subtract(z_blk, b @ a_inv_q, out=soft_blk)
    return soft.T.reshape(z.shape)
