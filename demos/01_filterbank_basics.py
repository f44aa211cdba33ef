"""Build a GFDM modulation matrix and look at its basic structure.

Walks through the prototype filter, the circularly shifted subcarrier
columns, and the unitary special case where the frequency response
occupies exactly M rectangular DFT bins.
"""

import numpy as np

from ncgfdm import (
    WaveformParams,
    build_transmit_matrix,
    prototype_filter,
    shifted_filter,
)

K, M = 16, 7
for beta in (0.0, 0.1, 0.5):
    p = WaveformParams(K=K, M=M, beta=beta)
    g = prototype_filter(p)
    tm = build_transmit_matrix(g, p)
    occupied = int(np.count_nonzero(np.abs(g.spectrum()) > 1e-9))
    unitary = np.linalg.norm(tm.A.conj().T @ tm.A - np.eye(p.N)) / np.sqrt(p.N)
    print(
        f"beta={beta:3.1f}: {occupied:2d} occupied DFT bins, "
        f"dirichlet={g.is_dirichlet}, cond(A) {tm.cond:.4f}, unitarity residual {unitary:.2e}"
    )

# every column is the prototype, circularly shifted in time and
# modulated in frequency
p = WaveformParams(K=K, M=M, beta=0.5)
g = prototype_filter(p)
tm = build_transmit_matrix(g, p)
col = tm.A[:, 3 * K + 5]  # subcarrier 5, subsymbol 3
direct = shifted_filter(g, 5, 3, K, M)
print(f"column vs shifted filter: max diff {np.max(np.abs(col - direct)):.2e}")
