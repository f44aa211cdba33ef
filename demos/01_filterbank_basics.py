"""Build a GFDM modulation matrix and look at its basic structure.

Walks through the prototype filter, the circularly shifted subcarrier
columns, and the unitary special case where the frequency response
occupies exactly M rectangular DFT bins.
"""

import numpy as np

from ncgfdm import WaveformParams, build_transmit_matrix, prototype_filter

K, M = 16, 7
for beta in (0.0, 0.1, 0.5):
    p = WaveformParams(K=K, M=M, beta=beta)
    g = prototype_filter(p)
    tm = build_transmit_matrix(g, p)
    occupied = int(np.count_nonzero(np.abs(np.fft.fft(g.samples)) > 1e-9))
    unitary = np.linalg.norm(tm.A.conj().T @ tm.A - np.eye(p.N)) / np.sqrt(p.N)
    print(
        f"beta={beta:3.1f}: {occupied:2d} occupied DFT bins, "
        f"dirichlet={g.is_dirichlet}, cond(A) {tm.cond:.4f}, unitarity residual {unitary:.2e}"
    )

# every column is the prototype, circularly shifted in time and
# modulated in frequency: modulating a unit vector picks one out
p = WaveformParams(K=K, M=M, beta=0.5)
g = prototype_filter(p)
tm = build_transmit_matrix(g, p)
d = np.zeros(p.N)
d[3 * K + 5] = 1.0  # subcarrier 5, subsymbol 3
x = tm.modulate(d)
n = np.arange(p.N)
shifted = np.roll(g.samples, 3 * K) * np.exp(-2j * np.pi * 5 * n / K)
for name, want in (("column 3K+5 of A", tm.A[:, 3 * K + 5]), ("shifted filter", shifted)):
    print(f"modulated unit vector vs {name}: max diff {np.max(np.abs(x - want)):.2e}")
