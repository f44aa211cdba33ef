"""Smooth a symbol stream and verify continuity at the block boundaries.

The smoother adds a rank-(V+1) correction to each transmitted block so
the CP-framed waveform and its first V derivatives are continuous from
one block to the next.  The first block goes out untouched; everything
after that is corrected against its predecessor.
"""

import numpy as np

from ncgfdm import (
    WaveformParams,
    boundary_mismatch_dft,
    build_basis,
    build_nc_operators,
    build_transmit_matrix,
    derivative_scales,
    prototype_filter,
    qam_constellation,
    smooth_stream,
)

p = WaveformParams(K=64, M=7, n_cp=70, beta=0.5, V=2)
g = prototype_filter(p)
tm = build_transmit_matrix(g, p)
ops = build_nc_operators(tm, build_basis(g, p), p, is_unitary=g.is_dirichlet)

c = qam_constellation(16)
rng = np.random.default_rng(7)
D = c.points[rng.integers(0, 16, size=(p.N, 5))]

X_plain = tm.modulate(D)
X_smooth, B, _ = smooth_stream(ops, D)
W_equiv = ops.A_inv_Q @ B  # the correction as seen in the data domain

print(f"config: K={p.K} M={p.M} n_cp={p.n_cp} beta={p.beta} V={p.V}")
print("relative boundary gap (value and first 2 derivatives), per transition:")
for i in range(1, 5):
    for label, X in (("plain ", X_plain), ("smooth", X_smooth)):
        gaps = boundary_mismatch_dft(X[:, i - 1], X[:, i], p.V, p.n_cp)
        scales = np.maximum(
            derivative_scales(X[:, i - 1], p.V), derivative_scales(X[:, i], p.V)
        )
        worst = np.max(np.abs(gaps) / scales)
        print(f"  symbol {i - 1} -> {i}  {label}: {worst:.2e}")

# the correction is tiny relative to the data it protects
energy = np.sum(np.abs(W_equiv) ** 2, axis=0)
print("per-symbol correction energy (data energy is N = %d):" % p.N)
print("  " + "  ".join(f"{e:.2f}" for e in energy))
