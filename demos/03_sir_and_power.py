"""Self-interference cost of smoothing: power recursion, SIR, closed form.

The smooth correction is unknown at the receiver, so it acts as
interference.  Its expected power follows a small-matrix recursion over
symbol indices; at beta = 0 it settles at exactly 2(V+1), giving the
closed-form SIR of KM / (2V + 2).
"""

import numpy as np

from ncgfdm import (
    SeededRng,
    WaveformParams,
    build_basis,
    build_nc_operators,
    build_transmit_matrix,
    closed_form_sir,
    empirical_sir,
    mc_smooth_power,
    prototype_filter,
    qam_constellation,
    sir_report,
)


def operators(beta, V):
    p = WaveformParams(K=64, M=7, n_cp=70, beta=beta, V=V)
    g = prototype_filter(p)
    tm = build_transmit_matrix(g, p)
    return p, build_nc_operators(tm, build_basis(g, p), p, is_unitary=g.is_dirichlet)


c = qam_constellation(16)

print("steady smooth power and SIR at beta = 0:")
for V in (0, 2, 4, 6):
    p, ops = operators(0.0, V)
    curve = sir_report(ops, 40).smooth_power
    emp = empirical_sir(ops, SeededRng(V).generator, 5000, points=c.points)
    print(
        f"  V={V}: power {curve[-1]:.4f} (closed form {2 * (V + 1)}), "
        f"SIR {10 * np.log10(emp):.2f} dB empirical vs "
        f"{closed_form_sir(p):.2f} dB closed form"
    )

print("\nrecursion vs Monte-Carlo per symbol index (beta = 0.5, V = 2):")
p, ops = operators(0.5, 2)
theory = sir_report(ops, 8).smooth_power
mc = mc_smooth_power(ops, SeededRng(99).generator, 3000, 8, points=c.points)
for i in range(8):
    print(f"  index {i}: theory {theory[i]:.4f}  monte-carlo {mc[i]:.4f}")
