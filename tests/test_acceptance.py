"""End-to-end acceptance criteria.

Each test prints a single PASS/FAIL line with the measured numbers so the
whole gate can be read off a pytest -s run.  Oracles here are independent
of the library internals: closed forms, brute-force DFT evaluations, and an
analytic QAM error-rate formula.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc

from conftest import built_ops
from ncgfdm.experiments import (
    ExperimentConfig,
    noise_variance,
    run_ber,
    run_psd,
    run_validation,
)
from ncgfdm.params import SeededRng, demap_symbols, qam_constellation
from ncgfdm.smoothing import (
    boundary_mismatch_dft,
    coefficient_stream,
    derivative_scales,
    smooth_stream,
)
from ncgfdm.spectrum import (
    PsdEstimate,
    empirical_sir,
    mc_smooth_power,
    sidelobe_level,
    sir_report,
)
from ncgfdm.transceiver import recover_iterative


def report(n, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


def test_criterion_1_operator_identity_suite():
    rep = run_validation()
    worst = max(r[5] / r[6] for r in rep.rows)
    report(
        1,
        rep.passed,
        f"{len(rep.rows)} identity checks over the standard matrix, "
        f"worst residual at {worst:.2e} of tolerance, failures: {len(rep.failures())}",
    )


def test_criterion_2_n_continuity():
    worst = 0.0
    # beta=0.1 quantizes to the Dirichlet pulse at K=256, M=7; beta=0.5 does not
    configs = [(256, 7, 280, 0.1, 2), (256, 7, 280, 0.0, 4), (256, 7, 280, 0.5, 2)]
    for K, M, n_cp, beta, V in configs:
        p, _, _, ops = built_ops(K, M, n_cp, beta, V)
        c = qam_constellation(16)
        gen = SeededRng(1001).generator
        for _ in range(100):
            D = c.points[gen.integers(0, 16, size=(p.N, 3))]
            X, _, _ = smooth_stream(ops, D)
            for i in (1, 2):
                gaps = boundary_mismatch_dft(X[:, i - 1], X[:, i], V, n_cp)
                scales = np.maximum(
                    derivative_scales(X[:, i - 1], V), derivative_scales(X[:, i], V)
                )
                worst = max(worst, float(np.max(np.abs(gaps) / scales)))
    ok = worst <= 1e-6
    report(
        2,
        ok,
        f"continuity of value and V derivatives across {100 * len(configs)} random "
        f"3-symbol streams, worst relative boundary gap {worst:.2e} (limit 1e-6)",
    )


def test_criterion_3_sir_closed_form_and_ofdm_gap():
    c = qam_constellation(16)
    master = SeededRng(1002)
    details = []
    ok = True
    sir2 = None
    for i, V in enumerate((0, 2, 4)):
        _, _, _, ops = built_ops(256, 7, 280, 0.0, V)
        emp = 10 * math.log10(empirical_sir(ops, master.child(i), 10_000, points=c.points))
        closed = 10 * math.log10(256 * 7 / (2 * (V + 1)))
        ok &= abs(emp - closed) <= 0.2
        if V == 2:
            sir2 = emp
        details.append(f"V={V}: {emp:.2f} dB vs {closed:.2f} dB")
    _, _, _, ops1 = built_ops(256, 1, 40, 0.0, 2)
    emp1 = 10 * math.log10(empirical_sir(ops1, master.child(9), 10_000, points=c.points))
    gap = sir2 - emp1
    ok &= abs(gap - 8.45) <= 0.3
    report(
        3,
        ok,
        "empirical SIR within 0.2 dB of 10log10(KM/(2V+2)) [" + "; ".join(details)
        + f"]; gap to the M=1 waveform {gap:.2f} dB (expect 8.45 +/- 0.3)",
    )


def test_criterion_4_smooth_power_recursion():
    c = qam_constellation(16)
    # unitary case: steady mean against the 2(V+1) closed form
    _, _, _, ops = built_ops(256, 7, 280, 0.0, 2)
    D = c.points[SeededRng(1003).generator.integers(0, 16, size=(ops.params.N, 10_000))]
    B, _ = coefficient_stream(ops, D)
    gram = ops.A_inv_Q.conj().T @ ops.A_inv_Q
    powers = np.real(np.einsum("vi,vw,wi->i", B.conj(), gram, B))
    mean = float(powers[1:].mean())
    dev0 = abs(mean - 6.0) / 6.0
    ok = dev0 <= 0.03
    # shaped cases: recursion vs Monte-Carlo at every symbol index; beta=0.1
    # quantizes to the Dirichlet pulse, beta=0.5 gives a non-unitary A
    worst = {}
    for beta in (0.1, 0.5):
        _, _, _, ops_rc = built_ops(256, 7, 280, beta, 2)
        theory = sir_report(ops_rc, 21).smooth_power
        mc = mc_smooth_power(ops_rc, SeededRng(1004).generator, 2_000, 21, points=c.points)
        rel = np.abs(mc[1:] - theory[1:]) / theory[1:]
        ok &= bool(np.all(rel <= 0.03))
        worst[beta] = rel.max()
    report(
        4,
        ok,
        f"mean smooth power {mean:.4f} vs 6 (dev {dev0:.1%}); recursion vs "
        "Monte-Carlo over indices 1..20, worst deviation "
        + ", ".join(f"{w:.1%} at beta={b}" for b, w in worst.items())
        + " (limit 3%)",
    )


def test_criterion_5_noiseless_recovery():
    c = qam_constellation(16)
    total_errors = 0
    # beta=0.1 quantizes to the Dirichlet pulse; beta=0.5 gives a non-unitary A
    for beta, V in [(0.1, 0), (0.1, 2), (0.1, 4), (0.5, 0), (0.5, 2), (0.5, 4)]:
        _, _, _, ops = built_ops(256, 7, 280, beta, V)
        D = c.points[SeededRng(1005 + V).generator.integers(0, 16, size=(ops.params.N, 1000))]
        X, _, _ = smooth_stream(ops, D)
        soft = recover_iterative(ops, X, c, n_iter=8)
        tx = demap_symbols(D.reshape(-1, order="F"), c)
        rx = demap_symbols(soft.reshape(-1, order="F"), c)
        total_errors += int(np.count_nonzero(tx != rx))
    ok = total_errors == 0
    report(
        5,
        ok,
        "iterative recovery of 6000 noiseless smoothed symbols (V in {0,2,4}, "
        f"beta in {{0.1,0.5}}, 8 iterations): {total_errors} bit errors",
    )


def analytic_16qam_ber(es_n0_linear: float) -> float:
    """Exact Gray 16QAM bit error rate by 4-PAM threshold enumeration.

    Per axis: levels (+/-1, +/-3)/sqrt(10) with Gray labels, decision
    thresholds midway between levels, per-axis noise variance N0/2.
    """
    a = 1.0 / math.sqrt(10.0)
    levels = np.array([-3 * a, -a, a, 3 * a])
    gray = [0, 1, 3, 2]
    sigma = math.sqrt(1.0 / (2.0 * es_n0_linear))
    thresholds = np.array([-np.inf, -2 * a, 0.0, 2 * a, np.inf])

    def cdf(x):
        return 0.5 * erfc(-x / (sigma * math.sqrt(2)))

    bit_errs = 0.0
    for i, l in enumerate(levels):
        for j in range(4):
            pr = cdf(thresholds[j + 1] - l) - cdf(thresholds[j] - l)
            bit_errs += pr * bin(gray[i] ^ gray[j]).count("1")
    # 4 equiprobable levels, 2 bits per axis
    return bit_errs / (4 * 2)


def test_criterion_6_awgn_ber_calibration():
    cfg = ExperimentConfig(
        kind="ber",
        K=256,
        M=7,
        n_cp=280,
        beta=0.0,
        channel="awgn",
        snr_db=(4.0, 8.0, 12.0),
        n_bits=1_000_000,
        variants=("gfdm",),
        seed=1006,
    )
    rows = run_ber(cfg)[0].rows
    p = cfg.waveform()
    ok = True
    details = []
    for snr_db, _, ber, n in rows:
        es_n0 = 1.0 / noise_variance(snr_db, p, 4)
        want = analytic_16qam_ber(es_n0)
        tol = 3.0 * math.sqrt(want * (1 - want) / n)
        ok &= abs(ber - want) <= tol
        details.append(f"{snr_db:g} dB: {ber:.3e} vs {want:.3e} (3-sigma {tol:.1e})")
    report(6, ok, "AWGN 16QAM BER vs analytic Gray oracle over 1e6 bits/point [" + "; ".join(details) + "]")


def test_criterion_7_psd_ordering():
    cfg = ExperimentConfig(
        kind="psd",
        K=64,
        M=7,
        n_cp=70,
        beta=0.1,
        oversample=4,
        variants=("ofdm", "gfdm", "nc-gfdm:2", "nc-gfdm:6"),
        n_symbols=10_000,
        window_len=1792,
        overlap=448,
        seed=1007,
    )
    tables = run_psd(cfg)
    band = 1.0 / cfg.oversample
    spacing = 1.0 / (cfg.K * cfg.oversample)
    levels = {}
    for t in tables:
        freqs = np.array([r[0] for r in t.rows])
        psd = 10.0 ** (np.array([r[1] for r in t.rows]) / 10.0)
        est = PsdEstimate(freqs=freqs, psd=psd, segments=t.provenance["segments"])
        levels[t.provenance["variant"]] = [
            sidelobe_level(est, band, off * spacing) for off in (0.5, 1.0)
        ]
    order = ("nc-gfdm:6", "nc-gfdm:2", "gfdm", "ofdm")
    ok = True
    gaps = []
    for lo, hi in zip(order, order[1:]):
        g = [levels[hi][i] - levels[lo][i] for i in range(2)]
        gaps.append(f"{hi} - {lo}: {g[0]:.1f}/{g[1]:.1f} dB")
        ok &= all(v >= 3.0 for v in g)
    report(
        7,
        ok,
        "out-of-band PSD at 0.5/1.0 subcarrier spacings past the band edge "
        "orders nc-gfdm:6 < nc-gfdm:2 < gfdm < ofdm with >= 3 dB separations ["
        + "; ".join(gaps)
        + "]",
    )


def test_criterion_8_eva_regression():
    seed = 1008
    ok = True
    details = []
    # beta=0.1 quantizes to the Dirichlet pulse; beta=0.5 gives a non-unitary A
    for beta in (0.1, 0.5):
        cfg = ExperimentConfig(
            kind="ber",
            K=256,
            M=7,
            n_cp=280,
            beta=beta,
            V=2,
            channel="eva",
            snr_db=(20.0,),
            n_bits=100_000,
            variants=("gfdm", "nc-gfdm:2"),
            seed=seed,
        )
        rows = run_ber(cfg)[0].rows
        by_var = {r[1]: r[2] for r in rows}
        conv, nc = by_var["gfdm"], by_var["nc-gfdm:2"]
        ratio = nc / conv if conv > 0 else float("inf")
        ok &= conv > 0 and 0.5 <= ratio <= 2.0
        details.append(
            f"beta={beta}: conventional BER {conv:.4e}, smoothed BER {nc:.4e}, "
            f"ratio {ratio:.3f}"
        )
    report(
        8,
        ok,
        f"EVA fading at 20 dB over 1e5 bits (seed {seed}) ["
        + "; ".join(details)
        + "] (limit factor 2)",
    )
