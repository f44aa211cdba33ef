"""Output checks that are computed apart from the program.

Every check takes the program's result tables as plain rows and returns,
per operation, the list of failed conditions (empty when the operation
passed).  Nothing here imports ncgfdm: the oracles restate the physics
(Gray 16QAM over AWGN, the Welch segment count, the unitary SIR closed
form) from first principles.
"""

from __future__ import annotations

import math

import numpy as np

#: z-score of every Monte-Carlo BER band.  A 3-sigma band misses by chance on
#: 0.27% of checks; with a dozen checks per seed that is a failed operation on
#: every few dozen seeds, so the failure count would depend on the seed.
BER_Z = 5.0
#: smoothed variants may lose at most this share of BER to imperfect recovery
#: of the smooth signal (measured: 7% at 4 dB, 17% at 12 dB)
SMOOTHED_BER_DEGRADATION = 0.25
#: empirical SIR vs the program's own theory, per (beta, V) cell
SIR_TOL_DB = 0.2
#: the program stops its SIR plateau search at a 0.01 dB step
SIR_PLATEAU_DB = 0.01
#: subcarrier spacings past the band edge where PSD levels are ordered;
#: at half a spacing the 1792-point window cannot separate the variants
PSD_OFFSETS = (2.0, 3.0, 4.0)
#: PSD variants from tightest to loosest spectrum
PSD_ORDER = ("nc-gfdm:6", "nc-gfdm:2", "gfdm", "ofdm")


def q_function(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def ebn0_noise_variance(ebn0_db: float, N: int, n_cp: int, bits_per_symbol: int) -> float:
    """Per-sample complex noise variance under the CP-charged convention.

    Samples have unit average power and the CP energy counts toward Eb:
    Eb = (1 + n_cp/N) / bits_per_symbol, sigma2 = Eb / 10^(EbN0/10).
    """
    return (1.0 + n_cp / N) / bits_per_symbol / 10.0 ** (ebn0_db / 10.0)


def gray16_ber(sigma2: float) -> float:
    """Exact bit error rate of unit-energy Gray 16QAM with complex noise sigma2.

    Each axis is Gray 4-PAM at levels {-3, -1, 1, 3}/sqrt(10), with noise
    variance sigma2/2.  With x = (1/sqrt(10)) / sqrt(sigma2/2):
    the sign bit errs with (Q(x) + Q(3x))/2 and the magnitude bit with
    (2Q(x) + Q(3x) - Q(5x))/2, so the bit average is
    (3Q(x) + 2Q(3x) - Q(5x))/4.
    """
    x = math.sqrt(1.0 / (5.0 * sigma2))
    return (3 * q_function(x) + 2 * q_function(3 * x) - q_function(5 * x)) / 4.0


def gray16_awgn_ber(ebn0_db: float, N: int, n_cp: int) -> float:
    return gray16_ber(ebn0_noise_variance(ebn0_db, N, n_cp, 4))


def ber_sigma(p: float, n_bits: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n_bits)


def gray16_points() -> np.ndarray:
    """Unit-energy 16QAM; label bits (i1 i0 q1 q0), Gray per axis, MSB first."""
    gray_level = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}
    pts = np.empty(16, dtype=np.complex128)
    for label in range(16):
        pts[label] = gray_level[label >> 2] + 1j * gray_level[label & 3]
    return pts / math.sqrt(10.0)


def gray16_slice_bits(y: np.ndarray) -> np.ndarray:
    """Per-axis slicer: soft 16QAM points to bits (i1 i0 q1 q0 per point)."""
    y = np.asarray(y).ravel() * math.sqrt(10.0)
    out = np.empty((y.size, 4), dtype=np.uint8)
    for col, axis in ((0, y.real), (2, y.imag)):
        out[:, col] = axis > 0
        out[:, col + 1] = np.abs(axis) < 2
    return out.ravel()


# ---------------------------------------------------------------------------
# per-workload checks; each returns {operation key: [failure messages]}


def check_ber_awgn(rows, dims: dict, unitary: dict, n_bits: int) -> dict:
    """rows: (snr_db, variant, ber, bit_count); dims: variant -> (N, n_cp)."""
    out = {}
    for snr, variant, ber, count in rows:
        N, n_cp = dims[variant]
        ref = gray16_awgn_ber(snr, N, n_cp)
        band = BER_Z * ber_sigma(ref, count)
        fails = []
        if count < n_bits:
            fails.append(f"bit_count {count} < {n_bits}")
        if variant in unitary:
            if not unitary[variant]:
                fails.append("modulation matrix is not unitary")
            if abs(ber - ref) > band:
                fails.append(f"ber {ber:.4e} outside oracle {ref:.4e} +- {band:.2e}")
        else:
            if ber < ref - band:
                fails.append(f"ber {ber:.4e} below oracle {ref:.4e} - {band:.2e}")
            top = (1 + SMOOTHED_BER_DEGRADATION) * ref + band
            if ber > top:
                fails.append(f"ber {ber:.4e} above degraded oracle {top:.4e}")
        out[(snr, variant)] = fails
    return out


#: the smoothed variant whose fading BER is compared with its unsmoothed twin
EVA_RATIO_PAIR = ("gfdm", "nc-gfdm:2")


def check_ber_eva(rows, dims: dict, n_bits: int) -> dict:
    by_key = {(snr, var): (ber, count) for snr, var, ber, count in rows}
    snrs = sorted({snr for snr, *_ in rows})
    out = {}
    for snr, variant, ber, count in rows:
        N, n_cp = dims[variant]
        fails = []
        if count < n_bits:
            fails.append(f"bit_count {count} < {n_bits}")
        ref = gray16_awgn_ber(snr, N, n_cp)
        if not ber > ref:
            fails.append(f"fading ber {ber:.4e} not above AWGN oracle {ref:.4e}")
        i = snrs.index(snr)
        if i > 0:
            prev = by_key[(snrs[i - 1], variant)][0]
            if ber > prev:
                fails.append(f"ber rose from {prev:.4e} at {snrs[i - 1]} dB to {ber:.4e}")
        if variant == EVA_RATIO_PAIR[1]:
            base = by_key[(snr, EVA_RATIO_PAIR[0])][0]
            ratio = ber / base if base > 0 else math.inf
            if not 0.5 <= ratio <= 2.0:
                fails.append(f"ber ratio {ratio:.3f} to {EVA_RATIO_PAIR[0]} outside [0.5, 2]")
        out[(snr, variant)] = fails
    return out


def welch_segments(n_samples: int, window_len: int, overlap: int) -> int:
    step = window_len - overlap
    return 0 if n_samples < window_len else (n_samples - window_len) // step + 1


def psd_level_db(freqs: np.ndarray, psd_db: np.ndarray, f0: float) -> float:
    return float(np.interp(f0, freqs, psd_db))


def check_psd(tables: dict, dims: dict, K: int, oversample: int, n_symbols: int,
              window_len: int, overlap: int) -> dict:
    """tables: variant -> (freqs, psd_db, segments); dims: variant -> (N, n_cp)."""
    band_edge = 1.0 / (2 * oversample)
    spacing = 1.0 / (K * oversample)
    levels = {}
    out = {}
    for variant, (freqs, psd_db, segments) in tables.items():
        N, n_cp = dims[variant]
        fails = []
        if freqs.size != window_len:
            fails.append(f"{freqs.size} frequency bins, expected {window_len}")
        inband = np.abs(freqs) <= band_edge
        mean_db = 10 * math.log10(float(np.mean(10.0 ** (psd_db[inband] / 10.0))))
        if abs(mean_db) > 1e-9:
            fails.append(f"in-band mean {mean_db:.3e} dB, expected 0")
        expect = welch_segments(n_symbols * (N + n_cp) * oversample, window_len, overlap)
        if segments != expect:
            fails.append(f"{segments} Welch segments, expected {expect}")
        levels[variant] = [psd_level_db(freqs, psd_db, band_edge + k * spacing) for k in PSD_OFFSETS]
        out[variant] = fails
    order = [v for v in PSD_ORDER if v in levels]
    for lo, hi in zip(order, order[1:]):
        for k, a, b in zip(PSD_OFFSETS, levels[lo], levels[hi]):
            if not a < b:
                msg = f"{lo} {a:.2f} dB not below {hi} {b:.2f} dB at {k} spacings"
                out[lo].append(msg)
                out[hi].append(msg)
    return out


def check_sir(rows, K: int, M: int, unitary: dict) -> dict:
    """rows: (beta, V, smooth_power, theory_db, empirical_db, closed_db)."""
    theory = {(b, V): t for b, V, _, t, _, _ in rows}
    empirical = {(b, V): e for b, V, _, _, e, _ in rows}
    out = {}
    for beta, V, power, th, emp, closed in rows:
        fails = []
        if not (math.isfinite(power) and power > 0):
            fails.append(f"smooth power {power}")
        if not abs(emp - th) <= SIR_TOL_DB:
            fails.append(f"empirical {emp:.3f} dB vs theory {th:.3f} dB")
        lower = [v for b, v in theory if b == beta and v < V]
        if lower:
            prev = (beta, max(lower))
            if not (th < theory[prev] and emp < empirical[prev]):
                fails.append(f"SIR does not decrease from V={prev[1]} to V={V}")
        if unitary[beta]:
            exact = 10 * math.log10(K * M / (2 * V + 2))
            if not abs(th - exact) <= SIR_PLATEAU_DB:
                fails.append(f"theory {th:.4f} dB vs unitary closed form {exact:.4f} dB")
            if not abs(closed - exact) <= 1e-9:
                fails.append(f"closed form reported {closed}, unitary value {exact:.4f} dB")
        out[(beta, V)] = fails
    return out
