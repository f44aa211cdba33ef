"""The abstract's claims against TD-NC-OFDM and across M, at fixed bands.

The source paper claims that N-continuous GFDM suppresses sidelobes better
than TD-NC-OFDM (time-domain N-continuous OFDM, van de Beek and Berggren
2009), that its recovery errs less, that its interference falls as the
number M of subsymbols grows, and that with a small roll-off its BER stays
close to that of plain OFDM.  These tests are not acceptance criteria.
Their bands were fixed before the run, from measured spreads.

What the model does not support: at V=6 the two waveforms sit within
0.2 dB of each other half a subcarrier spacing past the band edge, so that
offset is claimed only at V=2.  The OFDM family keeps K=256 subcarriers and
n_cp = 280/7 = 40, and its 256-sample block is shorter than the EVA delay
spread, so no comparison with it runs over EVA; both claims are checked
over AWGN or no channel at all.
"""

import math

import numpy as np
import pytest

from conftest import analytic_16qam_ber, built_ops
from ncgfdm.experiments import (
    ExperimentConfig,
    _steady_sir_db,
    noise_variance,
    run_ber,
    run_psd,
    run_sir,
)
from ncgfdm.filterbank import build_transmit_matrix, prototype_filter
from ncgfdm.spectrum import PsdEstimate, sidelobe_level


def test_nc_gfdm_sidelobes_sit_below_td_nc_ofdm():
    # criterion 7's config; gaps measured at seeds 1007 and 2003 were
    # 3.8/6.1-6.2/7.9-8.0 dB at V=2 and -0.15-0.15/3.8-3.9/5.1-5.2 dB at V=6
    cfg = ExperimentConfig(
        kind="psd",
        K=64,
        M=7,
        n_cp=70,
        beta=0.1,
        oversample=4,
        variants=("td-nc-ofdm:2", "nc-gfdm:2", "td-nc-ofdm:6", "nc-gfdm:6"),
        n_symbols=10_000,
        window_len=1792,
        overlap=448,
        seed=1007,
    )
    band = 1.0 / cfg.oversample
    spacing = 1.0 / (cfg.K * cfg.oversample)
    levels = {}
    for t in run_psd(cfg):
        freqs = np.array([r[0] for r in t.rows])
        psd = 10.0 ** (np.array([r[1] for r in t.rows]) / 10.0)
        est = PsdEstimate(freqs=freqs, psd=psd, segments=t.provenance["segments"])
        levels[t.provenance["variant"]] = {
            off: sidelobe_level(est, band, off * spacing) for off in (0.5, 1.0, 2.0)
        }
    claimed = {2: (0.5, 1.0, 2.0), 6: (1.0, 2.0)}
    gaps = {
        (V, off): levels[f"td-nc-ofdm:{V}"][off] - levels[f"nc-gfdm:{V}"][off]
        for V, offsets in claimed.items()
        for off in offsets
    }
    assert all(gap >= 2.0 for gap in gaps.values()), gaps


def test_nc_gfdm_recovery_errs_less_than_td_nc_ofdm():
    # over seeds 1-4: BER(td-nc-ofdm:2) / BER(ofdm) was 1.057-1.076, and
    # BER(nc-gfdm:2) / BER(gfdm) 1.007-1.011; at 4 dB nc-gfdm:2 read 0.0712
    # against 0.0755 for td-nc-ofdm:2
    cfg = ExperimentConfig(
        kind="ber",
        K=256,
        M=7,
        n_cp=280,
        beta=0.1,
        V=2,
        channel="awgn",
        snr_db=(4.0, 8.0),
        n_bits=1_000_000,
        variants=("ofdm", "td-nc-ofdm:2", "gfdm", "nc-gfdm:2"),
        seed=1,
    )
    ber = {(snr, variant): value for snr, variant, value, _ in run_ber(cfg)[0].rows}
    for snr in cfg.snr_db:
        td, nc = ber[snr, "td-nc-ofdm:2"], ber[snr, "nc-gfdm:2"]
        assert td / ber[snr, "ofdm"] >= 1.03, (snr, ber)
        assert nc / ber[snr, "gfdm"] <= 1.03, (snr, ber)
        assert nc < td, (snr, ber)


@pytest.mark.parametrize("beta", [0.2, 0.3])
def test_nc_gfdm_ber_stays_near_ofdm_at_rolloffs_that_shape_the_pulse(beta):
    # below beta = 1/M = 1/7 the pulse is the Dirichlet pulse and gfdm is
    # ofdm, so the claim is tested where the pulse is shaped.  Zero forcing
    # costs the noise enhancement xi (1.0037 at beta 0.2, 1.0473 at 0.3; see
    # test_zf_ber_at_nonunitary_rolloff_matches_noise_enhanced_oracle), and
    # the recovery multiplies the gfdm BER by a penalty that read 1.0083-1.0123
    # at both roll-offs over seeds 2-5.  The bound, fixed before the run, is
    # the Gray 16QAM BER ratio at xi times 1.0123, plus 4 binomial sigma of
    # the ofdm error count; over seeds 2-5 BER(nc-gfdm:2) / BER(ofdm) read
    # 1.013-1.019 (beta 0.2) and 1.065-1.141 (beta 0.3)
    cfg = ExperimentConfig(
        kind="ber",
        K=256,
        M=7,
        n_cp=280,
        beta=beta,
        V=2,
        channel="awgn",
        snr_db=(4.0, 8.0),
        n_bits=1_000_000,
        variants=("ofdm", "nc-gfdm:2"),
        seed=1,
    )
    p = cfg.waveform()
    tm = build_transmit_matrix(prototype_filter(p), p)
    xi = float(np.mean(1.0 / (p.K * np.abs(tm.polyphase) ** 2)))
    ber = {(snr, variant): (value, n) for snr, variant, value, n in run_ber(cfg)[0].rows}
    for snr in cfg.snr_db:
        (ofdm, n), (nc, _) = ber[snr, "ofdm"], ber[snr, "nc-gfdm:2"]
        sigma2 = noise_variance(snr, p, 4)
        loss = analytic_16qam_ber(1 / (sigma2 * xi)) / analytic_16qam_ber(1 / sigma2)
        bound = loss * 1.0123 * (1 + 4 / math.sqrt(ofdm * n))
        assert nc / ofdm <= bound, (snr, xi, nc / ofdm, bound)


def _sir_across_m(beta, c):
    """Steady SIR (dB) and its shortfall from 10 log10(KM/(2V+2)) over M.

    K=256, V=2 and n_cp = K + c, at M = 3, 5, 7, 9, 11.
    """
    K, V = 256, 2
    sir, shortfall = [], []
    for M in (3, 5, 7, 9, 11):
        db = _steady_sir_db(built_ops(K, M, K + c, beta, V)[3])[0]
        sir.append(db)
        shortfall.append(10 * math.log10(K * M / (2 * V + 2)) - db)
    return sir, shortfall


@pytest.mark.parametrize("beta", [0.3, 0.5])
@pytest.mark.parametrize("c, band", [(0, 0.05), (24, 0.2)])
def test_sir_rises_with_m_at_a_cp_near_the_subcarrier_period(beta, c, band):
    # K=256, V=2, n_cp = K + c: the closed form 10 log10(KM/(2V+2)) holds at
    # the Dirichlet pulse, and at these roll-offs the steady SIR fell short
    # of it by at most 0.008 dB at c = 0 and 0.059 dB at c = 24
    # (the paper's n_cp = 280); the bands were fixed before the run.  The
    # synthesis waveform is nonzero only at multiples of K, so the basis read
    # from the CP start depends on n_cp mod K: at c = K/2 = 128 the rise
    # slows and the shortfall grows with M, so no fixed band holds there
    # (the next test)
    sir, shortfall = _sir_across_m(beta, c)
    assert all(a < b for a, b in zip(sir, sir[1:])), sir
    assert all(-0.01 <= s <= band for s in shortfall), shortfall


@pytest.mark.parametrize(
    "beta, want",
    [(0.3, (0.00, 0.32, 0.89, 1.44, 1.93)), (0.5, (0.49, 1.83, 2.92, 3.78, 4.50))],
)
def test_sir_shortfall_grows_with_m_at_a_cp_half_a_period_out_of_phase(beta, want):
    # n_cp = K + K/2 = 384 at K=256, V=2: the SIR still rises with M, but
    # its shortfall from 10 log10(KM/(2V+2)) grows with M as well, to the
    # values above over M = 3, 5, 7, 9, 11; the band, fixed before the run,
    # is 0.05 dB around each (the theory plateau draws nothing)
    sir, shortfall = _sir_across_m(beta, 128)
    assert all(a < b for a, b in zip(sir, sir[1:])), sir
    assert all(a < b for a, b in zip(shortfall, shortfall[1:])), shortfall
    assert np.allclose(shortfall, want, rtol=0, atol=0.05), shortfall


@pytest.mark.parametrize("beta", [0.3, 0.5])
@pytest.mark.parametrize("c", [0, 24])
def test_run_sir_empirical_sir_matches_the_theory_plateau(beta, c):
    # one stream of 10 000 symbols at seed 1, K=256, M=7, V=2, n_cp = K + c:
    # the empirical SIR read 0.044 dB (c = 0) and 0.029 dB (c = 24) below
    # the theory at both roll-offs; the band, fixed before the run, is
    # 0.15 dB, over four standard deviations of the estimate (0.032-0.035 dB
    # over seeds 1-12)
    cfg = ExperimentConfig(kind="sir", K=256, M=7, n_cp=256 + c, beta_grid=(beta,),
                           v_grid=(2,), n_symbols=10_000, seed=1)
    [(_, _, _, theory_db, emp_db, _)] = run_sir(cfg)[0].rows
    assert abs(emp_db - theory_db) <= 0.15, (theory_db, emp_db)
