"""The abstract's two claims against TD-NC-OFDM, at fixed bands.

The source paper claims that N-continuous GFDM suppresses sidelobes better
than TD-NC-OFDM (time-domain N-continuous OFDM, van de Beek and Berggren
2009), and that its recovery errs less.  These tests are not acceptance
criteria.  Their bands were fixed before the run, from measured spreads.

What the model does not support: at V=6 the two waveforms sit within
0.2 dB of each other half a subcarrier spacing past the band edge, so that
offset is claimed only at V=2.  The OFDM family keeps K=256 subcarriers and
n_cp = 280/7 = 40, and its 256-sample block is shorter than the EVA delay
spread, so no comparison with it runs over EVA; both claims are checked
over AWGN or no channel at all.
"""

import numpy as np

from ncgfdm.experiments import ExperimentConfig, run_ber, run_psd
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
