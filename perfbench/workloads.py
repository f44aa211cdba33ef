"""The four benchmark workloads, all at the paper's dimensions.

Each workload is one ``run_*`` call per round on a config made from the
seed, plus the operator sets a user of that experiment builds first.  An
operation is one row of the result: a (SNR, variant) point, a PSD variant
or a (beta, V) cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import oracles

PAPER_DIMS = {"K": 256, "M": 7, "n_cp": 280, "qam_order": 16}


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # name of the ncgfdm.experiments function
    settings: dict
    dims: dict = field(default_factory=lambda: dict(PAPER_DIMS))

    def config(self, seed: int):
        from ncgfdm.experiments import ExperimentConfig

        return ExperimentConfig(seed=seed, **self.dims, **self.settings).validate()

    def run(self, cfg) -> list:
        import ncgfdm.experiments

        return getattr(ncgfdm.experiments, self.runner)(cfg)

    def builds(self, cfg) -> list:
        """(label, WaveformParams, smoothed) of every waveform the run builds."""
        from ncgfdm.experiments import resolve_variant

        if self.runner == "run_sir":
            return [
                (f"beta={b},V={V}", replace(cfg.waveform(beta=b, V=V), oversample=1), True)
                for b in cfg.beta_grid
                for V in cfg.v_grid
            ]
        out = []
        for spec in cfg.variants:
            var = resolve_variant(cfg, spec)
            out.append((spec, var.params, var.smoothed))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ber-awgn",
            "run_ber",
            dict(kind="ber", beta=0.1, V=2, channel="awgn", snr_db=(4.0, 8.0, 12.0),
                 variants=("ofdm", "td-nc-ofdm:2", "gfdm", "nc-gfdm:2"), n_bits=500_000),
        ),
        Workload(
            "ber-eva",
            "run_ber",
            dict(kind="ber", beta=0.5, V=2, channel="eva", snr_db=(12.0, 20.0),
                 variants=("gfdm", "nc-gfdm:2"), n_bits=2_000_000),
        ),
        Workload(
            "psd-oob",
            "run_psd",
            dict(kind="psd", beta=0.1, V=2, oversample=4, window_len=1792, overlap=448,
                 variants=("ofdm", "gfdm", "nc-gfdm:2", "nc-gfdm:6"), n_symbols=1000),
        ),
        Workload(
            "sir-grid",
            "run_sir",
            dict(kind="sir", beta_grid=(0.0, 0.1, 0.3, 0.5), v_grid=(0, 2, 4, 6),
                 n_symbols=10_000),
        ),
    )
}


def is_unitary(A: np.ndarray, rng: np.random.Generator) -> bool:
    """A^H A = I, probed on random vectors (exact for any non-unitary A)."""
    x = rng.standard_normal((A.shape[0], 4)) + 1j * rng.standard_normal((A.shape[0], 4))
    r = A.conj().T @ (A @ x) - x
    return float(np.linalg.norm(r) / np.linalg.norm(x)) <= 1e-9


def round_work(wl: Workload, cfg) -> dict:
    """Data bits, CP-framed baseband samples and operations one round carries."""
    bits = samples = 0
    bps = cfg.qam_order.bit_length() - 1
    builds = wl.builds(cfg)
    if wl.runner == "run_ber":
        for _, p, _ in builds:
            blocks = -(-cfg.n_bits // (p.N * bps))
            bits += len(cfg.snr_db) * blocks * p.N * bps
            samples += len(cfg.snr_db) * blocks * (p.N + p.n_cp)
        ops = len(cfg.snr_db) * len(builds)
    else:
        for _, p, _ in builds:
            bits += cfg.n_symbols * p.N * bps
            samples += cfg.n_symbols * (p.N + p.n_cp)
        ops = len(builds)
    return {"bits": bits, "samples": samples, "ops": ops}


def check(wl: Workload, cfg, tables, facts: dict) -> dict:
    """Operation key -> failed conditions, from the independent oracles."""
    dims = {label: (p.N, p.n_cp) for label, p, _ in wl.builds(cfg)}
    if wl.name == "ber-awgn":
        unitary = {k: v for k, v in facts["unitary"].items() if k in ("ofdm", "gfdm")}
        return oracles.check_ber_awgn(tables[0].rows, dims, unitary, cfg.n_bits)
    if wl.name == "ber-eva":
        return oracles.check_ber_eva(tables[0].rows, dims, cfg.n_bits)
    if wl.runner == "run_psd":
        psd = {}
        for t in tables:
            arr = np.array(t.rows, dtype=float)
            psd[t.provenance["variant"]] = (arr[:, 0], arr[:, 1], t.provenance["segments"])
        return oracles.check_psd(psd, dims, cfg.K, cfg.oversample, cfg.n_symbols,
                                 cfg.window_len, cfg.overlap)
    unitary = {b: facts["unitary"][f"beta={b},V={cfg.v_grid[0]}"] for b in cfg.beta_grid}
    return oracles.check_sir(tables[0].rows, cfg.K, cfg.M, unitary)
