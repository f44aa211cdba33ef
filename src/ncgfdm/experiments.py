"""Declarative experiment runner: PSD, BER, SIR, power, and validation suites.

Experiments are described by an :class:`ExperimentConfig` (JSON on disk),
run deterministically from a master seed, and emit CSV tables that embed a
provenance block (config hash, seed, code version) plus a JSON sidecar.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .channel import (
    ChannelProfile,
    JakesFadingProcess,
    apply_channel,
    awgn,
    eva_profile,
    zf_equalize,
)
from .filterbank import build_transmit_matrix, prototype_filter
from .params import (
    Constellation,
    SeededRng,
    WaveformParams,
    qam_constellation,
)
from .smoothing import (
    NcOperators,
    build_basis,
    build_nc_operators,
    identity_tolerance,
    operator_identity_residuals,
    smooth_stream,
    with_corrupted_p2,
)
from .spectrum import (
    WelchAccumulator,
    closed_form_sir,
    empirical_sir,
    mc_smooth_power,
    normalize_inband,
    psd_sample_stream,
    sir_report,
)
from .transceiver import recover_iterative

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "ValidationReport",
    "PRESETS",
    "apply_preset",
    "code_version",
    "run_psd",
    "run_ber",
    "run_sir",
    "run_power",
    "run_validation",
    "run_experiment",
]

EXPERIMENT_KINDS = ("psd", "ber", "sir", "power", "validate")

#: scale presets; "paper" mirrors the published setup, "desk" shrinks the
#: symbol counts and Welch window (same 4:1 window/overlap ratio) for fast runs
PRESETS = {
    "desk": {
        "n_symbols": 10_000,
        "window_len": 1792,
        "overlap": 448,
        "n_bits": 100_000,
        "n_streams": 2_000,
    },
    "paper": {
        "n_symbols": 100_000,
        "window_len": 7168,
        "overlap": 1792,
        "n_bits": 1_000_000,
        "n_streams": 10_000,
    },
}


def code_version() -> str:
    """Installed package version, else the version of the imported source."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("ncgfdm")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _default_metadata() -> dict:
    # recorded in outputs for traceability; not used in baseband math
    return {
        "subcarrier_spacing_hz": 15_000.0,
        "carrier_frequency_hz": 2.0e9,
        "sample_interval_ns": 9.3,
        "doppler_hz": 100.0,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run.

    ``variants`` name the waveforms to compare: ``ofdm`` (M=1, beta=0, no
    smoothing), ``td-nc-ofdm[:V]`` (M=1, beta=0, smoothed), ``gfdm`` (the
    configured waveform, no smoothing), ``nc-gfdm[:V]`` (smoothed).  The
    optional ``:V`` suffix overrides the derivative order.
    """

    kind: str = "validate"
    K: int = 256
    M: int = 7
    n_cp: int = 280
    beta: float = 0.1
    V: int = 2
    filter_kind: str = "rc"
    oversample: int = 4
    qam_order: int = 16
    channel: str = "awgn"  # awgn | eva | none
    snr_db: tuple = (4.0, 8.0, 12.0, 16.0, 20.0)
    n_symbols: int = 10_000
    n_streams: int = 2_000
    n_bits: int = 100_000
    n_indices: int = 21
    recovery_iterations: int = 8
    variants: tuple = ("ofdm", "gfdm", "nc-gfdm:2", "nc-gfdm:6")
    beta_grid: tuple = (0.0, 0.1, 0.3, 0.5)
    v_grid: tuple = (0, 2, 4, 6)
    window_len: int = 1792
    overlap: int = 448
    seed: int = 1
    out_dir: str | None = None
    metadata: dict = field(default_factory=_default_metadata)

    def waveform(self, beta: float | None = None, V: int | None = None) -> WaveformParams:
        return WaveformParams(
            K=self.K,
            M=self.M,
            n_cp=self.n_cp,
            beta=self.beta if beta is None else beta,
            V=self.V if V is None else V,
            filter_kind=self.filter_kind,
            oversample=self.oversample,
        ).validate()

    def validate(self) -> "ExperimentConfig":
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.waveform()
        if self.channel not in ("awgn", "eva", "none"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.kind == "ber" and len(self.snr_db) == 0:
            raise ValueError("BER experiments need a non-empty SNR grid")
        if self.kind == "psd" and self.n_symbols < 1:
            raise ValueError("PSD experiments need at least one symbol")
        if not self.variants:
            raise ValueError("at least one waveform variant is required")
        if self.kind == "ber" and self.channel == "eva":
            # the block-fading channel convolves each core circularly, so
            # every path delay must fall inside the block
            profile = self.channel_profile()
            tap = int(profile.tap_positions().max())
            for spec in self.variants:
                N = resolve_variant(self, spec).params.N
                if N <= tap:
                    raise ValueError(
                        f"variant {spec!r} has block length N={N}, at or below the EVA "
                        f"tap delay of {tap} samples ({max(profile.delays_ns):g} ns at "
                        f"{profile.sample_interval_ns:g} ns per sample)"
                    )
        return self

    def channel_profile(self) -> ChannelProfile:
        """EVA delay profile at the sample interval and Doppler in ``metadata``."""
        return eva_profile(
            sample_interval_ns=float(self.metadata.get("sample_interval_ns", 9.3)),
            doppler_hz=float(self.metadata.get("doppler_hz", 100.0)),
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("snr_db", "variants", "beta_grid", "v_grid"):
            d[key] = list(d[key])
        return d

    @classmethod
    def check_keys(cls, keys) -> None:
        """Raise a ValueError naming every key that is not a config field."""
        unknown = sorted(set(keys) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cls.check_keys(d)
        d = dict(d)
        for key in ("snr_db", "variants", "beta_grid", "v_grid"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        d = self.to_dict()
        d.pop("out_dir", None)  # where results land is not part of the experiment
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def apply_preset(cfg: ExperimentConfig, preset: str) -> ExperimentConfig:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    return replace(cfg, **PRESETS[preset])


# ---------------------------------------------------------------------------
# result tables


@dataclass(frozen=True)
class ResultTable:
    """CSV-writable table with an embedded provenance block."""

    name: str
    columns: tuple
    rows: tuple
    provenance: dict

    def to_csv(self) -> str:
        lines = [f"# {k}: {v}" for k, v in self.provenance.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> str:
        import os

        path = os.path.join(out_dir, f"{self.name}.csv")
        with open(path, "w") as fh:
            fh.write(self.to_csv())
        return path


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _provenance(cfg: ExperimentConfig, **extra) -> dict:
    prov = {
        "experiment": cfg.kind,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": code_version(),
    }
    prov.update(extra)
    return prov


def write_tables(cfg: ExperimentConfig, tables, out_dir) -> list:
    """Write every table plus one JSON provenance sidecar; returns paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = [t.write(out_dir) for t in tables]
    sidecar = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": code_version(),
        "outputs": [os.path.basename(p) for p in paths],
    }
    side_path = os.path.join(out_dir, f"{cfg.kind}.provenance.json")
    with open(side_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(side_path)
    return paths


# ---------------------------------------------------------------------------
# waveform variants


@dataclass(frozen=True)
class Variant:
    name: str
    label: str
    params: WaveformParams
    smoothed: bool


def resolve_variant(cfg: ExperimentConfig, spec: str) -> Variant:
    """Parse a variant string into concrete waveform parameters.

    OFDM-family variants keep the same subcarrier count K as the GFDM
    waveform, so they occupy the same band with the same subcarrier
    spacing but emit M times more block boundaries per unit time; their
    CP shrinks by M to preserve the overhead ratio.
    """
    base, _, suffix = spec.partition(":")
    V = int(suffix) if suffix else cfg.V
    ofdm_cp = cfg.n_cp // cfg.M
    if base == "ofdm":
        p = WaveformParams(K=cfg.K, M=1, n_cp=ofdm_cp, beta=0.0, V=V, filter_kind="rc")
        smoothed = False
    elif base == "td-nc-ofdm":
        p = WaveformParams(K=cfg.K, M=1, n_cp=ofdm_cp, beta=0.0, V=V, filter_kind="rc")
        smoothed = True
    elif base == "gfdm":
        p = replace(cfg.waveform(V=V), oversample=1)
        smoothed = False
    elif base == "nc-gfdm":
        p = replace(cfg.waveform(V=V), oversample=1)
        smoothed = True
    else:
        raise ValueError(f"unknown variant {spec!r}")
    label = spec.replace(":", "_v").replace("-", "_")
    return Variant(name=spec, label=label, params=p.validate(), smoothed=smoothed)


class _BuildCache:
    """Caches filters, transmit matrices and operator sets across variants."""

    def __init__(self):
        self._tm = {}
        self._ops = {}

    def transmit(self, p: WaveformParams):
        key = (p.K, p.M, p.beta, p.filter_kind)
        if key not in self._tm:
            g = prototype_filter(p)
            self._tm[key] = (g, build_transmit_matrix(g, p))
        return self._tm[key]

    def operators(self, p: WaveformParams, check: bool = True) -> NcOperators:
        key = (p.K, p.M, p.n_cp, p.beta, p.V, p.filter_kind)
        if key not in self._ops:
            g, tm = self.transmit(p)
            basis = build_basis(g, p)
            self._ops[key] = build_nc_operators(
                tm, basis, p, is_unitary=g.is_dirichlet, check=check
            )
        return self._ops[key]


def _draw_data(rng: np.random.Generator, c: Constellation, N: int, count: int):
    """(bits, D): random bits and the corresponding data-vector columns."""
    bits = rng.integers(0, 2, size=count * N * c.bits_per_symbol, dtype=np.uint8)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    labels = bits.reshape(-1, c.bits_per_symbol) @ weights
    D = c.points[labels].reshape(N, count, order="F")
    return bits, D


def _bits_of(soft: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard-decide soft columns back to the transmitted bit layout."""
    from .params import demap_symbols

    return demap_symbols(soft.reshape(-1, order="F"), c)


# ---------------------------------------------------------------------------
# experiments


def run_psd(cfg: ExperimentConfig) -> list:
    """Welch PSD per waveform variant, normalized to 0 dB in-band mean."""
    cfg.validate()
    if cfg.kind != "psd":
        raise ValueError("config kind must be 'psd'")
    c = qam_constellation(cfg.qam_order)
    cache = _BuildCache()
    master = SeededRng(cfg.seed)
    tables = []
    for vi, spec in enumerate(cfg.variants):
        var = resolve_variant(cfg, spec)
        p = var.params
        g, tm = cache.transmit(p)
        ops = cache.operators(p) if var.smoothed else None
        rng = master.child(vi)
        acc = WelchAccumulator(cfg.window_len, cfg.overlap)
        carry = None
        # psd_sample_stream restarts exp(-j pi n / oversample) at n = 0 on each
        # call; an even chunk keeps it continuous when N + n_cp is odd
        chunk = 2 * max(1, 1_000_000 // (p.N * cfg.oversample))
        done = 0
        while done < cfg.n_symbols:
            nb = min(chunk, cfg.n_symbols - done)
            _, D = _draw_data(rng, c, p.N, nb)
            if var.smoothed:
                X, _, carry = smooth_stream(ops, D, carry)
            else:
                X = tm.modulate(D)
            acc.process(psd_sample_stream(X, p.n_cp, cfg.oversample))
            done += nb
        est = normalize_inband(acc.result(), 1.0 / cfg.oversample)
        rows = tuple(zip(est.freqs.tolist(), est.db().tolist()))
        prov = _provenance(
            cfg,
            variant=var.name,
            segments=est.segments,
            normalization="in-band mean = 0 dB over |f| <= 1/(2*oversample)",
        )
        tables.append(
            ResultTable(
                name=f"psd_{var.label}",
                columns=("frequency", "psd_db"),
                rows=rows,
                provenance=prov,
            )
        )
    return tables


def noise_variance(ebn0_db: float, p: WaveformParams, bits_per_symbol: int) -> float:
    """Complex noise variance for a given Eb/N0 in dB.

    Convention: unit average sample power, and the energy spent on the CP
    counts toward Eb, so Eb = (1 + n_cp/N) / bits_per_symbol and the
    per-sample complex noise variance is N0 = Eb / 10^(Eb/N0 / 10).
    """
    eb = (1.0 + p.n_cp / p.N) / bits_per_symbol
    return eb / 10.0 ** (ebn0_db / 10.0)


def run_ber(cfg: ExperimentConfig) -> list:
    """Monte-Carlo BER per SNR point and variant.

    Channel, noise, and data draws are seeded per SNR point, not per
    variant, so all variants face identical realizations.
    """
    cfg.validate()
    if cfg.kind != "ber":
        raise ValueError("config kind must be 'ber'")
    c = qam_constellation(cfg.qam_order)
    cache = _BuildCache()
    master = SeededRng(cfg.seed)
    variants = [resolve_variant(cfg, s) for s in cfg.variants]
    profile = cfg.channel_profile()
    rows = []
    for si, snr in enumerate(cfg.snr_db):
        for var in variants:
            p = var.params
            g, tm = cache.transmit(p)
            ops = cache.operators(p) if var.smoothed else None
            sigma2 = 0.0 if cfg.channel == "none" else noise_variance(snr, p, c.bits_per_symbol)
            bits_rng = master.child(3 * si + 0)
            chan_rng = master.child(3 * si + 1)
            noise_rng = master.child(3 * si + 2)
            fading = None
            if cfg.channel == "eva":
                duration = (p.N + p.n_cp) * profile.sample_interval_ns * 1e-9
                fading = JakesFadingProcess(profile, p.N, duration, chan_rng)
            n_blocks = max(1, math.ceil(cfg.n_bits / (p.N * c.bits_per_symbol)))
            chunk = max(1, 4_000_000 // p.N)
            errors = 0
            total = 0
            carry = None
            done = 0
            while done < n_blocks:
                nb = min(chunk, n_blocks - done)
                bits, D = _draw_data(bits_rng, c, p.N, nb)
                if var.smoothed:
                    X, _, carry = smooth_stream(ops, D, carry)
                else:
                    X = tm.modulate(D)
                if cfg.channel == "eva":
                    Y = np.empty_like(X)
                    for j in range(nb):
                        h = fading.realization(done + j)
                        y = apply_channel(h, X[:, j])
                        y = awgn(y, sigma2, noise_rng)
                        Y[:, j] = zf_equalize(h, y)
                elif cfg.channel == "awgn":
                    Y = awgn(X, sigma2, noise_rng)
                else:
                    Y = X
                if var.smoothed:
                    soft = recover_iterative(ops, Y, c, cfg.recovery_iterations)
                else:
                    soft = tm.demodulate(Y)
                rx = _bits_of(soft, c)
                errors += int(np.count_nonzero(rx != bits))
                total += bits.size
                done += nb
            rows.append((float(snr), var.name, errors / total, total))
    prov = _provenance(
        cfg,
        channel=cfg.channel,
        snr_convention=(
            "Eb/N0 with CP overhead: sigma2 = (1 + n_cp/N) / (bits_per_symbol * 10^(EbN0/10))"
        ),
    )
    return [
        ResultTable(
            name="ber",
            columns=("snr_db", "variant", "ber", "bit_count"),
            rows=tuple(rows),
            provenance=prov,
        )
    ]


def _steady_sir_db(ops: NcOperators, max_symbols: int = 200) -> tuple[float, float]:
    """(sir_db, smooth_power) at the converged plateau (within 0.01 dB)."""
    n = 8
    prev = None
    while n <= max_symbols:
        rep = sir_report(ops, n)
        cur = rep.sir_db[-1]
        if prev is not None and abs(cur - prev) < 0.01:
            return float(cur), float(rep.smooth_power[-1])
        prev = cur
        n *= 2
    return float(cur), float(rep.smooth_power[-1])


def run_sir(cfg: ExperimentConfig) -> list:
    """Theoretical and empirical SIR over the (beta, V) grid."""
    cfg.validate()
    if cfg.kind not in ("sir", "power"):
        raise ValueError("config kind must be 'sir' or 'power'")
    c = qam_constellation(cfg.qam_order)
    cache = _BuildCache()
    master = SeededRng(cfg.seed)
    rows = []
    trial = 0
    for beta in cfg.beta_grid:
        for V in cfg.v_grid:
            if 2 * V + 1 > cfg.K * cfg.M:
                continue
            p = cfg.waveform(beta=beta, V=V)
            ops = cache.operators(replace(p, oversample=1))
            theory_db, smooth_power = _steady_sir_db(ops)
            emp = empirical_sir(ops, master.child(trial), cfg.n_symbols, points=c.points)
            trial += 1
            closed = closed_form_sir(p) if ops.is_unitary else float("nan")
            rows.append(
                (float(beta), int(V), smooth_power, theory_db, 10.0 * np.log10(emp), closed)
            )
    prov = _provenance(cfg)
    return [
        ResultTable(
            name="sir",
            columns=(
                "beta",
                "V",
                "smooth_power",
                "sir_theory_db",
                "sir_empirical_db",
                "sir_closed_form_db",
            ),
            rows=tuple(rows),
            provenance=prov,
        )
    ]


def run_power(cfg: ExperimentConfig) -> list:
    """Per-symbol-index power curves: recursion vs Monte-Carlo."""
    cfg.validate()
    if cfg.kind != "power":
        raise ValueError("config kind must be 'power'")
    c = qam_constellation(cfg.qam_order)
    cache = _BuildCache()
    p = cfg.waveform()
    ops = cache.operators(replace(p, oversample=1))
    rep = sir_report(ops, cfg.n_indices)
    mc = mc_smooth_power(
        ops, SeededRng(cfg.seed).child(0), cfg.n_streams, cfg.n_indices, points=c.points
    )
    rows = tuple(
        (i, float(rep.smooth_power[i]), float(mc[i]), float(rep.per_symbol_power[i]))
        for i in range(cfg.n_indices)
    )
    prov = _provenance(cfg, n_streams=cfg.n_streams)
    return [
        ResultTable(
            name="power",
            columns=("index", "smooth_power_theory", "smooth_power_mc", "data_power_theory"),
            rows=rows,
            provenance=prov,
        )
    ]


# ---------------------------------------------------------------------------
# validation suite

#: (K, M) dimensions of the standard validation matrix
VALIDATION_DIMS = ((4, 2), (8, 4), (256, 7))
VALIDATION_BETAS = (0.0, 0.1, 0.5)
VALIDATION_ORDERS = (0, 1, 2, 4, 6)

#: identity name -> short description, in reporting order
IDENTITY_DESCRIPTIONS = {
    "pf_symmetric": "boundary matrix symmetry",
    "pf_product": "P_2 A^-1 Q = P_f",
    "idempotent": "P_tilde^2 = P_tilde",
    "decode_fixed": "decode fixed-point identity",
    "decode_basis": "decode basis identity",
    "p1p2_gram": "P_1 P_1^H = P_2 P_2^H",
}


@dataclass(frozen=True)
class ValidationReport:
    """Per-identity residuals over the validation matrix."""

    rows: tuple  # (K, M, beta, V, identity, residual, tolerance, passed)

    @property
    def passed(self) -> bool:
        return all(r[-1] for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r[-1]]

    def to_table(self, cfg: ExperimentConfig) -> ResultTable:
        prov = _provenance(cfg, passed=self.passed)
        return ResultTable(
            name="validation",
            columns=("K", "M", "beta", "V", "identity", "residual", "tolerance", "passed"),
            rows=self.rows,
            provenance=prov,
        )


def run_validation(cfg: ExperimentConfig | None = None, inject_fault: bool = False) -> ValidationReport:
    """Evaluate every operator identity over the standard config matrix.

    CP lengths are chosen as n_cp = K so the boundary Gram identity
    applies on non-unitary configurations as well.  ``inject_fault``
    deliberately corrupts one operator set to prove the report catches it.
    """
    rows = []
    cache = _BuildCache()
    unitary_cache = {}
    for K, M in VALIDATION_DIMS:
        N = K * M
        for beta in VALIDATION_BETAS:
            for V in VALIDATION_ORDERS:
                if 2 * V + 1 > N:
                    continue
                p = WaveformParams(K=K, M=M, n_cp=K, beta=beta, V=V)
                ops = cache.operators(p, check=False)
                if inject_fault:
                    ops = with_corrupted_p2(ops)
                tol = identity_tolerance(V)
                res = operator_identity_residuals(ops)
                for name in IDENTITY_DESCRIPTIONS:
                    r = res[name]
                    rows.append((K, M, beta, V, name, r, tol, r <= tol))
                if beta == 0.0:
                    key = (K, M)
                    if key not in unitary_cache:
                        # ||A^H A - I||_F / sqrt(N), from the singular values sqrt(K)|Zg|
                        unit = K * np.abs(ops.tm.polyphase) ** 2 - 1.0
                        unitary_cache[key] = float(np.linalg.norm(unit) / np.sqrt(N))
                    u = unitary_cache[key]
                    rows.append((K, M, beta, V, "unitarity", u, 1e-9, u <= 1e-9))
                    t = res["trace_rank"] / (V + 1)
                    rows.append((K, M, beta, V, "trace_rank", t, 1e-6, t <= 1e-6))
                    # power identity: trace{P_hat P_hat^H + P_tilde P_tilde^H} = 2(V+1)
                    LhL = ops.gain.conj().T @ ops.gain
                    tr = np.trace((ops.P_1 @ ops.P_1.conj().T) @ LhL)
                    tr = tr + np.trace((ops.P_2 @ ops.P_2.conj().T) @ LhL)
                    e = abs(float(np.real(tr)) - 2 * (V + 1)) / (2 * (V + 1))
                    rows.append((K, M, beta, V, "power_trace", e, 1e-6, e <= 1e-6))
    return ValidationReport(rows=tuple(rows))


def run_experiment(cfg: ExperimentConfig) -> list:
    """Dispatch on cfg.kind; returns the result tables."""
    cfg.validate()
    if cfg.kind == "psd":
        return run_psd(cfg)
    if cfg.kind == "ber":
        return run_ber(cfg)
    if cfg.kind == "sir":
        return run_sir(cfg)
    if cfg.kind == "power":
        return run_power(cfg)
    report = run_validation(cfg)
    return [report.to_table(cfg)]
