"""Declarative experiment runner: PSD, BER, SIR, power, and validation suites.

Experiments are described by an :class:`ExperimentConfig` (JSON on disk),
run deterministically from a master seed, and emit CSV tables that embed a
provenance block (config hash, seed, code version) plus a JSON sidecar.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import subprocess
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

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
    DimensionError,
    SeededRng,
    WaveformParams,
    qam_constellation,
)
from .smoothing import (
    MAX_ORDER,
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
    "write_tables",
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


def git_describe(path) -> str | None:
    """``git describe --always --dirty`` of the checkout holding ``path``, or
    None when git or the checkout is missing."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=path,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


@functools.cache
def code_version() -> str:
    """Installed package version, else the version of the imported source,
    then ``+<git describe>`` when the source is a git checkout.

    Computed once per process, so tables do not each start a subprocess.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        base = version("ncgfdm")
    except PackageNotFoundError:
        from . import __version__

        base = __version__
    commit = git_describe(Path(__file__).parent)
    return base if commit is None else f"{base}+{commit}"


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
        q = self.qam_order
        if not (isinstance(q, int) and q >= 4 and q & (q - 1) == 0 and q.bit_length() % 2):
            raise ValueError(f"qam_order must be a power of four (square QAM), got {q!r}")
        if self.kind == "ber" and len(self.snr_db) == 0:
            raise ValueError("BER experiments need a non-empty SNR grid")
        if self.kind == "ber" and self.recovery_iterations < 1:
            raise ValueError(
                f"BER experiments need recovery_iterations >= 1, got {self.recovery_iterations}"
            )
        if self.kind == "psd" and self.n_symbols < 1:
            raise ValueError("PSD experiments need at least one symbol")
        if not self.variants:
            raise ValueError("at least one waveform variant is required")
        if self.kind in ("ber", "psd"):
            for spec in self.variants:
                var = resolve_variant(self, spec)
                if var.smoothed:
                    _check_order(f"variant {spec!r}", var.params.V)
        if self.kind == "power":
            _check_order("power experiments", self.V)
        if self.kind == "psd":
            self._validate_welch()
        if self.kind == "sir":
            self._validate_sir_grid()
        if self.kind == "power":
            for name in ("n_streams", "n_indices"):
                if getattr(self, name) < 1:
                    raise ValueError(
                        f"power experiments need {name} >= 1, got {getattr(self, name)}"
                    )
        if self.kind == "ber" and self.channel == "eva":
            # a block's response is held as N taps, and a path past the CP
            # reaches back one block only, so every path delay must fall
            # inside the block; a CP shorter than the delay spread is
            # simulated as inter-symbol interference
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

    def _validate_welch(self) -> None:
        if self.window_len < 8:
            raise ValueError(f"PSD experiments need window_len >= 8, got {self.window_len}")
        if not 0 <= self.overlap < self.window_len:
            raise ValueError(
                f"overlap must lie in [0, window_len = {self.window_len}), got {self.overlap}"
            )
        for spec in self.variants:
            p = resolve_variant(self, spec).params
            samples = self.n_symbols * (p.N + p.n_cp) * self.oversample
            if samples < self.window_len:
                raise ValueError(
                    f"variant {spec!r} streams n_symbols * (N + n_cp) * oversample = "
                    f"{self.n_symbols} * {p.N + p.n_cp} * {self.oversample} = {samples} "
                    f"samples, fewer than one Welch segment of window_len = {self.window_len}"
                )

    def _validate_sir_grid(self) -> None:
        if self.n_symbols < 2:
            raise ValueError(f"SIR experiments need n_symbols >= 2, got {self.n_symbols}")
        for name in ("beta_grid", "v_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"SIR experiments need a non-empty {name}, got ()")
        N = self.K * self.M
        for V in self.v_grid:
            if 2 * V + 1 > N:
                raise ValueError(
                    f"v_grid entry V={V} does not fit the block: 2V+1 = {2 * V + 1} > "
                    f"N = K*M = {N}"
                )
            _check_order("v_grid entry", V)
        for beta in self.beta_grid:
            try:
                self.waveform(beta=beta)
            except DimensionError as exc:
                raise ValueError(f"beta_grid entry {beta}: {exc}") from exc

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


def _check_order(name: str, V: int) -> None:
    """Reject a smoothing order whose operator build would fail its identity check."""
    if V > MAX_ORDER:
        raise ValueError(
            f"{name}: smoothing order V={V} exceeds {MAX_ORDER}, the highest whose "
            f"operators pass the identity check in double precision"
        )


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


def _transmit(p: WaveformParams):
    """(prototype, transmit matrix) of one waveform."""
    g = prototype_filter(p)
    return g, build_transmit_matrix(g, p)


def _operators(g, tm, p: WaveformParams, check: bool = True) -> NcOperators:
    """The operator set of one waveform on its prototype and transmit matrix."""
    return build_nc_operators(tm, build_basis(g, p), p, is_unitary=g.is_dirichlet, check=check)


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
    master = SeededRng(cfg.seed)
    tables = []
    for vi, spec in enumerate(cfg.variants):
        var = resolve_variant(cfg, spec)
        p = var.params
        g, tm = _transmit(p)
        ops = _operators(g, tm, p) if var.smoothed else None
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
    master = SeededRng(cfg.seed)
    builds = []
    for spec in cfg.variants:
        var = resolve_variant(cfg, spec)
        g, tm = _transmit(var.params)
        builds.append((var, tm, _operators(g, tm, var.params) if var.smoothed else None))
    profile = cfg.channel_profile()
    rows = []
    for si, snr in enumerate(cfg.snr_db):
        for var, tm, ops in builds:
            p = var.params
            sigma2 = 0.0 if cfg.channel == "none" else noise_variance(snr, p, c.bits_per_symbol)
            bits_rng = master.child(3 * si + 0)
            chan_rng = master.child(3 * si + 1)
            noise_rng = master.child(3 * si + 2)
            fading = tail = None
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
                    # one block per row: X.T is contiguous (TransmitMatrix.modulate)
                    h = fading.realization(np.arange(done, done + nb))
                    R = apply_channel(h, X.T, p.n_cp, tail)
                    tail = X[:, -1].copy()
                    R = awgn(R, sigma2, noise_rng, per_row=True)
                    Y = zf_equalize(h, R).T
                    del h, R  # not held through the recovery, which sets peak memory
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


#: symbol counts after which :func:`_steady_sir_db` reads the SIR plateau
_PLATEAU_READS = (8, 16, 32, 64, 128)


def _steady_sir_db(ops: NcOperators) -> tuple[float, float, float]:
    """(sir_db, smooth_power, closed_form_db) at the converged plateau.

    One power recursion over 128 symbols, read after 8, 16, ..., 128 of
    them: the first read within 0.01 dB of the one before is the plateau,
    else the last.  ``closed_form_db`` is nan unless A is unitary.
    """
    rep = sir_report(ops, _PLATEAU_READS[-1])
    prev = None
    for n in _PLATEAU_READS:
        cur = rep.sir_db[n - 1]
        if prev is not None and abs(cur - prev) < 0.01:
            break
        prev = cur
    closed = float("nan") if rep.closed_form_db is None else rep.closed_form_db
    return float(cur), float(rep.smooth_power[n - 1]), closed


def run_sir(cfg: ExperimentConfig) -> list:
    """Theoretical and empirical SIR over the (beta, V) grid."""
    cfg.validate()
    if cfg.kind != "sir":
        raise ValueError("config kind must be 'sir'")
    c = qam_constellation(cfg.qam_order)
    master = SeededRng(cfg.seed)
    rows = []
    trial = 0
    for beta in cfg.beta_grid:
        g, tm = _transmit(replace(cfg.waveform(beta=beta), oversample=1))
        for V in cfg.v_grid:
            ops = _operators(g, tm, replace(cfg.waveform(beta=beta, V=V), oversample=1))
            theory_db, smooth_power, closed = _steady_sir_db(ops)
            emp = empirical_sir(ops, master.child(trial), cfg.n_symbols, points=c.points)
            trial += 1
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
    p = replace(cfg.waveform(), oversample=1)
    ops = _operators(*_transmit(p), p)
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
    for K, M in VALIDATION_DIMS:
        N = K * M
        for beta in VALIDATION_BETAS:
            g, tm = _transmit(WaveformParams(K=K, M=M, n_cp=K, beta=beta))
            for V in VALIDATION_ORDERS:
                if 2 * V + 1 > N:
                    continue
                p = WaveformParams(K=K, M=M, n_cp=K, beta=beta, V=V)
                ops = _operators(g, tm, p, check=False)
                if inject_fault:
                    ops = with_corrupted_p2(ops)
                tol = identity_tolerance(V)
                res = operator_identity_residuals(ops)
                for name in IDENTITY_DESCRIPTIONS:
                    r = res[name]
                    rows.append((K, M, beta, V, name, r, tol, r <= tol))
                if beta == 0.0:
                    # ||A^H A - I||_F / sqrt(N), from the singular values sqrt(K)|Zg|
                    u = float(np.linalg.norm(K * np.abs(tm.polyphase) ** 2 - 1.0) / np.sqrt(N))
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
