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
import os
import subprocess
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from numbers import Real
from pathlib import Path

import numpy as np

from .channel import (
    DOPPLER_HZ,
    SAMPLE_INTERVAL_NS,
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
    _draw_fields,
    _label_table,
    decision_labels,
    qam_constellation,
)
from .smoothing import (
    MAX_ORDER,
    NcOperators,
    _matmul_blocks,
    build_basis,
    build_nc_operators,
    coefficient_stream,
    operator_identity_residuals,
    smooth_stream,
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
    "PRESETS",
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


_RUNS = ("psd", "ber", "sir", "power")  # the kinds that run a waveform
_Field = namedtuple("_Field", "type kinds range", defaults=(None,))
_SCALAR = np.generic.item  # json's default: a numpy scalar as its Python value
_STRICT_JSON = json.JSONEncoder(allow_nan=False, sort_keys=True, default=_SCALAR)
_WAVEFORM = _Field("existing", _RUNS, lambda cfg, _: cfg.waveform())
_CHANNEL = _Field("existing", ("ber",), lambda cfg, _: cfg.channel_profile())


def _finite(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


#: Every field of ExperimentConfig: (type, the kinds that read it or None for
#: all, range), read by _check_field.  An "existing" range is the check the
#: field already has; neighbouring fields that share one are checked together.
_FIELDS = {
    "kind": _Field("choice", None, EXPERIMENT_KINDS),
    **dict.fromkeys(("K", "M", "n_cp", "beta", "V"), _WAVEFORM),
    "oversample": _Field("count", ("psd",), {"psd": 1}),
    "qam_order": _Field("existing", _RUNS, lambda _, q: qam_constellation(q)),
    "channel": _Field("choice", ("ber",), ("awgn", "eva", "none")),
    "snr_db": _Field("list", ("ber",), ("finite numbers", _finite)),
    "n_symbols": _Field("count", ("psd", "sir"), {"psd": 1, "sir": 2}),
    "n_streams": _Field("count", ("power",), {"power": 1}),
    "n_bits": _Field("count", ("ber",), {"ber": 1}),
    "n_indices": _Field("count", ("power",), {"power": 1}),
    "recovery_iterations": _Field("count", ("ber",), {"ber": 1}),
    "variants": _Field("list", ("psd", "ber"), ("strings", lambda x: isinstance(x, str))),
    "beta_grid": _Field("list", ("sir",)),
    "v_grid": _Field("list", ("sir",)),
    "window_len": _Field("count", ("psd",), {"psd": 8}),
    "overlap": _Field("interval", ("psd",), (0, "window_len")),
    "seed": _Field("count", _RUNS, dict.fromkeys(_RUNS, 0)),
    **dict.fromkeys(("sample_interval_ns", "doppler_hz"), _CHANNEL),
}
_SEQUENCES = tuple(name for name, rule in _FIELDS.items() if rule.type == "list")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run.

    ``variants`` name the waveforms to compare: ``ofdm`` (M=1, beta=0, no
    smoothing), ``td-nc-ofdm[:V]`` (M=1, beta=0, smoothed), ``gfdm`` (the
    configured waveform, no smoothing), ``nc-gfdm[:V]`` (smoothed).  The
    optional ``:V`` suffix, in ASCII digits, overrides the derivative order.
    No two variants of one run may share a table label or name one waveform
    (``nc-gfdm:2`` and ``nc-gfdm`` at V = 2).

    A config is checked when it is made, by :meth:`validate`, and so again by
    ``dataclasses.replace``; a list given for a sequence field is stored as
    a tuple, and no field holds another list or dict, so a config is hashable.
    """

    kind: str = "validate"
    K: int = 256
    M: int = 7
    n_cp: int = 280
    beta: float = 0.1
    V: int = 2
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
    # the EVA channel's, read by ber over eva
    sample_interval_ns: float = SAMPLE_INTERVAL_NS
    doppler_hz: float = DOPPLER_HZ

    def __post_init__(self):
        for name in _SEQUENCES:
            value = getattr(self, name)
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))
        self.validate()

    def waveform(self, beta: float | None = None, V: int | None = None) -> WaveformParams:
        return WaveformParams(
            K=self.K,
            M=self.M,
            n_cp=self.n_cp,
            beta=self.beta if beta is None else beta,
            V=self.V if V is None else V,
        )

    def validate(self) -> "ExperimentConfig":
        """Check each field by :data:`_FIELDS`, then the rules that span fields."""
        prev = None
        for name, rule in _FIELDS.items():
            if rule is not prev:
                _check_field(self, name, rule, getattr(self, name))
            prev = rule
        if self.kind == "ber" and self.channel == "eva":
            # a block's response is its N-point DFT, and a path past the CP
            # reaches back one block only, so every path delay must fall
            # inside the block; a CP shorter than the delay spread is
            # simulated as inter-symbol interference
            profile = self.channel_profile()
            tap = int(profile.tap_positions().max())
        labels, waveforms = {}, {}
        bits = qam_constellation(self.qam_order).bits_per_symbol if self.kind == "ber" else 0
        for spec in self.variants if self.kind in ("ber", "psd") else ():
            var = resolve_variant(self, spec)
            p = var.params
            if var.label in labels:
                raise ValueError(
                    f"variants {labels[var.label]!r} and {spec!r} share the label {var.label!r}"
                )
            if (var.smoothed, p) in waveforms:
                raise ValueError(
                    f"variants {waveforms[var.smoothed, p]!r} and {spec!r} name one waveform"
                )
            labels[var.label] = waveforms[var.smoothed, p] = spec
            if var.smoothed:
                _check_order(f"variant {spec!r}", p.V)
                _check_cp(f"variant {spec!r}", self.n_cp, p.n_cp)
            if self.kind == "psd":
                frame = (p.N + p.n_cp) * self.oversample
                if self.n_symbols * frame < self.window_len:
                    raise ValueError(
                        f"variant {spec!r} streams n_symbols * (N + n_cp) * oversample = "
                        f"{self.n_symbols} * {p.N + p.n_cp} * {self.oversample} = "
                        f"{self.n_symbols * frame} samples, fewer than one Welch segment of "
                        f"window_len = {self.window_len}"
                    )
            if self.kind == "ber" and self.channel == "eva":
                if p.N <= tap:
                    raise ValueError(
                        f"variant {spec!r} has block length N={p.N}, at or below the EVA "
                        f"tap delay of {tap} samples ({max(profile.delays_ns):g} ns at "
                        f"{profile.sample_interval_ns:g} ns per sample)"
                    )
                # the largest fading phase 2 pi f_D t, formed as the fading
                # process forms it; 2 pi f_D alone may overflow, and inf * 0 is nan
                blocks = _ber_blocks(self.n_bits, p.N, bits)
                t = (blocks - 1) * ((p.N + p.n_cp) * profile.sample_interval_ns * 1e-9)
                if not math.isfinite(2 * math.pi * self.doppler_hz * t):
                    raise ValueError(
                        f"doppler_hz = {self.doppler_hz!r} gives variant {spec!r} a fading "
                        f"phase 2 pi f_D t that is not finite over its {blocks} blocks"
                    )
            for snr in self.snr_db if self.kind == "ber" else ():
                try:
                    n0 = noise_variance(snr, p, bits)
                except ArithmeticError:  # 10^(snr/10) overflows, or underflows to 0
                    n0 = math.nan
                if not 0 < n0 < math.inf:
                    raise ValueError(
                        f"snr_db entry {snr!r} gives variant {spec!r} a noise variance "
                        "that is not a finite number > 0"
                    )
        if self.kind in ("sir", "power"):
            _check_cp(f"{self.kind} experiments", self.n_cp, self.n_cp)
        if self.kind == "power":
            _check_order("power experiments", self.V)
        if self.kind == "sir":
            # replace, not waveform(V=...), whose None stands for the config's own value
            base = self.waveform()
            for V in self.v_grid:
                try:
                    replace(base, V=V)
                except DimensionError as exc:
                    raise ValueError(f"v_grid entry V={V} is rejected: {exc}") from exc
                _check_order("v_grid entry", V)
            for beta in self.beta_grid:
                try:
                    replace(base, beta=beta)
                except DimensionError as exc:
                    raise ValueError(f"beta_grid entry {beta}: {exc}") from exc
            for name, grid in (("beta_grid", self.beta_grid), ("v_grid", self.v_grid)):
                if repeated := [x for i, x in enumerate(grid) if x in grid[:i]]:
                    raise ValueError(f"{name} repeats the entry {repeated[0]!r}")
        for name in _FIELDS:  # every kind records every field in its provenance
            value = getattr(self, name)
            entries = value if name in _SEQUENCES else (value,)
            if any(isinstance(x, (list, tuple, dict)) for x in entries):  # so hash(self) works
                raise ValueError(f"{name} must hold scalars, got {value!r}")
            try:
                _STRICT_JSON.encode(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name} has no strict JSON form: {exc}") from None
        return self

    def channel_profile(self) -> ChannelProfile:
        """EVA delay profile at the config's sample interval and Doppler."""
        return eva_profile(self.sample_interval_ns, self.doppler_hz)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in _SEQUENCES:
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of JSON values ``d``; a key that is not a field raises ValueError."""
        unknown = sorted(set(d) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**d)

    def config_hash(self) -> str:
        d = self.to_dict()
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"), default=_SCALAR)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _check_field(cfg: ExperimentConfig, name: str, rule: _Field, value) -> None:
    if rule.type == "list" and not isinstance(value, tuple):  # in every provenance
        raise ValueError(f"{name} must be a list or tuple, got {value!r}")
    if rule.kinds is not None and cfg.kind not in rule.kinds:
        return
    if rule.type == "choice" and value not in rule.range:
        raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(rule.range)}")
    if rule.type == "existing":
        rule.range(cfg, value)
    if rule.type == "list" and len(value) == 0:
        raise ValueError(f"{cfg.kind} experiments need a non-empty {name}, got {value!r}")
    for entry in value if rule.type == "list" and rule.range else ():
        if not rule.range[1](entry):
            raise ValueError(f"{name} entries must be {rule.range[0]}, got {entry!r}")
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if rule.type == "count" and not (whole and value >= rule.range[cfg.kind]):
        least = rule.range[cfg.kind]
        raise ValueError(f"{cfg.kind} experiments need an integer {name} >= {least}, got {value!r}")
    if rule.type == "interval":
        least, bound = rule.range
        if not (whole and least <= value < getattr(cfg, bound)):
            top = f"{bound} = {getattr(cfg, bound)}"
            raise ValueError(f"{name} must lie in [{least}, {top}), got {value!r}")


def _check_order(name: str, V: int) -> None:
    """Reject a smoothing order whose operator build would fail its identity check."""
    if V > MAX_ORDER:
        raise ValueError(
            f"{name}: smoothing order V={V} exceeds {MAX_ORDER}, the highest whose "
            f"operators pass the identity check in double precision"
        )


def _check_cp(name: str, n_cp: int, cp: int) -> None:
    """Reject a smoothed waveform whose CP, ``cp`` samples at the config's
    ``n_cp``, is empty: with no CP the basis is periodic over the block, the
    recursion's spectral radius is 1, and a stream's SIR depends on its seed."""
    if cp == 0:
        of = "" if cp == n_cp else ", which gives it n_cp // M = 0 samples"
        raise ValueError(
            f"{name}: smoothing needs a CP, got n_cp = {n_cp}{of}; with no CP the "
            "smoothing recursion is undamped (spectral radius 1)"
        )


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
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=_SCALAR)
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
    base, colon, suffix = spec.partition(":")
    if base not in ("ofdm", "td-nc-ofdm", "gfdm", "nc-gfdm"):
        raise ValueError(f"unknown variant {spec!r}")
    smoothed = base in ("td-nc-ofdm", "nc-gfdm")
    if colon and not smoothed:
        raise ValueError(f"variant {spec!r}: only td-nc-ofdm and nc-gfdm variants take a :V suffix")
    if colon and not (suffix.isascii() and suffix.isdigit()):
        raise ValueError(
            f"variant {spec!r}: smoothing order {suffix!r} is not an integer >= 0 in ASCII digits"
        )
    V = int(suffix) if colon else cfg.V
    try:
        if base.endswith("ofdm"):
            p = WaveformParams(K=cfg.K, M=1, n_cp=cfg.n_cp // cfg.M, V=V)
        else:
            p = cfg.waveform(V=V)
    except DimensionError as exc:
        raise ValueError(f"variant {spec!r}: {exc}") from None
    label = spec.replace(":", "_v").replace("-", "_")
    return Variant(name=spec, label=label, params=p, smoothed=smoothed)


def _transmit(p: WaveformParams):
    """(prototype, transmit matrix) of one waveform."""
    g = prototype_filter(p)
    return g, build_transmit_matrix(g, p)


def _operators(g, tm, p: WaveformParams, check: bool = True) -> NcOperators:
    """The operator set of one waveform on its prototype and transmit matrix."""
    return build_nc_operators(tm, build_basis(g, p), p, is_unitary=g.is_dirichlet, check=check)


def _variant_groups(cfg: ExperimentConfig) -> tuple[list, dict]:
    """(builds, groups): (variant, transmit matrix, operator set or None) per
    variant of ``cfg``, and the indices of the builds per (N, n_cp).

    Variants whose pulses are equal sample for sample (``gfdm`` and every
    ``nc-gfdm:V``) share one prototype and one transmit matrix object.
    """
    builds, groups, pulses = [], {}, {}  # pulses: pulse bytes -> (prototype, tm)
    for i, spec in enumerate(cfg.variants):
        var = resolve_variant(cfg, spec)
        g = prototype_filter(var.params)
        key = g.samples.tobytes()
        if key not in pulses:
            pulses[key] = (g, build_transmit_matrix(g, var.params))
        g, tm = pulses[key]
        builds.append((var, tm, _operators(g, tm, var.params) if var.smoothed else None))
        groups.setdefault((var.params.N, var.params.n_cp), []).append(i)
    return builds, groups


def _draw_data(rng: np.random.Generator, c: Constellation, N: int, count: int):
    """(labels, D): (count, N) labels drawn by :func:`ncgfdm.params._draw_fields`,
    one symbol after another, and their points with one symbol per column."""
    table, bits = _label_table(np.arange(c.points.size, dtype=c.labels.dtype))
    labels = _draw_fields(rng, table, bits, N * count)[: N * count].reshape(count, N)
    return labels, np.take(c.points, labels).T


def _bit_errors(soft: np.ndarray, labels: np.ndarray, c: Constellation) -> int:
    """Bit errors of deciding ``soft`` (one symbol per column) against the sent
    ``labels`` (one per row): the set bits of each decided XOR sent label."""
    wrong = decision_labels(soft.reshape(-1, order="F"), c)
    wrong ^= labels.reshape(-1)
    return int(np.bitwise_count(wrong).sum())


# ---------------------------------------------------------------------------
# experiments


def _check_kind(cfg: ExperimentConfig, kind: str) -> None:
    """Reject ``cfg`` unless the runner of ``kind`` runs it."""
    if cfg.kind != kind:
        raise ValueError(f"config kind must be {kind!r}")


#: oversampled stream samples per PSD chunk; a chunk holds
#: max(1, _PSD_CHUNK // ((N + n_cp) * oversample)) symbols, drawn, modulated,
#: oversampled and fed to Welch in one pass
_PSD_CHUNK = 2**20
#: oversampled samples per piece of a smoothed variant's stream; a piece holds
#: max(1, _PSD_SMOOTH // ((N + n_cp) * oversample)) symbols of the chunk
_PSD_SMOOTH = 2**17


def _orthonormal(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, R) with Q = U R, R upper triangular and U's columns orthonormal.

    Gram-Schmidt with each column orthogonalized twice ("twice is enough",
    Giraud et al. 2005), for the few columns of a basis; ``np.linalg.qr``
    maps LAPACK code that raised the peak RSS of the desk ``psd`` run by
    1.8 MB (numpy 2.4 with OpenBLAS).
    """
    U = np.array(Q, dtype=np.complex128)
    R = np.zeros((U.shape[1],) * 2, dtype=np.complex128)
    for j in range(U.shape[1]):
        for _ in range(2):
            r = U[:, :j].conj().T @ U[:, j]
            U[:, j] -= U[:, :j] @ r
            R[:j, j] += r
        R[j, j] = np.linalg.norm(U[:, j])
        U[:, j] /= R[j, j]
    return U, R


def run_psd(cfg: ExperimentConfig) -> list:
    """Welch PSD per waveform variant, normalized to 0 dB in-band mean.

    Each group of variants with equal (N, n_cp) draws every chunk of the
    data once, on ``SeededRng(seed).child(0)``, so a variant's table equals
    that of a run with it alone.  Framing and oversampling are linear and
    act per symbol, and a smoothed core is A D + Q B, so each distinct
    transmit matrix of the group modulates, frames and oversamples the chunk
    once.  An unsmoothed variant reads that stream as it is; a smoothed one
    runs its coefficient recursion with its own carry and adds its smooth
    signal Q B as (R B)^T times the framed and oversampled U of Q = U R, both
    formed once per run, a few symbols at a time in one reused buffer.  Only
    one chunk is held oversampled.  Every product of the loop, the stacked
    [P_1; P_2] D of :func:`~ncgfdm.smoothing.coefficient_stream` included, is
    formed in blocks that OpenBLAS keeps on the calling thread, so the loop
    keeps one CPU busy, not two, and slows less when another is busy.
    """
    _check_kind(cfg, "psd")
    c = qam_constellation(cfg.qam_order)
    table, bits = _label_table(c.points)  # points per packed unit, so no labels are formed
    builds, groups = _variant_groups(cfg)
    accs = [WelchAccumulator(cfg.window_len, cfg.overlap, cfg.oversample) for _ in builds]
    bases = {}  # smoothed variant -> (R, U framed and oversampled) of Q = U R
    for i, (var, _, ops) in enumerate(builds):
        if ops is not None:
            # the terms of B^T Q^T cancel by about 3.6 orders of magnitude at
            # V = 6, and rounding added after oversampling reaches every bin,
            # out of band too; on the orthonormal U it stays near the sum's
            U, R = _orthonormal(ops.basis.Q)
            U_framed = psd_sample_stream(U, var.params.n_cp, cfg.oversample)
            bases[i] = R, U_framed.reshape(ops.V + 1, -1)
    for (N, n_cp), members in groups.items():
        rng = SeededRng(cfg.seed).child(0)
        carries = dict.fromkeys(members)
        frame = (N + n_cp) * cfg.oversample
        chunk = max(1, _PSD_CHUNK // frame)
        piece = max(1, _PSD_SMOOTH // frame)
        buf = np.empty((min(piece, chunk), frame), dtype=np.complex128)
        by_tm = {}
        for i in members:
            by_tm.setdefault(id(builds[i][1]), []).append(i)
        for done in range(0, cfg.n_symbols, chunk):
            nb = min(chunk, cfg.n_symbols - done)
            D = _draw_fields(rng, table, bits, N * nb)[: N * nb].reshape(nb, N).T
            for shared in by_tm.values():
                base = psd_sample_stream(builds[shared[0]][1].modulate(D), n_cp, cfg.oversample)
                base_rows = base.reshape(nb, frame)
                for i in shared:
                    ops = builds[i][2]
                    if ops is None:
                        accs[i].process(base)
                        continue
                    B, carries[i] = coefficient_stream(ops, D, carries[i])
                    R, U_framed = bases[i]
                    C = (R @ B).T  # coefficients on U, one symbol per row
                    for k in range(0, nb, piece):
                        out = buf[: min(piece, nb - k)]
                        _matmul_blocks(C[k : k + len(out)], U_framed, out=out)
                        out += base_rows[k : k + len(out)]
                        accs[i].process(out.ravel())
                del base, base_rows
    tables = []
    for (var, _, _), acc in zip(builds, accs):
        est = normalize_inband(acc.result(), 1.0 / cfg.oversample)
        rows = tuple(zip(est.freqs.tolist(), est.db().tolist()))
        prov = _provenance(
            cfg,
            variant=var.name,
            segments=est.segments,
            normalization="in-band mean = 0 dB over |f| <= 1/(2*oversample)",
        )
        tables.append(ResultTable(f"psd_{var.label}", ("frequency", "psd_db"), rows, prov))
    return tables


def noise_variance(ebn0_db: float, p: WaveformParams, bits_per_symbol: int) -> float:
    """Complex noise variance for a given Eb/N0 in dB.

    Convention: unit average sample power, and the energy spent on the CP
    counts toward Eb, so Eb = (1 + n_cp/N) / bits_per_symbol and the
    per-sample complex noise variance is N0 = Eb / 10^(Eb/N0 / 10).
    """
    eb = (1.0 + p.n_cp / p.N) / bits_per_symbol
    return eb / 10.0 ** (ebn0_db / 10.0)


def _ber_blocks(n_bits: int, N: int, bits_per_symbol: int) -> int:
    """Blocks of N points a BER run sends to carry at least ``n_bits``."""
    return max(1, math.ceil(n_bits / (N * bits_per_symbol)))


#: samples per BER chunk; a chunk holds max(1, _BER_CHUNK // N) blocks
_BER_CHUNK = 4_000_000


def run_ber(cfg: ExperimentConfig) -> list:
    """Monte-Carlo BER per SNR point and variant.

    Each group of variants with equal (N, n_cp) draws every chunk once: the
    data labels on ``SeededRng(seed).child(0)``, the fading on ``child(1)``
    and unit-variance noise n, one block per row, on ``child(2)``, which
    over EVA is zero-forced once.  ZF and demodulation are linear, so a
    variant's received cores are z + sigma A^{-1} n: its demodulated
    signal z plus one axpy per distinct noise scale sigma, recovered once if
    smoothed.  The noise is demodulated once per variant and chunk; the
    noiseless channel, every scale 0, draws none.

    Whether z needs the channel is decided per group from the config: when
    every path delay is at most n_cp (AWGN, no channel, or EVA with the
    last tap inside the CP), :func:`~ncgfdm.channel.apply_channel` adds no
    ISI and ZF inverts each core's circular channel exactly, so
    z = A^{-1} ZF(H (A D + Q B)) = D + A^{-1} Q B: D itself when unsmoothed,
    and plus the smooth signal's data-domain image when smoothed, with B
    from the variant's own carry.  With a path past the CP, each variant
    transmits the chunk, passes the channel with its own tail, and is
    zero-forced and demodulated.

    So a row equals that of a run with its variant and its SNR point alone,
    and no row depends on the chunk size.  The rows keep the order (SNR
    point, variant).
    """
    _check_kind(cfg, "ber")
    c = qam_constellation(cfg.qam_order)
    builds, groups = _variant_groups(cfg)
    errors = np.zeros((len(cfg.snr_db), len(builds)), dtype=np.int64)
    totals = [0] * len(builds)
    eva = cfg.channel == "eva"
    noisy = cfg.channel != "none"  # the noiseless channel is noise scale 0
    if eva:
        profile = cfg.channel_profile()
    last_tap = int(profile.tap_positions().max()) if eva else 0
    for (N, n_cp), members in groups.items():
        data_rng, chan_rng, noise_rng = (SeededRng(cfg.seed).child(k) for k in range(3))
        if eva:
            duration = (N + n_cp) * profile.sample_interval_ns * 1e-9
            fading = JakesFadingProcess(profile, N, duration, chan_rng)
        circular = last_tap <= n_cp  # no path leaves the CP (apply_channel)
        p = builds[members[0]][0].params
        sigmas = noisy * np.sqrt([noise_variance(snr, p, c.bits_per_symbol) for snr in cfg.snr_db])
        n_blocks = _ber_blocks(cfg.n_bits, N, c.bits_per_symbol)
        chunk = max(1, _BER_CHUNK // N)
        carries, tails = dict.fromkeys(members), dict.fromkeys(members)
        for i in members:
            totals[i] = n_blocks * N * c.bits_per_symbol
        for done in range(0, n_blocks, chunk):
            nb = min(chunk, n_blocks - done)
            labels, D = _draw_data(data_rng, c, N, nb)
            h = fading.realization(np.arange(done, done + nb)) if eva else None
            if noisy:
                noise = awgn(np.broadcast_to(0j, (nb, N)), 1.0, noise_rng)  # one block per row
                if eva:  # once, for every variant and point
                    noise = zf_equalize(h, noise)
            for i in members:
                _, tm, ops = builds[i]
                if not circular:
                    if ops is None:
                        X = tm.modulate(D)
                    else:
                        X, _, carries[i] = smooth_stream(ops, D, carries[i])
                    # one block per row: X.T is contiguous (TransmitMatrix.modulate)
                    R = zf_equalize(h, apply_channel(h, X.T, n_cp, tails[i]))
                    tails[i] = X[:, -1].copy()
                    del X
                    z = tm.demodulate(R.T)
                    del R  # the recovery, which sets the peak memory, needs z and zn alone
                elif ops is None:
                    z = D
                else:
                    B, carries[i] = coefficient_stream(ops, D, carries[i])
                    # A^{-1} Q B formed one symbol per row, as demodulate stores it
                    z = (B.T @ ops.A_inv_Q.T).T
                    z += D
                zn = tm.demodulate(noise.T) if noisy else None
                for sigma in dict.fromkeys(sigmas.tolist()):  # each distinct scale once
                    soft = z if zn is None else sigma * zn + z
                    if ops is not None:
                        soft = recover_iterative(ops, soft, c, cfg.recovery_iterations)
                    errors[sigmas == sigma, i] += _bit_errors(soft, labels, c)
                    del soft  # nor the estimates of the scale before
                del z, zn  # nor the arrays of the variant before
    rows = [
        (float(snr), var.name, e / total, total)
        for snr, errs in zip(cfg.snr_db, errors.tolist())
        for (var, _, _), e, total in zip(builds, errs, totals)
    ]
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

    The power recursion is read after 8, 16, ..., 128 symbols: the first read
    within 0.01 dB of the one before is the plateau, else the last.  Each
    report runs only up to the read it checks; a shorter report is a prefix
    of a longer one, so the values do not depend on where it stops.
    ``closed_form_db`` is nan unless A is unitary.
    """
    for prev_n, n in zip(_PLATEAU_READS, _PLATEAU_READS[1:]):
        rep = sir_report(ops, n)
        if abs(rep.sir_db[n - 1] - rep.sir_db[prev_n - 1]) < 0.01:
            break
    closed = float("nan") if rep.closed_form_db is None else rep.closed_form_db
    return float(rep.sir_db[n - 1]), float(rep.smooth_power[n - 1]), closed


def run_sir(cfg: ExperimentConfig) -> list:
    """Theoretical and empirical SIR over the (beta, V) grid.

    Roll-offs whose pulses are equal sample for sample (at K=256, M=7, beta
    0 and 0.1 both give the Dirichlet pulse) share one transmit matrix and
    one operator set per V, so each distinct waveform is built and scanned
    once; every row reports its own grid beta.
    """
    _check_kind(cfg, "sir")
    c = qam_constellation(cfg.qam_order)
    cells, first, starts = [], {}, []  # first: pulse bytes -> index of its first set
    for beta in cfg.beta_grid:
        p = cfg.waveform(beta=beta)
        g = prototype_filter(p)
        key = g.samples.tobytes()
        if key not in first:
            first[key] = len(cells)
            # the orders of one pulse share its transmit matrix
            tm = build_transmit_matrix(g, p)
            cells += [_operators(g, tm, cfg.waveform(beta=beta, V=V)) for V in cfg.v_grid]
        starts.append(first[key])
    # every set reads one data stream
    emps = empirical_sir(cells, SeededRng(cfg.seed).child(0), cfg.n_symbols, points=c.points)
    results = [(*_steady_sir_db(ops), 10 * np.log10(emp)) for ops, emp in zip(cells, emps)]
    rows = []
    for beta, start in zip(cfg.beta_grid, starts):
        for V, (theory_db, smooth_power, closed, emp_db) in zip(cfg.v_grid, results[start:]):
            rows.append((float(beta), int(V), smooth_power, theory_db, emp_db, closed))
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
    _check_kind(cfg, "power")
    c = qam_constellation(cfg.qam_order)
    p = cfg.waveform()
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


def run_validation(cfg: ExperimentConfig) -> list:
    """Evaluate every operator identity over the standard config matrix.

    One row per entry of :func:`operator_identity_residuals`, which decides
    the identities that apply to each set and their tolerances.  CP lengths
    are chosen as n_cp = K so the boundary Gram identity applies on
    non-unitary configurations as well.  The matrix is fixed; ``cfg`` gives
    the provenance only.
    """
    _check_kind(cfg, "validate")
    rows = []
    for K, M in VALIDATION_DIMS:
        for beta in VALIDATION_BETAS:
            g, tm = _transmit(WaveformParams(K=K, M=M, n_cp=K, beta=beta))
            for V in VALIDATION_ORDERS:
                if 2 * V + 1 > K * M:
                    continue
                p = WaveformParams(K=K, M=M, n_cp=K, beta=beta, V=V)
                ops = _operators(g, tm, p, check=False)
                for name, (r, tol) in operator_identity_residuals(ops).items():
                    rows.append((K, M, beta, V, name, r, tol, r <= tol))
    prov = _provenance(cfg, passed=all(row[-1] for row in rows))
    return [
        ResultTable(
            name="validation",
            columns=("K", "M", "beta", "V", "identity", "residual", "tolerance", "passed"),
            rows=tuple(rows),
            provenance=prov,
        )
    ]


#: the runner of each kind, in the order of EXPERIMENT_KINDS
_RUNNERS = dict(zip(EXPERIMENT_KINDS, (run_psd, run_ber, run_sir, run_power, run_validation)))


def run_experiment(cfg: ExperimentConfig) -> list:
    """The result tables of the runner that ``cfg.kind`` names."""
    return _RUNNERS[cfg.kind](cfg)
