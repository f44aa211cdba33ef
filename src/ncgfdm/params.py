"""Waveform parameters, constellations, hard decisions and the seeded data draw.

Everything downstream (filter bank, smoothing operators, transceiver) is
dimensioned by a validated :class:`WaveformParams`.  Data vectors are
subcarrier-major within each subsymbol: vector slot ``m*K + k`` carries
subcarrier ``k`` of subsymbol ``m`` (see :class:`ncgfdm.filterbank.TransmitMatrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = [
    "DimensionError",
    "WaveformParams",
    "Constellation",
    "qam_constellation",
    "SeededRng",
    "hard_decision",
    "demap_symbols",
]


class DimensionError(ValueError):
    """A waveform parameter combination violates a dimensional invariant."""


def _check_count(name: str, value, least: int) -> None:
    """Reject a count ``value`` that is not an integer >= ``least``, naming it."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (whole and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class WaveformParams:
    """Dimensional and filter parameters of one waveform configuration.

    The prototype is a raised cosine, set by ``beta`` alone: ``beta = 0`` is
    the Dirichlet pulse.

    Making one, also by ``dataclasses.replace``, raises :class:`DimensionError`
    on a combination that violates an invariant, so every instance is valid.

    Attributes:
        K: number of subcarriers.
        M: number of subsymbols per symbol block; N = K*M samples per block.
        n_cp: cyclic prefix length in samples, 0 <= n_cp < N.
        beta: prototype roll-off factor in [0, 1].
        V: highest derivative order kept continuous by the smoother.
        oversample: time-domain oversampling factor; no builder reads it
            (the PSD experiment takes its factor from its config).
    """

    K: int
    M: int
    n_cp: int = 0
    beta: float = 0.0
    V: int = 0
    oversample: int = 1

    @property
    def N(self) -> int:
        return self.K * self.M

    @property
    def filter_kind(self) -> str:
        """Always ``"rc"``, the raised cosine; kept for callers that key builds on it."""
        return "rc"

    def __post_init__(self):
        for name in ("K", "M", "n_cp", "V", "oversample"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DimensionError(f"{name} must be an integer, got {value!r}")
        if self.K < 1 or self.M < 1:
            raise DimensionError(f"K and M must be positive, got K={self.K}, M={self.M}")
        if isinstance(self.beta, bool) or not isinstance(self.beta, Real):
            raise DimensionError(f"roll-off beta must be a real number, got {self.beta!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise DimensionError(f"roll-off beta must lie in [0, 1], got {self.beta}")
        if self.V < 0:
            raise DimensionError(f"highest derivative order must be >= 0, got {self.V}")
        if 2 * self.V + 1 > self.N:
            raise DimensionError(
                f"basis set does not fit: 2V+1 = {2 * self.V + 1} > N = K*M = {self.N}"
            )
        if not 0 <= self.n_cp < self.N:
            raise DimensionError(f"CP length must satisfy 0 <= n_cp < N, got {self.n_cp}")
        if self.oversample < 1:
            raise DimensionError(f"oversample factor must be >= 1, got {self.oversample}")


# ---------------------------------------------------------------------------
# constellations


@dataclass(frozen=True)
class Constellation:
    """Square Gray-mapped QAM at unit mean energy, built by :func:`qam_constellation`.

    ``points[i]`` is the point whose label is the ``bits_per_symbol``-bit
    binary expansion of ``i`` (MSB first).  The first half of the label picks
    the in-phase level and the second half the quadrature level, from one
    shared level set.  The squared distance splits into an in-phase and a
    quadrature term, so the nearest point pairs the nearest level on each
    axis, and :func:`decision_labels` decides one axis at a time.
    """

    points: np.ndarray
    bits_per_symbol: int
    #: the shared per-axis levels in ascending order, bitwise equal to the
    #: real and imaginary parts of ``points``
    levels: np.ndarray
    #: ascending midpoints between adjacent levels; one ulp lower where the
    #: upper neighbour has the lower label, so that ``>`` sends a tie upward
    thresholds: np.ndarray
    #: label of the point at (in-phase position, quadrature position),
    #: flattened row-major with ``thresholds.size + 1`` positions per axis,
    #: in the narrowest unsigned type that holds every label
    labels: np.ndarray


def qam_constellation(order: int) -> Constellation:
    """Square Gray-mapped QAM of the given order (4, 16, 64, ...).

    The first half of the label addresses the in-phase axis, the second half
    the quadrature axis; each axis carries a binary-reflected Gray code, so
    the b-th lowest level has label half ``b ^ (b >> 1)``.  For 2 bits per
    axis: 00->-3, 01->-1, 11->+1, 10->+3.  Points are scaled to unit average
    energy.
    """
    whole = isinstance(order, (int, np.integer)) and not isinstance(order, bool)
    if not (whole and order >= 4 and order & (order - 1) == 0 and int(order).bit_length() % 2):
        need = "square QAM needs a power-of-four order"
        raise ValueError(f"qam_order must be a power of four ({need}), got {order!r}")
    bits = int(order).bit_length() - 1
    half = bits // 2
    side = 2**half
    b = np.arange(side)
    gray = b ^ (b >> 1)
    pam = np.empty(side)
    pam[gray] = 2 * b - (side - 1)
    idx = np.arange(order)
    raw = pam[idx >> half] + 1j * pam[idx & (side - 1)]
    points = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    ascending = points.real[gray * side]
    label_type = np.min_scalar_type(order - 1)
    mid = (ascending[:-1] + ascending[1:]) / 2
    return Constellation(
        points=points,
        bits_per_symbol=bits,
        levels=ascending,
        thresholds=np.where(gray[1:] < gray[:-1], np.nextafter(mid, -np.inf), mid),
        labels=(gray[:, None] * side + gray[None, :]).ravel().astype(label_type),
    )


# ---------------------------------------------------------------------------
# hard decisions


def _axis_positions(y: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """(y as complex, level position of every axis value).

    The positions are interleaved in-phase, quadrature over ``y`` in C order;
    a position is the count of thresholds below the axis value.
    """
    y = np.asarray(y, dtype=np.complex128)
    axes = y.ravel().view(np.float64)
    pos = np.zeros(axes.shape, dtype=np.min_scalar_type(c.labels.size - 1))
    for t in c.thresholds:
        pos += axes > t
    return y, pos


def decision_labels(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Indices of the nearest constellation points, in the shape of ``y``.

    A level's position on each axis is the count of thresholds below the
    sample.  A sample exactly on a threshold goes to the neighbour with the
    lower label; per axis that yields the lowest point index among the tied
    points.
    """
    y, pos = _axis_positions(y, c)
    side = c.thresholds.size + 1
    return np.take(c.labels, pos[0::2] * side + pos[1::2]).reshape(y.shape)


def hard_decision(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Nearest-point decision; ties resolve to the lowest point index.

    Works elementwise on scalars or arrays, returning constellation points,
    bitwise equal to ``c.points[decision_labels(y, c)]``.  Each axis reads
    its level at its position straight into the output, so no label is
    formed.
    """
    y, pos = _axis_positions(y, c)
    out = np.empty(y.shape, dtype=np.complex128)
    # every position indexes a level, so "clip" never clips; it spares the
    # buffered copy that mode="raise" makes of ``out``
    np.take(c.levels, pos, out=out.reshape(-1).view(np.float64), mode="clip")
    return out[()] if out.ndim == 0 else out


def demap_symbols(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard-decide symbols and return the recovered bit sequence."""
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    label_bits = ((np.arange(c.points.size)[:, None] >> shifts) & 1).astype(np.uint8)
    return np.take(label_bits, decision_labels(symbols, c).ravel(), axis=0).ravel()


# ---------------------------------------------------------------------------
# seeded randomness and the one data draw of every experiment


@dataclass(frozen=True)
class SeededRng:
    """Master seed of a run; its children are the run's random streams.

    ``child(i)`` is numpy's PCG64 generator spawned for trial ``i`` from
    (seed, i), so parallel trials never share state.
    """

    seed: int

    def child(self, index: int) -> "np.random.Generator":
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(index,))
        )


def _label_table(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """(table, b): the points read per packed unit of the draw, and the label width.

    ``pts`` must hold 2**b points, b >= 1.  When b divides 8 the unit is a
    byte: row u of the (256, 8/b) table holds the points of the 8/b labels
    packed in byte u, most significant field first.  Otherwise the unit is
    the label itself and the table is ``pts`` as one column.
    """
    size = pts.size
    if size < 2 or size & (size - 1):
        raise ValueError(f"points must hold a power-of-two count of at least 2, got {size}")
    bits = size.bit_length() - 1
    if 8 % bits:
        return pts[:, None], bits
    shifts = 8 - bits * np.arange(1, 8 // bits + 1)
    return pts[(np.arange(256)[:, None] >> shifts) & (size - 1)], bits


def _draw_units(rng: np.random.Generator, n: int, bits: int) -> np.ndarray:
    """Packed units of ``n`` labels drawn as consecutive ``bits``-bit fields.

    The fields read the bytes of ``rng.bytes`` in order, each byte most
    significant bit first, so a draw of ``n`` labels takes ceil(n b / 8)
    bytes.  When b divides 8 the units are those bytes; otherwise they are
    the labels, unpacked from groups of b / gcd(b, 8) whole bytes (zero
    padded at the end) and so possibly a few past ``n``.
    """
    buf = np.frombuffer(rng.bytes(-(-n * bits // 8)), dtype=np.uint8)
    if not 8 % bits:
        return buf
    per = 8 // int(np.gcd(bits, 8))  # labels per group
    width = bits * per // 8  # bytes per group
    groups = np.pad(buf, (0, -buf.size % width)).reshape(-1, width)
    labels = np.empty((groups.shape[0], per), dtype=np.min_scalar_type((1 << bits) - 1))
    for j in range(per):
        first, last = j * bits // 8, ((j + 1) * bits - 1) // 8
        # the bytes under field j, as one word of the narrowest unsigned type
        word = groups[:, first].astype(np.min_scalar_type((1 << 8 * (last - first + 1)) - 1))
        for k in range(first + 1, last + 1):
            word <<= 8
            word |= groups[:, k]
        word >>= 8 * (last + 1) - (j + 1) * bits
        word &= (1 << bits) - 1
        labels[:, j] = word
    return labels.ravel()


def _draw_fields(
    rng: np.random.Generator, table: np.ndarray, bits: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``n`` labels drawn by :func:`_draw_units`, as the entries of
    :func:`_label_table`'s ``table`` for every field their units carry, in
    draw order, the labels' first; written to ``out`` if given."""
    units = _draw_units(rng, n, bits)
    if out is None:
        out = np.empty((units.size, table.shape[1]), dtype=table.dtype)
    # every unit indexes the table, so "wrap" never wraps, but take writes to out unbuffered
    return np.take(table, units, axis=0, out=out[: units.size], mode="wrap").ravel()
