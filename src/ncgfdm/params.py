"""Waveform parameters, constellations, hard decisions and seeded randomness.

Everything downstream (filter bank, smoothing operators, transceiver) is
dimensioned by a validated :class:`WaveformParams`.  Data vectors are
subcarrier-major within each subsymbol: vector slot ``m*K + k`` carries
subcarrier ``k`` of subsymbol ``m`` (see :class:`ncgfdm.filterbank.TransmitMatrix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

RAISED_COSINE = "rc"
DIRICHLET = "dirichlet"


class DimensionError(ValueError):
    """A waveform parameter combination violates a dimensional invariant."""


@dataclass(frozen=True)
class WaveformParams:
    """Dimensional and filter parameters of one waveform configuration.

    Attributes:
        K: number of subcarriers.
        M: number of subsymbols per symbol block; N = K*M samples per block.
        n_cp: cyclic prefix length in samples, 0 <= n_cp < N.
        beta: prototype roll-off factor in [0, 1].
        V: highest derivative order kept continuous by the smoother.
        filter_kind: "rc" or "dirichlet" ("rc" with beta=0 degenerates to
            the Dirichlet pulse).
        oversample: time-domain oversampling factor used only for PSD
            measurement.
    """

    K: int
    M: int
    n_cp: int = 0
    beta: float = 0.0
    V: int = 0
    filter_kind: str = RAISED_COSINE
    oversample: int = 1

    @property
    def N(self) -> int:
        return self.K * self.M

    def validate(self) -> "WaveformParams":
        if self.K < 1 or self.M < 1:
            raise DimensionError(f"K and M must be positive, got K={self.K}, M={self.M}")
        if not 0.0 <= self.beta <= 1.0:
            raise DimensionError(f"roll-off beta must lie in [0, 1], got {self.beta}")
        if self.V < 0:
            raise DimensionError(f"highest derivative order must be >= 0, got {self.V}")
        if 2 * self.V + 1 > self.N:
            raise DimensionError(
                f"basis set does not fit: 2V+1 = {2 * self.V + 1} > N = {self.N}"
            )
        if not 0 <= self.n_cp < self.N:
            raise DimensionError(f"CP length must satisfy 0 <= n_cp < N, got {self.n_cp}")
        if self.filter_kind not in (RAISED_COSINE, DIRICHLET):
            raise DimensionError(f"unknown filter kind {self.filter_kind!r}")
        if self.oversample < 1:
            raise DimensionError(f"oversample factor must be >= 1, got {self.oversample}")
        return self


# ---------------------------------------------------------------------------
# constellations


@dataclass(frozen=True)
class Constellation:
    """A unit-energy constellation with a fixed bit labeling.

    ``points[i]`` is the point whose label is the ``bits_per_symbol``-bit
    binary expansion of ``i`` (MSB first).  Square QAM, where the first half
    of the label picks the in-phase level and the second half picks the
    quadrature level from one shared level set, is decided per axis; any
    other point set falls back to the nearest-point search over all points.
    """

    points: np.ndarray
    bits_per_symbol: int
    name: str = ""
    _slicer: "_SquareQamSlicer | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        object.__setattr__(self, "points", pts)
        n = pts.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"constellation size must be a power of two, got {n}")
        if n != 2**self.bits_per_symbol:
            raise ValueError("point count does not match bits_per_symbol")
        energy = np.mean(np.abs(pts) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation mean energy is {energy}, expected 1")
        object.__setattr__(self, "_slicer", _SquareQamSlicer.of(pts, self.bits_per_symbol))


@dataclass(frozen=True)
class _SquareQamSlicer:
    """Nearest-point decision of square QAM, one PAM axis at a time.

    The squared distance splits into an in-phase and a quadrature term, so
    the nearest point pairs the nearest level on each axis.  A level's
    position is the count of midpoint thresholds below the sample.  A sample
    exactly on a threshold goes to the neighbour with the lower label; per
    axis that yields the lowest point index among the tied points.
    """

    #: ascending midpoints between adjacent levels; one ulp lower where the
    #: upper neighbour has the lower label, so that ``>`` sends a tie upward
    thresholds: np.ndarray
    #: label of the point at (in-phase position, quadrature position),
    #: flattened row-major with ``side`` positions per axis
    labels: np.ndarray
    side: int

    @classmethod
    def of(cls, points: np.ndarray, bits: int) -> "_SquareQamSlicer | None":
        """The slicer for ``points``, or None when they are not square QAM."""
        if bits % 2:
            return None
        side = 2 ** (bits // 2)
        grid = points.reshape(side, side)
        levels = grid.real[:, 0]  # indexed by the label half
        if np.any(grid.real != levels[:, None]) or np.any(grid.imag != levels[None, :]):
            return None
        order = np.argsort(levels)
        ascending = levels[order]
        if np.any(np.diff(ascending) <= 0):
            return None
        mid = (ascending[:-1] + ascending[1:]) / 2
        thresholds = np.where(order[1:] < order[:-1], np.nextafter(mid, -np.inf), mid)
        labels = (order[:, None] * side + order[None, :]).ravel()
        return cls(thresholds=thresholds, labels=labels, side=side)

    def __call__(self, flat: np.ndarray) -> np.ndarray:
        """Labels of a contiguous 1-D complex128 array."""
        axes = flat.view(np.float64)  # interleaved in-phase, quadrature
        pos = np.zeros(axes.shape, dtype=np.min_scalar_type(self.labels.size - 1))
        for t in self.thresholds:
            pos += axes > t
        return np.take(self.labels, pos[0::2] * self.side + pos[1::2])


def _gray_pam_levels(bits: int) -> np.ndarray:
    """PAM levels indexed by the Gray-decoded bit pattern (MSB first).

    Level order: bit pattern g maps to amplitude 2*b - (L-1) where b is the
    binary-reflected Gray decode of g.  For 2 bits: 00->-3, 01->-1, 11->+1,
    10->+3.
    """
    L = 2**bits
    levels = np.empty(L)
    for g in range(L):
        b = g
        mask = g >> 1
        while mask:
            b ^= mask
            mask >>= 1
        levels[g] = 2 * b - (L - 1)
    return levels


def qam_constellation(order: int) -> Constellation:
    """Square Gray-mapped QAM of the given order (4, 16, 64, ...).

    The first half of the label addresses the in-phase axis, the second half
    the quadrature axis; each axis carries a binary-reflected Gray code.
    Points are scaled to unit average energy.
    """
    bits = int(np.log2(order))
    if 2**bits != order or bits % 2 != 0:
        raise ValueError(f"square QAM requires a power-of-four order, got {order}")
    half = bits // 2
    pam = _gray_pam_levels(half)
    idx = np.arange(order)
    i_bits = idx >> half
    q_bits = idx & (2**half - 1)
    raw = pam[i_bits] + 1j * pam[q_bits]
    scale = np.sqrt(np.mean(np.abs(raw) ** 2))
    return Constellation(points=raw / scale, bits_per_symbol=bits, name=f"{order}QAM")


# ---------------------------------------------------------------------------
# hard decisions


def _nearest_labels(flat: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Dense nearest-point search; ties resolve to the lowest point index."""
    # np.argmin takes the first (lowest index) of equal minima
    d2 = np.abs(flat[:, None] - points[None, :]) ** 2
    return np.argmin(d2, axis=1)


def decision_labels(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Indices of the nearest constellation points, in the shape of ``y``.

    A sample exactly on a decision threshold resolves to the lowest point
    index.  Square QAM is sliced per axis; other constellations compare
    every sample with every point.
    """
    y = np.asarray(y, dtype=np.complex128)
    flat = y.ravel()
    labels = _nearest_labels(flat, c.points) if c._slicer is None else c._slicer(flat)
    return labels.reshape(y.shape)


def hard_decision(y: np.ndarray, c: Constellation) -> np.ndarray:
    """Nearest-point decision; ties resolve to the lowest point index.

    Works elementwise on scalars or arrays, returning constellation points.
    """
    return np.take(c.points, decision_labels(y, c))


def demap_symbols(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard-decide symbols and return the recovered bit sequence."""
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    label_bits = ((np.arange(c.points.size)[:, None] >> shifts) & 1).astype(np.uint8)
    return np.take(label_bits, decision_labels(symbols, c).ravel(), axis=0).ravel()


# ---------------------------------------------------------------------------
# seeded randomness


@dataclass
class SeededRng:
    """Reproducible random source; children derive deterministically.

    Uses numpy's PCG64 generator.  ``child(i)`` spawns an independent stream
    for trial ``i`` from (seed, i), so parallel trials never share state.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.default_rng(np.random.SeedSequence(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, index: int) -> "np.random.Generator":
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(index,))
        )
