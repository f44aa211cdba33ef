import numpy as np
import pytest

from ncgfdm.params import (
    Constellation,
    DimensionError,
    SeededRng,
    WaveformParams,
    decision_labels,
    demap_symbols,
    hard_decision,
    qam_constellation,
    _nearest_labels,
)


def test_valid_params_roundtrip():
    p = WaveformParams(K=256, M=7, n_cp=280, beta=0.1, V=2)
    assert p.validate() is p
    assert p.N == 1792


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(K=0, M=7),
        dict(K=4, M=0),
        dict(K=4, M=2, beta=-0.1),
        dict(K=4, M=2, beta=1.5),
        dict(K=4, M=2, V=-1),
        dict(K=4, M=2, V=4),  # 2V+1 = 9 > N = 8
        dict(K=4, M=2, n_cp=8),  # n_cp must be < N
        dict(K=4, M=2, n_cp=-1),
        dict(K=4, M=2, filter_kind="hamming"),
        dict(K=4, M=2, oversample=0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(DimensionError):
        WaveformParams(**kwargs).validate()


def test_vectorization_order_is_subcarrier_major():
    from ncgfdm.filterbank import build_transmit_matrix, prototype_filter, shifted_filter

    p = WaveformParams(K=3, M=2, beta=0.5)
    g = prototype_filter(p)
    tm = build_transmit_matrix(g, p)
    # slot m*K + k carries subcarrier k of subsymbol m
    for k in range(p.K):
        for m in range(p.M):
            d = np.zeros(p.N)
            d[m * p.K + k] = 1.0
            assert np.allclose(tm.modulate(d), shifted_filter(g, k, m, p.K, p.M), atol=1e-12)


def test_qam16_is_unit_energy_gray():
    c = qam_constellation(16)
    assert c.bits_per_symbol == 4
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
    # Gray property: nearest neighbors differ in exactly one bit
    pts = c.points
    d = np.abs(pts[:, None] - pts[None, :])
    dmin = d[d > 0].min()
    for i in range(16):
        for j in range(16):
            if i != j and abs(d[i, j] - dmin) < 1e-9:
                assert bin(i ^ j).count("1") == 1


def test_qam_rejects_non_square_orders():
    with pytest.raises(ValueError):
        qam_constellation(8)
    with pytest.raises(ValueError):
        qam_constellation(3)


def test_constellation_energy_enforced():
    with pytest.raises(ValueError):
        Constellation(points=np.array([2.0, -2.0]), bits_per_symbol=1)


def test_map_demap_roundtrip(rng):
    # the experiments map bits to data vectors in _draw_data, MSB first, and
    # read the columns back in slot order
    from ncgfdm.experiments import _draw_data

    c = qam_constellation(16)
    bits, D = _draw_data(rng, c, 12, 3)
    assert bits.size == 12 * 3 * 4 and D.shape == (12, 3)
    assert np.array_equal(demap_symbols(D.reshape(-1, order="F"), c), bits)


def test_hard_decision_nearest_and_ties():
    c = qam_constellation(4)
    noisy = c.points + 0.05 * (1 + 1j)
    assert np.allclose(hard_decision(noisy, c), c.points)
    # a point equidistant from all four resolves to the lowest index
    assert decision_labels(np.array(0.0 + 0.0j), c) == 0
    # scalar input works
    assert hard_decision(c.points[2] * 1.01, c) == c.points[2]


def _dense_labels(y, c, chunk=1 << 15):
    """Dense nearest-point oracle, chunked to bound its n x order memory."""
    flat = np.asarray(y, dtype=np.complex128).ravel()
    out = [_nearest_labels(flat[i : i + chunk], c.points) for i in range(0, flat.size, chunk)]
    return np.concatenate(out).reshape(np.shape(y))


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_square_qam_slicer_matches_dense_search(order):
    c = qam_constellation(order)
    assert c._slicer is not None  # square QAM takes the per-axis path
    rng = np.random.default_rng(order)
    n = 1 << 20
    dmin = np.min(np.abs(np.diff(np.unique(c.points.real))))
    # noise of one spacing per axis crosses every threshold and the outer edges
    y = c.points[rng.integers(0, order, n)] + dmin * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    y = y.reshape(1024, -1)
    assert np.array_equal(decision_labels(y, c), _dense_labels(y, c))
    assert np.array_equal(decision_labels(c.points, c), np.arange(order))
    assert np.array_equal(hard_decision(c.points, c), c.points)


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_square_qam_thresholds_resolve_to_lowest_index(order):
    c = qam_constellation(order)
    levels = np.unique(c.points.real)
    mids = (levels[:-1] + levels[1:]) / 2
    # each axis value with the levels it is equidistant from
    axis = [(v, {v}) for v in levels] + [
        (m, {lo, hi}) for m, lo, hi in zip(mids, levels[:-1], levels[1:])
    ]
    for x, x_near in axis:
        for q, q_near in axis:
            tied = [
                i
                for i, pt in enumerate(c.points)
                if pt.real in x_near and pt.imag in q_near
            ]
            assert decision_labels(x + 1j * q, c) == min(tied), (x, q)


def _psk8():
    return Constellation(
        points=np.exp(2j * np.pi * np.arange(8) / 8), bits_per_symbol=3, name="8PSK"
    )


def test_decisions_keep_scalars_scalar():
    for c in (qam_constellation(16), _psk8()):
        point = hard_decision(complex(c.points[5]) * 1.01, c)
        assert np.ndim(point) == 0 and point == c.points[5]
        assert np.ndim(decision_labels(c.points[5], c)) == 0


def test_non_square_constellations_fall_back_to_dense_search(rng):
    psk = _psk8()
    rotated = qam_constellation(16)
    rotated = Constellation(points=rotated.points * np.exp(0.3j), bits_per_symbol=4)
    assert psk._slicer is None and rotated._slicer is None
    y = 1.5 * (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000))
    # 8-PSK: the nearest point is the one closest in angle
    want = np.rint(np.angle(y) / (np.pi / 4)).astype(int) % 8
    assert np.array_equal(decision_labels(y, psk), want)
    assert np.array_equal(hard_decision(y, psk), psk.points[want])
    d2 = np.abs(y[:, None] - rotated.points[None, :]) ** 2
    assert np.array_equal(decision_labels(y, rotated), np.argmin(d2, axis=1))


def test_seeded_rng_reproducible_and_children_independent():
    a, b = SeededRng(42), SeededRng(42)
    assert np.array_equal(a.generator.integers(0, 2, 100), b.generator.integers(0, 2, 100))
    c0 = SeededRng(42).child(0).standard_normal(50)
    c1 = SeededRng(42).child(1).standard_normal(50)
    assert np.array_equal(c0, SeededRng(42).child(0).standard_normal(50))
    assert not np.array_equal(c0, c1)
