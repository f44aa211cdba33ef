from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_labels, shifted_filter
from ncgfdm.params import (
    DimensionError,
    SeededRng,
    WaveformParams,
    decision_labels,
    demap_symbols,
    hard_decision,
    qam_constellation,
)


def test_valid_params_roundtrip():
    p = WaveformParams(K=256, M=7, n_cp=280, beta=0.1, V=2)
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
        dict(K=4, M=2, oversample=0),
        dict(K=4.0, M=2),
        dict(K=4, M=True),
        dict(K=4, M=2, n_cp=1.5),
        dict(K=4, M=2, V=2.5),
        dict(K=4, M=2, oversample=2.0),
        dict(K=4, M=2, beta="0.1"),
        dict(K=4, M=2, beta=True),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(DimensionError) as made:
        WaveformParams(**kwargs)
    with pytest.raises(DimensionError) as replaced:
        replace(WaveformParams(K=4, M=2), **kwargs)
    assert str(replaced.value) == str(made.value)


def test_vectorization_order_is_subcarrier_major():
    from ncgfdm.filterbank import build_transmit_matrix, prototype_filter

    p = WaveformParams(K=3, M=2, beta=0.5)
    g = prototype_filter(p)
    tm = build_transmit_matrix(g, p)
    # slot m*K + k carries subcarrier k of subsymbol m
    for k in range(p.K):
        for m in range(p.M):
            d = np.zeros(p.N)
            d[m * p.K + k] = 1.0
            assert np.allclose(tm.modulate(d), shifted_filter(g, k, m, p.K), atol=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64, 256, 1024])
def test_qam_is_unit_energy_gray(order):
    c = qam_constellation(order)
    assert c.points.size == order == 2**c.bits_per_symbol
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
    # Gray property: nearest neighbors differ in exactly one bit
    d = np.abs(c.points[:, None] - c.points[None, :])
    dmin = d[d > 0].min()
    i, j = np.nonzero(np.abs(d - dmin) < 1e-9)
    side = 2 ** (c.bits_per_symbol // 2)
    assert i.size == 4 * side * (side - 1)  # every pair of axis neighbours, both ways
    diff = i ^ j
    assert np.all((diff != 0) & (diff & (diff - 1) == 0))
    assert np.array_equal(decision_labels(c.points, c), np.arange(order))


@pytest.mark.parametrize("order", [8, 3, 2, 1, True, 0, -4, 16.0])
def test_qam_rejects_non_square_orders(order):
    with pytest.raises(ValueError, match="power-of-four order"):
        qam_constellation(order)


@pytest.mark.parametrize("order", [4**b for b in range(1, 7)])
def test_draw_data_is_the_reference_draw_with_one_symbol_per_column(order):
    # 3 symbols of N = 75: for every order but 256 the draw ends inside a byte
    from ncgfdm.experiments import _draw_data

    c = qam_constellation(order)
    gen, whole = np.random.default_rng(order), np.random.default_rng(order)
    labels, D = _draw_data(gen, c, 75, 3)
    want = reference_labels(whole, order, (3, 75))
    assert gen.bytes(16) == whole.bytes(16)  # one draw of the same length
    assert np.array_equal(labels, want)
    assert D.shape == (75, 3)
    assert np.array_equal(D, c.points[want].T)


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_label_xor_counts_what_the_bit_comparison_counts(order, rng):
    from ncgfdm.experiments import _bit_errors, _draw_data

    c = qam_constellation(order)
    labels, D = _draw_data(rng, c, 75, 40)
    noise = rng.standard_normal((75, 40, 2)).view(np.complex128)[..., 0]
    soft = D + 0.2 * np.sqrt(16 / order) * noise
    sent = demap_symbols(D.reshape(-1, order="F"), c)
    decided = demap_symbols(soft.reshape(-1, order="F"), c)
    want = int(np.count_nonzero(decided != sent))
    symbol_errors = int(np.count_nonzero(decision_labels(soft, c) != labels.T))
    assert want > symbol_errors > 0  # some symbols carry more than one bit error
    assert _bit_errors(soft, labels, c) == want


def test_hard_decision_nearest_and_ties():
    c = qam_constellation(4)
    noisy = c.points + 0.05 * (1 + 1j)
    assert np.allclose(hard_decision(noisy, c), c.points)
    # a point equidistant from all four resolves to the lowest index
    assert decision_labels(np.array(0.0 + 0.0j), c) == 0
    # scalar input works
    assert hard_decision(c.points[2] * 1.01, c) == c.points[2]


def _dense_labels(y, c, chunk=1 << 15):
    """Dense nearest-point oracle, chunked to bound its n x order memory.

    Ties resolve to the lowest point index: np.argmin takes the first of
    equal minima.
    """
    flat = np.asarray(y, dtype=np.complex128).ravel()
    out = [
        np.argmin(np.abs(flat[i : i + chunk, None] - c.points[None, :]) ** 2, axis=1)
        for i in range(0, flat.size, chunk)
    ]
    return np.concatenate(out).reshape(np.shape(y))


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_square_qam_slicer_matches_dense_search(order):
    c = qam_constellation(order)
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


@pytest.mark.parametrize("order", [4, 16, 64, 256, 1024, 4096])
def test_hard_decision_is_bitwise_the_labelled_point(order):
    c = qam_constellation(order)
    assert np.array_equal(c.levels, np.unique(c.points.real))
    rng = np.random.default_rng(order)
    # each level, each threshold and its neighbouring floats (ties included),
    # and noise of one spacing around random points
    near = np.concatenate([c.levels, c.thresholds])
    axis = np.concatenate([near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf)])
    ties = (axis[:, None] + 1j * axis[None, :]).ravel()
    dmin = np.min(np.diff(c.levels))
    n = 1 << 16
    noisy = c.points[rng.integers(0, order, n)] + dmin * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    for y in (ties, noisy.reshape(256, -1), noisy.reshape(256, -1).T):
        got = hard_decision(y, c)
        want = c.points[decision_labels(y, c)]
        assert got.shape == y.shape
        assert got.tobytes() == want.tobytes()


def test_decisions_keep_scalars_scalar():
    c = qam_constellation(16)
    point = hard_decision(complex(c.points[5]) * 1.01, c)
    assert np.ndim(point) == 0 and point == c.points[5]
    assert np.ndim(decision_labels(c.points[5], c)) == 0


def test_the_pulse_is_set_by_beta_alone(monkeypatch):
    # no Dirichlet switch: beta = 0 is the Dirichlet pulse
    with pytest.raises(TypeError):
        WaveformParams(K=4, M=2, filter_kind="rc")
    # the benchmark keys its transmit-matrix builds on filter_kind
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import WORKLOADS

    for wl in WORKLOADS.values():
        assert {p.filter_kind for _, p, _ in wl.builds(wl.config(1))} == {"rc"}


def test_seeded_rng_reproducible_and_children_independent():
    # a seed holds no stream of its own: every stream is a child
    assert [f.name for f in fields(SeededRng)] == ["seed"]
    c0 = SeededRng(42).child(0).standard_normal(50)
    c1 = SeededRng(42).child(1).standard_normal(50)
    assert np.array_equal(c0, SeededRng(42).child(0).standard_normal(50))
    assert not np.array_equal(c0, c1)
