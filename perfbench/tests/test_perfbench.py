"""Fast checks of the benchmark itself, at small dimensions.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from perfbench import oracles
from perfbench.harness import load_spec, measure
from perfbench.trace import TARGETS, Tracer, resolve
from perfbench.workloads import WORKLOADS

SMALL_DIMS = {"K": 128, "M": 3, "n_cp": 96, "qam_order": 16}
SMALL_SIZES = {
    "ber-awgn": {"n_bits": 20_000},
    "ber-eva": {"n_bits": 20_000},
    "psd-oob": {"n_symbols": 40, "window_len": 256, "overlap": 64},
    "sir-grid": {"n_symbols": 40},
}


def small(name):
    wl = WORKLOADS[name]
    return replace(wl, dims=SMALL_DIMS, settings={**wl.settings, **SMALL_SIZES[name]})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_every_rebound_name(name):
    wl = small(name)
    originals = [(resolve(owner), attr) for owner, attr, _, _ in TARGETS]
    before = [vars(owner)[attr] for owner, attr in originals]
    tracer = Tracer()
    with tracer:
        assert all(vars(o)[a] is not f for (o, a), f in zip(originals, before))
        wl.run(wl.config(3))
    assert [vars(owner)[attr] for owner, attr in originals] == before
    assert tracer.spans, "the traced run recorded no span"


def test_tracer_restores_names_when_the_run_raises():
    originals = [(resolve(owner), attr) for owner, attr, _, _ in TARGETS]
    before = [vars(owner)[attr] for owner, attr in originals]
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert [vars(owner)[attr] for owner, attr in originals] == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tables_are_byte_identical(name, tmp_path):
    from ncgfdm.experiments import write_tables

    wl = small(name)
    cfg = wl.config(5)
    plain = write_tables(cfg, wl.run(cfg), tmp_path / "plain")
    with Tracer() as tracer:
        traced = write_tables(cfg, tracer.span("experiments.run", wl.run, cfg), tmp_path / "traced")
    assert [p.rsplit("/", 1)[1] for p in plain] == [p.rsplit("/", 1)[1] for p in traced]
    for a, b in zip(plain, traced):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a


def test_oracle_constellation_matches_the_program():
    from ncgfdm.params import qam_constellation

    np.testing.assert_allclose(oracles.gray16_points(), qam_constellation(16).points, atol=1e-15)


def test_slicer_inverts_the_labelling():
    labels = np.arange(16)
    bits = ((labels[:, None] >> np.arange(3, -1, -1)) & 1).ravel()
    assert np.array_equal(oracles.gray16_slice_bits(oracles.gray16_points()), bits)


@pytest.mark.parametrize("ebn0_db", [2.0, 6.0, 10.0])
def test_analytic_ber_matches_monte_carlo_of_the_slicer(ebn0_db):
    rng = np.random.default_rng(11)
    n_points = 1_000_000
    labels = rng.integers(0, 16, n_points)
    sent = ((labels[:, None] >> np.arange(3, -1, -1)) & 1).ravel()
    sigma2 = oracles.ebn0_noise_variance(ebn0_db, 1792, 280, 4)
    noise = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    y = oracles.gray16_points()[labels] + math.sqrt(sigma2 / 2) * noise
    ber = np.count_nonzero(oracles.gray16_slice_bits(y) != sent) / sent.size
    ref = oracles.gray16_awgn_ber(ebn0_db, 1792, 280)
    assert abs(ber - ref) <= 4 * oracles.ber_sigma(ref, sent.size)


def test_psd_segment_count_formula():
    assert oracles.welch_segments(100, 256, 64) == 0
    assert oracles.welch_segments(256, 256, 64) == 1
    assert oracles.welch_segments(256 + 191, 256, 64) == 1
    assert oracles.welch_segments(256 + 192, 256, 64) == 2


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_file_carries_every_declared_metric(name, trace, tmp_path):
    spec = load_spec()
    result = measure(small(name), seed=2, seconds=0.0, trace=trace, import_s=0.0,
                     out_dir=tmp_path)
    with open(tmp_path / f"{name}-seed2-trace{int(trace)}.json") as fh:
        record = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert record["result"] == json.loads(json.dumps(result))
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
    assert set(record["provenance"]) >= {
        "platform", "nproc", "numpy", "scipy", "numpy_blas", "scipy_blas",
        "blas_threads", "git_commit",
    }
    assert result["attempted"] >= 1 and result["correct"]
