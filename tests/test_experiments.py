import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import reference_psd_sample_stream
from ncgfdm import experiments
from ncgfdm.cli import main
from ncgfdm.experiments import (
    PRESETS,
    ExperimentConfig,
    apply_preset,
    code_version,
    git_describe,
    noise_variance,
    resolve_variant,
    run_ber,
    run_experiment,
    run_power,
    run_psd,
    run_sir,
    run_validation,
    write_tables,
)
from ncgfdm.params import WaveformParams
from ncgfdm.spectrum import normalize_inband, welch_psd


SMALL = dict(K=16, M=7, n_cp=16, beta=0.1, V=2)


def small_cfg(kind, **kw):
    base = dict(SMALL, kind=kind)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="spectrogram").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ber", channel="rician").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ber", snr_db=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="psd", n_symbols=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="psd", variants=()).validate()
    assert ExperimentConfig().validate().kind == "validate"


@pytest.mark.parametrize(
    "kind,overrides,message",
    [
        ("sir", dict(n_symbols=1), r"n_symbols >= 2, got 1"),
        ("power", dict(n_streams=0), r"n_streams >= 1, got 0"),
        ("power", dict(n_indices=0), r"n_indices >= 1, got 0"),
        ("sir", dict(beta_grid=()), r"non-empty beta_grid"),
        ("sir", dict(v_grid=()), r"non-empty v_grid"),
        ("sir", dict(v_grid=(2, 56)), r"v_grid entry V=56 .* 113 > N = K\*M = 112"),
        ("sir", dict(beta_grid=(0.1, 1.5)), r"beta_grid entry 1.5: .*got 1.5"),
    ],
    ids=["n_symbols", "n_streams", "n_indices", "empty-beta_grid", "empty-v_grid",
         "v_grid-too-large", "beta_grid-out-of-range"],
)
def test_config_validation_rejects_sir_and_power_configs_that_fail_mid_run(
    kind, overrides, message
):
    # each of these passed validate() before, then failed or dropped grid
    # cells only once the operators were built
    with pytest.raises(ValueError, match=message):
        small_cfg(kind, **overrides).validate()


@pytest.mark.parametrize(
    "kind,overrides,message",
    [
        ("ber", dict(recovery_iterations=0), r"recovery_iterations >= 1, got 0"),
        ("psd", dict(window_len=4), r"window_len >= 8, got 4"),
        ("psd", dict(overlap=-1), r"overlap must lie in \[0, window_len = 1792\), got -1"),
        ("psd", dict(overlap=1792), r"overlap must lie in \[0, window_len = 1792\), got 1792"),
        # ofdm: 3 symbols of N + n_cp = 16 + 2 samples at oversample 4
        ("psd", dict(n_symbols=3), r"'ofdm' streams .* = 216 samples, .*window_len = 1792"),
        ("psd", dict(n_symbols=3, variants=("gfdm",)), r"'gfdm' streams .* = 1536 samples"),
        ("ber", dict(qam_order=8), r"qam_order must be a power of four .*got 8"),
        ("sir", dict(qam_order=0), r"qam_order must be a power of four .*got 0"),
    ],
    ids=["recovery_iterations", "window_len", "negative-overlap", "whole-window-overlap",
         "ofdm-stream-short", "gfdm-stream-short", "qam_order-8", "qam_order-0"],
)
def test_config_validation_rejects_ber_and_psd_configs_that_fail_mid_run(kind, overrides, message):
    # each of these passed validate() before: the Welch and stream-length
    # cases failed only after the builds, the others with a message that
    # did not name the field
    with pytest.raises(ValueError, match=message):
        small_cfg(kind, **overrides).validate()


@pytest.mark.parametrize(
    "runner,kind,field,values,message",
    [
        (run_sir, "sir", "v_grid", lambda V: (0, 2, V), r"v_grid entry: smoothing order V=8"),
        (run_ber, "ber", "variants", lambda V: ("gfdm", f"nc-gfdm:{V}"),
         r"variant 'nc-gfdm:8': smoothing order V=8"),
    ],
    ids=["v_grid", "variant"],
)
def test_config_validation_rejects_smoothing_order_whose_build_fails(
    monkeypatch, runner, kind, field, values, message
):
    # V=8 passed validate() before; the run then drew data for the earlier
    # cells and failed in build_nc_operators on the idempotent residual
    cfg = ExperimentConfig(kind=kind, K=256, M=7, n_cp=280, beta=0.1)
    top = experiments.MAX_ORDER
    # the highest accepted order builds; the next one fails the identity check
    p = cfg.waveform(V=top)
    experiments._operators(*experiments._transmit(p), p)
    replace(cfg, **{field: values(top)}).validate()
    p = cfg.waveform(V=top + 1)
    with pytest.raises(AssertionError, match="idempotent residual"):
        experiments._operators(*experiments._transmit(p), p)
    cfg = replace(cfg, **{field: values(top + 1)})
    with pytest.raises(ValueError, match=message):
        cfg.validate()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was rejected")

    for name in ("_transmit", "_draw_data", "empirical_sir"):
        monkeypatch.setattr(experiments, name, no_work)
    with pytest.raises(ValueError, match=message):
        runner(cfg)


def test_cli_rejects_non_square_qam_before_any_work(tmp_path):
    with pytest.raises(ValueError, match=r"qam_order must be a power of four .*got 8"):
        main(["sir", "--set", "qam_order=8", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


def test_from_dict_names_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown config key\(s\): bogus, n_sym$"):
        ExperimentConfig.from_dict({"kind": "sir", "n_sym": 3, "bogus": 1})
    cfg = ExperimentConfig.from_dict({"kind": "sir", "v_grid": [0, 2]})
    assert cfg.v_grid == (0, 2)


def test_config_validation_rejects_blocks_shorter_than_eva_delay():
    # EVA's 2510 ns tap is 270 samples at 9.3 ns; ofdm and td-nc-ofdm have N=256
    with pytest.raises(ValueError, match=r"'ofdm' has block length N=256.*270 samples"):
        ExperimentConfig(kind="ber", channel="eva").validate()
    with pytest.raises(ValueError, match=r"'td-nc-ofdm:2' has block length N=256"):
        ExperimentConfig(kind="ber", channel="eva", variants=("gfdm", "td-nc-ofdm:2")).validate()
    ExperimentConfig(kind="ber", channel="eva", variants=("gfdm", "nc-gfdm:2")).validate()
    # a CP shorter than the delay spread is simulated as inter-symbol interference
    ExperimentConfig(kind="ber", channel="eva", n_cp=100, variants=("gfdm",)).validate()


def test_eva_cp_shorter_than_delay_spread_raises_ber():
    """Cutting the CP from 280 to 100 samples spends less energy on it, so
    without ISI the BER would fall; EVA's 270-sample delay spread must raise it."""
    cfg = ExperimentConfig(
        kind="ber",
        K=256,
        M=7,
        beta=0.5,
        V=2,
        channel="eva",
        snr_db=(20.0,),
        n_bits=200_000,
        variants=("gfdm",),
        seed=1008,
    )
    ber = {n_cp: run_ber(replace(cfg, n_cp=n_cp))[0].rows[0][2] for n_cp in (280, 100)}
    assert ber[100] > ber[280]


def test_code_version_is_known_when_run_from_source(tmp_path, monkeypatch):
    import subprocess
    from pathlib import Path

    import ncgfdm

    version = code_version()
    assert version != "unknown"
    commit = git_describe(Path(ncgfdm.__file__).parent)
    assert version == (ncgfdm.__version__ if commit is None else f"{ncgfdm.__version__}+{commit}")
    assert code_version() is version  # computed once per process
    # a checkout appends its commit
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "f").write_text("x")
    subprocess.run(git + ["add", "f"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "m"], check=True)
    head = subprocess.run(
        git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    assert git_describe(tmp_path) == head
    (tmp_path / "f").write_text("y")
    assert git_describe(tmp_path) == f"{head}-dirty"
    # outside a checkout, or without git, the version is the package's alone
    outside = tmp_path / "plain"
    outside.mkdir()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    assert git_describe(outside) is None
    monkeypatch.setenv("PATH", "")
    assert git_describe(tmp_path) is None
    assert code_version.__wrapped__() == ncgfdm.__version__


def test_presets():
    cfg = apply_preset(ExperimentConfig(), "paper")
    assert cfg.n_symbols == PRESETS["paper"]["n_symbols"]
    assert cfg.window_len == 7168
    with pytest.raises(ValueError):
        apply_preset(cfg, "bench")


def test_config_hash_stable_and_ignores_out_dir():
    a = ExperimentConfig(seed=7)
    b = ExperimentConfig(seed=7, out_dir="/somewhere/else")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != ExperimentConfig(seed=8).config_hash()
    assert len(a.config_hash()) == 16


def test_config_file_roundtrip(tmp_path):
    cfg = small_cfg("sir", seed=5, snr_db=(10.0,))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_file(path)
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


def test_resolve_variant_parsing():
    cfg = ExperimentConfig(K=256, M=7, n_cp=280, beta=0.1, V=2)
    ofdm = resolve_variant(cfg, "ofdm")
    assert (ofdm.params.K, ofdm.params.M, ofdm.params.n_cp) == (256, 1, 40)
    assert ofdm.params.beta == 0.0 and not ofdm.smoothed
    td = resolve_variant(cfg, "td-nc-ofdm:4")
    assert td.smoothed and td.params.V == 4 and td.params.M == 1
    nc = resolve_variant(cfg, "nc-gfdm:6")
    assert nc.smoothed and nc.params.V == 6 and nc.params.M == 7
    assert nc.label == "nc_gfdm_v6"
    plain = resolve_variant(cfg, "gfdm")
    assert not plain.smoothed and plain.params.V == 2
    with pytest.raises(ValueError):
        resolve_variant(cfg, "fbmc")


def test_noise_variance_convention():
    p = WaveformParams(K=256, M=7, n_cp=280)
    got = noise_variance(10.0, p, 4)
    assert got == pytest.approx((1 + 280 / 1792) / 4 / 10.0)


def test_run_validation_passes_and_catches_faults():
    report = run_validation()
    assert report.passed
    assert not report.failures()
    # every row carries the full identification tuple
    assert all(len(r) == 8 for r in report.rows)
    bad = run_validation(inject_fault=True)
    assert not bad.passed
    assert any(r[4] == "idempotent" for r in bad.failures())


def test_run_sir_deterministic_bytes():
    cfg = small_cfg("sir", n_symbols=300, beta_grid=(0.0,), v_grid=(0, 2), seed=3)
    a = run_sir(cfg)[0].to_csv()
    b = run_sir(cfg)[0].to_csv()
    assert a == b
    # a different seed moves the empirical column
    c = run_sir(small_cfg("sir", n_symbols=300, beta_grid=(0.0,), v_grid=(0, 2), seed=4))
    assert c[0].to_csv() != a


def test_run_sir_contents():
    cfg = small_cfg("sir", n_symbols=2000, beta_grid=(0.0, 0.1, 0.5), v_grid=(0, 2), seed=1)
    rows = run_sir(cfg)[0].rows
    by_key = {(r[0], r[1]): r for r in rows}
    # closed form present only where A is unitary: at beta = 0, and at
    # beta = 0.1, which at K=16, M=7 quantizes to the Dirichlet pulse
    for beta in (0.0, 0.1):
        for V in (0, 2):
            assert by_key[(beta, V)][5] == pytest.approx(10 * math.log10(16 * 7 / (2 * V + 2)))
    assert math.isnan(by_key[(0.5, 2)][5])
    # SIR decreases with V, and empirical tracks theory
    assert by_key[(0.0, 2)][3] < by_key[(0.0, 0)][3]
    for r in rows:
        assert abs(r[3] - r[4]) < 0.5


def test_run_power_recursion_vs_monte_carlo():
    cfg = small_cfg("power", n_streams=1500, n_indices=6, seed=2)
    rows = run_power(cfg)[0].rows
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    for i, theory, mc, data_power in rows[1:]:
        assert mc == pytest.approx(theory, rel=0.1)
    assert rows[0][3] == 16 * 7


def test_run_psd_output(tmp_path):
    cfg = small_cfg(
        "psd",
        n_symbols=300,
        window_len=448,
        overlap=112,
        variants=("ofdm", "nc-gfdm:2"),
        seed=6,
    )
    tables = run_psd(cfg)
    assert [t.name for t in tables] == ["psd_ofdm", "psd_nc_gfdm_v2"]
    for t in tables:
        freqs = np.array([r[0] for r in t.rows])
        db = np.array([r[1] for r in t.rows])
        assert freqs.size == cfg.window_len
        # in-band mean normalized to 0 dB
        band = np.abs(freqs) <= 1 / (2 * cfg.oversample)
        assert np.mean(10 ** (db[band] / 10)) == pytest.approx(1.0, rel=1e-6)
        assert t.provenance["config_hash"] == cfg.config_hash()
    paths = write_tables(cfg, tables, tmp_path)
    sidecar = json.loads((tmp_path / "psd.provenance.json").read_text())
    assert sidecar["config_hash"] == cfg.config_hash()
    assert sorted(sidecar["outputs"]) == ["psd_nc_gfdm_v2.csv", "psd_ofdm.csv"]
    text = (tmp_path / "psd_ofdm.csv").read_text()
    assert text.startswith("# experiment: psd")
    assert f"# config_hash: {cfg.config_hash()}" in text


def test_run_psd_chunks_match_one_stream(monkeypatch):
    # N + n_cp odd: chunk boundaries must not flip the recentring phase
    cores = []
    original = experiments.psd_sample_stream

    def record(X, n_cp, oversample):
        cores.append(X.copy())
        return original(X, n_cp, oversample)

    monkeypatch.setattr(experiments, "psd_sample_stream", record)
    cfg = ExperimentConfig(
        kind="psd", K=256, M=7, n_cp=279, beta=0.1, V=2, oversample=4,
        window_len=1792, overlap=448, variants=("nc-gfdm:2",), n_symbols=837, seed=5,
    )
    (table,) = run_psd(cfg)
    assert len(cores) >= 3
    stream = reference_psd_sample_stream(np.hstack(cores), cfg.n_cp, cfg.oversample)
    want = normalize_inband(welch_psd(stream, cfg.window_len, cfg.overlap), 1 / cfg.oversample)
    got = np.array(table.rows)
    assert table.provenance["segments"] == want.segments
    assert np.array_equal(got[:, 0], want.freqs)
    # linear PSD relative to the 0 dB in-band mean; a phase flip at each chunk
    # boundary moves some bins by ~1e-3
    assert np.max(np.abs(10 ** (got[:, 1] / 10) - want.psd)) <= 1e-10


def test_run_ber_noiseless_channel_none():
    cfg = small_cfg(
        "ber",
        channel="none",
        snr_db=(10.0,),
        n_bits=5_000,
        variants=("gfdm", "nc-gfdm:2"),
        recovery_iterations=6,
        K=256,
        n_cp=280,
    )
    rows = run_ber(cfg)[0].rows
    assert all(r[2] == 0.0 for r in rows)
    assert all(r[3] >= 5_000 for r in rows)


def test_run_ber_awgn_sanity():
    cfg = small_cfg(
        "ber",
        channel="awgn",
        snr_db=(6.0, 14.0),
        n_bits=40_000,
        variants=("gfdm",),
        beta=0.0,
        seed=5,
    )
    rows = run_ber(cfg)[0].rows
    by_snr = {r[0]: r[2] for r in rows}
    assert 0.0 < by_snr[14.0] < by_snr[6.0] < 0.2


def test_run_experiment_dispatch():
    tables = run_experiment(small_cfg("validate"))
    assert tables[0].name == "validation"
    with pytest.raises(ValueError):
        run_psd(small_cfg("sir"))
    with pytest.raises(ValueError):
        run_ber(small_cfg("psd"))
    with pytest.raises(ValueError):
        run_power(small_cfg("ber"))


def test_cli_sir_run_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = [
        "sir",
        "--seed",
        "9",
        "--set",
        "K=16",
        "--set",
        "n_cp=16",
        "--set",
        "n_symbols=200",
        "--set",
        "beta_grid=[0.0]",
        "--set",
        "v_grid=[0,2]",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "sir.csv").read_bytes() == (out2 / "sir.csv").read_bytes()
    sidecar = json.loads((out1 / "sir.provenance.json").read_text())
    assert sidecar["seed"] == 9
    assert sidecar["config"]["K"] == 16


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert (tmp_path / "validation.csv").exists()


def test_cli_config_file_and_overrides(tmp_path):
    cfg = small_cfg("power", n_streams=400, n_indices=4, seed=11)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert (
        main(
            [
                "power",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path),
                "--set",
                "n_indices=3",
            ]
        )
        == 0
    )
    lines = (tmp_path / "power.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "index,smooth_power_theory,smooth_power_mc,data_power_theory"
    assert len(data) == 4  # header + 3 indices


def test_cli_rejects_bad_override():
    with pytest.raises(SystemExit):
        main(["sir", "--set", "nonsense"])
    with pytest.raises(SystemExit):
        main(["sir", "--set", "not_a_field=3"])


def test_cli_names_unknown_override_keys():
    # the same message as ExperimentConfig.from_dict, naming every unknown key
    argv = ["sir", "--set", "n_sym=3", "--set", "K=16", "--set", "bogus=1"]
    with pytest.raises(SystemExit, match=r"^unknown config key\(s\): bogus, n_sym$"):
        main(argv)
