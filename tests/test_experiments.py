import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import one_thread, record_products, reference_psd_sample_stream, reference_recover
from ncgfdm import experiments, smoothing
from ncgfdm.channel import JakesFadingProcess, apply_channel, eva_profile, zf_equalize
from ncgfdm.cli import build_parser, load_config, main
from ncgfdm.experiments import (
    PRESETS,
    ExperimentConfig,
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
from ncgfdm.filterbank import TransmitMatrix
from ncgfdm.params import WaveformParams
from ncgfdm.smoothing import IDENTITY_TOL, operator_identity_residuals, smooth_stream
from ncgfdm.spectrum import WelchAccumulator, normalize_inband, psd_sample_stream


SMALL = dict(K=16, M=7, n_cp=16, beta=0.1, V=2)
#: an EVA config that validates: N = 448 holds the last tap (270 samples at 9.3 ns)
EVA_OK = dict(K=64, channel="eva", variants=("gfdm", "nc-gfdm:2"))


def small_cfg(kind, **kw):
    base = dict(SMALL, kind=kind)
    base.update(kw)
    return ExperimentConfig(**base)


#: per config field, configs that are rejected when made, with a message
#: naming that field.  The first cases of kind, channel, snr_db, n_symbols and
#: variants, at the default size, are the five cases of the former
#: test_config_validation.  A case of a kind that does not read the field
#: rejects a value with no strict JSON form, since every kind writes every
#: field into its provenance, or a list or dict, which no made config holds.
FIELD_REJECTIONS = {
    "kind": [dict(kind="spectrogram")],
    "K": [dict(SMALL, kind="psd", K=0)],
    "M": [dict(SMALL, kind="ber", M=0)],
    "n_cp": [
        dict(SMALL, kind="sir", n_cp=112),
        # a smoothed waveform with no CP: the OFDM family's is n_cp // M
        dict(SMALL, kind="ber", n_cp=0),
        dict(SMALL, kind="psd", n_cp=6, variants=("ofdm", "td-nc-ofdm:2")),
        dict(SMALL, kind="sir", n_cp=0),
        dict(SMALL, kind="power", n_cp=0),
    ],
    "beta": [dict(SMALL, kind="power", beta=1.5)],
    "V": [dict(SMALL, kind="power", V=2.5)],
    "oversample": [dict(SMALL, kind="psd", oversample=0)],
    "qam_order": [dict(SMALL, kind="ber", qam_order=8), dict(SMALL, kind="sir", qam_order=16.0)],
    "channel": [dict(kind="ber", channel="rician")],
    "snr_db": [
        dict(kind="ber", snr_db=()),
        dict(SMALL, kind="psd", snr_db=(math.inf,)),
        dict(SMALL, kind="power", snr_db=(4.0, math.nan)),
    ],
    "n_symbols": [dict(kind="psd", n_symbols=0), dict(SMALL, kind="ber", n_symbols=math.inf)],
    "n_streams": [dict(SMALL, kind="power", n_streams=0)],
    "n_bits": [dict(SMALL, kind="ber", n_bits=0), dict(SMALL, kind="psd", n_bits=[1])],
    "n_indices": [dict(SMALL, kind="power", n_indices=0)],
    "recovery_iterations": [dict(SMALL, kind="ber", recovery_iterations=0)],
    "variants": [
        dict(kind="psd", variants=()),
        dict(SMALL, kind="sir", variants="gfdm"),
        dict(SMALL, kind="psd", variants=("gfdm", "gfdm")),
        dict(SMALL, kind="ber", variants=("nc-gfdm:2", "gfdm", "nc-gfdm:2")),
        dict(SMALL, kind="ber", variants=("gfdm", "ofdm:3")),
        dict(SMALL, kind="psd", variants=("nc-gfdm:2", "nc-gfdm:02", "nc-gfdm")),
        dict(SMALL, kind="ber", variants=("td-nc-ofdm", "td-nc-ofdm:2")),
    ],
    "beta_grid": [
        dict(SMALL, kind="sir", beta_grid=()),
        dict(SMALL, kind="ber", beta_grid=(math.nan,)),
        dict(kind="validate", beta_grid=[[0.1]]),
        dict(SMALL, kind="sir", beta_grid=(0.1, 0.1), v_grid=(1, 1)),
    ],
    "v_grid": [
        dict(SMALL, kind="sir", v_grid=()),
        dict(SMALL, kind="psd", v_grid=(math.inf,)),
        dict(SMALL, kind="sir", v_grid=(0, 2, 0)),
    ],
    "window_len": [dict(SMALL, kind="psd", window_len=4)],
    "overlap": [dict(SMALL, kind="psd", overlap=-1)],
    "seed": [dict(SMALL, kind="sir", seed=-1)],
    "sample_interval_ns": [
        dict(SMALL, **EVA_OK, kind="ber", sample_interval_ns=None),
        dict(SMALL, kind="psd", sample_interval_ns=math.nan),
    ],
    "doppler_hz": [
        dict(SMALL, **EVA_OK, kind="ber", doppler_hz=-1.0),
        dict(SMALL, **EVA_OK, kind="ber", doppler_hz=1e308),
        dict(SMALL, kind="ber", doppler_hz="fast"),
        dict(SMALL, kind="psd", doppler_hz=math.inf),
    ],
}


def test_field_table_lists_every_config_field_in_order():
    # validate() walks the table in this order; overlap's range reads window_len
    assert list(experiments._FIELDS) == [f.name for f in fields(ExperimentConfig)]


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_every_config_field_has_a_rejection_that_names_it(name):
    # a new field fails here until it has a table entry and a rejected value
    assert name in experiments._FIELDS
    for kw in FIELD_REJECTIONS[name]:
        for make in (lambda: ExperimentConfig(**kw), lambda: ExperimentConfig.from_dict(kw),
                     lambda: replace(ExperimentConfig(), **kw)):
            with pytest.raises(ValueError) as exc:
                make()
            assert name in str(exc.value), (kw, str(exc.value))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(kind="validate"),
        dict(SMALL, kind="power", qam_order=np.int64(16)),
        # order 0 smooths nothing, but a smoothed variant is not its unsmoothed one
        dict(SMALL, kind="psd", variants=("gfdm", "nc-gfdm:0", "ofdm", "td-nc-ofdm:0")),
        dict(SMALL, kind="ber", variants=("gfdm", "nc-gfdm:0", "ofdm", "td-nc-ofdm:0")),
        # two roll-offs of one pulse are two grid entries, not a repeat
        dict(SMALL, kind="sir", beta_grid=(0.0, 0.1)),
        # an unsmoothed waveform needs no CP; only smoothing is undamped without one
        dict(SMALL, kind="ber", n_cp=6, variants=("ofdm", "gfdm", "nc-gfdm:2")),
    ],
    ids=["default", "numpy-qam_order", "psd-order-0-variants", "ber-order-0-variants",
         "sir-betas-of-one-pulse", "ber-ofdm-without-cp"],
)
def test_config_validation_accepts(overrides):
    cfg = ExperimentConfig(**overrides)
    assert cfg.validate() is cfg


@pytest.mark.parametrize("kind", ["ber", "sir", "power", "validate"])
def test_oversample_is_checked_only_for_the_psd_run_that_reads_it(kind):
    cfg = ExperimentConfig(kind=kind, oversample=0)
    assert cfg.validate() is cfg
    with pytest.raises(ValueError, match=r"psd experiments need an integer oversample >= 1, got 0"):
        replace(cfg, kind="psd")


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
        ("sir", dict(v_grid=(2, -1)), r"v_grid entry V=-1 .*>= 0, got -1"),
        ("sir", dict(v_grid=(2, 2.5)), r"v_grid entry V=2.5 .*V must be an integer, got 2.5"),
        ("power", dict(V=2.5), r"V must be an integer, got 2.5"),
        ("power", dict(n_indices=4.0), r"integer n_indices >= 1, got 4.0"),
        ("sir", dict(n_symbols=100.0), r"integer n_symbols >= 2, got 100.0"),
        ("sir", dict(seed=-1), r"integer seed >= 0, got -1"),
        ("power", dict(seed=1.5), r"integer seed >= 0, got 1.5"),
        ("sir", dict(beta_grid=("x",)), r"beta_grid entry x: .*real number, got 'x'"),
        ("sir", dict(beta_grid=(0.1, None)), r"beta_grid entry None: .*real number, got None"),
        ("sir", dict(v_grid=(2, None)), r"v_grid entry V=None .*V must be an integer, got None"),
        ("sir", dict(beta_grid=0.1), r"beta_grid must be a list or tuple, got 0.1"),
        ("sir", dict(v_grid=2), r"v_grid must be a list or tuple, got 2"),
        # a repeated entry would write the same rows twice
        ("sir", dict(beta_grid=(0.1, 0.1)), r"beta_grid repeats the entry 0.1"),
        ("sir", dict(v_grid=(2, 0, 2)), r"v_grid repeats the entry 2"),
        # every kind hashes snr_db into its provenance
        ("sir", dict(snr_db=5.0), r"snr_db must be a list or tuple, got 5.0"),
        ("power", dict(beta="0.1"), r"roll-off beta must be a real number, got '0.1'"),
    ],
    ids=["n_symbols", "n_streams", "n_indices", "empty-beta_grid", "empty-v_grid",
         "v_grid-too-large", "beta_grid-out-of-range", "v_grid-negative", "v_grid-fractional",
         "fractional-V", "fractional-n_indices", "fractional-sir-n_symbols", "negative-seed",
         "fractional-seed", "text-beta_grid", "none-beta_grid", "none-v_grid",
         "scalar-beta_grid", "scalar-v_grid", "repeated-beta_grid", "repeated-v_grid",
         "scalar-snr_db", "text-beta"],
)
def test_config_validation_rejects_sir_and_power_configs_that_fail_mid_run(
    kind, overrides, message
):
    # each of these once failed or dropped grid cells only once the operators
    # were built
    with pytest.raises(ValueError, match=message):
        small_cfg(kind, **overrides)


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
        ("ber", dict(variants=("gfdm", "nc-gfdm:x")),
         r"variant 'nc-gfdm:x': smoothing order 'x' is not an integer"),
        ("ber", dict(variants=("gfdm", "nc-gfdm:-1")),
         r"variant 'nc-gfdm:-1': smoothing order '-1' is not an integer >= 0"),
        # int() once read each of these four suffixes
        ("psd", dict(variants=("nc-gfdm: 2",)),
         r"variant 'nc-gfdm: 2': smoothing order ' 2' is not an integer >= 0 in ASCII digits"),
        ("ber", dict(variants=("nc-gfdm:+2",)),
         r"variant 'nc-gfdm:\+2': smoothing order '\+2' is not an integer >= 0"),
        ("ber", dict(variants=("gfdm", "nc-gfdm:")),
         r"variant 'nc-gfdm:': smoothing order '' is not an integer >= 0"),
        ("psd", dict(variants=("gfdm", "ofdm:3")),
         r"variant 'ofdm:3': only td-nc-ofdm and nc-gfdm variants take a :V suffix"),
        ("psd", dict(variants=("gfdm", "nc-gfdm:2", "gfdm")),
         r"variants 'gfdm' and 'gfdm' share the label 'gfdm'"),
        ("ber", dict(variants=("td-nc-ofdm:2", "td-nc-ofdm:2")),
         r"variants 'td-nc-ofdm:2' and 'td-nc-ofdm:2' share the label 'td_nc_ofdm_v2'"),
        # one waveform under three labels: V = 2 is the config's order
        ("psd", dict(variants=("nc-gfdm:2", "nc-gfdm:02", "nc-gfdm")),
         r"variants 'nc-gfdm:2' and 'nc-gfdm:02' name one waveform"),
        ("ber", dict(variants=("gfdm", "nc-gfdm", "nc-gfdm:2")),
         r"variants 'nc-gfdm' and 'nc-gfdm:2' name one waveform"),
        ("ber", dict(EVA_OK, sample_interval_ns=0.0),
         r"sample_interval_ns must be a finite number > 0, got 0.0"),
        ("ber", dict(EVA_OK, sample_interval_ns=-9.3),
         r"sample_interval_ns must be a finite number > 0, got -9.3"),
        ("ber", dict(EVA_OK, doppler_hz=math.nan),
         r"doppler_hz must be a finite number >= 0, got nan"),
        ("ber", dict(EVA_OK, doppler_hz="fast"),
         r"doppler_hz must be a finite number >= 0, got 'fast'"),
        ("ber", dict(snr_db=(math.nan,)), r"snr_db entries must be finite numbers, got nan"),
        ("ber", dict(snr_db=("x",)), r"snr_db entries must be finite numbers, got 'x'"),
        # 10^(snr/10) overflowed after the builds, or underflowed to a division
        # by zero, and -3100 dB ran on an infinite variance to a BER of 0.5
        *(("ber", dict(snr_db=(12.0, snr), variants=("gfdm",)),
           rf"^snr_db entry {snr} gives variant 'gfdm' a noise variance that is not a finite")
          for snr in (4000, -4000, -3100)),
        # 2 pi f_D overflowed to inf, and inf * 0 made a NaN channel bin at
        # symbol 0 once every operator was built
        ("ber", dict(EVA_OK, doppler_hz=1e308, variants=("gfdm",), n_bits=20_000),
         r"^doppler_hz = 1e\+308 gives variant 'gfdm' a fading phase 2 pi f_D t that is "
         r"not finite over its 12 blocks$"),
        # every tap position once read -2^63, which passed the block-length check
        ("ber", dict(EVA_OK, sample_interval_ns=1e-300),
         r"^sample_interval_ns = 1e-300 puts the 2510 ns delay at 2.51e\+303 samples"),
        ("psd", dict(n_symbols=1000.0), r"integer n_symbols >= 1, got 1000.0"),
        ("psd", dict(window_len=1792.0), r"integer window_len >= 8, got 1792.0"),
        ("psd", dict(overlap=448.0), r"overlap must lie in \[0, window_len = 1792\), got 448.0"),
        ("ber", dict(recovery_iterations=8.0), r"integer recovery_iterations >= 1, got 8.0"),
        ("ber", dict(n_bits=-5), r"integer n_bits >= 1, got -5"),
        ("ber", dict(seed=-1), r"integer seed >= 0, got -1"),
        ("psd", dict(seed=1.5), r"integer seed >= 0, got 1.5"),
        ("ber", dict(snr_db=5.0), r"snr_db must be a list or tuple, got 5.0"),
        ("ber", dict(variants=(2,)), r"variants entries must be strings, got 2"),
        ("psd", dict(variants=("gfdm", None)), r"variants entries must be strings, got None"),
        ("ber", dict(variants="gfdm"), r"variants must be a list or tuple, got 'gfdm'"),
        ("psd", dict(beta="0.1"), r"roll-off beta must be a real number, got '0.1'"),
        ("ber", dict(beta=True), r"roll-off beta must be a real number, got True"),
    ],
    ids=["recovery_iterations", "window_len", "negative-overlap", "whole-window-overlap",
         "ofdm-stream-short", "gfdm-stream-short", "qam_order-8", "qam_order-0",
         "variant-suffix", "variant-negative-order", "variant-spaced-order",
         "variant-signed-order", "variant-empty-order", "variant-ofdm-order",
         "psd-duplicate-variant", "ber-duplicate-variant", "psd-one-waveform-twice",
         "ber-one-waveform-twice", "eva-zero-sample-interval",
         "eva-negative-sample-interval", "eva-nan-doppler", "eva-text-doppler", "nan-snr", "text-snr",
         "snr-overflow", "snr-underflow", "snr-infinite-variance", "eva-overflowing-doppler",
         "eva-overflowing-taps",
         "fractional-psd-n_symbols", "fractional-window_len", "fractional-overlap",
         "fractional-recovery_iterations", "negative-n_bits", "negative-seed",
         "fractional-seed", "scalar-snr_db", "int-variant", "none-variant", "string-variants",
         "text-beta", "bool-beta"],
)
def test_config_validation_rejects_ber_and_psd_configs_that_fail_mid_run(
    kind, overrides, message
):
    # the Welch and stream-length cases once failed only after the builds,
    # the others with a message that did not name the field
    with pytest.raises(ValueError, match=message):
        small_cfg(kind, **overrides)


@pytest.mark.parametrize(
    "kind,field,values,message",
    [
        ("sir", "v_grid", lambda V: (0, 2, V), r"v_grid entry: smoothing order V=8"),
        ("ber", "variants", lambda V: ("gfdm", f"nc-gfdm:{V}"),
         r"variant 'nc-gfdm:8': smoothing order V=8"),
    ],
    ids=["v_grid", "variant"],
)
def test_config_validation_rejects_smoothing_order_above_max_order(
    kind, field, values, message
):
    # the order above MAX_ORDER builds and passes its identity check, but the
    # config rejects it by name
    cfg = ExperimentConfig(kind=kind, K=256, M=7, n_cp=280, beta=0.1)
    top = experiments.MAX_ORDER
    replace(cfg, **{field: values(top)})
    p = cfg.waveform(V=top + 1)
    residuals = operator_identity_residuals(experiments._operators(*experiments._transmit(p), p))
    assert max(r for r, _ in residuals.values()) <= IDENTITY_TOL
    with pytest.raises(ValueError, match=message):
        replace(cfg, **{field: values(top + 1)})


@pytest.mark.parametrize(
    "kind,setting,message",
    [
        ("sir", "qam_order=8", r"qam_order must be a power of four .*got 8"),
        ("ber", "snr_db=12", r"snr_db must be a list or tuple, got 12"),
    ],
    ids=["qam_order-8", "scalar-snr_db"],
)
def test_cli_rejects_bad_settings_before_any_work(tmp_path, kind, setting, message):
    with pytest.raises(SystemExit, match=message):
        main([kind, "--set", setting, "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args,content,message",
    [
        (["--set", "snr_db=12"], None, "snr_db must be a list or tuple, got 12"),
        (["--config", "{path}"], None, "cannot read --config file '{path}': No such file or directory"),
        (["--config", "{path}"], "[1, 2]", "--config file '{path}' does not hold a JSON object"),
        (["--config", "{path}"], '{"n_bits": \n', "--config file '{path}' is not valid JSON: "
         "Expecting value: line 2 column 1 (char 12)"),
        # the pulse is set by beta alone, and --out names the output directory
        (["--set", 'filter_kind="dirichlet"'], None, "unknown config key(s): filter_kind"),
        (["--set", "out_dir=x"], None, "unknown config key(s): out_dir"),
        (["--config", "{path}"], '{"filter_kind": "rc", "out_dir": "x"}',
         "unknown config key(s): filter_kind, out_dir"),
        # the EVA settings are the fields sample_interval_ns and doppler_hz
        (["--set", 'metadata={{"doppler_hz": 5.0}}'], None, "unknown config key(s): metadata"),
        (["--config", "{path}"], '{"channel": "eva", "metadata": {"dopler_hz": 5.0}}',
         "unknown config key(s): metadata"),
        # once a DeepFadeError traceback on a NaN channel bin, after every build
        (["--set", "channel=eva", "--set", "doppler_hz=1e308", "--set", "n_bits=20000",
          "--set", 'variants=["gfdm"]'], None,
         "doppler_hz = 1e+308 gives variant 'gfdm' a fading phase 2 pi f_D t that is not "
         "finite over its 3 blocks"),
        (["--set", "n_cp=6", "--set", 'variants=["ofdm","td-nc-ofdm:2"]'], None,
         "variant 'td-nc-ofdm:2': smoothing needs a CP, got n_cp = 6, which gives it "
         "n_cp // M = 0 samples; with no CP the smoothing recursion is undamped (spectral "
         "radius 1)"),
    ],
    ids=["scalar-snr_db", "missing-config-file", "config-file-not-an-object", "malformed-config-file",
         "set-filter_kind", "set-out_dir", "config-file-filter_kind-out_dir", "set-metadata",
         "config-file-metadata", "eva-overflowing-doppler", "td-nc-ofdm-without-cp"],
)
def test_cli_exits_on_a_rejected_config_with_one_line_and_no_traceback(
    tmp_path, args, content, message
):
    src = str(Path(experiments.__file__).resolve().parents[1])
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    if content is not None:
        path.write_text(content)
    argv = [arg.format(path=path) for arg in args]
    proc = subprocess.run(
        [sys.executable, "-m", "ncgfdm.cli", "ber", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == message.format(path=path) + "\n"
    assert not out.exists()


def test_cli_exits_on_a_smoothed_sir_run_without_a_cp(tmp_path):
    # this run once wrote sir_empirical_db 27.32 against the closed form's
    # 24.75 in the same row, and nothing warned: with no CP the recursion
    # is undamped, so one stream's time average depends on its seed
    src = str(Path(experiments.__file__).resolve().parents[1])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ncgfdm.cli", "sir", "--set", "n_cp=0", "--set",
         "beta_grid=[0.0]", "--set", "v_grid=[2]", "--seed", "2", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "sir experiments: smoothing needs a CP, got n_cp = 0; with no CP the smoothing "
        "recursion is undamped (spectral radius 1)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("kind", [None, "power"])
def test_cli_config_file_may_omit_its_kind_or_repeat_the_subcommand(tmp_path, kind):
    values = small_cfg("power", n_streams=50, n_indices=3, seed=4).to_dict()
    if kind is None:
        del values["kind"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    cfg = load_config(build_parser().parse_args(["power", "--config", str(path)]))
    assert cfg == small_cfg("power", n_streams=50, n_indices=3, seed=4)


def test_cli_rejects_a_config_file_of_another_kind(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_cfg("sir").to_dict()))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=r"^--config file is a 'sir' config, not 'ber'$"):
        main(["ber", "--config", str(path), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,key,value,message",
    [
        ("ber", "variants", "gfdm", r"variants must be a list or tuple, got 'gfdm'"),
        ("ber", "snr_db", 12, r"snr_db must be a list or tuple, got 12"),
        ("ber", "snr_db", None, r"snr_db must be a list or tuple, got None"),
        ("sir", "v_grid", 2, r"v_grid must be a list or tuple, got 2"),
        ("sir", "v_grid", None, r"v_grid must be a list or tuple, got None"),
        ("psd", "snr_db", [4.0, float("inf")], r"snr_db has no strict JSON form"),
    ],
    ids=["string-variants", "scalar-snr_db", "null-snr_db", "scalar-v_grid", "null-v_grid",
         "inf-snr_db"],
)
@pytest.mark.parametrize("source", ["--config", "--set"])
def test_cli_config_file_and_set_convert_values_alike(tmp_path, source, kind, key, value, message):
    # both hand their values to the config, which turns a list into a tuple
    # and checks the rest when it is made
    if source == "--config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        argv = [kind, "--config", str(path)]
    else:
        argv = [kind, "--set", f"{key}={json.dumps(value)}"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=message):
        main(argv + ["--out", str(out)])
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["psd", "--set", "n_symbols=40", "--set", "window_len=256", "--set", "overlap=64"],
        ["ber", "--set", "n_bits=2000", "--set", "snr_db=[10]"],
        ["ber", "--set", "K=64", "--set", "channel=eva", "--set", 'variants=["gfdm"]',
         "--set", "n_bits=2000", "--set", "snr_db=[10]"],
        ["sir", "--set", "n_symbols=20", "--set", "beta_grid=[0.0]", "--set", "v_grid=[0,2]"],
        ["power", "--set", "n_streams=20", "--set", "n_indices=3"],
        ["validate"],
    ],
    ids=["psd", "ber", "ber-eva", "sir", "power", "validate"],
)
def test_every_provenance_sidecar_is_strict_json(tmp_path, capsys, argv):
    small = [] if argv == ["validate"] else ["--set", "K=16", "--set", "n_cp=16"]
    assert main(argv[:1] + small + argv[1:] + ["--out", str(tmp_path)]) == 0
    sidecars = list(tmp_path.glob("*.provenance.json"))
    assert len(sidecars) == 1
    for path in sidecars:
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_numpy_integer_settings_validate_and_run(tmp_path):
    cfg = small_cfg("power", n_streams=200, n_indices=3)
    numpy_cfg = replace(cfg, qam_order=np.int64(16), n_streams=np.int64(200), seed=np.int64(1))
    tables = run_experiment(numpy_cfg)
    assert [t.to_csv() for t in tables] == [t.to_csv() for t in run_experiment(cfg)]
    write_tables(numpy_cfg, tables, tmp_path)
    sidecar = json.loads((tmp_path / "power.provenance.json").read_text())
    assert sidecar["config"] == cfg.to_dict()


def test_from_dict_names_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown config key\(s\): bogus, n_sym$"):
        ExperimentConfig.from_dict({"kind": "sir", "n_sym": 3, "bogus": 1})
    cfg = ExperimentConfig.from_dict({"kind": "sir", "v_grid": [0, 2]})
    assert cfg.v_grid == (0, 2)
    # a misspelt EVA setting once ran at the default Doppler without a word
    eva = dict(EVA_OK, kind="ber", variants=list(EVA_OK["variants"]))
    with pytest.raises(ValueError, match=r"^unknown config key\(s\): metadata$"):
        ExperimentConfig.from_dict(dict(eva, metadata={"dopler_hz": 5.0}))


def test_config_is_checked_and_fixed_when_made():
    cfg = ExperimentConfig(kind="ber", snr_db=[4.0, 8.0])
    assert cfg.snr_db == (4.0, 8.0)  # a tuple, so the checked values cannot change
    assert hash(cfg) == hash(ExperimentConfig(kind="ber", snr_db=(4.0, 8.0)))
    with pytest.raises(ValueError, match=r"^ber experiments need an integer n_bits >= 1, got 0$"):
        replace(cfg, n_bits=0)


def test_config_rejects_a_doppler_phase_that_overflows_over_the_run():
    # 2 pi f_D t stays finite up to t = 2.86 s at 1e307 Hz; blocks of N + n_cp =
    # 2072 samples at 9.3 ns last 19.3 us, and a block carries 7168 bits
    cfg = ExperimentConfig(kind="ber", **dict(EVA_OK, K=256), doppler_hz=1e307, n_bits=10**9)
    with pytest.raises(ValueError, match=r"not finite over its 279018 blocks$"):
        replace(cfg, n_bits=2 * 10**9)


def test_eva_defaults_are_the_channel_defaults():
    want = eva_profile()
    cfg = ExperimentConfig(kind="ber", **EVA_OK)
    assert (cfg.sample_interval_ns, cfg.doppler_hz) == (want.sample_interval_ns, want.doppler_hz)
    assert cfg.channel_profile() == want


def test_eva_doppler_reaches_the_channel():
    cfg = small_cfg("ber", **EVA_OK, snr_db=(20.0,), n_bits=20_000, seed=4)
    assert run_ber(replace(cfg, doppler_hz=0.0))[0].rows != run_ber(cfg)[0].rows


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets(tmp_path, preset):
    # a preset overrides the --config file; --set overrides the preset, and --seed --set
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_symbols": 3, "overlap": 5, "oversample": 2, "seed": 2}))
    argv = ["psd", "--config", str(path), "--preset", preset, "--set", "overlap=64",
            "--set", "seed=3", "--seed", "4"]
    cfg = load_config(build_parser().parse_args(argv))
    want = dict(PRESETS[preset], kind="psd", overlap=64, oversample=2, seed=4)
    assert cfg == ExperimentConfig(**want)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["psd", "--preset", "bench"])


def test_config_hash_is_stable():
    a = ExperimentConfig(seed=7)
    assert a.config_hash() == ExperimentConfig(seed=7).config_hash()
    assert a.config_hash() != ExperimentConfig(seed=8).config_hash()
    assert len(a.config_hash()) == 16


def test_config_file_roundtrip(tmp_path):
    cfg = small_cfg("sir", seed=5, snr_db=(10.0,))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_dict(json.loads(path.read_text()))
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
    own = resolve_variant(cfg, "nc-gfdm")
    assert own.smoothed and own.params.V == 2 and own.label == "nc_gfdm"
    with pytest.raises(ValueError):
        resolve_variant(cfg, "fbmc")


def test_noise_variance_convention():
    p = WaveformParams(K=256, M=7, n_cp=280)
    got = noise_variance(10.0, p, 4)
    assert got == pytest.approx((1 + 280 / 1792) / 4 / 10.0)


def corrupt_operators(monkeypatch):
    """Make every operator build return a set that fails the idempotence identity."""
    build = experiments.build_nc_operators

    def corrupted(*args, **kwargs):
        # scaling P_2 breaks the boundary product, and with it P_tilde = gain P_2
        ops = build(*args, **kwargs)
        return replace(ops, P_2=ops.P_2 * 1.01)

    monkeypatch.setattr(experiments, "build_nc_operators", corrupted)


def test_run_validation_passes_and_catches_faults(monkeypatch):
    (table,) = run_validation(ExperimentConfig())
    assert table.name == "validation"
    assert table.provenance["passed"] is True
    assert all(r[-1] for r in table.rows)
    assert len(table.rows) == 292
    # every row carries the full identification tuple
    assert all(len(r) == len(table.columns) == 8 for r in table.rows)
    corrupt_operators(monkeypatch)
    (bad,) = run_validation(ExperimentConfig())
    assert bad.provenance["passed"] is False
    assert any(r[4] == "idempotent" for r in bad.rows if not r[-1])


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


@pytest.mark.parametrize("n_cp", [1, 24, 280])
def test_run_sir_theory_equals_the_closed_form_at_the_dirichlet_pulse(n_cp):
    # at the paper's size and beta 0, the steady state is the closed form
    # KM/(2V+2) at every order up to MAX_ORDER, also at a CP of one sample,
    # where the recursion's spectral radius reaches 0.98 at V = 7
    cfg = ExperimentConfig(kind="sir", K=256, M=7, n_cp=n_cp, beta_grid=(0.0,),
                           v_grid=tuple(range(experiments.MAX_ORDER + 1)), n_symbols=2, seed=1)
    for _, V, _, theory_db, _, closed_db in run_sir(cfg)[0].rows:
        assert closed_db == 10 * math.log10(256 * 7 / (2 * V + 2))
        assert abs(theory_db - closed_db) <= 1e-10


def test_run_sir_gives_equal_waveforms_equal_rows():
    # at K=256, M=7 a roll-off of 0.1 is too narrow to shape a DFT bin, so
    # beta 0 and 0.1 are both the Dirichlet pulse; every cell reads one data
    # stream, so their rows must be equal in every column but beta
    cfg = ExperimentConfig(kind="sir", K=256, M=7, n_cp=280, beta_grid=(0.0, 0.1),
                           v_grid=(0, 2), n_symbols=300, seed=1)
    rows = run_sir(cfg)[0].rows
    assert [r[0] for r in rows] == [0.0, 0.0, 0.1, 0.1]
    assert [r[1:] for r in rows[:2]] == [r[1:] for r in rows[2:]]


def test_run_sir_builds_and_scans_each_distinct_pulse_once(monkeypatch):
    # at K=16, M=7 a roll-off of 0.1 gives the Dirichlet pulse (see
    # test_run_sir_contents), so beta 0 and 0.1 share one operator set per V
    build, calls = experiments.build_nc_operators, []

    def counted(*args, **kwargs):
        calls.append(args[2].beta)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_nc_operators", counted)
    cfg = small_cfg("sir", n_symbols=300, beta_grid=(0.0, 0.1, 0.5), v_grid=(0, 2), seed=1)
    rows = run_sir(cfg)[0].rows
    assert calls == [0.0, 0.0, 0.5, 0.5]  # the 0.1 rows read the beta 0 sets
    assert [(r[0], r[1]) for r in rows] == [(b, V) for b in cfg.beta_grid for V in cfg.v_grid]
    # each row is the row of a run of its beta alone, on the same seed
    alone = [r for b in cfg.beta_grid for r in run_sir(replace(cfg, beta_grid=(b,)))[0].rows]
    assert np.allclose(rows, alone, rtol=1e-12, atol=0, equal_nan=True)


def test_run_sir_memory_does_not_grow_with_the_symbol_count():
    # the stream is drawn _SIR_CHUNK symbols at a time, so four chunks peak
    # where one does; a draw held whole grows by about 1.5 KiB a symbol
    import tracemalloc

    from ncgfdm.spectrum import _SIR_CHUNK

    def peak(n_symbols):
        cfg = ExperimentConfig(kind="sir", K=256, M=7, n_cp=280, beta_grid=(0.0, 0.5),
                               v_grid=(0, 6), n_symbols=n_symbols, seed=1)
        tracemalloc.start()
        try:
            run_sir(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # the first call fills what a process caches once (code version)
    one, four = peak(_SIR_CHUNK), peak(4 * _SIR_CHUNK)
    assert four <= 1.1 * one, (one, four)


@pytest.mark.parametrize(
    "K,M,n_cp,V", [(16, 7, 16, 2), (16, 7, 16, 6), (16, 7, 1, 2), (16, 7, 1, 6), (256, 7, 1, 6)]
)
def test_steady_sir_is_the_limit_of_the_power_recursion(K, M, n_cp, V):
    # at a shaped pulse (beta 0.5) the Stein solve is the recursion's value
    # after 1000 symbols; the spectral radius rho(S) is at most 0.972 here,
    # so that value is within rho^2000 (1e-24) of the limit, and the band of
    # 1e-9 dB is set by rounding alone.  A plateau read of the recursion
    # misses the limit by 1.8e-3 dB at K=256, n_cp = 1, V = 6
    p = WaveformParams(K=K, M=M, n_cp=n_cp, beta=0.5, V=V)
    ops = experiments._operators(*experiments._transmit(p), p)
    rep = experiments.sir_report(ops, 1000)
    sir_db, smooth_power, closed = experiments._steady_sir_db(ops)
    assert abs(sir_db - rep.sir_db[-1]) <= 1e-9, (sir_db, rep.sir_db[-1])
    assert smooth_power == pytest.approx(rep.smooth_power[-1], rel=1e-10)
    assert math.isnan(closed)


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


def _record_smoothing(monkeypatch) -> dict:
    """{id: (operator set, [symbol chunks])} of every smoothed variant of the
    runs that follow, read from the calls of ``experiments.coefficient_stream``."""
    seen = {}
    original = experiments.coefficient_stream

    def record(ops, D, carry):
        seen.setdefault(id(ops), (ops, []))[1].append(D.copy())
        return original(ops, D, carry)

    monkeypatch.setattr(experiments, "coefficient_stream", record)
    return seen


def _assert_smoothed_psd(table, cfg, ops, chunks):
    """``table`` equals the oracle chain: the chunks smoothed as one stream by
    ``smooth_stream``, oversampled and framed column by column, one Welch."""
    X, _, _ = smooth_stream(ops, np.hstack(chunks))
    acc = WelchAccumulator(cfg.window_len, cfg.overlap)
    acc.process(reference_psd_sample_stream(X, ops.params.n_cp, cfg.oversample))
    want = normalize_inband(acc.result(), 1 / cfg.oversample)
    got = np.array(table.rows)
    assert table.provenance["segments"] == want.segments
    assert np.array_equal(got[:, 0], want.freqs)
    # linear PSD relative to the 0 dB in-band mean; a phase flip at each chunk
    # boundary moves some bins by ~1e-3
    assert np.max(np.abs(10 ** (got[:, 1] / 10) - want.psd)) <= 1e-10


def test_run_psd_chunks_match_one_stream(monkeypatch):
    # N + n_cp odd, 837 symbols in chunks of 126 and a last chunk of 81: the
    # recentring must not flip sign at the chunk boundaries
    seen = _record_smoothing(monkeypatch)
    cfg = ExperimentConfig(
        kind="psd", K=256, M=7, n_cp=279, beta=0.1, V=2, oversample=4,
        window_len=1792, overlap=448, variants=("nc-gfdm:2",), n_symbols=837, seed=5,
    )
    (table,) = run_psd(cfg)
    ((ops, chunks),) = seen.values()
    assert [D.shape[1] for D in chunks] == [126] * 6 + [81]
    _assert_smoothed_psd(table, cfg, ops, chunks)


def test_run_psd_smoothed_tables_match_the_per_variant_chain(monkeypatch):
    # the smoothed variants share one oversampled stream per transmit matrix
    # and add their smooth signal 16 symbols at a time: 200 symbols in chunks
    # of 70, 70 and 60, so pieces of 16 and 6 or 12, over a non-unitary pulse
    cfg = small_cfg(
        "psd", K=64, n_cp=64, beta=0.5, n_symbols=200, window_len=1024, overlap=256,
        variants=("td-nc-ofdm:2", "gfdm", "nc-gfdm:6"), seed=8,
    )
    frame = (448 + 64) * cfg.oversample
    monkeypatch.setattr(experiments, "_PSD_CHUNK", 70 * frame)
    monkeypatch.setattr(experiments, "_PSD_SMOOTH", 16 * frame)
    seen = _record_smoothing(monkeypatch)
    tables = run_psd(cfg)
    (ofdm_ops, _), (ops, chunks) = seen.values()
    assert [D.shape[1] for D in chunks] == [70, 70, 60]
    assert ops.params.V == 6 and ofdm_ops.params.N == 64 and not ops.is_unitary
    for table, (ops, chunks) in zip((tables[0], tables[2]), seen.values()):
        _assert_smoothed_psd(table, cfg, ops, chunks)
        # down to nc-gfdm:6's floor near -152 dB, in dB, against the chain that
        # smooths before it oversamples, with the same B: 5e-9 to 8e-9 dB over
        # seeds 1-4 and 8
        acc = WelchAccumulator(cfg.window_len, cfg.overlap, cfg.oversample)
        carry = None
        for D in chunks:
            X, _, carry = smooth_stream(ops, D, carry)
            acc.process(psd_sample_stream(X, ops.params.n_cp, cfg.oversample))
        want = normalize_inband(acc.result(), 1 / cfg.oversample)
        assert np.max(np.abs(np.array(table.rows)[:, 1] - want.db())) <= 2e-8


def test_run_psd_forms_its_loop_products_on_one_thread(monkeypatch):
    # at the paper's size a chunk holds 126 symbols and a piece 15; whole, the
    # stacked thin product [P_1; P_2] D of nc-gfdm:6 has 126 columns and
    # 14 x 1792 x 126 multiply-adds, and a piece's smooth signal 8288 columns
    # and 15 x 7 x 8288
    cfg = ExperimentConfig(
        kind="psd", K=256, M=7, n_cp=280, beta=0.1, V=2, oversample=4,
        window_len=1792, overlap=448, variants=("nc-gfdm:2", "nc-gfdm:6"), n_symbols=130,
        seed=1,
    )
    calls = record_products(monkeypatch)
    tables = run_psd(cfg)
    monkeypatch.undo()
    # per smoothed variant and chunk, the stacked [P_1; P_2] D of 6 and of 14
    # rows, and one smooth signal a piece
    assert {6, 14} <= {rows for rows, _, _ in calls}
    assert len(calls) > 2 * 2 * (1 + 9) and one_thread(calls)
    # the same run with whole products
    monkeypatch.setattr(smoothing, "_BLOCK_MACS", 2**40)
    for got, want in zip(tables, run_psd(cfg)):
        got_db, want_db = np.array(got.rows)[:, 1], np.array(want.rows)[:, 1]
        assert np.max(np.abs(10 ** (got_db / 10) - 10 ** (want_db / 10))) <= 1e-12


def test_run_psd_frames_each_chunk_once_per_transmit_matrix(monkeypatch):
    # two (N, n_cp) groups, 16 + 2 in chunks of 21 and 112 + 16 in chunks of
    # 3; the gfdm variants share one pulse, and so do the OFDM ones
    variants = ("ofdm", "td-nc-ofdm:2", "gfdm", "nc-gfdm:1", "nc-gfdm:2")
    cfg = small_cfg("psd", n_symbols=50, window_len=64, overlap=16, variants=variants, seed=4)
    monkeypatch.setattr(experiments, "_PSD_CHUNK", 3 * 128 * cfg.oversample)
    calls = Counter()
    framed = []  # the (N, columns) of every stream psd_sample_stream forms

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def frame(X, n_cp, oversample):
        framed.append(X.shape)
        return original(X, n_cp, oversample)

    original = experiments.psd_sample_stream
    monkeypatch.setattr(experiments, "psd_sample_stream", frame)
    monkeypatch.setattr(TransmitMatrix, "modulate", counted("modulate", TransmitMatrix.modulate))
    monkeypatch.setattr(experiments, "build_transmit_matrix",
                        counted("build_transmit_matrix", experiments.build_transmit_matrix))
    builds, _ = experiments._variant_groups(cfg)
    assert [tm for _, tm, _ in builds] == [builds[0][1]] * 2 + [builds[2][1]] * 3
    assert calls.pop("build_transmit_matrix") == 2
    build_modulations = calls.pop("modulate", 0)  # the operator builds' own
    run_psd(cfg)
    assert calls == Counter(build_transmit_matrix=2, modulate=build_modulations + 3 + 17)
    # the basis of each smoothed variant once, then each chunk once per group
    assert framed == [(16, 3), (112, 2), (112, 3)] + [(16, 21)] * 2 + [(16, 8)] + [
        (112, 3)
    ] * 16 + [(112, 2)]


def _psd_oob_peak(variants) -> int:
    """Traced peak bytes of run_psd at the psd-oob settings over 300 symbols."""
    import tracemalloc

    cfg = ExperimentConfig(
        kind="psd", K=256, M=7, n_cp=280, beta=0.1, V=2, oversample=4,
        window_len=1792, overlap=448, variants=variants, n_symbols=300, seed=1,
    )
    run_psd(cfg)  # the first call fills what a process caches once (code version)
    tracemalloc.start()
    try:
        run_psd(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_psd_holds_a_bounded_piece_of_the_oversampled_stream():
    # a 126-symbol chunk oversampled is 16 MiB, and the run peaks near 25.8
    # MiB: the chunk, one reused buffer of 15 smoothed symbols (2 MiB) and a
    # Welch batch; a run that oversamples 279 symbols at once (2e6 samples)
    # peaks near 89 MiB
    assert _psd_oob_peak(("nc-gfdm:2",)) < 50 * 2**20


def test_run_psd_variants_hold_no_welch_batch_between_chunks():
    # a Welch batch of 64 windows of 1792 samples is 1.75 MiB; each of the
    # four accumulators allocates it per call, so the run peaked at 27.97 MiB
    # (numpy 2.4), against 34.97 MiB when each held its batch for the whole
    # run; the bound of 31 MiB lies between the two
    variants = ("ofdm", "gfdm", "nc-gfdm:2", "nc-gfdm:6")
    assert _psd_oob_peak(variants) < 31 * 2**20


def test_run_psd_shares_each_draw_across_variants(monkeypatch):
    # two (N, n_cp) groups, 112 + 16 and 16 + 2; 50 symbols in chunks of 3
    # (GFDM) and of 21 (OFDM): every chunk is drawn once for its group
    variants = ("ofdm", "gfdm", "td-nc-ofdm:2", "nc-gfdm:2")
    cfg = small_cfg(
        "psd", n_symbols=50, window_len=64, overlap=16, variants=variants, seed=4
    )
    monkeypatch.setattr(experiments, "_PSD_CHUNK", 3 * 128 * cfg.oversample)
    draws = []
    original = experiments._draw_fields

    def record(rng, table, bits, n):
        draws.append(n)
        return original(rng, table, bits, n)

    monkeypatch.setattr(experiments, "_draw_fields", record)
    tables = run_psd(cfg)
    assert draws == [16 * n for n in (21, 21, 8)] + [112 * 3] * 16 + [112 * 2]
    for spec, t in zip(variants, tables):
        (alone,) = run_psd(replace(cfg, variants=(spec,)))
        assert (t.name, t.rows) == (alone.name, alone.rows)
        assert t.provenance["segments"] == alone.provenance["segments"]


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
        snr_db=(6.0, 10.0),
        n_bits=40_000,
        variants=("gfdm",),
        beta=0.0,
        seed=5,
    )
    rows = run_ber(cfg)[0].rows
    by_snr = {r[0]: r[2] for r in rows}
    assert 0.0 < by_snr[10.0] < by_snr[6.0] < 0.2


@pytest.mark.parametrize("channel", ["awgn", "eva"])
def test_run_ber_shares_each_draw_across_variants(monkeypatch, channel):
    # AWGN: two (N, n_cp) groups, 448 + 64 and 64 + 9; EVA needs N above its
    # last tap, so only the GFDM group; 7 blocks of N = 448 in chunks of 3
    variants = {
        "awgn": ("ofdm", "gfdm", "td-nc-ofdm:2", "nc-gfdm:2"),
        "eva": ("gfdm", "nc-gfdm:1", "nc-gfdm:2"),
    }[channel]
    cfg = small_cfg(
        "ber", K=64, n_cp=64, beta=0.5, channel=channel, snr_db=(4.0, 10.0),
        n_bits=448 * 4 * 7, variants=variants, seed=3,
    )
    whole = run_ber(cfg)[0].rows  # one chunk per group
    monkeypatch.setattr(experiments, "_BER_CHUNK", 3 * 448)
    draws = []
    original = (experiments._draw_data, experiments.awgn, JakesFadingProcess.realization)

    def data(rng, c, N, count):
        draws.append(("data", N, count))
        return original[0](rng, c, N, count)

    def noise(x, sigma2, rng):
        draws.append(("noise", *x.shape[::-1]))
        return original[1](x, sigma2, rng)

    def fading(self, symbol_index):
        draws.append(("fading", self.block_len, len(symbol_index)))
        return original[2](self, symbol_index)

    monkeypatch.setattr(experiments, "_draw_data", data)
    monkeypatch.setattr(experiments, "awgn", noise)
    monkeypatch.setattr(JakesFadingProcess, "realization", fading)
    rows = run_ber(cfg)[0].rows
    chunks = {448: [3, 3, 1], 64: [21, 21, 7]}
    kinds = ("data", "fading", "noise") if channel == "eva" else ("data", "noise")
    # once per group and chunk, whatever the number of SNR points
    assert draws == [
        (kind, N, count)
        for N in dict.fromkeys(resolve_variant(cfg, v).params.N for v in variants)
        for count in chunks[N]
        for kind in kinds
    ]
    assert rows == whole
    alone = tuple(
        run_ber(replace(cfg, variants=(spec,), snr_db=(snr,)))[0].rows[0]
        for snr in cfg.snr_db
        for spec in variants
    )
    assert rows == alone
    assert all(0.0 < row[2] < 0.5 for row in rows)


def _counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


#: (channel, n_cp) of the BER path tests at K=64, M=7: N = 448 holds the last
#: EVA tap, 270 samples, which n_cp = 280 holds too and n_cp = 64 does not
BER_PATHS = [("awgn", 64), ("eva", 64), ("eva", 280), ("none", 64)]
BER_PATH_IDS = ["awgn", "eva", "eva-within-cp", "none"]


@pytest.mark.parametrize("channel,n_cp", BER_PATHS, ids=BER_PATH_IDS)
def test_run_ber_demodulates_once_per_variant_and_chunk(monkeypatch, channel, n_cp):
    # 7 blocks of N = 448 in chunks of 3; ZF and demodulation are linear, so
    # the SNR points share them, and each distinct noise scale is recovered
    # once: the repeated points here, and every point of the noiseless
    # channel.  With every path inside the CP only the noise is demodulated,
    # and the noiseless channel demodulates nothing
    variants = ("gfdm", "nc-gfdm:1", "nc-gfdm:2")
    cfg = small_cfg(
        "ber", K=64, n_cp=n_cp, beta=0.5, channel=channel, n_bits=448 * 4 * 7,
        variants=variants, seed=3,
    )
    monkeypatch.setattr(experiments, "_BER_CHUNK", 3 * 448)
    calls = Counter()  # a missing name counts as zero in ==
    monkeypatch.setattr(
        TransmitMatrix, "demodulate", _counted(calls, "demodulate", TransmitMatrix.demodulate)
    )
    for name in ("zf_equalize", "recover_iterative"):
        monkeypatch.setattr(experiments, name, _counted(calls, name, getattr(experiments, name)))
    experiments._variant_groups(cfg)
    builds = calls.pop("demodulate", 0)  # the operator builds' own
    chunks, smoothed = 3, 2
    past_cp = channel == "eva" and n_cp == 64
    per_variant = (channel != "none") + past_cp  # the noise's, and the signal's past the CP
    for snr_db, scales in (((12.0,), 1), ((4.0, 10.0, 4.0, 16.0, 10.0), 3)):
        calls.clear()
        rows = run_ber(replace(cfg, snr_db=snr_db))[0].rows
        scales = 1 if channel == "none" else scales
        assert calls == Counter({
            "demodulate": builds + per_variant * len(variants) * chunks,
            "zf_equalize": (1 + past_cp * len(variants)) * chunks if channel == "eva" else 0,
            "recover_iterative": scales * smoothed * chunks,
        })
    # a repeated point reads the rows of its first entry, and without noise
    # every point reads those of the first point
    points = [tuple(row[1:] for row in rows[k : k + 3]) for k in range(0, len(rows), 3)]
    assert points[2] == points[0] and points[4] == points[1]
    assert (points.count(points[0]) == len(points)) == (channel == "none")


@pytest.mark.parametrize("channel,n_cp", BER_PATHS, ids=BER_PATH_IDS)
def test_run_ber_sends_the_signal_through_the_channel_only_past_the_cp(
    monkeypatch, channel, n_cp
):
    # with every path inside the CP, ZF undoes the channel on each core, so
    # the signal is received in the data domain: no modulation, smoothing or
    # tapped-delay line, and one ZF per chunk, the noise's.  A path past the
    # CP sends each variant's cores through the channel with its own tail
    variants = ("gfdm", "nc-gfdm:1", "nc-gfdm:2")
    cfg = small_cfg(
        "ber", K=64, n_cp=n_cp, beta=0.5, channel=channel, snr_db=(4.0, 10.0),
        n_bits=448 * 4 * 7, variants=variants, seed=3,
    )
    monkeypatch.setattr(experiments, "_BER_CHUNK", 3 * 448)
    calls = Counter()
    monkeypatch.setattr(
        TransmitMatrix, "modulate", _counted(calls, "modulate", TransmitMatrix.modulate)
    )
    for name in ("apply_channel", "smooth_stream", "zf_equalize", "awgn"):
        monkeypatch.setattr(experiments, name, _counted(calls, name, getattr(experiments, name)))
    experiments._variant_groups(cfg)
    assert not calls  # the builds modulate nothing
    run_ber(cfg)
    chunks, smoothed = 3, 2
    noisy = channel != "none"
    if channel == "eva" and n_cp == 64:
        assert calls == Counter({
            "modulate": len(variants) * chunks,  # smooth_stream modulates too
            "smooth_stream": smoothed * chunks,
            "apply_channel": len(variants) * chunks,
            "zf_equalize": (1 + len(variants)) * chunks,
            "awgn": chunks,
        })
    else:
        assert calls == Counter({
            "zf_equalize": chunks if channel == "eva" else 0,
            "awgn": chunks if noisy else 0,
        })


@pytest.mark.parametrize("channel,n_cp", BER_PATHS[:3], ids=BER_PATH_IDS[:3])
def test_run_ber_soft_estimates_match_the_per_point_chain(monkeypatch, channel, n_cp):
    # the run forms sigma A^-1 ZF(n) + z, with z = D + A^-1 Q B when every
    # path lies inside the CP; the oracle smooths or modulates each variant's
    # cores with its carry, sends them through the tapped-delay line with
    # its tail, adds sigma n at each point, zero-forces and recovers from y
    cfg = small_cfg(
        "ber", K=64, n_cp=n_cp, beta=0.5, channel=channel, snr_db=(4.0, 10.0),
        n_bits=448 * 4 * 5, variants=("gfdm", "nc-gfdm:2"), seed=4,
    )
    monkeypatch.setattr(experiments, "_BER_CHUNK", 2 * 448)  # chunks of 2, 2 and 1 blocks
    seen = {"data": [], "noise": [], "h": [], "soft": []}

    def recorded(key, fn):
        def wrapper(*args):
            seen[key].append(fn(*args))
            return seen[key][-1]

        return wrapper

    def bit_errors(soft, labels, c):
        seen["soft"].append(soft.copy())
        return original(soft, labels, c)

    original = experiments._bit_errors
    monkeypatch.setattr(experiments, "_bit_errors", bit_errors)
    for name, key in (("_draw_data", "data"), ("awgn", "noise")):
        monkeypatch.setattr(experiments, name, recorded(key, getattr(experiments, name)))
    monkeypatch.setattr(
        JakesFadingProcess, "realization", recorded("h", JakesFadingProcess.realization)
    )
    run_ber(cfg)
    assert len(seen["data"]) == len(seen["noise"]) == 3
    c = experiments.qam_constellation(cfg.qam_order)
    sigmas = [math.sqrt(noise_variance(snr, cfg.waveform(), c.bits_per_symbol))
              for snr in cfg.snr_db]
    sent = []
    for spec in cfg.variants:
        var = resolve_variant(cfg, spec)
        g, tm = experiments._transmit(var.params)
        sent.append((tm, experiments._operators(g, tm, var.params) if var.smoothed else None))
    carries, tails = [None] * len(sent), [None] * len(sent)
    got = iter(seen["soft"])
    for (_, D), noise, h in zip(seen["data"], seen["noise"], seen["h"] or [None] * 3):
        for i, (tm, ops) in enumerate(sent):
            if ops is None:
                X = tm.modulate(D)
            else:
                X, _, carries[i] = smooth_stream(ops, D, carries[i])
            R = X.T if h is None else apply_channel(h, X.T, n_cp, tails[i])
            tails[i] = X[:, -1].copy()
            for sigma in sigmas:
                Y = sigma * noise + R
                if h is not None:
                    Y = zf_equalize(h, Y)
                want = tm.demodulate(Y.T) if ops is None else reference_recover(ops, Y.T, c, 8)
                soft = next(got)
                assert np.max(np.abs(soft - want)) <= 1e-12 * np.max(np.abs(want))
    assert next(got, None) is None


def test_run_experiment_dispatch():
    tables = run_experiment(small_cfg("validate"))
    assert tables[0].name == "validation"
    with pytest.raises(ValueError):
        run_psd(small_cfg("sir"))
    with pytest.raises(ValueError):
        run_ber(small_cfg("psd"))
    with pytest.raises(ValueError):
        run_power(small_cfg("ber"))
    with pytest.raises(ValueError, match="^config kind must be 'validate'$"):
        run_validation(small_cfg("power"))


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
    # the sidecar records the config, not the directory it was written to
    assert (out1 / "sir.provenance.json").read_bytes() == (out2 / "sir.provenance.json").read_bytes()
    sidecar = json.loads((out1 / "sir.provenance.json").read_text())
    assert sidecar["seed"] == 9
    assert sidecar["config"]["K"] == 16


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert (tmp_path / "validation.csv").exists()


def test_cli_validate_fails_on_a_broken_identity(tmp_path, capsys, monkeypatch):
    corrupt_operators(monkeypatch)
    assert main(["validate", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    failed = sum(line.startswith("FAIL ") for line in captured.out.splitlines())
    assert failed > 0
    assert captured.err == f"{failed} identity check(s) failed\n"
    assert "# passed: False\n" in (tmp_path / "validation.csv").read_text()


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
    # the subcommand names the experiment; a second setting would disagree with it
    with pytest.raises(SystemExit, match=r"^--set cannot change key 'kind'"):
        main(["power", "--set", "kind=validate"])


def test_cli_names_unknown_override_keys():
    # the same message as ExperimentConfig.from_dict, naming every unknown key
    argv = ["sir", "--set", "n_sym=3", "--set", "K=16", "--set", "bogus=1"]
    with pytest.raises(SystemExit, match=r"^unknown config key\(s\): bogus, n_sym$"):
        main(argv)
