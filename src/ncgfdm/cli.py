"""Command-line entry point for the experiment runner.

Subcommands mirror the experiment kinds: psd, ber, sir, power, validate.
A JSON config file supplies the full experiment description; individual
keys can be overridden on the command line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import PRESETS, ExperimentConfig, run_experiment, write_tables

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgfdm",
        description="N-continuous GFDM experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, help_text in (
        ("psd", "Welch PSD comparison across waveform variants"),
        ("ber", "Monte-Carlo BER vs Eb/N0"),
        ("sir", "theoretical and empirical SIR over (beta, V)"),
        ("power", "smooth-signal power vs symbol index"),
        ("validate", "operator identity suite over the standard matrix"),
    ):
        sp = sub.add_parser(kind, help=help_text)
        sp.add_argument("--config", help="JSON experiment config file")
        sp.add_argument("--seed", type=int, help="master seed override")
        sp.add_argument("--out", help="output directory (default: current)")
        sp.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            help="scale preset applied on top of the config",
        )
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override an individual config key (JSON-parsed value)",
        )
    return parser


def load_config(args) -> ExperimentConfig:
    """The validated config of parsed ``args``; a rejected one raises ValueError.

    Later sources take precedence: the ``--config`` file, then the preset,
    then each ``--set`` item (a JSON value, else the raw string), then ``--seed``.
    """
    values = {"kind": args.command}
    if args.config:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --config file {args.config!r}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:  # its message keeps the line, column and offset
            raise ValueError(f"--config file {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(values, dict):
            raise ValueError(f"--config file {args.config!r} does not hold a JSON object")
        if values.setdefault("kind", args.command) != args.command:
            raise ValueError(f"--config file is a {values['kind']!r} config, not {args.command!r}")
    if args.preset:
        values.update(PRESETS[args.preset])
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"bad override {item!r}; expected KEY=VALUE")
        if key == "kind":
            raise ValueError("--set cannot change key 'kind': the subcommand names the experiment")
        try:
            values[key] = json.loads(raw)
        except json.JSONDecodeError:
            values[key] = raw
    if args.seed is not None:
        values["seed"] = args.seed
    return ExperimentConfig.from_dict(values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ValueError as exc:  # a one-line message that names the field, no traceback
        raise SystemExit(str(exc)) from None
    tables = run_experiment(cfg)
    paths = write_tables(cfg, tables, args.out or ".")
    if cfg.kind != "validate":
        print(*paths, sep="\n")
        return 0
    rows = tables[0].rows  # (K, M, beta, V, identity, residual, tolerance, passed)
    for K, M, beta, V, identity, residual, tol, ok in rows:
        print(
            f"{'PASS' if ok else 'FAIL'} K={K} M={M} beta={beta} V={V} {identity}: "
            f"residual {residual:.3e} (tol {tol:.0e})"
        )
    failed = sum(not row[-1] for row in rows)
    if failed:
        print(f"{failed} identity check(s) failed", file=sys.stderr)
        return 1
    worst = max(row[5] / row[6] for row in rows)
    print(f"all {len(rows)} identity checks passed; worst residual at {worst:.2e} of its tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
