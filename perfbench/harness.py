"""Set-up, timed rounds, checks and the result of one workload run."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .trace import ROOT, Tracer, layer_metric_names
from .workloads import Workload, check, is_unitary, round_work

REPO = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


def load_spec(repo: Path = REPO) -> dict:
    with open(repo / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup(wl: Workload, cfg, reps: int = SETUP_REPS, probe_seed: int = 0):
    """Build every operator set the run needs, ``reps`` times.

    Returns (seconds per repetition, facts), where facts["unitary"] maps each
    build label to whether its modulation matrix is unitary.  Transmit
    matrices are shared between builds of one repetition the way the
    program's own build cache shares them; operator sets are dropped as soon
    as they are built, so set-up never holds more than one.
    """
    from ncgfdm.filterbank import build_transmit_matrix, prototype_filter
    from ncgfdm.smoothing import build_basis, build_nc_operators

    rng = np.random.default_rng(probe_seed)
    facts = {"unitary": {}}
    times = []
    for rep in range(reps):
        elapsed = 0.0
        transmit = {}
        for label, p, smoothed in wl.builds(cfg):
            t0 = time.perf_counter()
            key = (p.K, p.M, p.beta, p.filter_kind)
            if key not in transmit:
                g = prototype_filter(p)
                transmit[key] = (g, build_transmit_matrix(g, p))
            g, tm = transmit[key]
            if smoothed:
                build_nc_operators(tm, build_basis(g, p), p, is_unitary=g.is_dirichlet, check=True)
            elapsed += time.perf_counter() - t0
            if rep == 0:
                facts["unitary"][label] = is_unitary(tm.A, rng)
        del transmit
        times.append(elapsed)
    return times, facts


def run_rounds(wl: Workload, cfg, seconds: float, trace: bool, facts: dict) -> dict:
    """Whole rounds of the workload until ``seconds`` have passed.

    With ``trace`` the rounds alternate untraced and traced, starting
    untraced, and at least one of each runs.  Every round's tables must be
    byte-identical to the first round's.
    """
    tracer = Tracer()
    walls = {False: [], True: []}
    layers = []
    failures = []
    reference = None
    identical = True
    tables = None
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds or (trace and n < 2):
        traced = trace and n % 2 == 1
        if traced:
            tracer.reset()
            with tracer:
                t0 = time.perf_counter()
                tables = tracer.span(ROOT, wl.run, cfg)
                wall = time.perf_counter() - t0
            layers.append(tracer.layer_values())
        else:
            t0 = time.perf_counter()
            tables = wl.run(cfg)
            wall = time.perf_counter() - t0
        walls[traced].append(wall)
        csv = [t.to_csv() for t in tables]
        if reference is None:
            reference = csv
        identical = identical and csv == reference
        failures.append(check(wl, cfg, tables, facts))
        n += 1
    return {
        "walls": walls[False],
        "traced_walls": walls[True],
        "layers": layers,
        "failures": failures,
        "identical": identical,
        "tables": tables,
        "spans": tracer.spans,
    }


def provenance() -> dict:
    import ncgfdm
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, env=env, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": commit,
        "ncgfdm_version": getattr(ncgfdm, "__version__", "unknown"),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool, import_s: float,
            out_dir: Path) -> dict:
    """One benchmark run; writes the result files and returns the result line."""
    from ncgfdm.experiments import write_tables

    spec = load_spec()
    cfg = wl.config(seed)
    setup_times, facts = setup(wl, cfg, probe_seed=seed)
    rounds = run_rounds(wl, cfg, seconds, trace, facts)
    work = round_work(wl, cfg)
    failures = rounds["failures"]
    wall = statistics.median(rounds["walls"])
    if trace:
        wanted = spec["per_layer"]
        values = {
            name: float(statistics.median(layer.get(name, 0.0) for layer in rounds["layers"]))
            for name in layer_metric_names()
        }
        values["trace.overhead_s"] = statistics.median(rounds["traced_walls"]) - wall
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bits_per_s": work["bits"] / wall,
            "samples_per_s": work["samples"] / wall,
            "cells_per_s": work["ops"] / wall,
        }
    result = {
        "correct": rounds["identical"] and all(len(f) == work["ops"] for f in failures),
        "attempted": sum(len(f) for f in failures),
        "failed": sum(1 for f in failures for fails in f.values() if fails),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}"
    write_tables(cfg, rounds["tables"], out_dir / f"{stem}-tables")
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "result": result,
        "provenance": provenance(),
        "config": cfg.to_dict(),
        "import_s": import_s,
        "setup_rep_s": setup_times,
        "round_wall_s": rounds["walls"],
        "traced_round_wall_s": rounds["traced_walls"],
        "tables_identical_across_rounds": rounds["identical"],
        "work_per_round": work,
        "unitary": facts["unitary"],
        "failed_checks": {str(key): fails for key, fails in failures[0].items() if fails},
        "argv": sys.argv,
    }
    with open(out_dir / f"{stem}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")
    if trace:
        with open(out_dir / f"{stem}-spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "layers": rounds["layers"], "spans": rounds["spans"]}, fh)
            fh.write("\n")
    return result
