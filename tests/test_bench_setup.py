"""The benchmark's set-up must keep running against the program.

``perfbench/harness.setup`` builds every operator set of a workload through
``build_nc_operators(..., is_unitary=..., check=True)``, takes the waveforms
the workloads make with ``replace(p, oversample=1)`` and probes ``tm.A``; a
change to any of these would pass a test of the tracer's names alone and
still break the benchmark.  Each workload's set-up runs once at K=64, M=7,
n_cp=70, where N=448 keeps EVA's 270-sample delay inside the block.  The
benchmark package is only imported.
"""

from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SMALL_DIMS = {"K": 64, "M": 7, "n_cp": 70, "qam_order": 16}


def test_benchmark_setup_builds_every_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    from perfbench.harness import setup
    from perfbench.workloads import WORKLOADS

    for wl in WORKLOADS.values():
        wl = replace(wl, dims=SMALL_DIMS)
        cfg = wl.config(1)
        times, facts = setup(wl, cfg, reps=1)
        assert len(times) == 1
        assert set(facts["unitary"]) == {label for label, _, _ in wl.builds(cfg)}
