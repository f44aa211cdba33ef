"""Spans around the calls into each layer of the program.

The tracer rebinds the public names that the consuming modules look up
(for example ``ncgfdm.experiments.smooth_stream``) to timing wrappers and
restores the original objects on exit, so the program itself is never
edited.  Spans stay in memory; metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = "experiments.run"


def _ops_mb(ops) -> float:
    """Array bytes of one operator set as returned, shared arrays included."""
    total = 0
    for obj in (ops, ops.basis):
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total / 2**20


def _columns(arr) -> int:
    arr = np.asarray(arr)
    return 1 if arr.ndim < 2 else arr.shape[1]


#: (owner, attribute, layer name, {counter: f(args, result) -> amount}).  The
#: owner is the module whose global the program looks up at call time, or
#: "module:Class" for a method.
TARGETS = (
    ("ncgfdm.experiments", "prototype_filter", "filterbank.prototype_filter", {}),
    ("ncgfdm.experiments", "build_transmit_matrix", "filterbank.build_transmit_matrix",
     {"calls": lambda a, r: 1}),
    ("ncgfdm.experiments", "build_basis", "smoothing.build_basis", {}),
    ("ncgfdm.experiments", "build_nc_operators", "smoothing.build_nc_operators",
     {"calls": lambda a, r: 1, "mb": lambda a, r: _ops_mb(r)}),
    ("ncgfdm.smoothing", "operator_identity_residuals", "smoothing.operator_identity_residuals", {}),
    ("ncgfdm.experiments", "smooth_stream", "smoothing.smooth_stream",
     {"symbols": lambda a, r: _columns(a[1])}),
    ("ncgfdm.spectrum", "coefficient_stream", "smoothing.coefficient_stream", {}),
    ("ncgfdm.experiments", "empirical_sir", "spectrum.empirical_sir", {}),
    ("ncgfdm.experiments", "sir_report", "spectrum.sir_report", {}),
    ("ncgfdm.experiments", "recover_iterative", "transceiver.recover_iterative",
     {"symbols": lambda a, r: _columns(a[1])}),
    ("ncgfdm.transceiver", "hard_decision", "params.hard_decision",
     {"points": lambda a, r: np.size(a[0])}),
    ("ncgfdm.params", "demap_symbols", "params.demap_symbols",
     {"points": lambda a, r: np.size(a[0])}),
    ("ncgfdm.experiments", "awgn", "channel.awgn", {}),
    ("ncgfdm.channel:JakesFadingProcess", "realization", "channel.realization",
     {"calls": lambda a, r: 1}),
    ("ncgfdm.experiments", "apply_channel", "channel.apply_channel", {}),
    ("ncgfdm.experiments", "zf_equalize", "channel.zf_equalize", {}),
    ("ncgfdm.experiments", "psd_sample_stream", "spectrum.psd_sample_stream",
     {"samples": lambda a, r: np.size(r)}),
    ("ncgfdm.spectrum:WelchAccumulator", "process", "spectrum.welch_process", {}),
)

#: counters read from the program object the call advanced, not from its result
SEGMENTS = "spectrum.welch_process"


def layer_metric_names() -> list:
    names = []
    for _, _, layer, counters in TARGETS:
        names.append(f"{layer}.s")
        names.extend(f"{layer}.{c}" for c in counters)
        if layer == SEGMENTS:
            names.append(f"{layer}.segments")
    return names + [f"{ROOT}.self_s", "trace.overhead_s"]


def resolve(owner: str):
    """The module, or the class after a colon, that holds a traced name."""
    import importlib

    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class Tracer:
    """Records one span per wrapped call: (name, start, end, parent index)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, layer: str, counters: dict):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = args[0]._count if layer == SEGMENTS else 0
            result = tracer.span(layer, fn, *args, **kwargs)
            for cname, amount in counters.items():
                key = f"{layer}.{cname}"
                tracer.counts[key] = tracer.counts.get(key, 0) + amount(args, result)
            if layer == SEGMENTS:
                key = f"{layer}.segments"
                tracer.counts[key] = tracer.counts.get(key, 0) + args[0]._count - before
            return result

        return wrapper

    def __enter__(self):
        try:
            for owner_path, attr, layer, counters in TARGETS:
                owner = resolve(owner_path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, counters))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_values(self) -> dict:
        """Inclusive busy seconds per layer, counters, and the root's self time.

        A layer nested inside itself counts once; the root's self time is its
        span minus its direct children, which never overlap.
        """
        busy = {}
        child_time = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + dur
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                busy[name] = busy.get(name, 0.0) + dur
        values = {f"{name}.s": t for name, t in busy.items() if name != ROOT}
        values.update(self.counts)
        values[f"{ROOT}.self_s"] = sum(
            (end - start) - child_time.get(i, 0.0)
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == ROOT
        )
        return values
