"""Every name the benchmark tracer rebinds must exist in the program.

``perfbench/trace.py`` times layers by replacing ``vars(owner)[attr]`` for
each entry of ``TARGETS``; a renamed or moved function would make traced
benchmark runs raise ``KeyError``.  The tracer module is loaded from its
file and only read.
"""

import importlib.util
import sys
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("_perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    trace = load_trace()
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _, _ in trace.TARGETS
        if attr not in vars(trace.resolve(owner))
    ]
    assert missing == []
