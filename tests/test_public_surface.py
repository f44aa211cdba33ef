"""The public surface: module ``__all__`` lists, the package namespace, the README
and the run-time imports.

Every name a module lists in ``__all__`` must exist, every name the package
re-exports must be listed by the module that defines it, the README's
Python example must run as written, and the program must load without
scipy, which only the tests use.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ncgfdm

MODULES = sorted(m.name for m in pkgutil.iter_modules(ncgfdm.__path__, "ncgfdm."))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_package_name_is_in_its_module_all():
    unlisted = []
    for name, obj in vars(ncgfdm).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        module = importlib.import_module(obj.__module__)
        if name not in module.__all__:
            unlisted.append(f"{obj.__module__}.{name}")
    assert unlisted == []


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_program_imports_no_scipy():
    src = str(Path(ncgfdm.__file__).resolve().parents[1])
    code = "import sys, ncgfdm, ncgfdm.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
