"""The public surface: module ``__all__`` lists, the package namespace and the README.

Every name a module lists in ``__all__`` must exist, every name the package
re-exports must be listed by the module that defines it, and the README's
Python example must run as written.
"""

import importlib
import pkgutil
import re
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
