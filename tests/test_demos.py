"""Smoke test: every script under demos/ runs to completion."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch):
    # demos write their tables into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
