"""The walkthroughs in demos/ run to the end."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["validity_demo", "suites_demo",
                                  "exponential_demo"])
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out
