"""The benchmark's tracer wraps gravopt names from outside; every name it
wraps must stay bound, or its traced run fails."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [(module, attr) for module, attr, _, _ in spans.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.WRAPPED and not missing
