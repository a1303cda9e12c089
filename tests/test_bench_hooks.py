import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_functions_resolve_in_dcmwalk(monkeypatch):
    # A traced bench run wraps every (module, attr) in LAYER_FUNCTIONS and
    # fails on the first one the library no longer defines.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    missing = [
        (module, attr)
        for targets in spans.LAYER_FUNCTIONS.values()
        for module, attr in targets
        if not module.startswith("dcmwalk.")
        or not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
