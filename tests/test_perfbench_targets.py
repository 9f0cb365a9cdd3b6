"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps fprec
functions looked up by name; renaming or deleting one breaks that run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_PERFBENCH_MODULES = ("layers", "tracer", "checks")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        for name in _PERFBENCH_MODULES:
            sys.modules.pop(name, None)


def test_every_traced_target_resolves(layers):
    missing = []
    for t in layers.TARGETS:
        # The same lookup tracer.Patch.install makes.
        module = importlib.import_module(t.module)
        owner_name, _, attr = t.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{t.module}.{t.attr}")
    assert missing == []
