"""The benchmark's tracer (perfbench/tracing.py) wraps layer functions by
name in realbloch.cli and realbloch.classify; every name must resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [
        (importlib.import_module(module), attr)
        for module, attr, _ in tracing.LAYER_FUNCTIONS
    ] + [
        (getattr(importlib.import_module(module), cls), "__call__")
        for module, cls, _ in tracing.EVALUATORS
    ]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), fn in zip(targets, originals):
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(targets, originals):
        assert getattr(owner, attr) is fn, attr
