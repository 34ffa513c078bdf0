"""The benchmark's tracer wraps module attributes of swnet by name
(perfbench/tracer.py, WRAPPED). It reads every one before any workload runs,
so a name that a refactor unbinds makes every traced benchmark run fail."""

import importlib
from pathlib import Path

import swnet
import swnet.cli  # binds swnet.cli, whose attributes the tracer wraps too

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    owners = [(tracer._owner(swnet, path), attr) for path, attr in tracer.WRAPPED]
    before = [vars(owner)[attr] for owner, attr in owners]
    with tracer.tracing(swnet, tracer.Tracer()):
        assert all(getattr(owner, attr).__wrapped__ is f for (owner, attr), f in zip(owners, before))
    assert [vars(owner)[attr] for owner, attr in owners] == before
