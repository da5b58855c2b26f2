"""The benchmark's view of the package: every name ``bench/`` calls exists.

``bench/workloads.py`` imports the package modules it drives (``baseline``
among them), and ``bench/layers.py`` wraps each ``FUNCTION_TARGETS`` entry
by name. A refactor that moves or removes one of those names fails here,
not in a benchmark run. Nothing under ``bench/`` is changed.
"""

import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_workloads_import_and_match_the_declared_set(monkeypatch):
    workloads = _bench_module(monkeypatch, "workloads")
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_every_function_target_resolves_to_a_callable(monkeypatch):
    layers = _bench_module(monkeypatch, "layers")
    missing = []
    for module, attr, _ in layers.FUNCTION_TARGETS:
        owner = importlib.import_module(f"lcreg.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"lcreg.{module}.{attr}")
    assert missing == []
