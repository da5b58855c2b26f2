"""The benchmark's view of the package: every name ``bench/`` calls exists,
and each workload sets up (and, where a round takes seconds, runs one
round and passes its checks) against the package as it stands.

``bench/workloads.py`` imports the package modules it drives (``baseline``
among them), and ``bench/layers.py`` wraps each ``FUNCTION_TARGETS`` entry
by name. A refactor that moves or removes one of those names, or that
breaks a workload's operations or checks, fails here, not in a benchmark
run. Nothing under ``bench/`` is changed.
"""

import importlib
import json
from pathlib import Path

import pytest

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


def _workload(monkeypatch, tmp_path, name: str):
    """The named workload, seed 0, with its workdir and corpus cache under
    ``tmp_path`` (as ``bench/run.py`` sets them under its run directory)."""
    workloads = _bench_module(monkeypatch, "workloads")
    monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
    workdir = tmp_path / name
    workdir.mkdir()
    return workloads.WORKLOADS[name](0, workdir)


def test_ablation_vec_sets_up(monkeypatch, tmp_path):
    _workload(monkeypatch, tmp_path, "ablation_vec").setup()


@pytest.mark.parametrize("name", ["spatial_recon", "eval_io"])
def test_one_round_runs_and_checks_clean(monkeypatch, tmp_path, name):
    """A package change that makes a benchmark round fail an operation or a
    correctness check fails here first."""
    workload = _workload(monkeypatch, tmp_path, name)
    workload.setup()
    stats = workload.round()
    assert stats.failed == 0
    assert workload.check() == []
