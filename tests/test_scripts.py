"""The loss-weight sweep runs end to end on a tiny config and writes a grid
file that ``lcreg report`` formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

from lcreg.cli import main

ROOT = Path(__file__).resolve().parents[1]

TINY_SETS = [
    "task.num_classes=6", "task.input_dim=5", "task.n_max=60", "task.imbalance=20",
    "task.test_per_class=20", "train.hidden=8", "train.feature_dim=4",
    "train.num_latents=3", "train.t1_iters=20", "train.t2_iters=5",
    "train.batch_size=16", "train.log_every=10",
]


def _run_sweep(*extra):
    sets = [arg for kv in TINY_SETS for arg in ("--set", kv)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_hparam_sensitivity.py"),
         *sets, *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_sweep_writes_grid(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    proc = _run_sweep("--seeds", "0", "--pairs", "1,1;0.1,0.1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "spread from best: 0.0000 over 2 clean pairs" in proc.stdout
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "seeds", "rows", "summary"}
    assert payload["seeds"] == [0]
    # every row sets these, so the stored config omits them
    assert not {"variant", "alpha", "beta"} & set(payload["config"]["train"])

    assert main(["report", "--results", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("variant") and "Δ" not in lines[0]
    body = [line for line in lines[2:] if line.strip()]
    assert sorted(line.split()[0] for line in body) == ["0.1,0.1", "1,1"]


def test_sweep_rejects_repeated_seed(tmp_path):
    out = tmp_path / "sweep.json"
    proc = _run_sweep("--seeds", "0,0", "--pairs", "1,1", "--out", str(out))
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "repeats a seed" in err[0]
    assert not out.exists()
