"""The study scripts run end to end on a tiny config and write their JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY_SETS = [
    "task.num_classes=6", "task.input_dim=5", "task.n_max=60", "task.imbalance=20",
    "task.test_per_class=20", "train.hidden=8", "train.feature_dim=4",
    "train.num_latents=3", "train.t1_iters=20", "train.t2_iters=5",
    "train.batch_size=16", "train.log_every=10",
]


@pytest.mark.parametrize("script, extra", [
    ("run_mixture_ablation.py", []),
    ("run_hparam_sensitivity.py", ["--pairs", "1,1;0.1,0.1"]),
])
def test_study_writes_json(tmp_path, script, extra):
    out = tmp_path / "study.json"
    sets = [arg for kv in TINY_SETS for arg in ("--set", kv)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--seeds", "0",
         *sets, *extra, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["seeds"] == [0]
    if script == "run_mixture_ablation.py":
        # every grid row sets its own variant, so the stored config omits it
        assert "variant" not in payload["config"]["train"]
