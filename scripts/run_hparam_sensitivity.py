#!/usr/bin/env python3
"""Loss-weight sensitivity sweep for the full model.

Trains the full model at each (alpha, beta) pair over a set of seeds with
shared per-seed data, then reports mean overall/few accuracy per pair and the
spread from the best configuration. A flat table is the expected outcome: the
combined objective should tolerate order-of-magnitude changes in the
reconstruction and augmentation weights.

Examples:
    python3 scripts/run_hparam_sensitivity.py
    python3 scripts/run_hparam_sensitivity.py --pairs "1,1;0.5,0.5" --seeds 0,1
    python3 scripts/run_hparam_sensitivity.py --set train.gamma=1.0 --out results/sweep.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from lcreg.cli import ConfigError, load_settings, _format_table
from lcreg.tensorio import write_json
from lcreg.trainer import config_dict, run_ablation

DEFAULT_PAIRS = "1,1;0.1,0.1;1,0.1;0.1,1"


def parse_pairs(raw: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, b = (float(v) for v in chunk.split(","))
        pairs.append((a, b))
    if not pairs:
        raise ValueError("--pairs must name at least one alpha,beta pair")
    return pairs


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="flat key=value configuration file")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a task.* or train.* setting")
    ap.add_argument("--seeds", default="0,1,2,3,4",
                    help="comma-separated run seeds")
    ap.add_argument("--pairs", default=DEFAULT_PAIRS,
                    help='semicolon-separated "alpha,beta" pairs')
    ap.add_argument("--out", help="also write per-pair results as JSON here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        task, cfg = load_settings(args.config, args.set)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        pairs = parse_pairs(args.pairs)
    except (ConfigError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds must name at least one seed", file=sys.stderr)
        return 2

    grid = run_ablation(cfg, task, seeds,
                        rows={(a, b): dict(alpha=a, beta=b) for a, b in pairs})
    cells = {}
    for pair, row in grid["rows"].items():
        runs = [m for m in row["seeds"].values() if "error" not in m]
        overalls = [m["overall"] for m in runs]
        fews = [m["few"] for m in runs]
        cells[pair] = {
            "overall": float(np.mean(overalls)) if overalls else None,
            "overall_std": float(np.std(overalls)) if overalls else None,
            "few": float(np.mean(fews)) if fews else None,
            "diverged": len(seeds) - len(runs),
        }

    clean = {p: c for p, c in cells.items() if c["overall"] is not None}
    best = max(c["overall"] for c in clean.values()) if clean else float("nan")
    rows = []
    for (a, b), cell in cells.items():
        if cell["overall"] is None:
            rows.append([f"({a:g}, {b:g})", "diverged", "", "", ""])
            continue
        rows.append([
            f"({a:g}, {b:g})",
            f"{cell['overall']:.4f} ± {cell['overall_std']:.4f}",
            f"{cell['few']:.4f}",
            f"{cell['overall'] - best:+.4f}",
            str(cell["diverged"]),
        ])
    print(_format_table(
        ["(alpha, beta)", "overall", "few", "vs best", "diverged"], rows))
    if clean:
        spread = best - min(c["overall"] for c in clean.values())
        print(f"\nspread from best: {spread:.4f} over {len(clean)} clean pairs")

    if args.out:
        payload = {
            "config": config_dict(cfg, task),
            "seeds": seeds,
            "cells": {f"{a:g},{b:g}": cell for (a, b), cell in cells.items()},
        }
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
