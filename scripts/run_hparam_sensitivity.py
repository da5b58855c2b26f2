#!/usr/bin/env python3
"""Loss-weight sensitivity sweep for the full model.

Trains the full model at each (alpha, beta) pair over a set of seeds with
shared per-seed data, then prints the grid table (mean ± std per pair, row
``"alpha,beta"``) and the spread of mean overall accuracy from the best pair.
A flat table is the expected outcome: the combined objective should tolerate
order-of-magnitude changes in the reconstruction and augmentation weights.
``--out`` keeps the grid file, which ``lcreg report --results`` formats.

Examples:
    python3 scripts/run_hparam_sensitivity.py
    python3 scripts/run_hparam_sensitivity.py --pairs "1,1;0.5,0.5" --seeds 0,1
    python3 scripts/run_hparam_sensitivity.py --set train.gamma=1.0 --out results/sweep.json
"""

from __future__ import annotations

import argparse
import sys

from lcreg.cli import DEFAULT_SEEDS, ConfigError, format_grid, load_settings, parse_seeds
from lcreg.tensorio import write_json
from lcreg.trainer import run_ablation

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
    ap.add_argument("--seeds", default=DEFAULT_SEEDS,
                    help="comma-separated run seeds")
    ap.add_argument("--pairs", default=DEFAULT_PAIRS,
                    help='semicolon-separated "alpha,beta" pairs')
    ap.add_argument("--out", help="also write the grid file here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        task, cfg = load_settings(args.config, args.set)
        seeds = parse_seeds(args.seeds)
        pairs = parse_pairs(args.pairs)
    except (ConfigError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2

    rows = {f"{a:g},{b:g}": dict(variant="full", alpha=a, beta=b) for a, b in pairs}
    grid = run_ablation(cfg, task, seeds, rows=rows)
    print(format_grid(grid))
    overalls = [s["overall"] for s in grid["summary"].values() if s["num_clean"]]
    if overalls:
        print(f"\nspread from best: {max(overalls) - min(overalls):.4f} "
              f"over {len(overalls)} clean pairs")
    if args.out:
        write_json(args.out, grid)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
