#!/usr/bin/env python3
"""Component ablation on the long-tailed Gaussian-mixture task.

Runs the six-variant grid (plain baseline, latent pool, +reconstruction,
+augmentation, full model, raw-feature augmentation) over a set of seeds
with shared per-seed data, prints the mean/std table, and summarizes the
directional margins the study cares about: does each component row hold the
baseline's overall accuracy, and how much does the full model gain on the
few split.

Examples:
    python3 scripts/run_mixture_ablation.py
    python3 scripts/run_mixture_ablation.py --seeds 0,1,2 --set train.t1_iters=1000
    python3 scripts/run_mixture_ablation.py --out results/ablation.json
"""

from __future__ import annotations

import argparse
import sys

from lcreg.cli import ConfigError, load_settings, _report_ablation
from lcreg.tensorio import write_json
from lcreg.trainer import grid_config_dict, run_ablation


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="flat key=value configuration file")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a task.* or train.* setting")
    ap.add_argument("--seeds", default="0,1,2,3,4",
                    help="comma-separated run seeds")
    ap.add_argument("--out", help="also write the full grid as JSON here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        task, cfg = load_settings(args.config, args.set)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except (ConfigError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds must name at least one seed", file=sys.stderr)
        return 2

    grid = run_ablation(cfg, task, seeds)
    print(_report_ablation(grid))

    summary = grid["summary"]
    base = summary["baseline"]
    print()
    for name in ("latent", "latent_recon", "latent_aug", "full"):
        row = summary[name]
        print(f"{name:>12}: overall {row['overall'] - base['overall']:+.4f} "
              f"vs baseline, few {row['few'] - base['few']:+.4f}")
    print(f"{'raw_isda':>12}: few {summary['raw_isda']['few'] - base['few']:+.4f} "
          f"vs baseline "
          f"({summary['latent_aug']['few'] - summary['raw_isda']['few']:+.4f} "
          f"behind latent aug)")

    if args.out:
        payload = {
            "config": grid_config_dict(cfg, task),
            "seeds": seeds,
            "rows": grid["rows"],
            "summary": summary,
        }
        write_json(args.out, payload)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
