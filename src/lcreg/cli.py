"""Command line driver.

Subcommands:
    build-dataset   synthesize a task's train/test splits into the cache
    train           one training run, or a study grid with --ablate
    eval            score a saved checkpoint on a task's balanced test split
    gradcheck       run the kernel battery plus an end-to-end derivative check
    report          format results files; optionally export latent usage

Configuration is a flat key=value file with ``task.`` and ``train.``
prefixes; ``--set key=value`` overrides individual entries. Unknown keys are
rejected rather than ignored. Exit codes: 0 success, 1 failed check or
missing artifact, 2 bad usage or bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .augment import AugSchedule, init_stats, update_stats
from .data import (CORPUS_FILE, NonFiniteSampleError, build_profile, dataset_cache_dir,
                   load_dataset, make_mixture_spec, save_dataset)
from .diffcore import ForwardTape, standard_kernel_checks
from .model import (
    ModelConfig,
    end_to_end_grad_check,
    forward,
    image_encoder,
    init_model,
    load_model,
    save_model,
)
from .trainer import (
    COMPONENT_ROWS,
    TaskSpec,
    TrainConfig,
    RESULTS_FORMAT_VERSION,
    check_splits,
    config_hash,
    eval_chunks,
    evaluate,
    grid_config_dict,
    make_run_record,
    make_task_data,
    model_config,
    run_ablation,
    run_training,
)
from .tensorio import atomic_write, content_hash, write_json

DEFAULT_SEEDS = "0,1,2,3,4"  # --seeds of every study grid


class ConfigError(Exception):
    pass


def parse_seeds(raw: str) -> list[int]:
    """A ``--seeds`` value: comma-separated non-negative integers, at least
    one, none repeated."""
    try:
        seeds = [int(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad --seeds value: {raw!r}")
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seeds repeats a seed: {raw!r}")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be non-negative: {raw!r}")
    return seeds


# -- flat key=value configuration -----------------------------------------


def _coerce(key: str, raw: str, default):
    """Parse ``raw`` to the type of the field's default value; a float must
    be finite."""
    raw = raw.strip()
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    if isinstance(default, tuple):
        if raw == "":
            return ()
        elem = float if (default and isinstance(default[0], float)) else int
        try:
            values = tuple(elem(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated values, got {raw!r}")
        if elem is float and not all(map(math.isfinite, values)):
            raise ConfigError(f"{key}: expected finite numbers, got {raw!r}")
        return values
    return raw


def _parse_pairs(lines, source: str) -> dict:
    out = {}
    for ln, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{ln}: expected key=value, got {text!r}")
        key, raw = text.split("=", 1)
        out[key.strip()] = raw
    return out


def load_settings(config_path, set_pairs, seed=None) -> tuple[TaskSpec, TrainConfig]:
    """Defaults overridden by the config file, then by --set pairs."""
    entries: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        entries.update(_parse_pairs(path.read_text().splitlines(), str(path)))
    entries.update(_parse_pairs(set_pairs or [], "--set"))

    defaults = {"task": TaskSpec(), "train": TrainConfig()}
    kw: dict = {"task": {}, "train": {}}
    for key, raw in entries.items():
        prefix, dot, name = key.partition(".")
        if not dot or prefix not in defaults:
            raise ConfigError(f"unknown key {key!r} (use task. or train. prefixes)")
        if name not in {f.name for f in fields(defaults[prefix])}:
            raise ConfigError(f"unknown key {key!r}")
        kw[prefix][name] = _coerce(key, raw, getattr(defaults[prefix], name))
    if seed is not None:
        kw["train"]["seed"] = int(seed)
    try:
        task = TaskSpec(**kw["task"])
        cfg = TrainConfig(**kw["train"])
        # build what a run builds, so a value only they reject exits 2 here
        model_config(cfg, task)
        build_profile(task.num_classes, task.n_max, task.imbalance, task.profile)
        make_mixture_spec(task.num_classes, task.input_dim, cfg.seed,
                          mean_scale=task.mean_scale, stdev=task.stdev)
        AugSchedule(cfg.lambda0, cfg.t1_iters)
    except ValueError as e:
        raise ConfigError(str(e))
    return task, cfg


def parse_rows(config_path, set_pairs, raw_rows) -> dict:
    """Grid rows from repeated ``--row NAME KEY=VALUE ...``, as
    ``run_ablation`` takes them: {name: {field: value}}. Each row's pairs
    go after the --set pairs and must pass every check of a single run."""
    rows: dict = {}
    for name, *pairs in raw_rows:
        where = f"--row {name}"
        overrides = _parse_pairs(pairs, where)
        problem = ("repeats a row name" if name in rows else
                   "sets nothing; give at least one KEY=VALUE" if not overrides else
                   "cannot set train.seed; --seeds sets it" if "train.seed" in overrides
                   else None)
        if problem:
            raise ConfigError(f"{where}: {problem}")
        try:
            task, cfg = load_settings(config_path, [*set_pairs, *pairs])
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}")
        built = {"task": task, "train": cfg}
        rows[name] = {field: getattr(built[part], field)
                      for part, field in (key.split(".", 1) for key in overrides)}
    return rows


def _dataset_params(task: TaskSpec, seed: int) -> dict:
    return {"task": asdict(task), "seed": int(seed)}


def _synthesize(task: TaskSpec, seed: int):
    """``make_task_data``; a sample that overflows float32 is a
    configuration error."""
    try:
        return make_task_data(task, seed)
    except NonFiniteSampleError as e:
        raise ConfigError(f"cannot synthesize the task's splits: {e}")


# -- subcommands -----------------------------------------------------------


def cmd_build_dataset(args) -> int:
    task, cfg = load_settings(args.config, args.set, args.seed)
    out = Path(args.out) if args.out else dataset_cache_dir(_dataset_params(task, cfg.seed))
    train, test = _synthesize(task, cfg.seed)
    save_dataset(train, out / "train")
    save_dataset(test, out / "test")
    write_json(out / "task.json", _dataset_params(task, cfg.seed))
    print(out)
    return 0


def _load_cached_data(task: TaskSpec, cfg: TrainConfig):
    """The cached (train, test) splits of ``task``, or None after one stderr line."""
    root = dataset_cache_dir(_dataset_params(task, cfg.seed))
    marker = root / "train" / CORPUS_FILE
    if not marker.exists():
        print(f"dataset cache miss: expected {marker}\n"
              f"run `lcreg build-dataset` with the same config first", file=sys.stderr)
        return None
    try:
        splits = load_dataset(root / "train"), load_dataset(root / "test")
        check_splits(cfg, task, splits)
        empty = np.flatnonzero(splits[0].counts == 0)
        if empty.size:
            raise ValueError(f"train split has no sample of class {empty[0]}")
    except (OSError, ValueError) as e:
        print(f"cannot load dataset cache {root}: {e}", file=sys.stderr)
        return None
    return splits


def _task_splits(args, task: TaskSpec, cfg: TrainConfig):
    """The (train, test) splits a command runs on: cached with
    ``--from-cache`` (None after one stderr line), synthesized otherwise."""
    return _load_cached_data(task, cfg) if args.from_cache else _synthesize(task, cfg.seed)


def _read_run_record(path: Path) -> dict:
    """The JSON object at ``path``; empty when absent or unreadable (warned),
    so the run is redone and the file overwritten."""
    if not path.exists():
        return {}
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = None
    if isinstance(record, dict):
        return record
    print(f"warning: {path} is not a readable JSON object; rerunning", file=sys.stderr)
    return {}


def _load_params(path: Path, task: TaskSpec, cfg: TrainConfig):
    """Parameters from a checkpoint; None after one stderr line if it cannot be read."""
    try:
        return load_model(path, model_config(cfg, task))[0]
    except (OSError, ValueError) as e:
        print(f"cannot load checkpoint {path}: {e}", file=sys.stderr)
        return None


def cmd_train(args) -> int:
    if args.ablate and args.from_cache:
        print("--from-cache cannot be combined with --ablate "
              "(the grid synthesizes each seed's data)", file=sys.stderr)
        return 2
    if args.ablate and args.seed is not None:
        print("--seed does not apply with --ablate; the grid takes --seeds",
              file=sys.stderr)
        return 2
    if not args.ablate and (args.seeds is not None or args.row):
        print("--seeds and --row apply only with --ablate; a single run takes --seed",
              file=sys.stderr)
        return 2
    task, cfg = load_settings(args.config, args.set, args.seed)
    if args.ablate:
        return _train_ablation(args, task, cfg)
    out = Path(args.out)
    results_path = out / "results.json"
    want_hash = config_hash(cfg, task)
    existing = _read_run_record(results_path)
    if (existing.get("format_version") == RESULTS_FORMAT_VERSION
            and existing.get("config_hash") == want_hash and not existing.get("diverged")):
        print(f"results up to date for config {want_hash}; skipping")
        return 0

    datasets = _task_splits(args, task, cfg)
    if datasets is None:
        return 1
    out.mkdir(parents=True, exist_ok=True)
    result = run_training(cfg, task, datasets=datasets)
    with atomic_write(out / "history.jsonl", "w") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in result.history)
    if result.diverged:
        # an earlier run's checkpoint would pass for this config's model
        (out / "model.lct").unlink(missing_ok=True)
    else:
        save_model(out / "model.lct", result.params, result.stats,
                   iteration=cfg.t1_iters + cfg.t2_iters)
    # written last: a record marks a complete run, so reruns may skip it
    write_json(results_path, make_run_record(cfg, task, result))
    if result.diverged:
        print(f"training diverged at iteration {result.diverged_at}; "
              f"record written to {results_path}", file=sys.stderr)
        return 1
    print(json.dumps(result.report.to_dict(), indent=2, sort_keys=True))
    return 0


def _unwritable_dir(path: Path) -> Path | None:
    """None when ``path`` is, or can be made as, a directory this process
    writes to; else its nearest existing ancestor (or ``path`` itself), which
    is not a directory the process can write and enter. Creates nothing."""
    probe = path.absolute()
    while not probe.exists():
        probe = probe.parent
    if probe.is_dir() and os.access(probe, os.W_OK | os.X_OK):
        return None
    return probe


def _train_ablation(args, task: TaskSpec, cfg: TrainConfig) -> int:
    seeds = parse_seeds(DEFAULT_SEEDS if args.seeds is None else args.seeds)
    rows = parse_rows(args.config, args.set, args.row) if args.row else COMPONENT_ROWS
    path = Path(args.out) / "ablation.json"
    want = content_hash({"config": grid_config_dict(cfg, task, rows),
                         "seeds": seeds, "rows": rows})
    if _read_run_record(path).get("ablation_hash") == want:
        print(f"ablation up to date for config {want}; skipping")
        return 0
    # the grid file is written once every cell has trained: fail before that
    blocked = _unwritable_dir(path.parent)
    if blocked is not None:
        print(f"error: cannot write {path}: {blocked} is not a writable directory",
              file=sys.stderr)
        return 1
    try:
        grid = run_ablation(cfg, task, seeds, rows)
    except NonFiniteSampleError as e:
        # raised before any cell trains: the grid makes every split first
        raise ConfigError(f"cannot synthesize a grid task's splits: {e}")
    write_json(path, {"ablation_hash": want, **grid})
    print(json.dumps(grid["summary"], indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    task, cfg = load_settings(args.config, args.set, args.seed)
    params = _load_params(Path(args.model), task, cfg)
    if params is None:
        return 1
    datasets = _task_splits(args, task, cfg)
    if datasets is None:
        return 1
    train, test = datasets
    report = evaluate(params, test, train.counts)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _gradcheck_reports(instances: int):
    """The kernel battery's reports, then the end-to-end check's."""
    yield from standard_kernel_checks(instances=instances)
    enc = image_encoder(1, 6, 6, (3,), 4)
    params = init_model(ModelConfig(enc, num_classes=3, num_latents=3), seed=0)
    rng = np.random.default_rng(0)
    xb = rng.standard_normal((3, 1, 6, 6))
    labels = np.arange(3)
    stats = update_stats(init_stats(3, 4), rng.standard_normal((24, 4)),
                         np.repeat(np.arange(3), 8))
    yield end_to_end_grad_check(params, xb, labels, stats, lam=0.5, tolerance=1e-4)


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        print("--instances must be at least 1", file=sys.stderr)
        return 2
    failed = False
    for report in _gradcheck_reports(args.instances):
        mark = "ok" if report.passed else "FAIL"
        print(f"{report.op:<24} max_rel={report.max_rel_err:.3e} "
              f"tol={report.tolerance:.0e} {mark}")
        failed = failed or not report.passed
    return 1 if failed else 0


def _format_table(headers, rows) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _report_single(record: dict) -> str:
    metrics = record["metrics"]
    if metrics is None:
        return "run diverged; no metrics"
    rows = [[label, "—" if metrics[label] is None else f"{metrics[label]:.4f}"]
            for label in ("overall", "many", "medium", "few")]
    return _format_table(["label", "accuracy"], rows)


def format_grid(grid: dict) -> str:
    """Table of a study grid file: mean ± std of each row over its clean
    seeds and, when the grid has a ``baseline`` row, four columns against
    it. Δ overall and Δ few difference the two rows' means. Over the seeds
    clean in both rows, "few wins" counts those where the row's few
    accuracy beats baseline's at the same seed, as k/n, and "std Δ few" is
    the std of the paired per-seed few difference. An empty group (None in
    every clean seed) prints "—", and so do the few columns of a row whose
    few group, or baseline's, is empty. A row is compared with baseline only
    when both run the same task (the grid's task plus the row's own "task"
    overrides); otherwise all four columns print "—", since each task has
    its own frequency split."""
    labels = ("overall", "many", "medium", "few")
    rows, means, cleans = [], {}, {}
    for name, cell in grid["rows"].items():
        clean = {s: m for s, m in cell["seeds"].items() if "error" not in m}
        vals = {label: np.array([m[label] for m in clean.values() if m[label] is not None])
                for label in labels}
        rows.append([name, *(("—" if not v.size else f"{v.mean():.4f} ± {v.std():.4f}")
                             if clean else "diverged" for v in vals.values()),
                     f"{len(clean)}/{len(cell['seeds'])}"])
        means[name] = ({label: v.mean() if v.size else None for label, v in vals.items()}
                       if clean else None)
        cleans[name] = clean
    headers = ["variant", *labels, "clean"]
    base = means.get("baseline")
    if base is not None:
        headers += ["Δ overall", "Δ few", "few wins", "std Δ few"]
        base_clean = cleans["baseline"]
        grid_task = grid["config"].get("task", {})
        base_task = {**grid_task, **grid["rows"]["baseline"].get("task", {})}
        for row, (name, mean) in zip(rows, means.items()):
            if {**grid_task, **grid["rows"][name].get("task", {})} != base_task:
                row += ["—"] * 4
                continue
            if mean is not None and None in (mean["few"], base["few"]):
                row += [f"{mean['overall'] - base['overall']:+.4f}", "—", "—", "—"]
                continue
            row += [f"{mean[k] - base[k]:+.4f}" if mean else "" for k in ("overall", "few")]
            paired = np.array([m["few"] - base_clean[s]["few"]
                               for s, m in cleans[name].items() if s in base_clean])
            row += [f"{int((paired > 0).sum())}/{paired.size}",
                    f"{paired.std():.4f}" if paired.size else ""]
    return _format_table(headers, rows)


def _latent_usage_csv(args, task: TaskSpec, cfg: TrainConfig, path: Path) -> int:
    params = _load_params(Path(args.model), task, cfg)
    if params is None:
        return 1
    if not params.config.latent_on:
        print("checkpoint has no latent branch; nothing to export", file=sys.stderr)
        return 1
    _, test = _synthesize(task, cfg.seed)
    m = params.config.num_latents
    d = params.config.encoder.feature_dim
    sums = np.zeros((task.num_classes, m))
    counts = np.zeros(task.num_classes)
    for chunk in eval_chunks(params, len(test.labels)):
        yb = test.labels[chunk]
        # pooled rows past the features are the mean normalized similarities
        per_sample = forward(ForwardTape(), params, test.samples[chunk]).pooled.data[d:]
        np.add.at(sums, yb, per_sample.T)
        np.add.at(counts, yb, 1.0)
    usage = sums / counts[:, None]
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", *[f"latent_{j}" for j in range(m)]])
        for c in range(task.num_classes):
            writer.writerow([c, *[f"{v:.10f}" for v in usage[c]]])
    print(path)
    return 0


def cmd_report(args) -> int:
    if args.histogram_csv:
        if not args.model:
            print("--histogram-csv needs --model", file=sys.stderr)
            return 2
        task, cfg = load_settings(args.config, args.set, args.seed)
        return _latent_usage_csv(args, task, cfg, Path(args.histogram_csv))
    if not args.results:
        print("report needs --results or --histogram-csv", file=sys.stderr)
        return 2
    path = Path(args.results)
    if not path.exists():
        print(f"results file not found: {path}", file=sys.stderr)
        return 1
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        print(f"cannot read results file {path}: {e}", file=sys.stderr)
        return 1
    if not isinstance(payload, dict):
        print(f"results file {path} does not hold a JSON object", file=sys.stderr)
        return 1
    try:
        text = format_grid(payload) if "rows" in payload else _report_single(payload)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        print(f"results file {path} is malformed: {e!r}", file=sys.stderr)
        return 1
    print(text)
    return 0


# -- entry -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lcreg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one configuration entry")
        p.add_argument("--seed", type=int, help="override train.seed")

    p = sub.add_parser("build-dataset", help="synthesize and cache a task's splits")
    common(p)
    p.add_argument("--out", help="directory override (default: content-addressed cache)")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="run training and write results + checkpoint")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ablate", action="store_true",
                   help="run a study grid: each --row, or the component grid")
    p.add_argument("--seeds",
                   help=f"comma-separated seeds for --ablate (default {DEFAULT_SEEDS})")
    p.add_argument("--row", action="append", nargs="+", metavar=("NAME", "KEY=VALUE"),
                   help="one grid row for --ablate: its name and the task.* or train.* "
                        "settings it overrides (repeatable)")
    p.add_argument("--from-cache", action="store_true",
                   help="load datasets from the cache instead of synthesizing "
                        "(not with --ablate)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the balanced test split")
    common(p)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--from-cache", action="store_true",
                   help="load the splits from the cache instead of synthesizing")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="kernel battery plus end-to-end check")
    p.add_argument("--instances", type=int, default=10,
                   help="random instances per kernel")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="format results; export latent usage")
    common(p)
    p.add_argument("--results", help="results.json or ablation.json to format")
    p.add_argument("--model", help="checkpoint for --histogram-csv")
    p.add_argument("--histogram-csv", help="write per-class latent usage CSV here")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
