"""Two-stage training on long-tailed mixtures, with ablations.

Stage 1 trains everything under instance-balanced sampling with the combined
objective. Stage 2 freezes the encoder and the latent pool and retrains only
the linear decoder under class-balanced sampling with plain cross-entropy,
which is what recovers tail-class accuracy after representation learning.
The frozen groups map each training sample to the same pooled features at
every step, so stage 2 computes them once and fits the decoder on them as a
linear probe (classifier re-training, cRT, Kang et al. 2020).

Every stochastic choice is keyed off the run seed through named child
streams, so a configuration that drops a component leaves the remaining
draws untouched and runs rerun bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .augment import AugSchedule, CategoryStats, init_stats, update_stats
from .data import (
    LongTailDataset,
    batch_stream,
    build_profile,
    make_mixture_spec,
    split_classes,
    synthesize_mixture,
)
from .diffcore import ForwardTape, Tape
from .model import (
    EncoderConfig,
    LossWeights,
    ModelConfig,
    ModelParams,
    decode,
    forward,
    init_model,
    objective,
)
from .tensorio import canonical_json, content_hash

RESULTS_FORMAT_VERSION = 2
VOLATILE_KEYS = ("created_at", "wall_time_s")
DIVERGENCE_LIMIT = 1e6
# Position columns (samples x P) per forward-only scoring pass: the width,
# not the sample count, sets a pass's working set, and with it whether the
# allocator hands the pass's pages back to the system and faults them in
# again. Measured in fresh processes on a 2-core VM (numpy 2.4, one BLAS
# thread) scoring 40,000 vector samples: 256 columns give 1.1-1.4M samples/s
# (per-call overhead), 2,048 and 4,096 give 1.5-2.1M with no faults (one run
# of three faulted 6,004 pages per pass at 2,048, at 0.95M), and 1,024 and
# 8,192 fault 5,383 and 3,006 pages per pass at 1.0-1.7M. At P = 25, 6,400
# columns (256 maps) fault ~18,700 pages per 3,000-map pass and 2,025 (81
# maps) ~11,700, both in a process that has freed no block of a few MB; once
# it has (training does), 2,025 fault none. The width also sets the gemm
# blocking of every score, so a new width can change the bytes of an
# evaluation record.
EVAL_COLUMNS = 2048


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic long-tailed classification task: a Gaussian mixture whose
    training split follows a decaying count profile and whose test split is
    balanced."""
    num_classes: int = 10
    input_dim: int = 8
    n_max: int = 500
    imbalance: float = 100.0
    profile: str = "exponential"
    mean_scale: float = 1.0
    stdev: float = 1.0
    test_per_class: int = 200

    def __post_init__(self):
        if self.test_per_class < 1:
            raise ValueError("TaskSpec: test_per_class must be >= 1")


# What each training variant turns on; ``TrainConfig.variant`` names one row.
# ``aug_on`` is the semantic augmentation bound: the latent bound with a pool,
# raw ISDA on class statistics of the pooled features without one.
COMPONENT_GRID: dict[str, dict] = {
    "baseline": dict(latent_on=False, recon_on=False, aug_on=False),
    "latent": dict(latent_on=True, recon_on=False, aug_on=False),
    "latent_recon": dict(latent_on=True, recon_on=True, aug_on=False),
    "latent_aug": dict(latent_on=True, recon_on=False, aug_on=True),
    "full": dict(latent_on=True, recon_on=True, aug_on=True),
    "raw_isda": dict(latent_on=False, recon_on=False, aug_on=True),
}


def _grid_flag(flag: str) -> property:
    return property(lambda cfg: COMPONENT_GRID[cfg.variant][flag])


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the task itself."""
    hidden: tuple[int, ...] = (32,)
    feature_dim: int = 16
    num_latents: int = 24
    t1_iters: int = 3000
    t2_iters: int = 500
    batch_size: int = 64
    lr: float = 0.1
    lr_decay_points: tuple[float, ...] = (0.6, 0.8)
    lr_decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lambda0: float = 0.25
    alpha: float = 0.1
    beta: float = 0.1
    gamma: float = 1.0
    seed: int = 0
    variant: str = "full"
    stage2_lr: float = 0.01
    log_every: int = 100

    # read-only switches of the variant's COMPONENT_GRID row
    latent_on = _grid_flag("latent_on")
    recon_on = _grid_flag("recon_on")
    aug_on = _grid_flag("aug_on")

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "lr_decay_points",
                           tuple(float(p) for p in self.lr_decay_points))
        if self.variant not in COMPONENT_GRID:
            raise ValueError(f"TrainConfig: unknown variant {self.variant!r} "
                             f"(one of {', '.join(COMPONENT_GRID)})")
        if self.t1_iters < 1 or self.t2_iters < 0 or self.batch_size < 1:
            raise ValueError("TrainConfig: bad loop sizes")
        if self.log_every < 1:
            raise ValueError("TrainConfig: log_every must be >= 1")


def stage2_stream_seed(seed: int) -> int:
    """Stage 2 samples from its own stream, disjoint from stage 1."""
    return int(np.random.SeedSequence([int(seed), 43]).generate_state(1)[0])


def test_draw_seed(seed: int) -> int:
    return int(np.random.SeedSequence([int(seed), 29]).generate_state(1)[0])


def make_task_data(task: TaskSpec, seed: int) -> tuple[LongTailDataset, LongTailDataset]:
    """(long-tailed train split, balanced test split) for one run seed."""
    spec = make_mixture_spec(task.num_classes, task.input_dim, seed,
                             mean_scale=task.mean_scale, stdev=task.stdev)
    counts = build_profile(task.num_classes, task.n_max, task.imbalance, task.profile)
    train = synthesize_mixture(spec, counts)
    test_counts = np.full(task.num_classes, task.test_per_class, dtype=np.int64)
    test = synthesize_mixture(spec, test_counts, seed=test_draw_seed(seed))
    return train, test


def lr_at(cfg: TrainConfig, t: int) -> float:
    passed = sum(1 for frac in cfg.lr_decay_points if t >= int(frac * cfg.t1_iters))
    return cfg.lr * cfg.lr_decay_factor ** passed


class SGD:
    """Momentum SGD; weight decay is added to the gradient of listed
    parameters at step time.

    The optimizer keeps every value, gradient and velocity in one flat
    buffer each, the decayed parameters first, so a step and ``zero_grad``
    are a few whole-buffer numpy calls. Building it copies the current
    values and gradients in and rebinds each ``Parameter.value.data`` and
    ``.grad.data`` to a view of its buffers. The last SGD built over a
    parameter owns that parameter's storage: stage 2's optimizer over
    ``dec.w``/``dec.b`` takes them out of the stage-1 buffers, whose slots
    for them go stale.
    """

    def __init__(self, params, lr, momentum, weight_decay, decay_params=()):
        params = list(params)
        if len({id(p) for p in params}) != len(params):
            raise ValueError("SGD: a parameter is listed twice")
        decay_ids = {id(p) for p in decay_params}
        decayed = [p for p in params if id(p) in decay_ids]
        self.params = decayed + [p for p in params if id(p) not in decay_ids]
        self.decay_size = sum(p.value.data.size for p in decayed)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.value = np.concatenate([p.value.data.reshape(-1) for p in self.params])
        self.grad = np.concatenate([p.grad.data.reshape(-1) for p in self.params])
        self.velocity = np.zeros_like(self.value)
        start = 0
        for p in self.params:
            shape, end = p.value.shape, start + p.value.data.size
            p.value.data = self.value[start:end].reshape(shape)
            p.grad.data = self.grad[start:end].reshape(shape)
            start = end

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self):
        k = self.decay_size
        g = self.grad.copy()
        g[:k] = self.grad[:k] + self.weight_decay * self.value[:k]
        self.velocity *= self.momentum
        self.velocity += g
        self.value -= self.lr * self.velocity


@dataclass(frozen=True)
class EvalReport:
    """Balanced-test accuracy overall, per class, and by frequency group.

    Group accuracies are sample-weighted: overall equals the count-weighted
    mean of the group accuracies up to rounding. A group with no test sample
    (say ``many`` when no class has more than 100 training samples) has no
    accuracy: None."""
    overall: float
    many: float | None
    medium: float | None
    few: float | None
    per_class: np.ndarray
    group_counts: dict

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "many": self.many,
            "medium": self.medium,
            "few": self.few,
            "per_class": [float(a) for a in self.per_class],
            "group_counts": dict(self.group_counts),
        }


def eval_chunks(params: ModelParams, n: int) -> list[slice]:
    """The sample slices one scoring pass over ``n`` samples takes: each
    holds ``EVAL_COLUMNS`` position columns of ``params``'s model."""
    width = max(1, EVAL_COLUMNS // params.config.encoder.positions)
    return [slice(start, start + width) for start in range(0, n, width)]


def evaluate(params: ModelParams, dataset: LongTailDataset, train_counts) -> EvalReport:
    """Accuracy on ``dataset``; groups come from the training-set counts."""
    c = dataset.num_classes
    labels = dataset.labels
    pred = np.empty(len(labels), dtype=np.intp)
    for chunk in eval_chunks(params, len(labels)):
        logits = forward(ForwardTape(), params, dataset.samples[chunk]).logits.data
        pred[chunk] = logits.argmax(axis=1)
    correct = np.bincount(labels[pred == labels], minlength=c)
    total = np.bincount(labels, minlength=c)
    per_class = np.where(total > 0, correct / np.maximum(total, 1), 0.0)
    split = split_classes(train_counts)

    def group_acc(classes) -> tuple[float | None, int]:
        idx = sorted(classes)
        n = int(total[idx].sum()) if idx else 0
        if n == 0:
            return None, 0
        return float(correct[idx].sum() / n), n

    many, n_many = group_acc(split.many)
    medium, n_medium = group_acc(split.medium)
    few, n_few = group_acc(split.few)
    overall = float(correct.sum() / max(total.sum(), 1))
    return EvalReport(
        overall=overall, many=many, medium=medium, few=few, per_class=per_class,
        group_counts={"many": n_many, "medium": n_medium, "few": n_few},
    )


@dataclass
class TrainResult:
    params: ModelParams
    stats: CategoryStats | None
    history: list[dict]  # logged steps: stage, iter, then that stage's losses
    report: EvalReport | None
    diverged: bool
    diverged_at: int | None
    wall_time_s: float


def model_config(cfg: TrainConfig, task: TaskSpec) -> ModelConfig:
    enc = EncoderConfig((task.input_dim,), cfg.hidden, cfg.feature_dim)
    return ModelConfig(enc, task.num_classes, cfg.num_latents, latent_on=cfg.latent_on)


def check_splits(cfg: TrainConfig, task: TaskSpec,
                 splits: tuple[LongTailDataset, LongTailDataset]) -> None:
    """ValueError unless the (train, test) splits both hold samples of the
    model's input shape over the task's classes."""
    want = (task.num_classes, model_config(cfg, task).encoder.input_shape)
    for name, split in zip(("train", "test"), splits):
        if (split.num_classes, split.sample_shape) != want:
            raise ValueError(f"{name} split has {split.num_classes} classes of shape "
                             f"{split.sample_shape}, not {want[0]} of {want[1]}")


def run_training(cfg: TrainConfig, task: TaskSpec,
                 datasets: tuple[LongTailDataset, LongTailDataset] | None = None
                 ) -> TrainResult:
    """One full two-stage run; returns the trained model and its report.

    ValueError, before any step, for splits that fail ``check_splits`` or,
    when stage 2 runs, for a training split with a class that has no sample:
    its class-balanced stream draws from every class."""
    t_start = time.perf_counter()
    train_ds, test_ds = datasets if datasets is not None else make_task_data(task, cfg.seed)
    check_splits(cfg, task, (train_ds, test_ds))
    empty = np.flatnonzero(train_ds.counts == 0)
    if cfg.t2_iters > 0 and empty.size:
        raise ValueError(f"run_training: class {empty[0]} has no training sample, "
                         f"so stage 2 cannot draw it")
    params = init_model(model_config(cfg, task), cfg.seed)
    weights = LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
    pool = params.pool
    schedule = AugSchedule(cfg.lambda0, cfg.t1_iters)
    stats = None
    if cfg.aug_on:
        categories = task.num_classes if pool is None else cfg.num_latents
        stats = init_stats(categories, cfg.feature_dim)

    history: list[dict] = []
    diverged = False
    diverged_at = None

    latent_ids = np.arange(cfg.num_latents)
    stream = batch_stream(train_ds, "instance_balanced", cfg.batch_size, cfg.seed)
    opt = SGD(params.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay,
              decay_params=params.decay_parameters())
    for t in range(cfg.t1_iters):
        opt.lr = lr_at(cfg, t)
        idx = next(stream)
        xb, yb = train_ds.samples[idx], train_ds.labels[idx]
        tape = Tape()
        fwd = forward(tape, params, xb, with_recon_corr=cfg.recon_on)
        if cfg.aug_on and pool is None:
            # raw ISDA: class-conditional stats over pooled features take in
            # the batch before the bound, so the bound sees it
            stats = update_stats(stats, fwd.pooled.data.T, yb)
        breakdown, loss = objective(tape, params, fwd, yb, stats,
                                    schedule.lambda_at(t + 1), weights, cfg.aug_on)
        del fwd  # the replay frees each map as its entry replays
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
        if cfg.aug_on and pool is not None:
            # each step contributes the current latents as one observation
            # per category, so counts equal the iteration number
            stats = update_stats(stats, pool.features.value.data, latent_ids)
        if not np.isfinite(breakdown.total) or abs(breakdown.total) > DIVERGENCE_LIMIT:
            diverged, diverged_at = True, t
            break
        if (t + 1) % cfg.log_every == 0 or t + 1 == cfg.t1_iters:
            history.append({"stage": 1, "iter": t + 1, **asdict(breakdown)})

    if not diverged and cfg.t2_iters > 0:
        stream2 = batch_stream(train_ds, "class_balanced", cfg.batch_size,
                               stage2_stream_seed(cfg.seed))
        opt2 = SGD(params.stage2_trainable(), cfg.stage2_lr, cfg.momentum,
                   cfg.weight_decay, decay_params=params.stage2_trainable())
        pooled = forward(ForwardTape(), params, train_ds.samples).pooled.data
        for t in range(cfg.t2_iters):
            idx = next(stream2)
            tape = Tape()
            logits = decode(tape, params, tape.constant(pooled[:, idx]))
            loss = tape.cross_entropy(logits, train_ds.labels[idx])
            opt2.zero_grad()
            tape.backward(loss)
            opt2.step()
            value = loss.item()
            if not np.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
                diverged, diverged_at = True, cfg.t1_iters + t
                break
            if (t + 1) % cfg.log_every == 0 or t + 1 == cfg.t2_iters:
                history.append({"stage": 2, "iter": t + 1, "cls": value})

    report = None if diverged else evaluate(params, test_ds, train_ds.counts)
    return TrainResult(
        params=params, stats=stats, history=history, report=report,
        diverged=diverged, diverged_at=diverged_at,
        wall_time_s=time.perf_counter() - t_start,
    )


# -- run records ----------------------------------------------------------


def config_dict(cfg: TrainConfig, task: TaskSpec) -> dict:
    d = {"task": asdict(task), "train": asdict(cfg)}
    d["train"]["hidden"] = list(cfg.hidden)
    d["train"]["lr_decay_points"] = list(cfg.lr_decay_points)
    return d


def config_hash(cfg: TrainConfig, task: TaskSpec) -> str:
    return content_hash(config_dict(cfg, task))


def make_run_record(cfg: TrainConfig, task: TaskSpec, result: TrainResult) -> dict:
    return {
        "format_version": RESULTS_FORMAT_VERSION,
        "config": config_dict(cfg, task),
        "config_hash": config_hash(cfg, task),
        "seed": cfg.seed,
        "metrics": result.report.to_dict() if result.report is not None else None,
        "history": result.history,
        "diverged": result.diverged,
        "diverged_at": result.diverged_at,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_time_s": result.wall_time_s,
    }


def canonical_record_bytes(record: dict) -> bytes:
    """Record serialization with volatile fields removed; two runs of the
    same config must agree on this byte string exactly."""
    pruned = {k: v for k, v in record.items() if k not in VOLATILE_KEYS}
    return canonical_json(pruned)


# -- study grids ---------------------------------------------------------


def grid_config_dict(cfg: TrainConfig, task: TaskSpec, rows: dict) -> dict:
    """The config a study grid stores and hashes: ``config_dict`` without
    the ``task`` and ``train`` fields that every row overrides, and without
    ``seed``, which each cell takes from the grid's seeds."""
    d = config_dict(cfg, task)
    dropped = set(d["task"]).union(d["train"]).intersection(*rows.values()) | {"seed"}
    for part in d.values():
        for key in dropped.intersection(part):
            del part[key]
    return d


# one row per training variant
COMPONENT_ROWS = {name: {"variant": name} for name in COMPONENT_GRID}
TASK_FIELDS = frozenset(f.name for f in fields(TaskSpec))


def _mean_known(values) -> float | None:
    """Mean over the runs that have a value (a group accuracy is None where
    the group is empty); None if none has."""
    known = [v for v in values if v is not None]
    return float(np.mean(known)) if known else None


def run_ablation(base_cfg: TrainConfig, task: TaskSpec, seeds,
                 rows: dict = COMPONENT_ROWS) -> dict:
    """A study grid. ``rows`` maps each row name to the TaskSpec and
    TrainConfig fields it overrides; the two share no field name, so the
    name says which one a field belongs to. Cells with the same task and
    seed share one dataset. Every dataset is made before any cell trains,
    so a task whose samples overflow float32 (NonFiniteSampleError) stops
    the grid at once.

    Returns the grid file: {"config": grid_config_dict(...), "seeds": [...],
    "rows": {name: {"seeds": {seed: metrics-or-error}}},
    "summary": {name: mean metrics over clean runs}}. A row that overrides
    TaskSpec fields also stores them, as "task": {field: value}.
    """
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"run_ablation: repeated seed in {seeds}")
    out: dict = {"config": grid_config_dict(base_cfg, task, rows),
                 "seeds": seeds, "rows": {}, "summary": {}}
    task_overrides = {name: {k: v for k, v in overrides.items() if k in TASK_FIELDS}
                      for name, overrides in rows.items()}
    row_tasks = {name: replace(task, **task_overrides[name]) for name in rows}
    datasets = {(row_task, s): make_task_data(row_task, s)
                for row_task in dict.fromkeys(row_tasks.values()) for s in seeds}
    for name, overrides in rows.items():
        train_overrides = {k: v for k, v in overrides.items() if k not in TASK_FIELDS}
        row_task = row_tasks[name]
        per_seed = {}
        for s in seeds:
            cfg = replace(base_cfg, seed=s, **train_overrides)
            result = run_training(cfg, row_task, datasets=datasets[row_task, s])
            if result.diverged:
                per_seed[s] = {"error": "diverged", "at": result.diverged_at}
            else:
                per_seed[s] = result.report.to_dict()
        out["rows"][name] = {"seeds": per_seed}
        if task_overrides[name]:
            # format_grid compares a row with baseline only on the same task
            out["rows"][name]["task"] = task_overrides[name]
        clean = [m for m in per_seed.values() if "error" not in m]
        if clean:
            out["summary"][name] = {
                key: _mean_known([m[key] for m in clean])
                for key in ("overall", "many", "medium", "few")
            }
            out["summary"][name]["num_clean"] = len(clean)
        else:
            out["summary"][name] = {"num_clean": 0}
    return out
