"""The three workloads: inputs made from the seed, one round of operations,
and the correctness checks run after the timed rounds.

A round always performs the same operations on the same inputs, so every
round of a run must produce the same records (checked by digest), and the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from lcreg import augment, baseline, cli, data, latent, model, tensorio, trainer
from lcreg.diffcore import Tape

# Short operations (evaluation, write/read round trips) are repeated and the
# run reports the median of all passes, so one slow spell moves it little.
# The host's speed changes by up to 2x from one tenth of a second to the
# next, so each workload spreads its passes over seconds of its run.


@dataclass
class RoundStats:
    attempted: int
    failed: int
    train_samples: int
    train_s: float
    eval_samples: int
    eval_s: dict[str, list[float]]  # pass times per scored item
    io_s: dict[str, list[float]]    # round-trip times per stored item
    wall_s: float = 0.0


def derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1)[0])


def digest(record: dict) -> str:
    return hashlib.sha256(trainer.canonical_record_bytes(record)).hexdigest()


def _passes(fn, passes: int, cleanup=None) -> list[float]:
    """Times ``passes`` calls of ``fn``; ``cleanup`` runs untimed after each.

    Round trips remove what they wrote in ``cleanup``, so every timed write
    makes a new file: rewriting a file in place makes ext4 start writeback
    of the old blocks on close, which times the shared disk, not the code."""
    times = []
    for _ in range(passes):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
        if cleanup is not None:
            cleanup()
    return times


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _arrays(params) -> dict:
    return {p.id: p.value.data for p in params.parameters()}


def _stats_arrays(stats) -> dict:
    return {"count": stats.count, "mean": stats.mean, "cov": stats.cov}


class Workload:
    """Shared plumbing: the tracer (set during traced rounds only), per-round
    record digests and op failures."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.tracer = None
        self.round_digests: list[dict[str, str]] = []
        self.op_errors: list[str] = []
        self.row_seconds: dict[str, float] = {}
        self.row_calls: dict[str, dict[str, float]] = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def determinism_errors(self) -> list[str]:
        first = self.round_digests[0]
        for k, later in enumerate(self.round_digests[1:], 2):
            for key, value in first.items():
                if later.get(key) != value:
                    return [f"round {k} record {key} differs from round 1 "
                            f"({later.get(key)} vs {value})"]
        return []

    def digests(self) -> dict[str, str]:
        return self.round_digests[-1] if self.round_digests else {}

    def traced_check(self) -> list[str]:
        """Checks that need the traced run's per-call counts."""
        return []

    def known_failures(self) -> list[str]:
        return []


# -- ablation_vec ---------------------------------------------------------------


class AblationVec(Workload):
    """The shipped six-row component grid on one seed, default vector
    protocol, then each row's model scored on a large balanced split and
    checkpointed."""

    name = "ablation_vec"
    EVAL_PER_CLASS = 4000
    # per row, right after it trains: about 1 s of scoring and 1 s of round
    # trips, six stretches spread over the grid
    EVAL_PASSES, IO_PASSES = 15, 1000

    def setup(self) -> None:
        self.task = trainer.TaskSpec()
        self.cfg = trainer.TrainConfig(seed=self.seed)
        task = self.task
        spec = data.make_mixture_spec(task.num_classes, task.input_dim, self.seed,
                                      mean_scale=task.mean_scale, stdev=task.stdev)
        self.big_test = data.synthesize_mixture(
            spec, np.full(task.num_classes, self.EVAL_PER_CLASS),
            seed=derived_seed(self.seed, 997))
        self.train_counts = data.build_profile(task.num_classes, task.n_max,
                                               task.imbalance, task.profile)
        warm = replace(self.cfg, t1_iters=30, t2_iters=10, log_every=10)
        trainer.run_ablation(warm, task, [self.seed])

    def _row_name(self, cfg) -> str:
        for name, flags in trainer.COMPONENT_GRID.items():
            if all(getattr(cfg, k) == v for k, v in flags.items()):
                return name
        raise KeyError("configuration matches no grid row")

    def round(self) -> RoundStats:
        """The grid; each row is scored and checkpointed as soon as it has
        trained, so these short measurements spread over the whole round."""
        runs: dict[str, tuple] = {}
        inner = trainer.run_training
        tracer = self.tracer
        spans = ("augment.bound", "augment.classwise", "latent.reconstruct")
        ckpt_dir = self.workdir / "ablation_ckpt"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.loaded = {}
        eval_s: dict[str, list[float]] = {}
        io_s: dict[str, list[float]] = {}

        def calls():
            tracer.fold()
            return {span: tracer.stats(span)[0] for span in spans}

        def capture(cfg, task, datasets=None):
            before = calls() if tracer is not None else None
            t = time.perf_counter()
            result = inner(cfg, task, datasets=datasets)
            wall = time.perf_counter() - t
            name = self._row_name(cfg)
            runs[name] = (cfg, result, wall)
            if tracer is not None:
                after = calls()
                self.row_calls[name] = {k: after[k] - before[k] for k in spans}

            def score():
                trainer.evaluate(result.params, self.big_test, self.train_counts)

            def roundtrip():
                path = ckpt_dir / f"{name}.lct"
                model.save_model(path, result.params, result.stats,
                                 iteration=cfg.t1_iters + cfg.t2_iters)
                self.loaded[name] = model.load_model(path, result.params.config)

            eval_s[name] = _passes(score, self.EVAL_PASSES)
            io_s[name] = _passes(roundtrip, self.IO_PASSES,
                                 cleanup=(ckpt_dir / f"{name}.lct").unlink)
            return result

        trainer.run_training = capture
        try:
            trainer.run_ablation(self.cfg, self.task, [self.seed])
        finally:
            trainer.run_training = inner

        failed = 0
        for name, (_, result, _) in runs.items():
            if result.diverged:
                failed += 1
                self.op_errors.append(f"row {name} diverged at {result.diverged_at}")
        self.runs = runs
        self.row_seconds = {name: wall for name, (_, _, wall) in runs.items()}
        steps = self.cfg.t1_iters + self.cfg.t2_iters
        self.round_digests.append({
            name: digest(trainer.make_run_record(cfg, self.task, result))
            for name, (cfg, result, _) in runs.items()
        })
        return RoundStats(attempted=3 * len(runs), failed=failed,
                          train_samples=len(runs) * steps * self.cfg.batch_size,
                          train_s=sum(self.row_seconds.values()),
                          eval_samples=len(runs) * len(self.big_test.labels), eval_s=eval_s,
                          io_s=io_s)

    def check(self) -> list[str]:
        errors = list(self.op_errors) + self.determinism_errors()
        errors += self._check_baseline()
        for name in ("latent_aug", "full"):
            errors += self._check_bound(name)
        for name, (_, result, _) in self.runs.items():
            errors += checks.check_bit_exact(f"{name} checkpoint",
                                             _arrays(self.loaded[name][0]),
                                             _arrays(result.params))
        return errors

    def traced_check(self) -> list[str]:
        errors = []
        for name in ("baseline", "latent"):
            calls = self.row_calls.get(name, {})
            for span in ("augment.bound", "augment.classwise"):
                if calls.get(span, 0.0) != 0.0:
                    errors.append(f"row {name} made {calls[span]:.0f} {span} calls")
        return errors

    def _check_baseline(self) -> list[str]:
        cfg, result, _ = self.runs["baseline"]
        train, test = trainer.make_task_data(self.task, self.seed)
        ref_model, ref_report = baseline.train_baseline(cfg, train, test)
        errors = checks.check_close_dicts("baseline params", _arrays(result.params),
                                          ref_model.named(), 1e-10)
        metrics = result.report.to_dict()
        want = {k: ref_report[k] for k in ("overall", "many", "medium", "few", "per_class")}
        return errors + checks.check_close_dicts("baseline metrics", metrics, want, 1e-10)

    def _check_bound(self, name: str) -> list[str]:
        cfg, result, _ = self.runs[name]
        params, stats = result.params, result.stats
        lam = augment.AugSchedule(cfg.lambda0, cfg.t1_iters).lambda_at(cfg.t1_iters)
        tape = Tape()
        nodes = (tape.use(params.pool.features), tape.use(params.lat_w), tape.use(params.lat_b))
        z = augment.latent_aug_logits(tape, *nodes, stats, lam).data
        loss = augment.isda_upper_bound_loss(tape, *nodes, stats, lam).item()
        errors = checks.check_isda_bound(loss, z, params.pool.features.value.data,
                                         params.lat_w.value.data, params.lat_b.value.data,
                                         stats.cov, lam)
        errors += checks.check_counts(stats.count, cfg.t1_iters)
        return [f"{name}: {e}" for e in errors]


# -- spatial_recon --------------------------------------------------------------


def spatial_means(num_classes: int, height: int, width: int, amplitude: float,
                  placements: int, seed: int) -> np.ndarray:
    """Class c's mean map: its own random 3x3 pattern added at ``placements``
    positions aligned to the stride-2 grid; flattened to [C, H*W]."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 211]))
    means = np.zeros((num_classes, height, width))
    for c in range(num_classes):
        pattern = rng.standard_normal((3, 3))
        for _ in range(placements):
            y = 2 * int(rng.integers(0, (height - 3) // 2 + 1))
            x = 2 * int(rng.integers(0, (width - 3) // 2 + 1))
            means[c, y:y + 3, x:x + 3] += amplitude * pattern
    return means.reshape(num_classes, height * width)


class SpatialRecon(Workload):
    """Stage-1 training of a conv model (1x11x11 input, P = 25) on the full
    objective, with checkpoint round trips and evaluation of the model
    between stretches of steps."""

    name = "spatial_recon"
    CLASSES, HEIGHT, WIDTH = 10, 11, 11
    HIDDEN, FEATURES, LATENTS, BATCH = (8,), 16, 24, 64
    STEPS = 300
    CKPT_EVERY, CKPT_PASSES = 10, 5   # round trips every 10 steps, timed apart
    EVAL_EVERY = 50                   # one evaluation pass every 50 steps
    N_MAX, IMBALANCE, TEST_PER_CLASS = 500, 100.0, 300
    AMPLITUDE, PLACEMENTS = 1.0, 3

    def setup(self) -> None:
        means = spatial_means(self.CLASSES, self.HEIGHT, self.WIDTH, self.AMPLITUDE,
                              self.PLACEMENTS, self.seed)
        spec = data.MixtureSpec(self.CLASSES, self.HEIGHT * self.WIDTH, means, 1.0, self.seed)
        shape = (1, self.HEIGHT, self.WIDTH)

        def as_maps(ds):
            return data.LongTailDataset(ds.samples.reshape((-1,) + shape), ds.labels,
                                        ds.counts, ds.seed)

        counts = data.build_profile(self.CLASSES, self.N_MAX, self.IMBALANCE)
        self.train = as_maps(data.synthesize_mixture(spec, counts))
        self.test = as_maps(data.synthesize_mixture(
            spec, np.full(self.CLASSES, self.TEST_PER_CLASS),
            seed=trainer.test_draw_seed(self.seed)))
        enc = model.image_encoder(1, self.HEIGHT, self.WIDTH, self.HIDDEN, self.FEATURES)
        self.model_cfg = model.ModelConfig(enc, self.CLASSES, self.LATENTS)
        self.cfg = trainer.TrainConfig(t1_iters=self.STEPS, t2_iters=0, seed=self.seed,
                                       feature_dim=self.FEATURES, num_latents=self.LATENTS,
                                       batch_size=self.BATCH)
        self._train_run(steps=10)

    def _train_run(self, steps: int, between=None):
        """``steps`` stage-1 steps; ``between(params, stats, step)`` is
        called every ``CKPT_EVERY`` steps and after the last one, and returns
        the seconds it took."""
        cfg = replace(self.cfg, t1_iters=steps)
        params = model.init_model(self.model_cfg, cfg.seed)
        stats = augment.init_stats(cfg.num_latents, cfg.feature_dim)
        schedule = augment.AugSchedule(cfg.lambda0, steps)
        weights = model.LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
        opt = trainer.SGD(params.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay,
                          decay_params=params.decay_parameters())
        stream = data.batch_stream(self.train, "instance_balanced", cfg.batch_size, cfg.seed)
        history = {"total": [], "cls": [], "recon": [], "latent_aug": []}
        latent_ids = np.arange(cfg.num_latents)
        self.between_s = 0.0
        for t0 in range(0, steps, self.CKPT_EVERY):
            # a span per stretch of steps: step intervals never cover `between`
            with self.span("bench.spatial_steps"):
                for t in range(t0, min(t0 + self.CKPT_EVERY, steps)):
                    opt.lr = trainer.lr_at(cfg, t)
                    idx = next(stream)
                    xb, yb = self.train.samples[idx], self.train.labels[idx]
                    tape = Tape()
                    breakdown, loss, _ = model.total_loss(
                        tape, params, xb, yb, stats, schedule.lambda_at(t + 1), weights,
                        recon_on=True, aug_on=True)
                    opt.zero_grad()
                    tape.backward(loss)
                    opt.step()
                    stats = augment.update_stats(stats, params.pool.features.value.data,
                                                 latent_ids)
                    for key in history:
                        history[key].append(getattr(breakdown, key))
            if between is not None:
                self.between_s += between(params, stats, t + 1)
        return params, stats, history, (xb, yb)

    def round(self) -> RoundStats:
        path = self.workdir / "spatial.lct"
        path.parent.mkdir(parents=True, exist_ok=True)
        io_times: list[float] = []
        eval_times: list[float] = []
        reports = []

        def between(params, stats, step) -> float:
            def roundtrip():
                model.save_model(path, params, stats, iteration=step)
                self.loaded = model.load_model(path, self.model_cfg)

            def score():
                reports.append(trainer.evaluate(params, self.test, self.train.counts))

            t = time.perf_counter()
            io_times.extend(_passes(roundtrip, self.CKPT_PASSES, cleanup=path.unlink))
            if step % self.EVAL_EVERY == 0 or step == self.STEPS:
                eval_times.extend(_passes(score, 1))
            return time.perf_counter() - t

        # the last call is at step STEPS: self.loaded and reports[-1] are the
        # final model's
        t = time.perf_counter()
        params, stats, history, last_batch = self._train_run(self.STEPS, between)
        train_s = time.perf_counter() - t - self.between_s
        report = reports[-1]

        eval_s = {"model": eval_times}
        io_s = {"checkpoint": io_times}
        self.params, self.stats, self.history = params, stats, history
        self.last_batch, self.report = last_batch, report
        record = {"config": {"model": repr(self.model_cfg), "train": repr(self.cfg),
                             "seed": self.seed},
                  "history": history, "metrics": report.to_dict()}
        self.round_digests.append({"spatial": digest(record)})
        return RoundStats(attempted=3, failed=0,
                          train_samples=self.STEPS * self.BATCH, train_s=train_s,
                          eval_samples=len(self.test.labels), eval_s=eval_s, io_s=io_s)

    def check(self) -> list[str]:
        errors = list(self.op_errors) + self.determinism_errors()
        params = self.params
        xb, _ = self.last_batch
        tape = Tape()
        fwd = model.forward(tape, params, xb, with_recon_corr=True)
        tape_recon = latent.reconstruction_loss(tape, fwd.recon).item()
        enc = params.encoder
        layers = [(enc[i].value.data, enc[i + 1].value.data) for i in range(0, len(enc), 2)]
        f, positions = checks.conv_features_numpy(xb, layers)
        pool = params.pool
        encoded, norm = checks.similarity_numpy(pool.features.value.data, pool.enc_w.value.data,
                                                pool.enc_b.value.data, f)
        errors += checks.check_recon_loss(
            tape_recon, checks.recon_loss_numpy(encoded, norm, f, positions))
        errors += checks.check_columns_sum_to_one(fwd.sims.normalized.data)
        errors += checks.check_descends("total loss", self.history["total"])
        errors += checks.check_descends("reconstruction loss", self.history["recon"])
        errors += checks.check_above_chance(self.report.overall, self.CLASSES)
        loaded, stats, _ = self.loaded
        errors += checks.check_bit_exact("spatial checkpoint", _arrays(loaded), _arrays(params))
        errors += checks.check_bit_exact("spatial stats", _stats_arrays(stats),
                                         _stats_arrays(self.stats))
        return errors


# -- eval_io -------------------------------------------------------------------------


class EvalIO(Workload):
    """The command line in-process: build-dataset, eval and report on a large
    balanced test split, dataset and checkpoint round trips, and the
    from-cache versus synthesized training comparison."""

    name = "eval_io"
    TEST_PER_CLASS = 5000
    T1, T2 = 300, 100
    EVAL_PASSES, IO_PASSES = 6, 25   # per round

    def setup(self) -> None:
        overrides = [f"task.test_per_class={self.TEST_PER_CLASS}",
                     f"train.t1_iters={self.T1}", f"train.t2_iters={self.T2}",
                     "train.log_every=50"]
        self.sets = [arg for kv in overrides for arg in ("--set", kv)]
        self.sets += ["--seed", str(self.seed)]
        self.task, self.cfg = cli.load_settings(None, overrides, self.seed)
        self.ckpt_dir = _fresh_dir(self.workdir / "setup_ckpt")
        self._cli("build-dataset")
        self._cli("train", "--out", str(self.ckpt_dir))
        self.ckpt = self.ckpt_dir / "model.lct"
        self.model_cfg = trainer.model_config(self.cfg, self.task)
        self.params, self.stats, self.iteration = model.load_model(self.ckpt, self.model_cfg)
        self.train, self.test = trainer.make_task_data(self.task, self.seed)

    def _cli(self, command: str, *extra: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, *extra, *self.sets])
        if rc != 0:
            self.op_errors.append(f"lcreg {command} exited {rc}: {err.getvalue().strip()}")
        return rc, out.getvalue()

    def round(self) -> RoundStats:
        failed = 0
        rc, _ = self._cli("build-dataset")
        failed += rc != 0

        codes = []

        def score():
            rc, out = self._cli("eval", "--model", str(self.ckpt))
            codes.append(rc)
            self.eval_report = json.loads(out) if rc == 0 else None

        eval_s = {"eval": _passes(score, self.EVAL_PASSES)}
        failed += any(codes)

        self.csv_path = self.workdir / "usage.csv"
        rc, _ = self._cli("report", "--model", str(self.ckpt),
                          "--histogram-csv", str(self.csv_path))
        failed += rc != 0

        corpus_dir = self.workdir / "corpus"
        ckpt_path = self.workdir / "roundtrip.lct"

        def roundtrip():
            data.save_dataset(self.test, corpus_dir)
            self.loaded_corpus = data.load_dataset(corpus_dir)
            model.save_model(ckpt_path, self.params, self.stats, iteration=self.iteration)
            self.loaded_ckpt = model.load_model(ckpt_path, self.model_cfg)

        def cleanup():
            shutil.rmtree(corpus_dir)
            ckpt_path.unlink()

        io_s = {"corpus_and_checkpoint": _passes(roundtrip, self.IO_PASSES, cleanup)}

        cached_dir = _fresh_dir(self.workdir / "from_cache")
        plain_dir = _fresh_dir(self.workdir / "synthesized")
        t = time.perf_counter()
        rc_a, _ = self._cli("train", "--out", str(cached_dir), "--from-cache")
        rc_b, _ = self._cli("train", "--out", str(plain_dir))
        train_s = time.perf_counter() - t
        digests = {"eval": hashlib.sha256(json.dumps(self.eval_report, sort_keys=True)
                                          .encode()).hexdigest()}
        if rc_a == 0 and rc_b == 0:
            for label, d in (("train_from_cache", cached_dir), ("train_synthesized", plain_dir)):
                digests[label] = digest(json.loads((d / "results.json").read_text()))
            self.cache_match = digests["train_from_cache"] == digests["train_synthesized"]
        else:
            self.cache_match = False
        failed += not self.cache_match
        self.round_digests.append(digests)
        return RoundStats(attempted=6, failed=int(failed),
                          train_samples=2 * (self.T1 + self.T2) * self.cfg.batch_size,
                          train_s=train_s, eval_samples=len(self.test.labels), eval_s=eval_s,
                          io_s=io_s)

    def known_failures(self) -> list[str]:
        if self.cache_match:
            return []
        d = self.digests()
        return [f"cache_determinism: `lcreg train --from-cache` record "
                f"{d.get('train_from_cache', '?')[:16]} != synthesized "
                f"{d.get('train_synthesized', '?')[:16]} (the corpus cache stores float32)"]

    def check(self) -> list[str]:
        errors = list(self.op_errors) + self.determinism_errors()
        if self.eval_report is None:
            return errors + ["lcreg eval produced no report"]
        tensors, _ = tensorio.load_tensors(self.ckpt)
        logits = checks.vector_logits_numpy(tensors, self.test.samples)
        errors += checks.check_per_class(self.eval_report["per_class"], logits, self.test.labels)
        with open(self.csv_path, newline="") as fh:
            rows = [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
        errors += checks.check_rows_sum_to_one(np.array(rows), tol=1e-8)
        loaded, stats, _ = self.loaded_ckpt
        errors += checks.check_bit_exact("checkpoint", _arrays(loaded), _arrays(self.params))
        errors += checks.check_bit_exact("checkpoint stats", _stats_arrays(stats),
                                         _stats_arrays(self.stats))
        errors += checks.check_float32_roundtrip(self.loaded_corpus.samples,
                                                 self.loaded_corpus.labels,
                                                 self.test.samples, self.test.labels)
        return errors


WORKLOADS = {w.name: w for w in (AblationVec, SpatialRecon, EvalIO)}
