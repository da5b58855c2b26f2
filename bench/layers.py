"""The layers the traced run measures, and the per-layer metrics it reports.

Each function target is ``(module, attribute, span name)``; the span name's
first part is the layer. Times are inclusive of callees except
``model.total_loss_s``, which is self time (its callees are the rest of the
step). Every figure is per traced round, so runs with a different number of
rounds compare directly.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer, tape_kernel_names

FUNCTION_TARGETS = [
    ("latent", "similarity_maps", "latent.similarity"),
    ("latent", "reconstruct", "latent.reconstruct"),
    ("latent", "reconstruction_loss", "latent.recon_loss"),
    ("latent", "fuse_for_decoder", "latent.fuse"),
    ("augment", "isda_upper_bound_loss", "augment.bound"),
    ("augment", "classwise_augmented_logits", "augment.classwise"),
    ("augment", "update_stats", "augment.stats_update"),
    ("model", "encode", "model.encode"),
    ("model", "forward", "model.forward"),
    ("model", "total_loss", "model.total_loss"),
    ("model", "save_model", "model.save"),
    ("model", "load_model", "model.load"),
    ("trainer", "run_training", "trainer.run_training"),
    # called once at the top of every stage-1 step: its spans mark steps
    ("trainer", "lr_at", "trainer.step"),
    ("trainer", "SGD.step", "trainer.sgd_step"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("data", "synthesize_mixture", "data.synth"),
    ("data", "save_dataset", "data.save"),
    ("data", "load_dataset", "data.load"),
    ("tensorio", "save_tensors", "tensorio.save"),
    ("tensorio", "load_tensors", "tensorio.load"),
    ("cli", "cmd_build_dataset", "cli.build_dataset"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_report", "cli.report"),
    ("diffcore", "Tape.backward", "diffcore.backward"),
]

# Tape kernels some shipped path records; any other kernel is summed into
# the "other" bucket, so a new fused kernel still shows.
KERNELS = (
    "add", "add_rowvec", "col_block", "concat_rows", "cross_entropy",
    "diag_part", "linear_map_1x1", "matmul", "mean_pool_segments", "mul",
    "scale", "sigmoid", "softmax", "stack_rows", "sub_colvec", "sub_rowvec",
    "sum_axis", "take_flat", "take_row", "take_rows", "tanh", "transpose",
)

ROWS = ("baseline", "latent", "latent_recon", "latent_aug", "full", "raw_isda")

# (metric, span name, "total" | "self" | "calls")
_SPAN_METRICS = [
    ("latent.similarity_s", "latent.similarity", "total"),
    ("latent.similarity_calls", "latent.similarity", "calls"),
    ("latent.reconstruct_s", "latent.reconstruct", "total"),
    ("latent.reconstruct_calls", "latent.reconstruct", "calls"),
    ("latent.recon_loss_s", "latent.recon_loss", "total"),
    ("latent.recon_loss_calls", "latent.recon_loss", "calls"),
    ("latent.fuse_s", "latent.fuse", "total"),
    ("latent.fuse_calls", "latent.fuse", "calls"),
    ("augment.bound_s", "augment.bound", "total"),
    ("augment.bound_calls", "augment.bound", "calls"),
    ("augment.classwise_s", "augment.classwise", "total"),
    ("augment.classwise_calls", "augment.classwise", "calls"),
    ("augment.stats_update_s", "augment.stats_update", "total"),
    ("augment.stats_updates", "augment.stats_update", "calls"),
    ("model.encode_s", "model.encode", "total"),
    ("model.encode_calls", "model.encode", "calls"),
    ("model.forward_s", "model.forward", "total"),
    ("model.forward_calls", "model.forward", "calls"),
    ("model.total_loss_s", "model.total_loss", "self"),
    ("model.total_loss_calls", "model.total_loss", "calls"),
    ("model.save_s", "model.save", "total"),
    ("model.save_calls", "model.save", "calls"),
    ("model.load_s", "model.load", "total"),
    ("model.load_calls", "model.load", "calls"),
    ("trainer.sgd_step_s", "trainer.sgd_step", "total"),
    ("trainer.sgd_steps", "trainer.sgd_step", "calls"),
    ("trainer.evaluate_s", "trainer.evaluate", "total"),
    ("trainer.evaluate_calls", "trainer.evaluate", "calls"),
    ("trainer.steps", "trainer.step", "calls"),
    ("data.synth_s", "data.synth", "total"),
    ("data.synth_calls", "data.synth", "calls"),
    ("data.save_s", "data.save", "total"),
    ("data.save_calls", "data.save", "calls"),
    ("data.load_s", "data.load", "total"),
    ("data.load_calls", "data.load", "calls"),
    ("tensorio.save_s", "tensorio.save", "total"),
    ("tensorio.save_calls", "tensorio.save", "calls"),
    ("tensorio.load_s", "tensorio.load", "total"),
    ("tensorio.load_calls", "tensorio.load", "calls"),
    ("cli.build_dataset_s", "cli.build_dataset", "total"),
    ("cli.build_dataset_calls", "cli.build_dataset", "calls"),
    ("cli.train_s", "cli.train", "total"),
    ("cli.train_calls", "cli.train", "calls"),
    ("cli.eval_s", "cli.eval", "total"),
    ("cli.eval_calls", "cli.eval", "calls"),
    ("cli.report_s", "cli.report", "total"),
    ("cli.report_calls", "cli.report", "calls"),
    ("diffcore.backward_s", "diffcore.backward", "total"),
    ("diffcore.backward_calls", "diffcore.backward", "calls"),
]


def _unit(metric: str) -> str:
    if metric.endswith("_s") or ".fwd_s." in metric:
        return "s"
    if metric.endswith("bytes"):
        return "B"
    return "count"


PER_LAYER: list[tuple[str, str]] = (
    [("diffcore.ops_per_step", "count")]
    + [(f"diffcore.calls.{k}", "count") for k in (*KERNELS, "other")]
    + [(f"diffcore.fwd_s.{k}", "s") for k in (*KERNELS, "other")]
    + [(m, _unit(m)) for m, _, _ in _SPAN_METRICS]
    + [("trainer.step_ms.p50", "ms"), ("trainer.step_ms.p99", "ms")]
    + [(f"trainer.row_s.{r}", "s") for r in ROWS]
    + [("data.bytes", "B"), ("tensorio.bytes", "B"), ("data.setup_synth_s", "s")]
    + [("trace.overhead_s", "s"), ("trace.overhead_pct", "%"), ("trace.missing", "count")]
)


def all_targets(tape_cls) -> list[tuple[str, str, str]]:
    kernels = [("diffcore", f"Tape.{k}", f"diffcore.kernel.{k}")
               for k in tape_kernel_names(tape_cls)]
    return FUNCTION_TARGETS + kernels


def per_layer_metrics(tracer: Tracer, rounds: int, kernels_present,
                      row_seconds: dict, overhead: tuple[float, float]) -> dict:
    """Per-layer metrics per traced round, from the folded spans."""
    tracer.fold()
    per = 1.0 / max(rounds, 1)
    out: dict[str, float] = {}

    pick = {"calls": 0, "total": 1, "self": 2}
    for metric, span, kind in _SPAN_METRICS:
        out[metric] = tracer.stats(span)[pick[kind]] * per

    other_calls = other_s = 0.0
    for k in kernels_present:
        calls, total, _ = tracer.stats(f"diffcore.kernel.{k}")
        if k in KERNELS:
            out[f"diffcore.calls.{k}"] = calls * per
            out[f"diffcore.fwd_s.{k}"] = total * per
        else:
            other_calls += calls
            other_s += total
    for k in KERNELS:
        out.setdefault(f"diffcore.calls.{k}", 0.0)
        out.setdefault(f"diffcore.fwd_s.{k}", 0.0)
    out["diffcore.calls.other"] = other_calls * per
    out["diffcore.fwd_s.other"] = other_s * per

    backward_calls = tracer.stats("diffcore.backward")[0]
    replayed = tracer.counters.get("diffcore.replayed_entries", 0.0)
    out["diffcore.ops_per_step"] = replayed / backward_calls if backward_calls else 0.0

    steps_ms = tracer.gap_values("trainer.step") * 1000.0
    out["trainer.step_ms.p50"] = float(np.percentile(steps_ms, 50)) if len(steps_ms) else 0.0
    out["trainer.step_ms.p99"] = float(np.percentile(steps_ms, 99)) if len(steps_ms) else 0.0
    for r in ROWS:
        out[f"trainer.row_s.{r}"] = float(row_seconds.get(r, 0.0))
    out["data.bytes"] = tracer.counters.get("data.bytes", 0.0) * per
    out["tensorio.bytes"] = tracer.counters.get("tensorio.bytes", 0.0) * per

    untraced, traced = overhead
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    out["trace.missing"] = float(len(tracer.missing))
    return out
