"""Fast tests of the benchmark's own code: span arithmetic, instrumentation,
and that every oracle rejects a perturbed value.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from lcreg import augment, data, latent, model, trainer  # noqa: E402
from lcreg.diffcore import Tape  # noqa: E402
from spans import Tracer, self_times, sibling_gaps  # noqa: E402


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_fold_accumulates_calls_total_and_self_across_folds():
    tr = Tracer()
    root = tr.add_span("step", 0.0, 4.0)
    tr.add_span("kernel", 1.0, 2.0, parent=root)
    tr.add_span("kernel", 2.5, 3.0, parent=root)
    tr.fold()
    root = tr.add_span("step", 10.0, 12.0)
    tr.add_span("kernel", 10.5, 11.0, parent=root)
    tr.fold()
    assert tr.stats("step") == (2.0, 6.0, 4.0)
    assert tr.stats("kernel") == (3.0, 2.0, 2.0)
    assert tr.stats("never") == (0.0, 0.0, 0.0)


def test_sibling_gaps_pair_only_spans_under_one_parent():
    tr = Tracer()
    tr.gap_targets = {"tick"}
    run1 = tr.add_span("run", 0.0, 10.0)
    for t in (1.0, 3.0, 6.0):
        tr.add_span("tick", t, t + 0.1, parent=run1)
    run2 = tr.add_span("run", 20.0, 30.0)
    for t in (21.0, 25.0):
        tr.add_span("tick", t, t + 0.1, parent=run2)
    tr.fold()
    assert tr.gap_values("tick").tolist() == [2.0, 3.0, 4.0]
    name = np.array([0, 0])
    assert sibling_gaps(name, np.array([-1, -1]), np.array([0.0, 1.0]), 0).size == 0


def test_install_wraps_by_module_attribute_and_reports_missing():
    tr = Tracer()
    tr.install([("augment", "init_stats", "augment.init"),
                ("augment", "no_such_function", "augment.gone"),
                ("no_such_module", "f", "x.f"),
                ("diffcore", "Tape.matmul", "diffcore.kernel.matmul")])
    try:
        augment.init_stats(3, 2)
        tape = Tape()
        tape.matmul(tape.constant(np.eye(2)), tape.constant(np.ones((2, 1))))
    finally:
        tr.uninstall()
    tr.fold()
    assert tr.stats("augment.init")[0] == 1.0
    assert tr.stats("diffcore.kernel.matmul")[0] == 1.0
    assert tr.missing == ["lcreg.augment.no_such_function", "lcreg.no_such_module.f"]
    assert not hasattr(augment.init_stats, "__wrapped__")
    assert not hasattr(Tape.matmul, "__wrapped__")


def test_fold_refuses_open_spans():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.span("outer"):
            tr.fold()


# -- oracles -------------------------------------------------------------------


def test_close_dicts_rejects_perturbation():
    want = {"w": np.arange(6.0).reshape(2, 3), "acc": 0.5}
    assert checks.check_close_dicts("p", {"w": want["w"].copy(), "acc": 0.5}, want, 1e-10) == []
    bumped = want["w"].copy()
    bumped[1, 2] += 1e-8
    assert checks.check_close_dicts("p", {"w": bumped, "acc": 0.5}, want, 1e-10)
    assert checks.check_close_dicts("p", {"w": want["w"]}, want, 1e-10)


def _bound_inputs(seed=0, m=5, d=3):
    rng = np.random.default_rng(seed)
    latents, w, b = rng.standard_normal((m, d)), rng.standard_normal((m, d)), rng.standard_normal(m)
    stats = augment.update_stats(augment.init_stats(m, d), rng.standard_normal((40, d)),
                                 np.repeat(np.arange(m), 8))
    return latents, w, b, stats


def test_isda_oracle_matches_package_and_rejects_perturbation():
    latents, w, b, stats = _bound_inputs()
    lam = 0.7
    tape = Tape()
    nodes = (tape.constant(latents), tape.constant(w), tape.constant(b))
    z = augment.latent_aug_logits(tape, *nodes, stats, lam).data
    loss = augment.isda_upper_bound_loss(tape, *nodes, stats, lam).item()
    assert checks.check_isda_bound(loss, z, latents, w, b, stats.cov, lam) == []
    assert checks.check_isda_bound(loss * (1 + 1e-8), z, latents, w, b, stats.cov, lam)
    z_bad = z.copy()
    z_bad[2, 2] = 1e-300
    assert checks.check_isda_bound(loss, z_bad, latents, w, b, stats.cov, lam)
    assert checks.check_counts(np.full(4, 30), 30) == []
    assert checks.check_counts(np.array([30, 30, 29]), 30)


def _conv_setup(seed=0):
    enc = model.image_encoder(1, 7, 7, (3,), 4)
    params = model.init_model(model.ModelConfig(enc, num_classes=3, num_latents=5), seed)
    xb = np.random.default_rng(seed).standard_normal((2, 1, 7, 7))
    return params, xb


def test_recon_oracle_matches_package_and_rejects_perturbation():
    params, xb = _conv_setup()
    tape = Tape()
    fwd = model.forward(tape, params, xb, with_recon_corr=True)
    value = latent.reconstruction_loss(tape, fwd.recon).item()
    enc = params.encoder
    layers = [(enc[i].value.data, enc[i + 1].value.data) for i in range(0, len(enc), 2)]
    f, positions = checks.conv_features_numpy(xb, layers)
    assert positions == 9
    np.testing.assert_allclose(f, fwd.features.data, rtol=0, atol=1e-12)
    pool = params.pool
    encoded, norm = checks.similarity_numpy(pool.features.value.data, pool.enc_w.value.data,
                                            pool.enc_b.value.data, f)
    want = checks.recon_loss_numpy(encoded, norm, f, positions)
    assert checks.check_recon_loss(value, want) == []
    assert checks.check_recon_loss(value + 1e-7, want)
    assert checks.check_columns_sum_to_one(fwd.sims.normalized.data) == []
    bad = fwd.sims.normalized.data.copy()
    bad[0, 0] += 1e-9
    assert checks.check_columns_sum_to_one(bad)


def test_descent_and_chance_oracles():
    assert checks.check_descends("loss", np.linspace(2.0, 1.0, 50)) == []
    assert checks.check_descends("loss", np.linspace(1.0, 1.01, 50))
    assert checks.check_descends("loss", [1.0])
    assert checks.check_above_chance(0.11, 10) == []
    assert checks.check_above_chance(0.1, 10)


def test_eval_oracle_matches_evaluate_and_rejects_perturbation():
    task = trainer.TaskSpec(num_classes=4, input_dim=3, n_max=40, imbalance=4.0,
                            test_per_class=30)
    cfg = trainer.TrainConfig(hidden=(5,), feature_dim=4, num_latents=3, t1_iters=20,
                              t2_iters=5, batch_size=8)
    result = trainer.run_training(cfg, task)
    _, test = trainer.make_task_data(task, cfg.seed)
    tensors = {p.id: p.value.data for p in result.params.parameters()}
    logits = checks.vector_logits_numpy(tensors, test.samples)
    tape_logits = model.forward(Tape(), result.params, test.samples).logits.data
    np.testing.assert_allclose(logits, tape_logits, rtol=0, atol=1e-12)
    per_class = result.report.per_class
    assert checks.check_per_class(per_class, logits, test.labels) == []
    bad = per_class.copy()
    bad[1] += 1.0 / 30
    assert checks.check_per_class(bad, logits, test.labels)


def test_storage_oracles_reject_perturbation(tmp_path):
    rows = np.array([[0.2, 0.8], [0.5, 0.5]])
    assert checks.check_rows_sum_to_one(rows, 1e-8) == []
    assert checks.check_rows_sum_to_one(rows + [[0.0, 1e-6], [0.0, 0.0]], 1e-8)

    a = {"w": np.linspace(0, 1, 5)}
    assert checks.check_bit_exact("ckpt", {"w": a["w"].copy()}, a) == []
    assert checks.check_bit_exact("ckpt", {"w": np.nextafter(a["w"], 2.0)}, a)
    assert checks.check_bit_exact("ckpt", {"w": a["w"].astype(np.float32)}, a)

    ds = data.synthesize_mixture(data.make_mixture_spec(3, 2, seed=1), [4, 3, 2])
    loaded = data.load_dataset(data.save_dataset(ds, tmp_path / "corpus"))
    assert checks.check_float32_roundtrip(loaded.samples, loaded.labels,
                                          ds.samples, ds.labels) == []
    assert checks.check_float32_roundtrip(ds.samples, loaded.labels, ds.samples, ds.labels)
    bad = loaded.labels.copy()
    bad[0] = 2
    assert checks.check_float32_roundtrip(loaded.samples, bad, ds.samples, ds.labels)
