"""Training loop: schedules, the optimizer, stage-2 freezing, determinism,
run records, the component grid, and exact agreement with the independent
plain-classifier implementation when every component is off."""

import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from lcreg import trainer
from lcreg.baseline import init_baseline, train_baseline
from lcreg.data import (LongTailDataset, NonFiniteSampleError, load_dataset,
                        realized_imbalance, save_dataset)
from lcreg.diffcore import Tape
from lcreg.model import ModelConfig, forward, image_encoder, init_model
from lcreg.tensorio import canonical_json
from lcreg.trainer import (
    COMPONENT_GRID,
    SGD,
    TaskSpec,
    TrainConfig,
    canonical_record_bytes,
    config_hash,
    evaluate,
    lr_at,
    make_run_record,
    make_task_data,
    run_ablation,
    run_training,
)

TINY_TASK = TaskSpec(num_classes=6, input_dim=5, n_max=60, imbalance=20.0,
                     test_per_class=40)


def tiny_cfg(**kw):
    base = dict(hidden=(12,), feature_dim=8, num_latents=4, t1_iters=40,
                t2_iters=10, batch_size=16, lr=0.05, lambda0=0.25, seed=0,
                log_every=20)
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_variant_must_name_a_grid_row(self):
        with pytest.raises(ValueError, match="unknown variant"):
            TrainConfig(variant="latent_isda")

    @pytest.mark.parametrize("name", list(COMPONENT_GRID))
    def test_variant_matches_exactly_one_grid_row(self, name):
        cfg = TrainConfig(variant=name)
        matches = [row for row, flags in COMPONENT_GRID.items()
                   if all(getattr(cfg, k) == v for k, v in flags.items())]
        assert matches == [name]

    def test_loop_sizes_checked(self):
        with pytest.raises(ValueError):
            TrainConfig(t1_iters=0)
        with pytest.raises(ValueError):
            TrainConfig(t2_iters=-1)


class TestSchedules:
    def test_lr_decay_points(self):
        cfg = TrainConfig(t1_iters=100, lr=0.1, lr_decay_points=(0.6, 0.8),
                          lr_decay_factor=0.1)
        assert lr_at(cfg, 0) == 0.1
        assert lr_at(cfg, 59) == 0.1
        assert lr_at(cfg, 60) == pytest.approx(0.01)
        assert lr_at(cfg, 80) == pytest.approx(0.001)
        assert lr_at(cfg, 99) == pytest.approx(0.001)

    def test_stage2_stream_seed_is_stable_and_distinct(self):
        a = trainer.stage2_stream_seed(7)
        assert a == trainer.stage2_stream_seed(7)
        assert a != trainer.stage2_stream_seed(8)
        assert a != 7


class TestTaskData:
    def test_shapes_and_balanced_test(self):
        train, test = make_task_data(TINY_TASK, seed=3)
        assert train.samples.shape[1] == 5
        assert train.counts[0] == 60
        assert len(test.labels) == 6 * 40
        assert np.all(test.counts == 40)

    def test_train_and_test_draws_differ(self):
        train, test = make_task_data(TINY_TASK, seed=3)
        # same mixture, different noise stream: no shared rows
        assert not np.array_equal(train.samples[:5], test.samples[:5])

    def test_deterministic_per_seed(self):
        a_train, a_test = make_task_data(TINY_TASK, seed=4)
        b_train, b_test = make_task_data(TINY_TASK, seed=4)
        assert np.array_equal(a_train.samples, b_train.samples)
        assert np.array_equal(a_test.samples, b_test.samples)

    def test_acceptance_profile_ratio(self):
        task = TaskSpec(num_classes=10, input_dim=8, n_max=500, imbalance=100.0)
        train, _ = make_task_data(task, seed=0)
        assert abs(realized_imbalance(train.counts) / 100.0 - 1.0) <= 0.02


class TestSGD:
    def test_two_steps_match_manual_momentum(self):
        from lcreg.diffcore import Parameter
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.01, decay_params=[p])
        w = np.array([1.0, -2.0])
        v = np.zeros(2)
        for g in (np.array([0.5, 0.5]), np.array([-1.0, 2.0])):
            p.grad.data[...] = g
            opt.step()
            ge = g + 0.01 * w
            v = 0.9 * v + ge
            w = w - 0.1 * v
            p.zero_grad()
        np.testing.assert_array_equal(p.value.data, w)

    def test_no_decay_group(self):
        from lcreg.diffcore import Parameter
        p = Parameter(np.array([3.0]), "p")
        opt = SGD([p], lr=0.5, momentum=0.0, weight_decay=10.0, decay_params=[])
        p.grad.data[...] = np.array([1.0])
        opt.step()
        np.testing.assert_array_equal(p.value.data, np.array([2.5]))

    @staticmethod
    def _mixed_params():
        # non-decay parameters listed first, shapes of several ranks
        from lcreg.diffcore import Parameter
        rng = np.random.default_rng(5)
        shapes = {"plain.a": (3, 4), "decay.a": (5,), "plain.b": (2,),
                  "decay.b": (4, 3), "plain.c": (2, 2, 3), "decay.c": ()}
        return [Parameter(rng.standard_normal(shape), name)
                for name, shape in shapes.items()]

    def test_matches_per_parameter_loop_bitwise(self):
        class PerParameterSGD:
            """One velocity and five numpy calls per parameter per step."""

            def __init__(self, params, lr, momentum, weight_decay, decay_params=()):
                self.params, self.lr = list(params), lr
                self.momentum, self.weight_decay = momentum, weight_decay
                self.decay_ids = {id(p) for p in decay_params}
                self.velocity = {id(p): np.zeros_like(p.value.data) for p in self.params}

            def step(self):
                for p in self.params:
                    g = p.grad.data
                    if id(p) in self.decay_ids:
                        g = g + self.weight_decay * p.value.data
                    v = self.velocity[id(p)]
                    v *= self.momentum
                    v += g
                    p.value.data -= self.lr * v

        ref, flat = self._mixed_params(), self._mixed_params()
        ref_opt = PerParameterSGD(ref, 0.1, 0.9, 1e-2,
                                  decay_params=[p for p in ref if p.id.startswith("decay")])
        opt = SGD(flat, 0.1, 0.9, 1e-2,
                  decay_params=[p for p in flat if p.id.startswith("decay")])
        rng = np.random.default_rng(6)
        for step in range(5):
            ref_opt.lr = opt.lr = 0.1 * 0.5 ** step
            opt.zero_grad()
            for p, q in zip(ref, flat):
                g = rng.standard_normal(p.value.shape)
                p.grad.data[...] = g
                q.grad.data[...] = g
            ref_opt.step()
            opt.step()
            for p, q in zip(ref, flat):
                assert q.value.data.shape == p.value.data.shape
                assert np.array_equal(q.value.data, p.value.data), (step, p.id)
            # a one-ulp slip in the velocity can vanish in value -= lr * v
            by_id = {p.id: p for p in ref}
            ref_velocity = [ref_opt.velocity[id(by_id[q.id])].reshape(-1) for q in opt.params]
            assert np.array_equal(opt.velocity, np.concatenate(ref_velocity)), step

    def test_parameter_listed_twice_rejected(self):
        params = self._mixed_params()
        with pytest.raises(ValueError):
            SGD(params + params[:1], 0.1, 0.9, 1e-2)

    def test_zero_grad_clears_every_gradient(self):
        params = self._mixed_params()
        opt = SGD(params, 0.1, 0.9, 1e-2, decay_params=params[1::2])
        for p in params:
            p.grad.data[...] = 1.5
        opt.zero_grad()
        for p in params:
            assert np.array_equal(p.grad.data, np.zeros(p.value.shape)), p.id

    def test_second_optimizer_trains_only_its_subset(self):
        params = self._mixed_params()
        SGD(params, 0.1, 0.9, 1e-2, decay_params=params[1::2])
        before = [p.value.data.copy() for p in params]
        subset = params[2:4]
        opt = SGD(subset, 0.5, 0.0, 1e-2, decay_params=subset[1:])
        for p, b in zip(params, before):
            assert np.array_equal(p.value.data, b), p.id  # building moves nothing
            p.grad.data[...] = 1.0
        opt.step()
        for p, b in zip(params, before):
            if any(p is q for q in subset):
                assert not np.array_equal(p.value.data, b), p.id
            else:
                assert np.array_equal(p.value.data, b), p.id


# tape entries of one stage-1 step at the default vector protocol (P = 1);
# stage 2 records decode and the cross-entropy
STAGE1_ENTRIES = {"baseline": 7, "latent": 14, "latent_recon": 14,
                  "latent_aug": 18, "full": 18, "raw_isda": 10}
STAGE2_ENTRIES = 3


@pytest.mark.parametrize("name", list(COMPONENT_GRID))
def test_tape_entries_per_training_step(monkeypatch, name):
    # a regression in ops per step shows here before it shows in a timing
    lengths = []
    replay = Tape.backward

    def counting(tape, *args, **kwargs):
        lengths.append(len(tape._entries))
        return replay(tape, *args, **kwargs)

    monkeypatch.setattr(Tape, "backward", counting)
    task = TaskSpec()
    run_training(TrainConfig(variant=name, t1_iters=2, t2_iters=1), task,
                 datasets=make_task_data(task, 0))
    assert lengths == [STAGE1_ENTRIES[name]] * 2 + [STAGE2_ENTRIES]


class TestStage2Freezing:
    def test_only_decoder_receives_gradient(self):
        # same seed, so stage 1 ends in the same state; stage 2 may then
        # move the decoder and nothing else
        stage1 = run_training(tiny_cfg(t2_iters=0), TINY_TASK).params
        both = run_training(tiny_cfg(t2_iters=10), TINY_TASK).params
        trainable = {p.id for p in both.stage2_trainable()}
        frozen = [(p.id, p.value.data, q.value.data)
                  for p, q in zip(stage1.parameters(), both.parameters())
                  if p.id not in trainable]
        assert {pid for pid, _, _ in frozen} >= {"pool.features", "latcls.w", "enc.0.w"}
        for pid, before, after in frozen:
            assert np.array_equal(before, after), pid
        for p, q in zip(stage1.stage2_trainable(), both.stage2_trainable()):
            assert not np.array_equal(p.value.data, q.value.data), p.id

    @pytest.mark.parametrize("flags", [{}, dict(variant="raw_isda")])
    def test_pooled_features_computed_once(self, monkeypatch, flags):
        # stage 2 is a linear probe: one forward pass over the training
        # split, however many decoder steps follow
        calls = []
        real_forward = trainer.forward

        def counting_forward(*args, **kw):
            calls.append(1)
            return real_forward(*args, **kw)

        counts = {}
        for t2 in (0, 10, 50):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(trainer, "forward", counting_forward)
                run_training(tiny_cfg(t2_iters=t2, **flags), TINY_TASK)
            counts[t2] = len(calls)
        assert counts[10] == counts[50] == counts[0] + 1


class TestRunTraining:
    def test_smoke_full_components(self):
        cfg = tiny_cfg()
        result = run_training(cfg, TINY_TASK)
        assert not result.diverged
        assert result.report is not None
        assert 0.0 <= result.report.overall <= 1.0
        # 40 stage-1 iters and 10 stage-2 iters, logged every 20 and at the end
        assert [(r["stage"], r["iter"]) for r in result.history] == [(1, 20), (1, 40), (2, 10)]
        assert set(result.history[0]) == {"stage", "iter", "total", "cls", "recon", "latent_aug"}
        assert set(result.history[-1]) == {"stage", "iter", "cls"}
        assert result.stats is not None

    def test_aug_stats_counts_equal_iterations(self):
        cfg = tiny_cfg()
        result = run_training(cfg, TINY_TASK)
        assert np.all(result.stats.count == cfg.t1_iters)

    def test_raw_isda_path(self):
        cfg = tiny_cfg(variant="raw_isda")
        result = run_training(cfg, TINY_TASK)
        assert not result.diverged
        assert result.report is not None
        # one observation per sample per iteration, pre-loss update
        assert int(result.stats.count.sum()) == cfg.t1_iters * cfg.batch_size

    def test_divergence_aborts_with_diagnostic(self):
        cfg = tiny_cfg(lr=1e6)
        result = run_training(cfg, TINY_TASK)
        assert result.diverged
        assert isinstance(result.diverged_at, int)
        assert result.report is None
        record = make_run_record(cfg, TINY_TASK, result)
        assert record["diverged"] and record["metrics"] is None

    def test_rerun_is_bitwise_identical(self):
        cfg = tiny_cfg()
        a = run_training(cfg, TINY_TASK)
        b = run_training(cfg, TINY_TASK)
        for pa, pb in zip(a.params.parameters(), b.params.parameters()):
            assert np.array_equal(pa.value.data, pb.value.data), pa.id
        ra = make_run_record(cfg, TINY_TASK, a)
        rb = make_run_record(cfg, TINY_TASK, b)
        assert canonical_record_bytes(ra) == canonical_record_bytes(rb)

    def test_seed_changes_outcome(self):
        a = run_training(tiny_cfg(seed=0), TINY_TASK)
        b = run_training(tiny_cfg(seed=1), TINY_TASK)
        assert not np.array_equal(a.params.dec_w.value.data, b.params.dec_w.value.data)

    @staticmethod
    def _without_class(c):
        train, test = make_task_data(TINY_TASK, seed=0)
        keep = train.labels != c
        train = LongTailDataset(train.samples[keep], train.labels[keep],
                                np.bincount(train.labels[keep], minlength=6), train.seed)
        return train, test

    def test_empty_class_is_refused_before_stage_1(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stage 1 ran on a split that stage 2 cannot draw")

        monkeypatch.setattr(trainer, "forward", no_step)
        with pytest.raises(ValueError, match="class 4 has no training sample"):
            run_training(tiny_cfg(), TINY_TASK, datasets=self._without_class(4))

    @pytest.mark.parametrize("split, damage", [
        (0, "shape"), (1, "shape"), (0, "classes"), (1, "classes"),
    ])
    def test_split_contract_is_checked_before_stage_1(self, monkeypatch, split, damage):
        def no_step(*args, **kwargs):
            raise AssertionError("stage 1 ran on splits the model cannot take")

        splits = list(make_task_data(TINY_TASK, seed=0))
        ds = splits[split]
        if damage == "shape":
            ds = LongTailDataset(ds.samples[:, :4], ds.labels, ds.counts, ds.seed)
            have = "6 classes of shape (4,)"
        else:  # a 5-class split: its last class's samples dropped
            keep = ds.labels < 5
            ds = LongTailDataset(ds.samples[keep], ds.labels[keep], ds.counts[:5], ds.seed)
            have = "5 classes of shape (5,)"
        splits[split] = ds
        monkeypatch.setattr(trainer, "forward", no_step)
        want = f"{('train', 'test')[split]} split has {have}, not 6 of (5,)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            run_training(tiny_cfg(), TINY_TASK, datasets=tuple(splits))

    def test_empty_class_trains_without_stage_2(self):
        result = run_training(tiny_cfg(t2_iters=0), TINY_TASK, datasets=self._without_class(4))
        assert not result.diverged and result.report is not None


class TestEvaluate:
    def test_group_recombination_identity(self):
        cfg = tiny_cfg()
        result = run_training(cfg, TINY_TASK)
        r = result.report
        n = sum(r.group_counts.values())
        # no class of the tiny task has more than 100 samples: "many" is empty
        assert r.many is None and r.group_counts["many"] == 0
        mix = sum(r.group_counts[g] * getattr(r, g) for g in ("medium", "few"))
        assert abs(r.overall - mix / n) <= 1e-12

    @staticmethod
    def trained_vector_model():
        cfg = tiny_cfg()
        train, test = make_task_data(TINY_TASK, cfg.seed)
        return run_training(cfg, TINY_TASK, datasets=(train, test)).params, test, train.counts

    @staticmethod
    def image_model(n=300):
        """A P = 25 conv model and a split of ``n`` maps over 6 classes."""
        cfg = ModelConfig(image_encoder(1, 11, 11, (8,), 16), num_classes=6, num_latents=4)
        rng = np.random.default_rng(3)
        labels = np.arange(n) % 6
        test = LongTailDataset(rng.standard_normal((n, 1, 11, 11)), labels,
                               np.bincount(labels, minlength=6), 0)
        return init_model(cfg, seed=0), test, np.array([90, 60, 40, 20, 10, 5])

    def chunk_sizes(self, monkeypatch, params, dataset, train_counts) -> list[int]:
        sizes = []

        def spy(tape, params, x_batch, **kw):
            sizes.append(len(x_batch))
            return forward(tape, params, x_batch, **kw)

        monkeypatch.setattr(trainer, "forward", spy)
        evaluate(params, dataset, train_counts)
        return sizes

    def test_vector_split_goes_in_chunks_of_2048_columns(self, monkeypatch):
        params = init_model(trainer.model_config(tiny_cfg(), TINY_TASK), seed=0)
        rng = np.random.default_rng(1)
        labels = np.arange(5000) % 6
        split = LongTailDataset(rng.standard_normal((5000, TINY_TASK.input_dim)), labels,
                                np.bincount(labels, minlength=6), 0)
        assert params.config.encoder.positions == 1
        chunks = self.chunk_sizes(monkeypatch, params, split, split.counts)
        assert chunks == [2048, 2048, 904]

    def test_image_split_goes_in_chunks_of_81_samples(self, monkeypatch):
        params, test, counts = self.image_model()  # 300 maps
        assert params.config.encoder.positions == 25
        assert self.chunk_sizes(monkeypatch, params, test, counts) == [81, 81, 81, 57]

    @pytest.mark.parametrize("model", ["vector", "image"])
    def test_per_class_matches_direct_argmax(self, model):
        params, test, counts = (self.trained_vector_model() if model == "vector"
                                else self.image_model())
        report = evaluate(params, test, counts)
        pred = forward(Tape(), params, test.samples).logits.data.argmax(axis=1)
        for c in range(6):
            mask = test.labels == c
            want = float((pred[mask] == c).mean())
            assert report.per_class[c] == pytest.approx(want, abs=1e-12)

    def test_traced_peak_of_one_pass_over_3000_maps(self):
        # the `spatial_recon` scoring pass: 1x11x11 maps (P = 25), D 16, M 24
        cfg = ModelConfig(image_encoder(1, 11, 11, (8,), 16), num_classes=10, num_latents=24)
        params = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        labels = np.arange(3000) % 10
        test = LongTailDataset(rng.standard_normal((3000, 1, 11, 11)).astype(np.float32),
                               labels, np.bincount(labels, minlength=10), 0)
        counts = np.array([500, 300, 200, 120, 70, 40, 25, 15, 8, 5])
        evaluate(params, test, counts)  # warm every cache first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate(params, test, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.58 MB; 1.77 MB while each chunk kept its [M, columns] sigmoid map
        assert peak - base <= 1.68e6

    def test_empty_split_gives_all_zero_report(self, tmp_path):
        params = init_model(trainer.model_config(tiny_cfg(), TINY_TASK), seed=0)
        empty = LongTailDataset(np.zeros((0, TINY_TASK.input_dim)), np.zeros(0, np.int64),
                                np.zeros(6, np.int64), 0)
        empty = load_dataset(save_dataset(empty, tmp_path / "empty"))
        assert empty.samples.shape == (0, TINY_TASK.input_dim)
        report = evaluate(params, empty, np.array([90, 60, 40, 20, 10, 5])).to_dict()
        # a group with no test sample has no accuracy
        assert report == {"overall": 0.0, "many": None, "medium": None, "few": None,
                          "per_class": [0.0] * 6,
                          "group_counts": {"many": 0, "medium": 0, "few": 0}}


class TestBaselineEquivalence:
    def test_flags_off_matches_independent_implementation(self):
        cfg = tiny_cfg(variant="baseline", t1_iters=120, t2_iters=30)
        train, test = make_task_data(TINY_TASK, cfg.seed)
        result = run_training(cfg, TINY_TASK, datasets=(train, test))
        model, report = train_baseline(cfg, train, test)
        named = model.named()
        for p in result.params.parameters():
            diff = np.abs(p.value.data - named[p.id]).max()
            assert diff <= 1e-10, f"{p.id}: {diff:.3e}"
        assert result.report.overall == report["overall"]
        assert result.report.few == report["few"]
        np.testing.assert_allclose(result.report.per_class, report["per_class"],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 404])
    def test_default_protocol_matches_bit_for_bit(self, seed):
        """At the default task and model, a short run with both stages
        leaves every parameter equal to the reference's, not merely close."""
        task = TaskSpec()
        cfg = TrainConfig(variant="baseline", t1_iters=150, t2_iters=40, seed=seed)
        train, test = make_task_data(task, seed)
        result = run_training(cfg, task, datasets=(train, test))
        model, report = train_baseline(cfg, train, test)
        named = model.named()
        for p in result.params.parameters():
            assert np.array_equal(p.value.data, named[p.id]), p.id
        assert result.report.overall == report["overall"]
        assert np.array_equal(result.report.per_class, report["per_class"])

    def test_shared_initialization_draws(self):
        params = init_model(trainer.model_config(tiny_cfg(variant="baseline"),
                                                  TINY_TASK), seed=9)
        model = init_baseline(5, (12,), 8, 6, seed=9)
        named = model.named()
        for p in params.parameters():
            assert np.array_equal(p.value.data, named[p.id]), p.id


class TestRecords:
    def test_config_hash_stability_and_sensitivity(self):
        cfg = tiny_cfg()
        assert config_hash(cfg, TINY_TASK) == config_hash(cfg, TINY_TASK)
        assert config_hash(cfg, TINY_TASK) != config_hash(tiny_cfg(lr=0.01), TINY_TASK)
        assert len(config_hash(cfg, TINY_TASK)) == 16

    def test_canonical_bytes_ignore_volatile_fields(self):
        cfg = tiny_cfg()
        result = run_training(cfg, TINY_TASK)
        a = make_run_record(cfg, TINY_TASK, result)
        b = dict(a)
        b["created_at"] = "1999-01-01T00:00:00"
        b["wall_time_s"] = 1e9
        assert canonical_record_bytes(a) == canonical_record_bytes(b)

    def test_record_shape(self):
        cfg = tiny_cfg()
        result = run_training(cfg, TINY_TASK)
        record = make_run_record(cfg, TINY_TASK, result)
        assert record["format_version"] == 2
        assert record["config"]["train"]["num_latents"] == 4
        assert record["config"]["task"]["num_classes"] == 6
        assert set(record["metrics"]) >= {"overall", "many", "medium", "few"}


class TestAblation:
    def test_grid_structure_and_recon_degeneracy(self):
        cfg = tiny_cfg(t1_iters=30, t2_iters=6)
        out = run_ablation(cfg, TINY_TASK, seeds=[0, 1])
        assert set(out["rows"]) == set(COMPONENT_GRID)
        for name in COMPONENT_GRID:
            assert out["summary"][name]["num_clean"] == 2
        # single-position features make the reconstruction term inert, so
        # those two rows must coincide exactly on this task
        a = out["rows"]["latent"]["seeds"]
        b = out["rows"]["latent_recon"]["seeds"]
        for s in (0, 1):
            assert a[s]["overall"] == b[s]["overall"]
            assert a[s]["per_class"] == b[s]["per_class"]
        c = out["rows"]["latent_aug"]["seeds"]
        d = out["rows"]["full"]["seeds"]
        for s in (0, 1):
            assert c[s]["overall"] == d[s]["overall"]

    def test_repeated_seed_rejected_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained despite a repeated seed")

        monkeypatch.setattr(trainer, "run_training", no_training)
        monkeypatch.setattr(trainer, "make_task_data", no_training)
        with pytest.raises(ValueError, match="repeated seed"):
            run_ablation(tiny_cfg(), TINY_TASK, seeds=[0, 0])

    def test_refused_task_stops_the_grid_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before every split was made")

        monkeypatch.setattr(trainer, "run_training", no_training)
        rows = {"a": {"variant": "baseline"}, "b": {"mean_scale": 1e39}}
        with pytest.raises(NonFiniteSampleError, match="not a finite float32"):
            run_ablation(tiny_cfg(), TINY_TASK, seeds=[0], rows=rows)

    def test_rows_share_datasets_per_seed(self):
        cfg = tiny_cfg(t1_iters=20, t2_iters=4)
        out1 = run_ablation(cfg, TINY_TASK, seeds=[2])
        out2 = run_ablation(cfg, TINY_TASK, seeds=[2])
        assert out1["rows"] == out2["rows"]

    def test_task_and_train_configs_share_no_field_name(self):
        # a row's field name alone says which of the two it overrides
        assert not ({f.name for f in fields(TaskSpec)}
                    & {f.name for f in fields(TrainConfig)})

    def test_grid_config_drops_fields_every_row_sets(self):
        rows = {"a": {"imbalance": 10.0, "alpha": 1.0}, "b": {"imbalance": 50.0}}
        d = trainer.grid_config_dict(tiny_cfg(), TINY_TASK, rows)
        assert "imbalance" not in d["task"] and d["task"]["n_max"] == 60
        # alpha is set by one row only; the seed by every cell
        assert d["train"]["alpha"] == 0.1 and "seed" not in d["train"]

    def test_task_row_trains_on_its_own_data(self, monkeypatch):
        cfg = tiny_cfg(t1_iters=20, t2_iters=4)
        plain = {"baseline": {"variant": "baseline"}, "latent": {"variant": "latent"}}
        rows = {"baseline": plain["baseline"],
                "if50": {"variant": "latent", "imbalance": 50.0},
                "latent": plain["latent"]}
        row_task = replace(TINY_TASK, imbalance=50.0)
        calls = []
        inner = trainer.run_training

        def spy(cfg, task, datasets=None):
            calls.append((cfg.seed, task, datasets))
            return inner(cfg, task, datasets=datasets)

        monkeypatch.setattr(trainer, "run_training", spy)
        grid = run_ablation(cfg, TINY_TASK, [0, 1], rows=rows)
        for seed, task, (train, test) in calls:
            want_train, want_test = make_task_data(task, seed)
            assert np.array_equal(train.samples, want_train.samples)
            assert np.array_equal(test.labels, want_test.labels)
        assert [task for _, task, _ in calls].count(row_task) == 2
        # rows with the same task share each seed's dataset
        shared = {(seed, id(data)) for seed, task, data in calls if task == TINY_TASK}
        assert len(shared) == 2

        monkeypatch.setattr(trainer, "run_training", inner)
        direct = run_training(replace(cfg, seed=1, variant="latent"), row_task)
        assert grid["rows"]["if50"]["seeds"][1] == direct.report.to_dict()
        without = run_ablation(cfg, TINY_TASK, [0, 1], rows=plain)
        for name in plain:
            assert canonical_json(grid["rows"][name]) == canonical_json(without["rows"][name])
            assert grid["summary"][name] == without["summary"][name]
        # no class of the tiny task has more than 100 samples
        assert all(row["many"] is None for row in grid["summary"].values())
