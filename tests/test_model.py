"""Model assembly: encoder paths against hand-rolled numpy oracles, loss
breakdown accounting, gradient routing, and checkpointing."""

import hashlib
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreg import model, tensorio
from lcreg.augment import classwise_augmented_logits, init_stats, update_stats
from lcreg.diffcore import ForwardTape, Tape
from lcreg.latent import reconstruction_loss, similarity_maps
from lcreg.trainer import SGD
from lcreg.model import (
    CONV_KERNEL,
    CONV_STRIDE,
    EncoderConfig,
    LossWeights,
    ModelConfig,
    _patch_indices,
    conv_grid,
    decode,
    encode,
    end_to_end_grad_check,
    forward,
    image_encoder,
    init_model,
    load_model,
    parameter_shapes,
    save_model,
    stack_batch_columns,
    total_loss,
)


def small_vector_config(latent_on=True):
    enc = EncoderConfig(input_shape=(5,), hidden=(6,), feature_dim=4)
    return ModelConfig(enc, num_classes=3, num_latents=3, latent_on=latent_on)


def small_image_config(latent_on=True):
    enc = image_encoder(channels=1, height=7, width=7, hidden=(3,), feature_dim=4)
    return ModelConfig(enc, num_classes=3, num_latents=3, latent_on=latent_on)


ALL_CONFIGS = [small_vector_config(True), small_vector_config(False),
               small_image_config(True), small_image_config(False)]


def stats_for(params, rng):
    """Per-latent stats for a model with a pool, per-class stats without."""
    cfg = params.config
    m = cfg.num_latents if cfg.latent_on else cfg.num_classes
    d = cfg.encoder.feature_dim
    stats = init_stats(m, d)
    obs = rng.standard_normal((8 * m, d))
    cats = np.repeat(np.arange(m), 8)
    return update_stats(stats, obs, cats)


class TestEncoderConfig:
    def test_conv_grid_values(self):
        # 7 -> (7-3)//2+1 = 3; 3 -> 1
        assert conv_grid(7, 7, 1) == (3, 3)
        assert conv_grid(7, 7, 2) == (1, 1)
        assert conv_grid(11, 9, 1) == (5, 4)

    def test_conv_grid_too_small(self):
        with pytest.raises(ValueError):
            conv_grid(4, 4, 2)

    def test_vector_shape_is_one_position(self):
        cfg = EncoderConfig((5,), (4,), 4)
        assert (cfg.kind, cfg.grid, cfg.positions) == ("vector", (1, 1), 1)

    def test_image_grid_follows_conv_stack(self):
        cfg = image_encoder(1, 7, 7, (3,), 4)
        assert cfg == EncoderConfig((1, 7, 7), (3,), 4)
        assert (cfg.kind, cfg.grid, cfg.positions) == ("image", (3, 3), 9)
        assert EncoderConfig((2, 11, 9), (3, 5), 4).grid == conv_grid(11, 9, 2) == (2, 1)
        # no hidden layer: the final 1x1 map keeps the input grid
        assert EncoderConfig((2, 4, 5), (), 4).grid == (4, 5)

    @pytest.mark.parametrize("shape", [(), (1, 7), (1, 1, 7, 7)],
                             ids=["no_axis", "two_axes", "four_axes"])
    def test_input_shape_of_other_length_rejected(self, shape):
        with pytest.raises(ValueError, match="neither"):
            EncoderConfig(shape, (), 4)

    def test_image_too_small_for_stack_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            EncoderConfig((1, 4, 4), (3, 3), 4)

    def test_kind_and_grid_are_not_arguments(self):
        with pytest.raises(TypeError):
            EncoderConfig("vector", (5,), (4,), 4)
        with pytest.raises(TypeError):
            EncoderConfig((5,), (4,), 4, grid=(1, 1))

    def test_model_config_repr_is_pinned(self):
        # the spatial_recon benchmark hashes this repr into its record digest
        cfg = ModelConfig(image_encoder(1, 11, 11, (8,), 16), 10, 24)
        assert repr(cfg) == (
            "ModelConfig(encoder=EncoderConfig(kind='image', input_shape=(1, 11, 11), "
            "hidden=(8,), feature_dim=16, grid=(5, 5)), num_classes=10, num_latents=24, "
            "latent_on=True)")


class TestBatchLayout:
    def test_vector_stacking_is_transpose(self):
        cfg = EncoderConfig((3,), (), 4)
        xb = np.arange(6.0).reshape(2, 3)
        cols = stack_batch_columns(cfg, xb)
        assert cols.shape == (3, 2)
        assert np.array_equal(cols, xb.T)

    def test_image_stacking_element_identity(self):
        cfg = image_encoder(2, 4, 4, (), 4)
        rng = np.random.default_rng(0)
        xb = rng.standard_normal((3, 2, 4, 4))
        cols = stack_batch_columns(cfg, xb)
        assert cols.shape == (2, 3 * 16)
        for b in range(3):
            for c in range(2):
                for y in range(4):
                    for x in range(4):
                        assert cols[c, b * 16 + y * 4 + x] == xb[b, c, y, x]

    @pytest.mark.parametrize("cfg, shape", [
        (EncoderConfig((8,), (), 4), (64, 8)),
        (image_encoder(2, 5, 5, (), 4), (3, 2, 5, 5)),
        (image_encoder(1, 11, 11, (8,), 16), (4, 1, 11, 11)),
    ], ids=["vector", "image", "one_channel_image"])
    def test_float32_batch_stacks_like_its_float64_copy(self, cfg, shape):
        xb = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
        cols = stack_batch_columns(cfg, xb)
        want = stack_batch_columns(cfg, xb.astype(np.float64))
        for got in (cols, want):
            assert got.dtype == np.float64 and got.flags.c_contiguous
        assert cols.shape == want.shape and cols.tobytes() == want.tobytes()

    def test_shape_mismatch_rejected(self):
        cfg = EncoderConfig((3,), (), 4)
        with pytest.raises(ValueError):
            stack_batch_columns(cfg, np.zeros((2, 4)))


class TestPatchIndices:
    def test_gather_matches_direct_slicing(self):
        # Patch rows must reproduce x[b, c, y*2+ky, x*2+kx] in (c, ky, kx)
        # row order, for every output position and sample.
        rng = np.random.default_rng(1)
        b, c, h, w = 3, 2, 7, 9
        xb = rng.standard_normal((b, c, h, w))
        cols = xb.transpose(1, 0, 2, 3).reshape(c, b * h * w)
        idx = _patch_indices(c, h, w, b)
        h1 = (h - CONV_KERNEL) // CONV_STRIDE + 1
        w1 = (w - CONV_KERNEL) // CONV_STRIDE + 1
        got = cols.reshape(-1)[idx]
        assert got.shape == (c * 9, b * h1 * w1)
        for bi in range(b):
            for y1 in range(h1):
                for x1 in range(w1):
                    patch = xb[bi, :, y1 * 2:y1 * 2 + 3, x1 * 2:x1 * 2 + 3]
                    col = got[:, bi * h1 * w1 + y1 * w1 + x1]
                    assert np.array_equal(col, patch.reshape(-1))

    def test_cache_returns_same_array(self):
        a = _patch_indices(2, 7, 9, 3)
        b = _patch_indices(2, 7, 9, 3)
        assert a is b


def mlp_oracle(params, xb):
    """Plain numpy forward of the vector encoder."""
    h = xb.T
    layers = [(params.encoder[2 * i].value.data, params.encoder[2 * i + 1].value.data)
              for i in range(len(params.encoder) // 2)]
    for w, b in layers[:-1]:
        h = np.tanh(w @ h + b[:, None])
    w, b = layers[-1]
    return w @ h + b[:, None]


def conv_encoder_oracle(params, xb):
    """Loop-based forward of the image encoder (one conv + final 1x1)."""
    w0 = params.encoder[0].value.data
    b0 = params.encoder[1].value.data
    w1 = params.encoder[2].value.data
    b1 = params.encoder[3].value.data
    bsz, c, h, w = xb.shape
    h1 = (h - CONV_KERNEL) // CONV_STRIDE + 1
    w1_dim = (w - CONV_KERNEL) // CONV_STRIDE + 1
    hid = w0.shape[0]
    out = np.zeros((hid, bsz, h1, w1_dim))
    for bi in range(bsz):
        for y in range(h1):
            for x in range(w1_dim):
                patch = xb[bi, :, y * 2:y * 2 + 3, x * 2:x * 2 + 3].reshape(-1)
                out[:, bi, y, x] = w0 @ patch + b0
    act = np.tanh(out).reshape(hid, bsz * h1 * w1_dim)
    return w1 @ act + b1[:, None]


class TestEncode:
    def test_vector_encoder_matches_numpy(self):
        cfg = small_vector_config()
        params = init_model(cfg, seed=3)
        rng = np.random.default_rng(5)
        xb = rng.standard_normal((4, 5))
        f, p = encode(Tape(), params, xb)
        assert p == 1
        assert f.shape == (4, 4)
        np.testing.assert_allclose(f.data, mlp_oracle(params, xb), rtol=0, atol=1e-14)

    def test_image_encoder_matches_loop_conv(self):
        cfg = small_image_config()
        params = init_model(cfg, seed=4)
        rng = np.random.default_rng(6)
        xb = rng.standard_normal((2, 1, 7, 7))
        f, p = encode(Tape(), params, xb)
        assert p == 9
        assert f.shape == (4, 2 * 9)
        np.testing.assert_allclose(f.data, conv_encoder_oracle(params, xb),
                                   rtol=0, atol=1e-12)

    def test_encode_deterministic(self):
        cfg = small_image_config()
        params = init_model(cfg, seed=4)
        xb = np.random.default_rng(7).standard_normal((2, 1, 7, 7))
        a, _ = encode(Tape(), params, xb)
        b, _ = encode(Tape(), params, xb)
        assert np.array_equal(a.data, b.data)


class TestForward:
    def test_logits_shape_and_plain_path(self):
        cfg = small_vector_config(latent_on=False)
        params = init_model(cfg, seed=8)
        xb = np.random.default_rng(9).standard_normal((6, 5))
        out = forward(Tape(), params, xb)
        assert out.logits.shape == (6, 3)
        assert out.sims is None and out.recon is None
        f = mlp_oracle(params, xb)
        want = (params.dec_w.value.data @ f + params.dec_b.value.data[:, None]).T
        np.testing.assert_allclose(out.logits.data, want, rtol=0, atol=1e-13)

    def test_latent_path_appends_similarity_channels(self):
        cfg = small_vector_config(latent_on=True)
        params = init_model(cfg, seed=8)
        xb = np.random.default_rng(9).standard_normal((6, 5))
        out = forward(Tape(), params, xb)
        assert out.logits.shape == (6, 3)
        assert out.pooled.shape == (4 + 3, 6)
        # P = 1: pooled similarity block is the normalized stack itself
        np.testing.assert_allclose(out.pooled.data[4:], out.sims.normalized.data,
                                   rtol=0, atol=0)

    def test_recon_corr_only_when_requested_and_spatial(self):
        vec = init_model(small_vector_config(), seed=2)
        xb = np.random.default_rng(3).standard_normal((4, 5))
        out = forward(Tape(), vec, xb, with_recon_corr=True)
        assert out.recon is None  # P == 1 has nothing to reconstruct
        img = init_model(small_image_config(), seed=2)
        xi = np.random.default_rng(3).standard_normal((2, 1, 7, 7))
        out = forward(Tape(), img, xi, with_recon_corr=True)
        assert out.recon is not None
        p = out.positions
        assert p > 1 and out.recon.corr.shape == (2 * p, p)  # two samples' row blocks

    def test_forward_tape_matches_recording_tape_and_records_nothing(self):
        params = init_model(small_image_config(), seed=2)
        xb = np.random.default_rng(3).standard_normal((5, 1, 7, 7))
        recorded = forward(Tape(), params, xb, with_recon_corr=True)
        tape = ForwardTape()
        free = forward(tape, params, xb, with_recon_corr=True)
        assert tape._entries == []
        for name in ("logits", "features", "pooled"):
            assert np.array_equal(getattr(free, name).data, getattr(recorded, name).data)
        assert np.array_equal(free.recon.corr.data, recorded.recon.corr.data)
        with pytest.raises(TypeError):
            tape.backward(tape.cross_entropy(free.logits, np.zeros(5, dtype=np.int64)))

    def test_recon_tape_length_does_not_grow_with_batch(self):
        # the correlation is one batched kernel, not a per-sample loop
        cfg = ModelConfig(image_encoder(1, 11, 11, (3,), 4), num_classes=3, num_latents=3)
        params = init_model(cfg, seed=4)
        lengths = []
        for batch in (2, 64):
            xb = np.random.default_rng(batch).standard_normal((batch, 1, 11, 11))
            tape = Tape()
            out = forward(tape, params, xb, with_recon_corr=True)
            assert out.positions == 25
            reconstruction_loss(tape, out.recon)
            lengths.append(len(tape._entries))
        assert lengths[0] == lengths[1]

    @pytest.mark.parametrize("kind", ["image", "vector"])
    def test_pool_then_fuse_matches_concat_then_pool_bitwise(self, kind):
        # the decoder input used to be the [D + M, B*P] fused map, pooled
        if kind == "image":
            cfg, shape = SPATIAL_CONFIG, (64, 1, 11, 11)
        else:
            cfg, shape = ModelConfig(EncoderConfig((8,), (16,), 16), 10, 24), (64, 8)
        params = init_model(cfg, seed=6)
        xb = np.random.default_rng(7).standard_normal(shape)
        cot = np.random.default_rng(8).standard_normal((64, 10))

        def concat_then_pool(tape):
            f, p = encode(tape, params, xb)
            sims = similarity_maps(tape, params.pool, f)
            pooled = tape.mean_pool_segments(tape.concat_rows(f, sims.normalized), p)
            return pooled, decode(tape, params, pooled)

        def fuse(tape):
            out = forward(tape, params, xb)
            return out.pooled, out.logits

        results = []
        for path in (fuse, concat_then_pool):
            for p in params.parameters():
                p.zero_grad()
            tape = Tape()
            pooled, logits = path(tape)
            tape.backward(logits, cot)
            results.append([pooled.data, logits.data]
                           + [p.grad.data.copy() for p in params.parameters()])
        assert results[0][0].shape == (16 + 24, 64)
        for got, want in zip(*results):
            assert got.strides == want.strides
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_single_latent_degenerates_cleanly(self):
        enc = EncoderConfig((5,), (6,), 4)
        cfg = ModelConfig(enc, num_classes=3, num_latents=1)
        params = init_model(cfg, seed=1)
        xb = np.random.default_rng(2).standard_normal((4, 5))
        out = forward(Tape(), params, xb)
        assert np.all(np.isfinite(out.logits.data))
        np.testing.assert_allclose(out.sims.normalized.data, 1.0, rtol=0, atol=0)


class TestTotalLoss:
    def test_breakdown_identity(self):
        params = init_model(small_image_config(), seed=11)
        rng = np.random.default_rng(12)
        xb = rng.standard_normal((4, 1, 7, 7))
        labels = np.array([0, 1, 2, 0])
        stats = stats_for(params, rng)
        weights = LossWeights(alpha=0.3, beta=0.7, gamma=1.0)
        breakdown, loss, _ = total_loss(Tape(), params, xb, labels, stats, 0.5, weights)
        want = (weights.alpha * breakdown.recon
                + weights.beta * breakdown.latent_aug
                + weights.gamma * breakdown.cls)
        assert abs(breakdown.total - want) <= 1e-12
        assert breakdown.total == loss.item()
        assert breakdown.recon > 0.0 and breakdown.latent_aug > 0.0

    def test_disabled_terms_are_exact_zeros(self):
        params = init_model(small_image_config(), seed=11)
        rng = np.random.default_rng(12)
        xb = rng.standard_normal((4, 1, 7, 7))
        labels = np.array([0, 1, 2, 0])
        breakdown, _, _ = total_loss(Tape(), params, xb, labels, None, 0.5,
                                     recon_on=False, aug_on=False)
        assert breakdown.recon == 0.0 and breakdown.latent_aug == 0.0
        assert abs(breakdown.total - breakdown.cls) <= 1e-15

    def test_vector_mode_recon_is_degenerate_zero(self):
        params = init_model(small_vector_config(), seed=11)
        rng = np.random.default_rng(12)
        xb = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 0])
        stats = stats_for(params, rng)
        breakdown, _, _ = total_loss(Tape(), params, xb, labels, stats, 0.5)
        assert breakdown.recon == 0.0
        assert breakdown.latent_aug > 0.0

    @pytest.mark.parametrize("latent_on", [True, False], ids=["pool", "no_pool"])
    def test_aug_requires_stats(self, latent_on):
        params = init_model(small_vector_config(latent_on=latent_on), seed=11)
        xb = np.zeros((2, 5))
        with pytest.raises(ValueError):
            total_loss(Tape(), params, xb, [0, 1], None, 0.5)

    def test_aug_without_pool_is_raw_isda(self):
        # the class-wise bound on the decoder logits, inside the cls term
        params = init_model(small_vector_config(latent_on=False), seed=15)
        rng = np.random.default_rng(16)
        xb = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 0])
        stats = stats_for(params, rng)
        weights = LossWeights(alpha=0.3, beta=0.7, gamma=1.5)
        breakdown, loss, _ = total_loss(Tape(), params, xb, labels, stats, 0.5, weights,
                                        recon_on=False, aug_on=True)
        tape = Tape()
        logits = classwise_augmented_logits(tape, forward(tape, params, xb).logits,
                                            tape.use(params.dec_w), labels, stats, 0.5)
        cls = tape.cross_entropy(logits, labels)
        assert breakdown.cls == cls.item()
        assert breakdown.total == loss.item() == tape.scale(cls, weights.gamma).item()
        assert breakdown.latent_aug == 0.0 and breakdown.recon == 0.0

    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(0.0, 2.0),
        beta=st.floats(0.0, 2.0),
        gamma=st.floats(0.1, 2.0),
    )
    def test_breakdown_identity_over_weights(self, alpha, beta, gamma):
        params = init_model(small_image_config(), seed=13)
        rng = np.random.default_rng(14)
        xb = rng.standard_normal((3, 1, 7, 7))
        labels = np.array([0, 1, 2])
        stats = stats_for(params, rng)
        weights = LossWeights(alpha=alpha, beta=beta, gamma=gamma)
        breakdown, _, _ = total_loss(Tape(), params, xb, labels, stats, 0.25, weights)
        want = alpha * breakdown.recon + beta * breakdown.latent_aug + gamma * breakdown.cls
        assert abs(breakdown.total - want) <= 1e-12 * max(1.0, abs(want))


class TestGradientRouting:
    def batch(self):
        rng = np.random.default_rng(21)
        return rng.standard_normal((4, 5)), np.array([0, 1, 2, 0])

    def pool_grad_norm(self):
        params = init_model(small_vector_config(), seed=22)
        xb, labels = self.batch()
        for p in params.parameters():
            p.zero_grad()
        tape = Tape()
        _, loss, _ = total_loss(tape, params, xb, labels, None, 0.0,
                                recon_on=False, aug_on=False)
        tape.backward(loss)
        g = np.abs(params.pool.features.grad.data).max()
        g = max(g, np.abs(params.pool.enc_w.grad.data).max())
        dec = np.abs(params.dec_w.grad.data).max()
        return g, dec

    def test_default_lets_cls_gradient_reach_pool(self):
        g, dec = self.pool_grad_norm()
        assert g > 0.0
        assert dec > 0.0

    def test_aug_term_reaches_pool_and_pseudo_classifier(self):
        params = init_model(small_vector_config(), seed=22)
        xb, labels = self.batch()
        stats = stats_for(params, np.random.default_rng(23))
        for p in params.parameters():
            p.zero_grad()
        tape = Tape()
        _, loss, _ = total_loss(tape, params, xb, labels, stats, 0.5,
                                recon_on=False, aug_on=True)
        tape.backward(loss)
        assert np.abs(params.pool.features.grad.data).max() > 0.0
        assert np.abs(params.lat_w.grad.data).max() > 0.0


class TestEndToEndGradCheck:
    def test_full_objective_on_spatial_model(self):
        enc = image_encoder(1, 6, 6, (3,), 4)
        cfg = ModelConfig(enc, num_classes=3, num_latents=3)
        params = init_model(cfg, seed=31)
        rng = np.random.default_rng(32)
        xb = rng.standard_normal((3, 1, 6, 6))
        labels = np.array([0, 1, 2])
        stats = stats_for(params, rng)
        report = end_to_end_grad_check(params, xb, labels, stats, lam=0.5,
                                       weights=LossWeights(0.3, 0.5, 1.0),
                                       tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"

    def test_flags_off_objective_also_checks(self):
        cfg = small_vector_config(latent_on=False)
        params = init_model(cfg, seed=33)
        rng = np.random.default_rng(34)
        xb = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 0])
        report = end_to_end_grad_check(params, xb, labels, None, lam=0.0,
                                       recon_on=False, aug_on=False,
                                       tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"

    def test_raw_isda_objective(self):
        params = init_model(small_vector_config(latent_on=False), seed=36)
        rng = np.random.default_rng(37)
        xb = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 0])
        report = end_to_end_grad_check(params, xb, labels, stats_for(params, rng), lam=0.5,
                                       recon_on=False, aug_on=True, tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"


class TestInitSeeding:
    def test_shared_groups_share_initialization(self):
        # Turning the latent branch off must not disturb encoder or decoder
        # draws; that is what makes ablation rows comparable.
        on = init_model(small_vector_config(latent_on=True), seed=5)
        off = init_model(small_vector_config(latent_on=False), seed=5)
        for a, b in zip(on.encoder, off.encoder):
            assert np.array_equal(a.value.data, b.value.data)
        assert on.dec_w.value.shape == (3, 7)
        assert off.dec_w.value.shape == (3, 4)

    def test_different_seeds_differ(self):
        a = init_model(small_vector_config(), seed=5)
        b = init_model(small_vector_config(), seed=6)
        assert not np.array_equal(a.encoder[0].value.data, b.encoder[0].value.data)


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path):
        params = init_model(small_image_config(), seed=41)
        stats = stats_for(params, np.random.default_rng(42))
        path = tmp_path / "model.lct"
        save_model(path, params, stats, iteration=123)
        loaded, lstats, it = load_model(path, params.config)
        assert it == 123
        for a, b in zip(params.parameters(), loaded.parameters()):
            assert a.id == b.id
            assert np.array_equal(a.value.data, b.value.data)
        assert np.array_equal(stats.count, lstats.count)
        assert np.array_equal(stats.mean, lstats.mean)
        assert np.array_equal(stats.cov, lstats.cov)

    def test_without_stats(self, tmp_path):
        params = init_model(small_vector_config(latent_on=False), seed=41)
        path = tmp_path / "model.lct"
        save_model(path, params, None, iteration=7)
        _, lstats, it = load_model(path, params.config)
        assert lstats is None and it == 7

    def test_config_mismatch_rejected(self, tmp_path):
        params = init_model(small_vector_config(latent_on=True), seed=41)
        path = tmp_path / "model.lct"
        save_model(path, params, None, iteration=0)
        with pytest.raises(ValueError):
            load_model(path, small_vector_config(latent_on=False))

    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    def test_load_follows_the_parameter_table(self, tmp_path, cfg):
        params = init_model(cfg, seed=3)
        table = [(pid, shape) for pid, shape in parameter_shapes(cfg).items()]
        assert [(p.id, p.value.shape) for p in params.parameters()] == table
        path = tmp_path / "model.lct"
        save_model(path, params, None, iteration=1)
        loaded, _, _ = load_model(path, cfg)
        assert [(p.id, p.value.shape) for p in loaded.parameters()] == table
        assert (loaded.pool is None) == (not cfg.latent_on)
        assert [p.id for p in loaded.decay_parameters()] == [
            p.id for p in params.decay_parameters()]

    @pytest.mark.parametrize("cfg, digest", [
        (ALL_CONFIGS[0], "bf8d287780692c72"), (ALL_CONFIGS[1], "edc3070c4ac1d87e"),
        (ALL_CONFIGS[2], "8cd837a8bc14128e"), (ALL_CONFIGS[3], "008f4b676a7a5138"),
    ])
    def test_init_draws_are_pinned(self, cfg, digest):
        # every training record starts from these values
        h = hashlib.sha256()
        for p in init_model(cfg, seed=5).parameters():
            h.update(p.id.encode())
            h.update(p.value.data.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_load_makes_no_draw(self, tmp_path, monkeypatch):
        params = init_model(small_image_config(), seed=41)
        path = tmp_path / "model.lct"
        save_model(path, params, stats_for(params, np.random.default_rng(0)), iteration=2)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(model, "init_model", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded, _, _ = load_model(path, params.config)
        for a, b in zip(params.parameters(), loaded.parameters()):
            assert np.array_equal(a.value.data, b.value.data)

    def test_loaded_arrays_own_writable_memory(self, tmp_path):
        params = init_model(small_vector_config(), seed=41)
        path = tmp_path / "model.lct"
        save_model(path, params, stats_for(params, np.random.default_rng(0)), iteration=2)
        loaded, stats, _ = load_model(path, params.config)
        arrays = [a for p in loaded.parameters() for a in (p.value.data, p.grad.data)]
        for arr in arrays + [stats.count, stats.mean, stats.cov]:
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        assert len({id(a) for a in arrays}) == len(arrays)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    @pytest.mark.parametrize("cfg", [ALL_CONFIGS[0], ALL_CONFIGS[3]])
    def test_sgd_over_loaded_params_matches_original(self, tmp_path, cfg):
        params = init_model(cfg, seed=41)
        stats = stats_for(params, np.random.default_rng(1))
        path = tmp_path / "model.lct"
        save_model(path, params, stats, iteration=0)
        loaded, lstats, _ = load_model(path, cfg)
        rng = np.random.default_rng(2)
        shape = (6, *cfg.encoder.input_shape)
        batches = [(rng.standard_normal(shape), rng.integers(0, 3, 6)) for _ in range(5)]
        trajectories = []
        for p, st_ in ((params, stats), (loaded, lstats)):
            opt = SGD(p.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-3,
                      decay_params=p.decay_parameters())
            for x, y in batches:
                tape = Tape()
                _, loss, _ = total_loss(tape, p, x, y, st_, lam=0.5)
                opt.zero_grad()
                tape.backward(loss)
                opt.step()
            trajectories.append(opt.value.copy())
        assert trajectories[0].tobytes() == trajectories[1].tobytes()

    @pytest.mark.parametrize("name", ["pool.features", "dec.b", "latcls.w", "stats.cov"])
    def test_non_finite_value_rejected(self, tmp_path, name):
        params = init_model(small_vector_config(), seed=41)
        path = tmp_path / "model.lct"
        save_model(path, params, stats_for(params, np.random.default_rng(0)), iteration=2)
        tensors, meta = tensorio.load_tensors(path)
        for value in (np.nan, np.inf, -np.inf):
            tensors[name].reshape(-1)[-1] = value
            tensorio.save_tensors(path, tensors, meta)
            with pytest.raises(ValueError, match=f"non-finite value in tensor {name}"):
                load_model(path, params.config)

    def test_missing_and_misshapen_tensors_named(self, tmp_path):
        params = init_model(small_vector_config(), seed=41)
        path = tmp_path / "model.lct"
        save_model(path, params, None, iteration=2)
        tensors, meta = tensorio.load_tensors(path)
        tensorio.save_tensors(path, {k: v for k, v in tensors.items() if k != "dec.w"}, meta)
        with pytest.raises(ValueError, match="checkpoint missing tensor dec.w"):
            load_model(path, params.config)
        tensorio.save_tensors(path, dict(tensors, **{"pool.enc_b": np.zeros(5)}), meta)
        with pytest.raises(ValueError, match="shape mismatch for pool.enc_b"):
            load_model(path, params.config)


# the `spatial_recon` step: 1x11x11 maps, one hidden conv layer of 8, D 16,
# M 24, B 64, so P = 25 and 1,600 position columns per batch
SPATIAL_CONFIG = ModelConfig(image_encoder(1, 11, 11, (8,), 16), num_classes=10, num_latents=24)

# 300 such steps in a fresh process; prints the minor page faults they take
FAULTS_SCRIPT = """
import resource
import numpy as np
from lcreg import data, model, trainer
from lcreg.augment import AugSchedule, init_stats, update_stats
from lcreg.diffcore import Tape

spec = data.make_mixture_spec(10, 121, seed=0)
train = data.synthesize_mixture(spec, data.build_profile(10, 500, 100.0))
maps = train.samples.reshape(-1, 1, 11, 11)
# a 3,000-map scoring split, synthesized and dropped
test = data.synthesize_mixture(spec, np.full(10, 300), seed=1)
del test
cfg = model.ModelConfig(model.image_encoder(1, 11, 11, (8,), 16), num_classes=10,
                        num_latents=24)
params = model.init_model(cfg, seed=0)
stats = init_stats(24, 16)
warm, steps = 5, 300
schedule = AugSchedule(0.5, warm + steps)
opt = trainer.SGD(params.parameters(), 0.05, 0.9, 5e-4,
                  decay_params=params.decay_parameters())
stream = data.batch_stream(train, "instance_balanced", 64, 0)
ids = np.arange(24)
for t in range(warm + steps):
    if t == warm:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    idx = next(stream)
    tape = Tape()
    _, loss, _ = model.total_loss(tape, params, maps[idx], train.labels[idx], stats,
                                  schedule.lambda_at(t + 1))
    opt.zero_grad()
    tape.backward(loss)
    opt.step()
    stats = update_stats(stats, params.pool.features.value.data, ids)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestStepMemory:
    """A P = 25 step at the `spatial_recon` shape: the record holds keys and
    each backward rule only the arrays it reads, and the replay frees the
    record as it goes, so a finished step holds no activations."""

    def spatial_step(self, keep_fwd=False, before_backward=None):
        params = init_model(SPATIAL_CONFIG, seed=0)
        rng = np.random.default_rng(0)
        stats = stats_for(params, rng)
        xb = rng.standard_normal((64, 1, 11, 11)).astype(np.float32)
        yb = rng.integers(0, 10, 64)

        def step(tape):
            _, loss, fwd = total_loss(tape, params, xb, yb, stats, 0.5)
            assert fwd.positions == 25
            if not keep_fwd:
                del fwd  # what a training loop keeps: the loss node
            if before_backward is not None:
                before_backward(tape)
            tape.backward(loss)
            return loss

        return step

    def traced_peak(self, step):
        step(Tape())  # warm every cache first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = step(Tape())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loss.data.shape == ()
        return peak - base

    def test_traced_peak_of_one_step(self):
        # 2.72 MB; 3.72 MB while the record held every entry's tensors,
        # 5.37 MB while the replay kept its record
        assert self.traced_peak(self.spatial_step()) <= 3.0e6

    def test_traced_peak_with_forward_pieces_kept(self):
        # a caller that holds the forward pass through the replay, as the
        # benchmark's training loop does: 3.06 MB; 3.74 MB while the record
        # held every entry's tensors
        assert self.traced_peak(self.spatial_step(keep_fwd=True)) <= 3.3e6

    def test_record_pins_no_unread_array(self):
        # the input columns, the pre-tanh map and the pre-sigmoid scores are
        # read by no backward rule, so they die with the forward pass
        watched, alive, record = {}, {}, []

        class WatchedTape(Tape):
            def take_flat(self, a, idx):
                watched["input columns"] = weakref.ref(a.data)
                return super().take_flat(a, idx)

            def tanh(self, a):
                watched["pre-tanh map"] = weakref.ref(a.data)
                return super().tanh(a)

            def sigmoid(self, a):
                watched["pre-sigmoid scores"] = weakref.ref(a.data)
                return super().sigmoid(a)

        def look(tape):
            alive.update((name, ref() is not None) for name, ref in watched.items())
            record.extend(tape._entries)

        step = self.spatial_step(before_backward=look)
        step(WatchedTape())
        assert alive == dict.fromkeys(("input columns", "pre-tanh map", "pre-sigmoid scores"),
                                      False)
        assert record
        for key, inputs, bwd in record:
            assert type(key) is int and callable(bwd)
            assert type(inputs) is list and all(type(k) is int for k in inputs)

    def test_finished_step_holds_no_activations(self):
        hidden = []

        class WatchedTape(Tape):
            def tanh(self, a):
                out = super().tanh(a)
                hidden.append(weakref.ref(out.data))
                return out

        step = self.spatial_step()
        step(Tape())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape = WatchedTape()
            step(tape)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(hidden) == 1 and hidden[0]() is None
        # leaf gradients and the input columns: 0.15 MB; 5.37 MB while the
        # replay kept its record and every intermediate gradient
        assert retained < 0.2e6

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts page faults under glibc's allocator")
    def test_warm_steps_keep_their_heap_mapped(self):
        # glibc trims the top of its heap once the free space there passes
        # twice the largest block the process has freed, so what the process
        # freed before sets the bar; dropping the 3,000-map split (1.45 MB)
        # sets it to ~2.9 MB. A step that frees its record as it replays
        # leaves ~2 MB there and keeps it mapped (0-3 faults over the 300
        # steps); one that keeps the record frees ~5.4 MB at once when the
        # tape is dropped, and the script then faults ~90,600 pages.
        src = str(Path(model.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        faults = int(run.stdout.split()[-1])
        assert faults < 20 * 300
