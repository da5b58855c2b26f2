"""Latent pool: similarity maps, reconstruction, loss, fusion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreg.diffcore import Parameter, ShapeError, Tape, grad_check
from lcreg.latent import (
    LatentPool,
    fuse_for_decoder,
    init_pool,
    reconstruct,
    reconstruction_loss,
    similarity_maps,
)


def identity_pool(m, d):
    """Pool with identity encoding map and given latent count, for hand math."""
    return LatentPool(
        features=Parameter(np.zeros((m, d)), "pool.features"),
        enc_w=Parameter(np.eye(d), "pool.enc_w"),
        enc_b=Parameter(np.zeros(d), "pool.enc_b"),
    )


def test_hand_similarity_single_position():
    # M=2, D=2, identity encoder. f column [1, 0].
    # latents [[2, 0], [0, 3]] give sigmoid scores sigmoid(2) and sigmoid(0).
    pool = identity_pool(2, 2)
    pool.features.value.data[:] = [[2.0, 0.0], [0.0, 3.0]]
    f = np.array([[1.0], [0.0]])
    tape = Tape()
    sims = similarity_maps(tape, pool, tape.constant(f))
    s2 = 1.0 / (1.0 + math.exp(-2.0))
    s0 = 0.5
    e2, e0 = math.exp(s2), math.exp(s0)
    assert sims.normalized.data[0, 0] == pytest.approx(e2 / (e2 + e0), rel=1e-12)
    assert sims.normalized.data[1, 0] == pytest.approx(e0 / (e2 + e0), rel=1e-12)
    assert sims.normalized.data[:, 0].sum() == pytest.approx(1.0, abs=1e-15)


def test_normalized_columns_sum_to_one():
    rng = np.random.default_rng(0)
    pool = init_pool(5, 8, seed=1)
    f = rng.standard_normal((8, 12))
    tape = Tape()
    sims = similarity_maps(tape, pool, tape.constant(f))
    assert np.all(np.abs(sims.normalized.data.sum(axis=0) - 1.0) <= 1e-12)


def test_identity_reconstruction_loss_value():
    # Force corr = 10 * I on HW=2: loss = log(1 + exp(-10)) per row.
    pool = identity_pool(2, 2)
    tape = Tape()
    corr = tape.constant(10.0 * np.eye(2))
    from lcreg.latent import Reconstruction

    recon = Reconstruction(f_hat=tape.constant(np.zeros((2, 2))), corr=corr)
    loss = reconstruction_loss(tape, recon)
    assert loss.item() == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_reconstruction_shapes_and_loss_runs():
    rng = np.random.default_rng(2)
    pool = init_pool(6, 8, seed=3)
    f = rng.standard_normal((8, 16))
    tape = Tape()
    node = tape.constant(f)
    sims = similarity_maps(tape, pool, node)
    recon = reconstruct(tape, sims, node, positions_per_sample=16)
    assert recon.f_hat.shape == (8, 16)
    assert recon.corr.shape == (16, 16)  # one sample: its whole correlation matrix
    loss = reconstruction_loss(tape, recon)
    assert np.isfinite(loss.item())


def test_reconstruction_batched_blocks_match_per_sample():
    rng = np.random.default_rng(4)
    pool = init_pool(4, 6, seed=5)
    fa, fb = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))

    def loss_of(cols, p):
        tape = Tape()
        node = tape.constant(cols)
        sims = similarity_maps(tape, pool, node)
        recon = reconstruct(tape, sims, node, positions_per_sample=p)
        return reconstruction_loss(tape, recon).item()

    stacked = loss_of(np.concatenate([fa, fb], axis=1), 5)
    separate = 0.5 * (loss_of(fa, 5) + loss_of(fb, 5))
    assert stacked == pytest.approx(separate, rel=1e-12)


@pytest.mark.parametrize("batch,positions", [(1, 1), (1, 16), (3, 5), (64, 25)])
def test_reconstruction_loss_matches_numpy_loop(batch, positions):
    rng = np.random.default_rng(batch * 100 + positions)
    pool = init_pool(5, 6, seed=positions)
    f = rng.standard_normal((6, batch * positions))
    tape = Tape()
    node = tape.constant(f)
    recon = reconstruct(tape, similarity_maps(tape, pool, node), node,
                        positions_per_sample=positions)
    got = reconstruction_loss(tape, recon).item()

    # independent per-sample loop in plain numpy
    enc = pool.features.value.data @ pool.enc_w.value.data.T + pool.enc_b.value.data
    raw = 1.0 / (1.0 + np.exp(-(enc @ f)))
    norm = np.exp(raw - raw.max(axis=0))
    norm /= norm.sum(axis=0)
    f_hat = enc.T @ norm
    losses = []
    for s in range(0, batch * positions, positions):
        corr = f_hat[:, s:s + positions].T @ f[:, s:s + positions]
        mx = corr.max(axis=1, keepdims=True)
        lse = np.log(np.exp(corr - mx).sum(axis=1)) + mx[:, 0]
        losses.append(np.mean(lse - np.diag(corr)))
    want = float(np.mean(losses))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_pool_features_receive_gradient_from_recon_loss():
    rng = np.random.default_rng(6)
    pool = init_pool(4, 6, seed=7)
    f = rng.standard_normal((6, 9))
    tape = Tape()
    node = tape.constant(f)
    sims = similarity_maps(tape, pool, node)
    recon = reconstruct(tape, sims, node, positions_per_sample=9)
    loss = reconstruction_loss(tape, recon)
    tape.backward(loss)
    assert np.abs(pool.features.grad.data).max() > 0.0
    assert np.abs(pool.enc_w.grad.data).max() > 0.0


def test_recon_loss_gradcheck_wrt_pool():
    rng = np.random.default_rng(8)
    f = rng.standard_normal((5, 6))
    enc_w = np.eye(5) + 0.01 * rng.standard_normal((5, 5))
    enc_b = rng.standard_normal(5) * 0.1
    feats = rng.standard_normal((3, 5))

    def fn(tape, feats_in, w_in, b_in):
        # same pipeline as similarity_maps/reconstruct, but the pool tensors
        # come in as checkable inputs instead of parameters
        node = tape.constant(f)
        enc = tape.transpose(tape.linear_map_1x1(tape.transpose(feats_in), w_in, b_in))
        raw = tape.sigmoid(tape.matmul(enc, node))
        normalized = tape.softmax(raw, axis=0)
        f_hat = tape.matmul(tape.transpose(enc), normalized)
        corr = tape.matmul(tape.transpose(f_hat), node)
        return tape.cross_entropy(corr, np.arange(6))

    rep = grad_check("recon_loss", fn, [feats, enc_w, enc_b], tolerance=1e-5)
    assert rep.passed, rep


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    pool = init_pool(5, 7, seed=10)
    f = rng.standard_normal((7, 4))
    perm = np.array([3, 0, 4, 1, 2])

    def outputs(p):
        tape = Tape()
        node = tape.constant(f)
        sims = similarity_maps(tape, p, node)
        recon = reconstruct(tape, sims, node, positions_per_sample=4)
        loss = reconstruction_loss(tape, recon)
        return sims.normalized.data.copy(), loss.item()

    base_norm, base_loss = outputs(pool)
    permuted = LatentPool(
        features=Parameter(pool.features.value.data[perm], "pool.features"),
        enc_w=Parameter(pool.enc_w.value.data.copy(), "pool.enc_w"),
        enc_b=Parameter(pool.enc_b.value.data.copy(), "pool.enc_b"),
    )
    perm_norm, perm_loss = outputs(permuted)
    assert np.allclose(perm_norm, base_norm[perm], atol=1e-12)
    assert perm_loss == pytest.approx(base_loss, rel=1e-12)


def test_fusion_stacks_channels():
    rng = np.random.default_rng(11)
    pool = init_pool(3, 4, seed=12)
    f = rng.standard_normal((4, 6))
    tape = Tape()
    node = tape.constant(f)
    sims = similarity_maps(tape, pool, node)
    fused = fuse_for_decoder(tape, node, sims, positions=1)
    assert fused.shape == (7, 6)
    assert np.array_equal(fused.data[:4], f)
    assert np.array_equal(fused.data[4:], sims.normalized.data)


def test_fusion_pools_each_sample_then_stacks_channels():
    rng = np.random.default_rng(16)
    pool = init_pool(3, 4, seed=17)
    f = rng.standard_normal((4, 6))  # two samples of three positions
    tape = Tape()
    node = tape.constant(f)
    sims = similarity_maps(tape, pool, node)
    fused = fuse_for_decoder(tape, node, sims, positions=3)
    assert fused.shape == (7, 2)
    assert np.array_equal(fused.data[:4], f.reshape(4, 2, 3).mean(axis=2))
    assert np.array_equal(fused.data[4:], sims.normalized.data.reshape(3, 2, 3).mean(axis=2))
    assert np.allclose(fused.data[4:].sum(axis=0), 1.0, atol=1e-15)


def test_single_latent_pool_degenerates_to_ones():
    pool = init_pool(1, 4, seed=13)
    tape = Tape()
    f = tape.constant(np.random.default_rng(1).standard_normal((4, 5)))
    sims = similarity_maps(tape, pool, f)
    assert np.allclose(sims.normalized.data, 1.0, atol=1e-15)


def test_optimizing_recon_loss_decreases_it():
    rng = np.random.default_rng(14)
    pool = init_pool(6, 8, seed=15)
    f = rng.standard_normal((8, 9))
    losses = []
    velocity = {id(p): np.zeros_like(p.value.data) for p in pool.parameters()}
    for _ in range(500):
        tape = Tape()
        node = tape.constant(f)
        sims = similarity_maps(tape, pool, node)
        recon = reconstruct(tape, sims, node, positions_per_sample=9)
        loss = reconstruction_loss(tape, recon)
        losses.append(loss.item())
        for p in pool.parameters():
            p.zero_grad()
        tape.backward(loss)
        for p in pool.parameters():
            v = velocity[id(p)]
            v *= 0.9
            v += p.grad.data
            p.value.data -= 0.5 * v
    # decreasing in the large: each 100-step window improves on the previous
    windows = [np.mean(losses[i:i + 100]) for i in range(0, 500, 100)]
    assert all(b < a for a, b in zip(windows, windows[1:]))
    assert losses[-1] < losses[0]


def test_pool_validation():
    with pytest.raises(ValueError):
        LatentPool(
            features=Parameter(np.zeros((0, 4)), "pool.features"),
            enc_w=Parameter(np.eye(4), "pool.enc_w"),
            enc_b=Parameter(np.zeros(4), "pool.enc_b"),
        )
    with pytest.raises(ValueError):
        LatentPool(
            features=Parameter(np.zeros((2, 4)), "pool.features"),
            enc_w=Parameter(np.eye(3), "pool.enc_w"),
            enc_b=Parameter(np.zeros(4), "pool.enc_b"),
        )


def test_similarity_rejects_wrong_dim():
    pool = init_pool(3, 4, seed=0)
    tape = Tape()
    with pytest.raises(ShapeError):
        similarity_maps(tape, pool, tape.constant(np.zeros((5, 2))))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 9), st.integers(1, 11))
def test_normalization_property(seed, m, d, p):
    rng = np.random.default_rng(seed)
    pool = init_pool(m, d, seed=seed % 1000)
    tape = Tape()
    sims = similarity_maps(tape, pool, tape.constant(rng.standard_normal((d, p)) * 3.0))
    cols = sims.normalized.data.sum(axis=0)
    assert np.all(np.abs(cols - 1.0) <= 1e-12)
    assert np.isfinite(sims.normalized.data).all()
