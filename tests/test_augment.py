"""Streaming moments, the augmentation bound, and its Monte-Carlo check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreg import augment
from lcreg.augment import (
    AugSchedule,
    CategoryStats,
    classwise_augmented_logits,
    init_stats,
    isda_upper_bound_loss,
    latent_aug_logits,
    mc_expected_ce,
    merge_stats,
    psd_factor,
    sample_augmented,
    update_stats,
)
from lcreg.diffcore import Tape, Tensor, grad_check
from lcreg.trainer import (TaskSpec, TrainConfig, canonical_record_bytes, make_run_record,
                           run_training)


def population_moments(x):
    mu = x.mean(axis=0)
    c = x - mu
    return mu, c.T @ c / len(x)


def feed_in_chunks(values, chunk_sizes):
    stats = init_stats(1, values.shape[1])
    start = 0
    for size in chunk_sizes:
        chunk = values[start:start + size]
        stats = update_stats(stats, chunk, np.zeros(len(chunk), dtype=np.int64))
        start += size
    assert start == len(values)
    return stats


def test_two_batch_merge_matches_direct():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((10, 3)), rng.standard_normal((6, 3)) + 2.0
    stats = feed_in_chunks(np.concatenate([a, b]), [10, 6])
    mu, cov = population_moments(np.concatenate([a, b]))
    assert np.allclose(stats.mean[0], mu, atol=1e-12)
    assert np.allclose(stats.cov[0], cov, atol=1e-12)
    assert stats.count[0] == 16


def test_merge_bracketing_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((120, 5))
    mu, cov = population_moments(x)
    bracketings = [
        [1] * 120,
        [120],
        [60, 60],
        [40, 40, 40],
        [7, 13, 100],
        [2] * 60,
        [119, 1],
    ]
    for chunks in bracketings:
        stats = feed_in_chunks(x, chunks)
        assert np.abs(stats.mean[0] - mu).max() <= 1e-9
        assert np.abs(stats.cov[0] - cov).max() <= 1e-9


def test_tree_merge_matches_sequential():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((64, 4))
    quarter = [feed_in_chunks(x[i * 16:(i + 1) * 16], [16]) for i in range(4)]
    tree = merge_stats(merge_stats(quarter[0], quarter[1]),
                       merge_stats(quarter[2], quarter[3]))
    mu, cov = population_moments(x)
    assert np.abs(tree.mean[0] - mu).max() <= 1e-9
    assert np.abs(tree.cov[0] - cov).max() <= 1e-9


def test_one_observation_per_category_fast_path():
    # the vectorized all-categories path must agree with per-category merges
    rng = np.random.default_rng(3)
    m, d = 5, 4
    stats_fast = init_stats(m, d)
    stats_slow = init_stats(m, d)
    for _ in range(20):
        obs = rng.standard_normal((m, d))
        stats_fast = update_stats(stats_fast, obs, np.arange(m))
        for c in range(m):
            stats_slow = update_stats(stats_slow, obs[c:c + 1], np.array([c]))
    assert np.array_equal(stats_fast.count, stats_slow.count)
    assert np.allclose(stats_fast.mean, stats_slow.mean, atol=1e-12)
    assert np.allclose(stats_fast.cov, stats_slow.cov, atol=1e-12)


def test_one_observation_merge_is_merge_bit_for_bit():
    # the fast path must reproduce _merge with n_b = 1 and cov_b = 0 exactly,
    # signed zeros included, and leave the stats it is given untouched
    rng = np.random.default_rng(15)
    m, d = 6, 4
    stats = init_stats(m, d)
    for step in range(50):
        obs = rng.standard_normal((m, d)) * (1.0 + step % 5)
        if step % 2:
            obs[step % m] = -0.0
        kept = [a.copy() for a in (stats.count, stats.mean, stats.cov)]
        got = update_stats(stats, obs, np.arange(m))
        want = augment._merge(stats, np.ones(m, dtype=np.int64), obs, np.zeros((m, d, d)))
        for before, now in zip(kept, (stats.count, stats.mean, stats.cov)):
            assert before.tobytes() == now.tobytes()
        for a, b in ((got.count, want.count), (got.mean, want.mean), (got.cov, want.cov)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        stats = got


def loop_merge_one(n_a, mu_a, cov_a, n_b, mu_b, cov_b):
    """Reference: the count-weighted merge formula, one category at a time."""
    n = n_a + n_b
    if n_a == 0:
        return n_b, mu_b.copy(), cov_b.copy()
    if n_b == 0:
        return n_a, mu_a.copy(), cov_a.copy()
    mu = (n_a * mu_a + n_b * mu_b) / n
    delta = mu_a - mu_b
    cov = (n_a * cov_a + n_b * cov_b) / n + (n_a * n_b) * np.outer(delta, delta) / (n * n)
    return n, mu, cov


def loop_update(stats, values, categories):
    count, mean, cov = stats.count.copy(), stats.mean.copy(), stats.cov.copy()
    for c in np.unique(categories):
        chunk = values[categories == c]
        mu, s = population_moments(chunk)
        count[c], mean[c], cov[c] = loop_merge_one(
            int(count[c]), mean[c], cov[c], len(chunk), mu, s)
    return CategoryStats(count, mean, cov)


def loop_merge(a, b):
    merged = [loop_merge_one(int(a.count[m]), a.mean[m], a.cov[m],
                             int(b.count[m]), b.mean[m], b.cov[m])
              for m in range(a.num_categories)]
    return CategoryStats(*(np.array(part) for part in zip(*merged)))


def assert_stats_close(got, want, tol=1e-12):
    assert np.array_equal(got.count, want.count)
    assert np.abs(got.mean - want.mean).max() <= tol
    assert np.abs(got.cov - want.cov).max() <= tol


def test_update_matches_per_category_loop():
    # categories 5 and 6 never appear; 4 appears only from the third batch on,
    # so it starts from empty running stats
    rng = np.random.default_rng(12)
    m, d = 7, 3
    fast = slow = init_stats(m, d)
    for step in range(6):
        labels = rng.integers(0, 4 if step < 2 else 5, size=9)
        values = rng.standard_normal((9, d)) * 2.0 + labels[:, None]
        fast, slow = update_stats(fast, values, labels), loop_update(slow, values, labels)
        assert_stats_close(fast, slow)
    assert fast.count[4] > 0 and fast.count[5] == fast.count[6] == 0


def test_absent_categories_keep_moments_bit_exactly():
    rng = np.random.default_rng(13)
    m, d = 6, 8
    a = rng.standard_normal((m, d, d))
    stats = CategoryStats(rng.integers(3, 50, size=m), rng.standard_normal((m, d)),
                          np.einsum("mde,mfe->mdf", a, a))
    labels = np.array([1, 3, 3, 1, 3])
    after = update_stats(stats, rng.standard_normal((5, d)), labels)
    for c in (0, 2, 4, 5):
        assert after.count[c] == stats.count[c]
        assert np.array_equal(after.mean[c], stats.mean[c])
        assert np.array_equal(after.cov[c], stats.cov[c])


def test_merge_stats_matches_loop_with_empty_categories():
    # category 0 is empty in a, 1 in b, 2 in both, 3 in neither
    rng = np.random.default_rng(14)
    m, d = 4, 3

    def fed(cats):
        labels = rng.choice(cats, size=12)
        return update_stats(init_stats(m, d), rng.standard_normal((12, d)), labels)

    a, b = fed([1, 3]), fed([0, 3])
    merged = merge_stats(a, b)
    assert_stats_close(merged, loop_merge(a, b))
    assert np.array_equal(merged.count, a.count + b.count)
    for src, c in ((b, 0), (a, 1)):
        assert np.array_equal(merged.mean[c], src.mean[c])
        assert np.array_equal(merged.cov[c], src.cov[c])
    assert merged.count[2] == 0
    assert np.all(merged.mean[2] == 0.0) and np.all(merged.cov[2] == 0.0)


def test_single_observation_gives_zero_covariance():
    stats = update_stats(init_stats(2, 3), np.ones((1, 3)), np.array([1]))
    assert stats.count[1] == 1
    assert np.all(stats.cov[1] == 0.0)
    assert stats.count[0] == 0
    assert np.all(stats.mean[0] == 0.0)


def test_stats_validation():
    with pytest.raises(ValueError):
        CategoryStats(np.array([0]), np.ones((1, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        CategoryStats(np.array([-1]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    stats = init_stats(2, 3)
    with pytest.raises(ValueError):
        update_stats(stats, np.ones((1, 3)), np.array([2]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_merge_associativity_property(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) * (1.0 + (seed % 7))
    cut = rng.integers(1, n) if n > 1 else 1
    merged = merge_stats(feed_in_chunks(x[:cut], [cut]),
                         feed_in_chunks(x[cut:], [n - cut]) if n > cut
                         else init_stats(1, 3))
    mu, cov = population_moments(x)
    assert np.abs(merged.mean[0] - mu).max() <= 1e-9
    assert np.abs(merged.cov[0] - cov).max() <= 1e-9


def test_lambda_schedule():
    sched = AugSchedule(lambda0=0.8, total_iters=100)
    assert sched.lambda_at(0) == 0.0
    assert sched.lambda_at(50) == pytest.approx(0.4, rel=1e-15)
    assert sched.lambda_at(100) == pytest.approx(0.8, rel=1e-15)
    assert sched.lambda_at(250) == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(ValueError):
        sched.lambda_at(-1)
    with pytest.raises(ValueError):
        AugSchedule(lambda0=-0.1, total_iters=10)


def unit_stats(m, d, cov=None):
    c = np.zeros((m, d, d)) if cov is None else cov
    return CategoryStats(np.full(m, 2), np.zeros((m, d)), c)


def test_hand_instance_is_log_two():
    # M=2, D=1: latents +1/-1, weights +1/-1, unit variances, lambda=1.
    # Both rows come out [0, 0], so the loss is exactly log 2.
    tape = Tape()
    latents = tape.constant(np.array([[1.0], [-1.0]]))
    w = tape.constant(np.array([[1.0], [-1.0]]))
    b = tape.constant(np.zeros(2))
    stats = unit_stats(2, 1, np.ones((2, 1, 1)))
    loss = isda_upper_bound_loss(tape, latents, w, b, stats, lam=1.0)
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-14)


def test_z_diagonal_exactly_zero():
    rng = np.random.default_rng(4)
    m, d = 6, 5
    cov = rng.standard_normal((m, d, d))
    cov = np.einsum("mde,mfe->mdf", cov, cov)  # PSD per category
    stats = CategoryStats(np.full(m, 3), rng.standard_normal((m, d)), cov)
    tape = Tape()
    z = latent_aug_logits(
        tape,
        tape.constant(rng.standard_normal((m, d))),
        tape.constant(rng.standard_normal((m, d))),
        tape.constant(rng.standard_normal(m)),
        stats,
        lam=0.7,
    )
    assert np.all(np.diagonal(z.data) == 0.0)


def test_latent_aug_logits_matches_numpy_loop():
    rng = np.random.default_rng(11)
    m, d, lam = 7, 5, 0.8
    latents, w, b = rng.standard_normal((m, d)), rng.standard_normal((m, d)), rng.standard_normal(m)
    cov = rng.standard_normal((m, d, d))  # not symmetric: the kernel must not assume it
    stats = CategoryStats(np.full(m, 3), np.zeros((m, d)), cov)
    tape = Tape()
    z = latent_aug_logits(
        tape, tape.constant(latents), tape.constant(w), tape.constant(b), stats, lam
    ).data
    expect = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            diff = w[j] - w[i]
            expect[i, j] = diff @ latents[i] + b[j] - b[i] + 0.5 * lam * diff @ cov[i] @ diff
    assert np.abs(z - expect).max() <= 1e-12
    assert np.all(np.diagonal(z) == 0.0)


def _sub_colvec(tape, a, v):
    """The retired ``Tape.sub_colvec``: a[n, m] - v[n] across columns."""
    return tape._record(Tensor(a.data - v.data[:, None]), (a, v),
                        lambda g: (g, -g.sum(axis=1)))


def composed_latent_aug_logits(tape, latents, w, b, stats, lam):
    """The tape composition ``Tape.isda_scores`` replaced: seven entries."""
    m = latents.shape[0]
    plain = tape.transpose(tape.linear_map_1x1(tape.transpose(latents), w, b))
    aug = tape.add(plain, tape.quadratic_penalty(w, stats.cov, lam))
    return _sub_colvec(tape, aug, tape.take_flat(aug, np.arange(m) * (m + 1)))


def test_full_run_matches_composed_bound_byte_for_byte(monkeypatch):
    task = TaskSpec()
    cfg = TrainConfig(variant="full", t1_iters=200, t2_iters=20)

    def run():
        # the record alone can miss a last-bit change, so the weights and
        # statistics it ends with are compared too
        result = run_training(cfg, task)
        stats = result.stats
        return (canonical_record_bytes(make_run_record(cfg, task, result)),
                [p.value.data.tobytes() for p in result.params.parameters()],
                [a.tobytes() for a in (stats.count, stats.mean, stats.cov)])

    fused = run()
    monkeypatch.setattr(augment, "latent_aug_logits", composed_latent_aug_logits)
    assert run() == fused


def test_lambda_zero_equals_plain_cross_entropy():
    rng = np.random.default_rng(5)
    m, d = 4, 6
    latents = rng.standard_normal((m, d))
    w, b = rng.standard_normal((m, d)), rng.standard_normal(m)
    stats = unit_stats(m, d)
    tape = Tape()
    loss = isda_upper_bound_loss(
        tape, tape.constant(latents), tape.constant(w), tape.constant(b), stats, lam=0.0
    )
    logits = latents @ w.T + b
    mx = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - mx).sum(axis=1)) + mx[:, 0]
    plain = float((lse - np.diag(logits)).mean())
    assert abs(loss.item() - plain) <= 1e-12


def test_bound_dominates_monte_carlo():
    rng = np.random.default_rng(6)
    m, d = 5, 8
    for lam in (0.25, 0.5, 1.0):
        a = rng.standard_normal((m, d, d)) / np.sqrt(d)
        cov = np.einsum("mde,mfe->mdf", a, a)
        latents = rng.standard_normal((m, d))
        w, b = rng.standard_normal((m, d)), rng.standard_normal(m)
        stats = CategoryStats(np.full(m, 10), np.zeros((m, d)), cov)
        tape = Tape()
        z = latent_aug_logits(
            tape, tape.constant(latents), tape.constant(w), tape.constant(b), stats, lam
        ).data
        # per-category bound: log-sum-exp of the z row
        per_cat_bound = np.log(np.exp(z).sum(axis=1))
        mean_loss = isda_upper_bound_loss(
            Tape(), tape.constant(latents), tape.constant(w), tape.constant(b), stats, lam
        )
        for cat in range(m):
            est, stderr = mc_expected_ce(
                latents[cat], cov[cat], lam, w, b, cat, 20000, seed=cat
            )
            assert per_cat_bound[cat] >= est - 3.0 * stderr
        assert mean_loss.item() == pytest.approx(per_cat_bound.mean(), rel=1e-12)


def test_isda_loss_gradcheck():
    rng = np.random.default_rng(7)
    m, d = 4, 5
    a = rng.standard_normal((m, d, d)) / np.sqrt(d)
    cov = np.einsum("mde,mfe->mdf", a, a)
    stats = CategoryStats(np.full(m, 5), np.zeros((m, d)), cov)

    def fn(tape, latents, w, b):
        return isda_upper_bound_loss(tape, latents, w, b, stats, lam=0.6)

    rep = grad_check(
        "isda_loss",
        fn,
        [rng.standard_normal((m, d)), rng.standard_normal((m, d)), rng.standard_normal(m)],
        tolerance=1e-5,
    )
    assert rep.passed, rep


def test_classwise_augmented_logits_matches_manual():
    rng = np.random.default_rng(8)
    b_sz, c, d = 6, 3, 4
    a = rng.standard_normal((c, d, d)) / np.sqrt(d)
    cov = np.einsum("mde,mfe->mdf", a, a)
    stats = CategoryStats(np.full(c, 4), np.zeros((c, d)), cov)
    logits = rng.standard_normal((b_sz, c))
    w = rng.standard_normal((c, d))
    labels = rng.integers(0, c, b_sz)
    lam = 0.9
    tape = Tape()
    aug = classwise_augmented_logits(
        tape, tape.constant(logits), tape.constant(w), labels, stats, lam
    )
    expect = logits.copy()
    for i, y in enumerate(labels):
        for j in range(c):
            diff = w[j] - w[y]
            expect[i, j] += 0.5 * lam * diff @ cov[y] @ diff
    assert np.allclose(aug.data, expect, atol=1e-12)


def test_classwise_augmented_logits_gradcheck():
    # repeated labels: the gather's backward must sum every sample's
    # contribution into its class row of the penalty
    rng = np.random.default_rng(12)
    b_sz, c, d = 6, 3, 4
    a = rng.standard_normal((c, d, d)) / np.sqrt(d)
    stats = CategoryStats(np.full(c, 4), np.zeros((c, d)), np.einsum("mde,mfe->mdf", a, a))
    labels = np.array([2, 0, 2, 1, 2, 0])
    rep = grad_check(
        "classwise_augmented_logits",
        lambda t, logits, w: classwise_augmented_logits(t, logits, w, labels, stats, 0.9),
        [rng.standard_normal((b_sz, c)), rng.standard_normal((c, d))],
    )
    assert rep.passed, rep


def test_sample_augmented_moments_and_lambda_zero():
    rng = np.random.default_rng(9)
    d = 4
    a = rng.standard_normal((d, d))
    cov = a @ a.T
    mean = rng.standard_normal(d)
    x = sample_augmented(mean, cov, lam=0.5, count=200000, seed=3)
    emp_mu, emp_cov = population_moments(x)
    assert np.abs(emp_mu - mean).max() < 0.05
    assert np.abs(emp_cov - 0.5 * cov).max() < 0.1
    frozen = sample_augmented(mean, cov, lam=0.0, count=10, seed=3)
    assert np.all(frozen == mean)


def test_psd_repair_and_rejection():
    cov = np.diag([1.0, -5e-9])  # within tolerance: clamped to zero
    f = psd_factor(cov)
    assert np.allclose(f @ f.T, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValueError):
        psd_factor(np.diag([1.0, -1e-3]))
