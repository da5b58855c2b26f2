"""Release gate: ten checks, one per shipped guarantee.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line carrying the measured
quantity next to its threshold (run with ``-s`` to see the lines as they
happen; captured output is replayed on failure). The two expensive grids —
the component ablation and the loss-weight sweep — run once per module in
shared fixtures. Everything is seeded, so reruns print the same numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from lcreg.augment import (
    init_stats,
    isda_upper_bound_loss,
    latent_aug_logits,
    mc_expected_ce,
    merge_stats,
    update_stats,
)
from lcreg.baseline import train_baseline
from lcreg.data import build_profile, realized_imbalance
from lcreg.diffcore import Tape, standard_kernel_checks
from lcreg.latent import init_pool, reconstruct, reconstruction_loss, similarity_maps
from lcreg.model import (
    LossWeights,
    ModelConfig,
    end_to_end_grad_check,
    image_encoder,
    init_model,
)
from lcreg.trainer import (
    TaskSpec,
    TrainConfig,
    canonical_record_bytes,
    make_run_record,
    make_task_data,
    run_ablation,
    run_training,
)

SEEDS = (0, 1, 2, 3, 4)


def _verdict(label: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


# -- shared expensive runs --------------------------------------------------

@pytest.fixture(scope="module")
def component_grid():
    """Six-row component grid over five shared-data seeds, timed."""
    t0 = time.perf_counter()
    grid = run_ablation(TrainConfig(), TaskSpec(), seeds=SEEDS)
    return grid, time.perf_counter() - t0


@pytest.fixture(scope="module")
def weight_grid():
    """Full model at four (alpha, beta) pairs, five seeds each."""
    pairs = ((1.0, 1.0), (0.1, 0.1), (1.0, 0.1), (0.1, 1.0))
    grid = run_ablation(TrainConfig(), TaskSpec(), SEEDS,
                        rows={(a, b): dict(alpha=a, beta=b) for a, b in pairs})
    return {pair: {"overall": cell.get("overall", float("nan")),
                   "diverged": len(SEEDS) - cell["num_clean"]}
            for pair, cell in grid["summary"].items()}


# -- the ten checks ---------------------------------------------------------

def test_01_gradient_suite():
    t0 = time.perf_counter()
    kernel_reports = standard_kernel_checks(instances=10, seed=0)
    worst_kernel = max(r.max_rel_err for r in kernel_reports)
    kernels_ok = all(r.passed for r in kernel_reports) and worst_kernel <= 1e-5

    worst_e2e = 0.0
    e2e_ok = True
    for inst in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([inst, 9]))
        cfg = ModelConfig(encoder=image_encoder(1, 6, 6, (3,), 4),
                          num_classes=3, num_latents=3)
        params = init_model(cfg, seed=inst)
        xb = rng.standard_normal((2, 1, 6, 6))
        labels = rng.integers(0, 3, size=2)
        stats = update_stats(init_stats(3, 4),
                             rng.standard_normal((30, 4)),
                             rng.integers(0, 3, size=30))
        report = end_to_end_grad_check(
            params, xb, labels, stats, lam=0.5,
            weights=LossWeights(alpha=0.2, beta=0.3, gamma=1.0),
            tolerance=1e-4,
        )
        worst_e2e = max(worst_e2e, report.max_rel_err)
        e2e_ok = e2e_ok and report.passed
    elapsed = time.perf_counter() - t0
    _verdict(
        "gradient suite",
        kernels_ok and e2e_ok and elapsed < 60.0,
        f"kernel max rel err {worst_kernel:.2e} (tol 1e-05), "
        f"end-to-end {worst_e2e:.2e} (tol 1e-04), {elapsed:.1f}s < 60s",
    )


def test_02_streaming_moment_merges():
    rng = np.random.default_rng(np.random.SeedSequence([2, 2]))
    obs = rng.standard_normal((1000, 8)) * (0.5 + rng.random(8)) + rng.standard_normal(8)
    cats = np.zeros(1000, dtype=np.int64)
    mean_ref = obs.mean(axis=0)
    centered = obs - mean_ref
    cov_ref = centered.T @ centered / len(obs)

    def chunked(sizes):
        stats = init_stats(1, 8)
        start = 0
        for size in sizes:
            stats = update_stats(stats, obs[start:start + size],
                                 cats[start:start + size])
            start += size
        assert start == 1000
        return stats

    bracketings = [
        [1000],
        [500, 500],
        [100] * 10,
        [1] * 1000,
        [1, 999],
        [999, 1],
        [7, 13, 180, 300, 500],
    ]
    worst = 0.0
    for sizes in bracketings:
        stats = chunked(sizes)
        worst = max(worst,
                    np.abs(stats.mean[0] - mean_ref).max(),
                    np.abs(stats.cov[0] - cov_ref).max())
        assert stats.count[0] == 1000
    # same data split in two and combined through the pairwise merge
    left = update_stats(init_stats(1, 8), obs[:400], cats[:400])
    right = update_stats(init_stats(1, 8), obs[400:], cats[400:])
    merged = merge_stats(left, right)
    worst = max(worst,
                np.abs(merged.mean[0] - mean_ref).max(),
                np.abs(merged.cov[0] - cov_ref).max())
    _verdict(
        "streaming moments",
        worst <= 1e-9,
        f"1000 obs, 7 bracketings + pairwise merge, "
        f"max abs deviation {worst:.2e} <= 1e-09",
    )


def test_03_augmented_loss_bounds_sampled_risk():
    m, d = 5, 8
    worst_margin = np.inf
    worst_eq = 0.0
    cells = 0
    for inst in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([inst, 33]))
        latents = rng.standard_normal((m, d))
        w = rng.standard_normal((m, d))
        b = rng.standard_normal(m)
        stats = init_stats(m, d)
        for cat in range(m):
            scale = 0.3 + rng.random(d)
            obs = rng.standard_normal((60, d)) * scale + rng.standard_normal(d)
            stats = update_stats(stats, obs, np.full(60, cat, dtype=np.int64))
        for lam in (0.25, 0.5, 1.0):
            tape = Tape()
            z = latent_aug_logits(tape, tape.constant(latents), tape.constant(w),
                                  tape.constant(b), stats, lam)
            zd = z.data
            mx = zd.max(axis=1, keepdims=True)
            bound_rows = np.log(np.exp(zd - mx).sum(axis=1)) + mx[:, 0]
            for cat in range(m):
                est, stderr = mc_expected_ce(
                    latents[cat], stats.cov[cat], lam, w, b, cat,
                    n_samples=100_000, seed=10_000 * inst + cat,
                )
                worst_margin = min(worst_margin,
                                   bound_rows[cat] - (est - 3.0 * stderr))
                cells += 1
        # lam = 0: the bound collapses to the plain cross-entropy exactly
        tape = Tape()
        bound0 = float(isda_upper_bound_loss(
            tape, tape.constant(latents), tape.constant(w), tape.constant(b),
            stats, 0.0).data)
        logits = latents @ w.T + b
        mx = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - mx).sum(axis=1)) + mx[:, 0]
        plain = float((lse - np.diag(logits)).mean())
        worst_eq = max(worst_eq, abs(bound0 - plain))
    _verdict(
        "augmented-loss upper bound",
        worst_margin >= 0.0 and worst_eq <= 1e-12,
        f"{cells} bound cells, min(bound - (mc - 3*stderr)) = {worst_margin:.4f} >= 0, "
        f"lam=0 equality {worst_eq:.2e} <= 1e-12",
    )


def test_04_similarity_normalization():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([i, 44]))
        m = int(rng.integers(2, 13))
        d = int(rng.integers(3, 17))
        p = int(rng.integers(1, 37))
        pool = init_pool(m, d, seed=i)
        tape = Tape()
        f = tape.constant(rng.standard_normal((d, p)) * (0.2 + 2.0 * rng.random()))
        sims = similarity_maps(tape, pool, f)
        worst = max(worst, np.abs(sims.normalized.data.sum(axis=0) - 1.0).max())
    _verdict(
        "similarity normalization",
        worst <= 1e-12,
        f"100 forwards, max |column sum - 1| = {worst:.2e} <= 1e-12",
    )


def test_05_reconstruction_descent():
    d, p, m = 8, 16, 8
    rng = np.random.default_rng(np.random.SeedSequence([0, 7]))
    f_fixed = rng.standard_normal((d, p))
    pool = init_pool(m, d, seed=0)
    params = [pool.features, pool.enc_w, pool.enc_b]
    velocity = {id(q): np.zeros_like(q.value.data) for q in params}

    first = last = None
    for _ in range(500):
        tape = Tape()
        f = tape.constant(f_fixed)
        sims = similarity_maps(tape, pool, f)
        recon = reconstruct(tape, sims, f, positions_per_sample=p)
        loss = reconstruction_loss(tape, recon)
        last = float(loss.data)
        if first is None:
            first = last
        tape.backward(loss)
        for q in params:
            v = velocity[id(q)]
            v *= 0.9
            v += q.grad.data
            q.value.data -= 0.5 * v
            q.grad.data[...] = 0.0

    tape = Tape()
    f = tape.constant(f_fixed)
    sims = similarity_maps(tape, pool, f)
    corr = reconstruct(tape, sims, f, positions_per_sample=p).corr.data[:p]
    mx = corr.max(axis=1, keepdims=True)
    probs = np.exp(corr - mx)
    probs /= probs.sum(axis=1, keepdims=True)
    diag_prob = float(np.mean(np.diag(probs)))
    _verdict(
        "reconstruction descent",
        last <= 0.5 * first and diag_prob >= 3.0 / p,
        f"500 steps: loss {first:.3f} -> {last:.4f} "
        f"(<= 50% required), mean diagonal prob {diag_prob:.3f} >= {3.0 / p:.4f}",
    )


def test_06_longtail_profile_ratio():
    details = []
    ok = True
    for factor in (10, 50, 100):
        counts = build_profile(10, 5000, factor)
        realized = realized_imbalance(counts)
        rel = abs(realized - factor) / factor
        ok = ok and rel <= 0.02
        details.append(f"IF {factor}: realized {realized:.2f} ({rel:.2%})")
    _verdict("long-tail profile",
             ok, "; ".join(details) + " — all within 2%")


def test_07_component_grid_beats_baseline(component_grid):
    grid, elapsed = component_grid
    summary = grid["summary"]
    base = summary["baseline"]
    rows = ("latent", "latent_recon", "latent_aug", "full")
    all_clean = all(summary[r]["num_clean"] == len(SEEDS)
                    for r in ("baseline", "raw_isda") + rows)
    overall_ok = all(summary[r]["overall"] >= base["overall"] for r in rows)
    few_margin = summary["full"]["few"] - base["few"]
    _verdict(
        "component grid",
        all_clean and overall_ok and few_margin >= 0.01 and elapsed < 1800.0,
        f"all component rows >= baseline overall ({overall_ok}), "
        f"full - baseline few = {few_margin * 100:+.2f}pt (need >= +1pt), "
        f"grid {elapsed / 60:.1f} min < 30 min",
    )


def test_08_latent_aug_beats_raw_on_few(component_grid):
    grid, _ = component_grid
    summary = grid["summary"]
    margin = summary["latent_aug"]["few"] - summary["raw_isda"]["few"]
    _verdict(
        "latent vs raw augmentation",
        margin >= 0.0,
        f"few split: latent aug {summary['latent_aug']['few']:.4f} "
        f">= raw {summary['raw_isda']['few']:.4f} "
        f"(margin {margin * 100:+.2f}pt)",
    )


def test_09_baseline_recovery_and_determinism():
    task = TaskSpec()
    plain = TrainConfig(variant="baseline", seed=0)
    train_ds, test_ds = make_task_data(task, plain.seed)

    result = run_training(plain, task, datasets=(train_ds, test_ds))
    model, report = train_baseline(plain, train_ds, test_ds)
    named = model.named()
    worst = max(np.abs(p.value.data - named[p.id]).max()
                for p in result.params.parameters())
    metrics_equal = (result.report.overall == report["overall"]
                     and result.report.many == report["many"]
                     and result.report.medium == report["medium"]
                     and result.report.few == report["few"])

    full = TrainConfig(seed=0)
    first = run_training(full, task)
    second = run_training(full, task)
    bytes_equal = (canonical_record_bytes(make_run_record(full, task, first))
                   == canonical_record_bytes(make_run_record(full, task, second)))
    params_equal = all(np.array_equal(p.value.data, q.value.data)
                       for p, q in zip(first.params.parameters(),
                                       second.params.parameters()))
    _verdict(
        "baseline recovery + determinism",
        worst <= 1e-10 and metrics_equal and bytes_equal and params_equal,
        f"baseline variant vs independent classifier: max param diff {worst:.2e} <= 1e-10, "
        f"metrics equal ({metrics_equal}); rerun record bytes identical "
        f"({bytes_equal}), parameters bit-identical ({params_equal})",
    )


def test_10_loss_weight_insensitivity(weight_grid):
    overalls = {pair: cell["overall"] for pair, cell in weight_grid.items()}
    diverged = sum(cell["diverged"] for cell in weight_grid.values())
    best = max(overalls.values())
    spread = best - min(overalls.values())
    _verdict(
        "loss-weight insensitivity",
        diverged == 0 and all(best - v <= 0.03 for v in overalls.values()),
        f"(alpha, beta) grid spread {spread * 100:.2f}pt <= 3pt, "
        f"0 diverged; " + ", ".join(
            f"({a:g},{b:g})={v:.4f}" for (a, b), v in overalls.items()),
    )
