"""Streaming category statistics and closed-form semantic augmentation.

Per category m we keep a running count, mean, and population covariance over
a stream of D-dimensional observations, merged batch-by-batch in one pass:
given the current aggregate (n, mu, S) and a batch aggregate (n', mu', S'),
with w = n' / max(n + n', 1) and delta = mu' - mu,

    mu_new = mu + w delta
    S_new  = S + w (S' - S) + w (1 - w) delta delta^T

which is exact for population (divide-by-n) moments under any bracketing.
A category absent from the batch (w = 0) keeps its moments bit-exactly, and
an empty one (w = 1) takes the batch's.

The augmentation loss treats each latent vector as the single member of its
own pseudo-class (label m) and scores a linear classifier (w, b) under
Gaussian perturbations N(f'_m, lambda * Sigma_m), in closed form:

    loss = mean_m log sum_j exp(z_mj)
    z_mj = (w_j - w_m)^T f'_m + (b_j - b_m)
           + (lambda / 2) (w_j - w_m)^T Sigma_m (w_j - w_m)

with z_mm = 0 exactly. This is the expected cross-entropy's upper bound (the
Gaussian moment generating function applied inside Jensen's inequality), so a
Monte-Carlo estimate of the expectation must not exceed it beyond noise;
`mc_expected_ce` provides that independent check. Gradients flow through the
latents and the classifier but never through the covariance, which enters as
a detached constant.

The whole score matrix z is one tape kernel, `Tape.isda_scores`. Its
quadratic term, (lambda / 2) V_mj^T Sigma_m V_mj with V_mj = w_j - w_m, is
also a kernel of its own, `Tape.quadratic_penalty`, which the class-wise
baseline gathers by label; both share one backward rule for it,
G_mj = (lambda / 2) g_mj (Sigma_m + Sigma_m^T) V_mj with
dw_j = sum_m G_mj - sum_k G_jk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import ShapeError, Tape, Tensor


@dataclass
class CategoryStats:
    """Streaming count/mean/population-covariance per category."""
    count: np.ndarray  # [M] int64
    mean: np.ndarray   # [M, D]
    cov: np.ndarray    # [M, D, D]

    def __post_init__(self):
        self.count = np.asarray(self.count, dtype=np.int64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        m = len(self.count)
        d = self.mean.shape[1] if self.mean.ndim == 2 else -1
        if self.mean.shape != (m, d) or self.cov.shape != (m, d, d):
            raise ValueError("CategoryStats: inconsistent shapes")
        if (self.count < 0).any():
            raise ValueError("CategoryStats: negative count")
        empty = self.count == 0
        if empty.any():
            if np.abs(self.mean[empty]).max(initial=0.0) != 0.0:
                raise ValueError("CategoryStats: empty category with nonzero mean")
            if np.abs(self.cov[empty]).max(initial=0.0) != 0.0:
                raise ValueError("CategoryStats: empty category with nonzero covariance")

    @property
    def num_categories(self) -> int:
        return len(self.count)

    @property
    def dim(self) -> int:
        return self.mean.shape[1]


def init_stats(num_categories: int, dim: int) -> CategoryStats:
    return CategoryStats(
        count=np.zeros(num_categories, dtype=np.int64),
        mean=np.zeros((num_categories, dim)),
        cov=np.zeros((num_categories, dim, dim)),
    )


def _merge(stats: CategoryStats, n_b, mu_b, cov_b) -> CategoryStats:
    """Merge per-category batch moments into ``stats``, all categories at once."""
    n = stats.count + n_b
    w = n_b / np.maximum(n, 1)
    delta = mu_b - stats.mean
    mean = stats.mean + w[:, None] * delta
    cov = (stats.cov + w[:, None, None] * (cov_b - stats.cov)
           + (w * (1.0 - w))[:, None, None] * (delta[:, :, None] * delta[:, None, :]))
    return CategoryStats(n, mean, cov)


def _merge_one_each(stats: CategoryStats, values: np.ndarray) -> CategoryStats:
    """``_merge`` of one observation per category (n_b = 1, mu_b = values,
    cov_b = 0), bit for bit, without building the zero batch covariance:
    w (0 - S) and S (-w) differ at most in the sign of a zero, which adding S
    makes +0.0 either way."""
    n = stats.count + 1
    w = 1.0 / n
    delta = values - stats.mean
    mean = w[:, None] * delta
    mean += stats.mean
    cov = stats.cov * (-w)[:, None, None]
    cov += stats.cov
    outer = delta[:, :, None] * delta[:, None, :]
    outer *= (w * (1.0 - w))[:, None, None]
    cov += outer
    return CategoryStats(n, mean, cov)


def update_stats(stats: CategoryStats, values: np.ndarray, categories) -> CategoryStats:
    """Merge a batch of observations (rows of ``values``, labeled by
    ``categories``) into the running stats. Returns new stats."""
    values = np.asarray(values, dtype=np.float64)
    categories = np.asarray(categories, dtype=np.int64)
    m = stats.num_categories
    if values.ndim != 2 or values.shape[1] != stats.dim:
        raise ValueError(f"update_stats: values shape {values.shape}, dim {stats.dim}")
    if categories.shape != (len(values),):
        raise ValueError("update_stats: one category per observation required")
    if len(categories) and (categories.min() < 0 or categories.max() >= m):
        raise ValueError("update_stats: category out of range")

    if len(categories) == m and np.array_equal(categories, np.arange(m)):
        return _merge_one_each(stats, values)
    onehot = (categories == np.arange(m)[:, None]).astype(np.float64)  # [M, B]
    n_b = np.bincount(categories, minlength=m)
    per = np.maximum(n_b, 1)
    mu_b = onehot @ values / per[:, None]
    centered = values - mu_b[categories]
    cov_b = (onehot[:, None, :] * centered.T) @ centered / per[:, None, None]
    return _merge(stats, n_b, mu_b, cov_b)


def merge_stats(a: CategoryStats, b: CategoryStats) -> CategoryStats:
    """Merge two aggregates (same math as update)."""
    if a.num_categories != b.num_categories or a.dim != b.dim:
        raise ValueError("merge_stats: shape mismatch")
    return _merge(a, b.count, b.mean, b.cov)


@dataclass(frozen=True)
class AugSchedule:
    """Linear ramp of the augmentation strength over a stage."""
    lambda0: float
    total_iters: int

    def __post_init__(self):
        if self.lambda0 < 0 or self.total_iters < 1:
            raise ValueError("AugSchedule: lambda0 >= 0 and total_iters >= 1 required")

    def lambda_at(self, t: int) -> float:
        if t < 0:
            raise ValueError("AugSchedule: t must be >= 0")
        return min(t / self.total_iters, 1.0) * self.lambda0


def latent_aug_logits(tape: Tape, latents: Tensor, w: Tensor, b: Tensor,
                      stats: CategoryStats, lam: float) -> Tensor:
    """The difference-form score matrix z, [M, M], diagonal exactly zero."""
    m, d = latents.shape
    if w.shape != (m, d) or b.shape != (m,):
        raise ShapeError(f"latent_aug_logits: classifier shapes {w.shape}, {b.shape}")
    if stats.num_categories != m or stats.dim != d:
        raise ShapeError("latent_aug_logits: stats do not match latents")
    if lam < 0:
        raise ValueError("latent_aug_logits: lambda must be >= 0")
    return tape.isda_scores(latents, w, b, stats.cov, lam)


def isda_upper_bound_loss(tape: Tape, latents: Tensor, w: Tensor, b: Tensor,
                          stats: CategoryStats, lam: float) -> Tensor:
    """Mean over categories of log-sum-exp of the z rows.

    Equals cross-entropy of z against the identity pseudo-labels because the
    diagonal of z is exactly zero.
    """
    z = latent_aug_logits(tape, latents, w, b, stats, lam)
    return tape.cross_entropy(z, np.arange(stats.num_categories))


def classwise_augmented_logits(tape: Tape, logits: Tensor, w: Tensor, labels,
                               stats: CategoryStats, lam: float) -> Tensor:
    """Per-sample augmented logits for class-conditional stats.

    Sample i with label y gets logits[i, j] + (lam/2)(w_j - w_y)^T
    Sigma_y (w_j - w_y); used by the raw-feature augmentation baseline.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or logits.data.ndim != 2 or logits.shape[0] != len(labels):
        raise ShapeError("classwise_augmented_logits: logits/labels mismatch")
    if logits.shape[1] != stats.num_categories:
        raise ShapeError("classwise_augmented_logits: class count mismatch")
    c = stats.num_categories
    penalty = tape.quadratic_penalty(w, stats.cov, lam)
    return tape.add(logits, tape.take_flat(penalty, labels[:, None] * c + np.arange(c)))


def psd_factor(cov: np.ndarray, tolerance: float = 1e-8) -> np.ndarray:
    """Symmetric factor A with A A^T = cov, repairing tiny negative eigenvalues.

    Eigenvalues below -tolerance are rejected; those within it are clamped
    to zero.
    """
    sym = 0.5 * (cov + cov.T)
    evals, evecs = np.linalg.eigh(sym)
    if evals.min() < -tolerance:
        raise ValueError(f"psd_factor: matrix is not PSD (min eigenvalue {evals.min():g})")
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def sample_augmented(mean: np.ndarray, cov: np.ndarray, lam: float,
                     count: int, seed: int) -> np.ndarray:
    """Draws from N(mean, lam * cov); exact copies of mean when lam == 0."""
    mean = np.asarray(mean, dtype=np.float64)
    if lam < 0:
        raise ValueError("sample_augmented: lambda must be >= 0")
    factor = psd_factor(np.asarray(cov, dtype=np.float64))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 61]))
    g = rng.standard_normal((count, len(mean)))
    return mean[None, :] + np.sqrt(lam) * (g @ factor.T)


def mc_expected_ce(mean: np.ndarray, cov: np.ndarray, lam: float,
                   w: np.ndarray, b: np.ndarray, target: int,
                   n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of E[CE(classifier(x), target)], x ~ N(mean, lam cov),
    and its standard error.

    Pure numpy; independent of the tape implementation on purpose.
    """
    x = sample_augmented(mean, cov, lam, n_samples, seed)
    logits = x @ np.asarray(w).T + np.asarray(b)[None, :]
    mx = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - mx).sum(axis=1)) + mx[:, 0]
    ces = lse - logits[:, int(target)]
    stderr = float(ces.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return float(ces.mean()), stderr
