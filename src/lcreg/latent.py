"""Shared pool of class-agnostic latent category features.

The pool holds M trainable latent vectors plus a 1x1 encoding map. For a
feature map f with D channels over P positions, each encoded latent scores
every position (sigmoid of the inner product), the M scores per position are
softmax-normalized, and the feature map is reconstructed as the
normalization-weighted sum of encoded latents. The reconstruction is scored
against the original features by row-wise softmax cross-entropy on their
correlation matrix with diagonal targets: position i of the reconstruction
should match position i of the input, nothing else.

None of this reads labels; the pool is shared by all classes.

Columns may stack several samples' position blocks side by side
([D, B*P] with equal P); every op here is positionwise except the
correlation, which one batched kernel builds for all samples at once and
stacks as [B*P, P], and the decoder's fusion, which pools the features and
the similarity maps per sample before it concatenates them, so no
[D + M, B*P] map exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Parameter, ShapeError, Tape, Tensor


@dataclass
class LatentPool:
    """M latent feature vectors and the shared 1x1 encoding map."""
    features: Parameter  # [M, D]
    enc_w: Parameter     # [D, D]
    enc_b: Parameter     # [D]

    def __post_init__(self):
        m, d = self.features.value.shape
        if m < 1:
            raise ValueError("LatentPool: need at least one latent vector")
        if self.enc_w.value.shape != (d, d) or self.enc_b.value.shape != (d,):
            raise ValueError("LatentPool: encoder map shapes do not match D")

    @property
    def dim(self) -> int:
        return self.features.value.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.features, self.enc_w, self.enc_b]


def init_pool(num_latents: int, dim: int, seed: int) -> LatentPool:
    """Latents at stdev 1/sqrt(D); encoding map near identity."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 53]))
    feats = rng.standard_normal((num_latents, dim)) / np.sqrt(dim)
    enc_w = np.eye(dim) + 0.01 * rng.standard_normal((dim, dim))
    return LatentPool(
        features=Parameter(feats, "pool.features"),
        enc_w=Parameter(enc_w, "pool.enc_w"),
        enc_b=Parameter(np.zeros(dim), "pool.enc_b"),
    )


@dataclass
class SimilarityStack:
    """Per-position latent scores: sigmoid, then normalized over latents."""
    normalized: Tensor  # [M, P], columns sum to 1
    encoded: Tensor     # [M, D] encoded latents, reused by reconstruction


def encoded_latents(tape: Tape, pool: LatentPool) -> Tensor:
    """Encoding map applied to every latent row: [M, D]."""
    f, w, b = tape.use(pool.features), tape.use(pool.enc_w), tape.use(pool.enc_b)
    return tape.transpose(tape.linear_map_1x1(tape.transpose(f), w, b))


def similarity_maps(tape: Tape, pool: LatentPool, f: Tensor) -> SimilarityStack:
    """Sigmoid scores of encoded latents against f, then softmax over latents."""
    if f.data.ndim != 2 or f.shape[0] != pool.dim:
        raise ShapeError(f"similarity_maps: f shape {f.shape}, pool dim {pool.dim}")
    enc = encoded_latents(tape, pool)
    normalized = tape.softmax(tape.sigmoid(tape.matmul(enc, f)), axis=0)
    return SimilarityStack(normalized=normalized, encoded=enc)


@dataclass
class Reconstruction:
    """Weighted latent reconstruction of f plus its per-sample correlations."""
    f_hat: Tensor  # [D, B*P]
    corr: Tensor   # [B*P, P]: the rows of f_hat_b^T f_b, sample by sample


def reconstruct(tape: Tape, sims: SimilarityStack, f: Tensor,
                positions_per_sample: int) -> Reconstruction:
    """f_hat = encoded^T @ normalized; correlation per sample block of P columns."""
    f_hat = tape.matmul(tape.transpose(sims.encoded), sims.normalized)
    corr = tape.block_correlation(f_hat, f, positions_per_sample)
    return Reconstruction(f_hat=f_hat, corr=corr)


def reconstruction_loss(tape: Tape, recon: Reconstruction) -> Tensor:
    """Row-wise softmax cross-entropy on the correlation rows, diagonal
    targets. Every sample has P rows, so the mean over all rows is the mean
    over samples of each sample's row mean."""
    rows, p = recon.corr.shape
    return tape.cross_entropy(recon.corr, np.tile(np.arange(p), rows // p))


def fuse_for_decoder(tape: Tape, f: Tensor, sims: SimilarityStack,
                     positions: int) -> Tensor:
    """Per-sample mean of features and normalized similarity maps over each
    block of ``positions`` columns, channel-concatenated: [D + M, B].

    Each row is the mean a concatenate-then-pool would take over the same
    columns, bit for bit; at ``positions`` 1 both pools are the identity."""
    if f.shape[1] != sims.normalized.shape[1]:
        raise ShapeError("fuse_for_decoder: position count mismatch")
    return tape.concat_rows(tape.mean_pool_segments(f, positions),
                            tape.mean_pool_segments(sims.normalized, positions))

