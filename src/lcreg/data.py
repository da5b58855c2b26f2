"""Long-tailed dataset construction: profiles, synthesis, sampling, storage.

A profile is the per-class sample count vector. A dataset is samples plus
labels grouped by class, synthesized from a Gaussian mixture. Class splits
(many/medium/few) are decided by the training counts. Samplers are infinite,
seeded index streams. Samples are finite float32 values, in memory as on
disk, so a saved split loses nothing and is cast neither way: it is a
directory holding one tensor container, ``corpus.lct``, with float32
``samples`` [N, *sample_shape], uint32 ``labels`` [N] and the integer meta
``corpus_version``, ``num_classes`` and ``seed``. Arrays become float64 only
where the model takes a batch in.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensorio import content_hash, load_tensors, save_tensors

CORPUS_FILE = "corpus.lct"
CORPUS_VERSION = 1
CACHE_ENV_VAR = "LCREG_CACHE_DIR"
DEFAULT_CACHE_DIR = ".lcreg_cache"

MANY_MIN = 101  # many: count > 100
FEW_MAX = 19    # few: count < 20


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_profile(num_classes: int, n_max: int, imbalance_factor: float,
                  kind: str = "exponential") -> np.ndarray:
    """Per-class counts, class 0 largest.

    exponential: count_c = round(n_max * IF**(-c/(C-1))), half-up, clamped
    to >= 1. step: the first ceil(C/2) classes get n_max, the rest n_max/IF.
    """
    if num_classes < 1 or n_max < 1:
        raise ValueError("build_profile: num_classes and n_max must be >= 1")
    imbalance_factor = float(imbalance_factor)
    if imbalance_factor < 1.0:
        raise ValueError("build_profile: imbalance_factor must be >= 1")
    if n_max < imbalance_factor:
        raise ValueError("build_profile: need n_max >= imbalance_factor")
    if kind == "exponential":
        if num_classes == 1:
            return np.array([n_max], dtype=np.int64)
        counts = [
            max(1, round_half_up(n_max * imbalance_factor ** (-c / (num_classes - 1))))
            for c in range(num_classes)
        ]
    elif kind == "step":
        head = (num_classes + 1) // 2
        tail_count = max(1, round_half_up(n_max / imbalance_factor))
        counts = [n_max] * head + [tail_count] * (num_classes - head)
    else:
        raise ValueError(f"build_profile: unknown kind {kind!r}")
    return np.array(counts, dtype=np.int64)


def realized_imbalance(counts) -> float:
    counts = np.asarray(counts)
    return float(counts.max()) / float(counts.min())


@dataclass(frozen=True)
class ClassSplit:
    """Class index sets by training-set frequency."""
    many: frozenset
    medium: frozenset
    few: frozenset


def split_classes(counts) -> ClassSplit:
    counts = np.asarray(counts)
    many = frozenset(int(c) for c in np.where(counts >= MANY_MIN)[0])
    few = frozenset(int(c) for c in np.where(counts <= FEW_MAX)[0])
    medium = frozenset(range(len(counts))) - many - few
    return ClassSplit(many=many, medium=medium, few=few)


class NonFiniteSampleError(ValueError):
    """A split holds a sample that is not a finite float32 value; a
    synthesized one overflowed float32."""


@dataclass
class LongTailDataset:
    """Samples grouped by class with the realized per-class counts. A
    non-finite sample is refused: NonFiniteSampleError."""
    samples: np.ndarray   # [N, ...] float32; a float64 input is rounded to it
    labels: np.ndarray    # [N] int64
    counts: np.ndarray    # [C] int64
    seed: int

    def __post_init__(self):
        with np.errstate(over="ignore"):  # a value past float32 becomes inf, refused below
            self.samples = np.asarray(self.samples, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.samples) != len(self.labels):
            raise ValueError("dataset: samples and labels length mismatch")
        if int(self.counts.sum()) != len(self.labels):
            raise ValueError("dataset: counts do not sum to sample count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= len(self.counts)):
            raise ValueError("dataset: label out of range")
        # min and max are NaN or infinite exactly when some sample is, and
        # take no temporary the size of the split
        if self.samples.size and not (np.isfinite(self.samples.min())
                                      and np.isfinite(self.samples.max())):
            raise NonFiniteSampleError("dataset: a sample is not a finite float32 value")

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.samples.shape[1:]


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian mixture task: one spherical component per class."""
    num_classes: int
    input_dim: int
    means: np.ndarray = field(repr=False)  # [C, input_dim]
    stdev: float
    seed: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        object.__setattr__(self, "means", means)
        if means.shape != (self.num_classes, self.input_dim):
            raise ValueError("mixture: means shape mismatch")
        if self.stdev <= 0:
            raise ValueError("mixture: stdev must be positive")
        if not np.isfinite(means).all():
            raise ValueError("mixture: class means must be finite")
        # equal rows are adjacent once sorted, and compare exactly, with no
        # arithmetic to overflow or underflow (np.unique(axis=0) would do
        # the same, but its first call imports ~1.4 MB of modules)
        order = np.lexsort(means.T) if self.input_dim else slice(None)
        rows = means[order]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValueError("mixture: class means must be pairwise distinct")


def make_mixture_spec(num_classes: int, input_dim: int, seed: int,
                      mean_scale: float = 1.0, stdev: float = 1.0) -> MixtureSpec:
    """Class means drawn N(0, mean_scale^2 I) from the spec seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    with np.errstate(over="ignore"):  # a mean past float64 becomes inf, refused by the spec
        means = rng.standard_normal((num_classes, input_dim)) * mean_scale
    return MixtureSpec(num_classes, input_dim, means, stdev, int(seed))


def synthesize_mixture(spec: MixtureSpec, counts, seed: int | None = None) -> LongTailDataset:
    """Draw counts[c] samples from component c, grouped by class.

    Each class block is drawn in float64 and rounded into its rows of one
    float32 array, so the only transient is one block; a sample that
    overflows float32 makes the dataset refuse the split
    (NonFiniteSampleError)."""
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) != spec.num_classes:
        raise ValueError("synthesize_mixture: counts length != num_classes")
    draw_seed = spec.seed if seed is None else int(seed)
    rng = np.random.default_rng(np.random.SeedSequence([draw_seed, 23]))
    samples = np.empty((int(counts.sum()), spec.input_dim), np.float32)
    start = 0
    with np.errstate(over="ignore"):  # an overflow is refused by LongTailDataset
        for c, n in enumerate(counts):
            block = rng.standard_normal((int(n), spec.input_dim))
            block *= spec.stdev
            block += spec.means[c]  # bit for bit means[c] + stdev * noise
            samples[start:start + n] = block
            start += n
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), counts)
    return LongTailDataset(samples, labels, counts, draw_seed)


def batch_stream(dataset: LongTailDataset, mode: str, batch_size: int, seed: int):
    """Infinite generator of index batches; deterministic under the seed.

    instance_balanced draws uniformly over samples; class_balanced draws a
    class uniformly, then a sample uniformly within it.
    """
    if batch_size < 1:
        raise ValueError("batch_stream: batch_size must be >= 1")
    if mode not in ("instance_balanced", "class_balanced"):
        raise ValueError(f"batch_stream: unknown mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 41]))
    n = len(dataset.labels)
    if mode == "instance_balanced":
        while True:
            yield rng.integers(0, n, size=batch_size)
    else:
        c = dataset.num_classes
        counts = dataset.counts
        lut = np.zeros((c, int(counts.max())), dtype=np.int64)
        for k in range(c):
            lut[k, : counts[k]] = np.where(dataset.labels == k)[0]
        while True:
            cls = rng.integers(0, c, size=batch_size)
            within = rng.integers(0, counts[cls])
            yield lut[cls, within]


# -- corpus files and the dataset cache ----------------------------------


def save_dataset(dataset: LongTailDataset, dirpath) -> Path:
    """Write ``dirpath/corpus.lct`` in one atomic write; returns ``dirpath``."""
    return save_tensors(Path(dirpath) / CORPUS_FILE,
                        {"samples": dataset.samples,
                         "labels": dataset.labels.astype(np.uint32)},
                        {"corpus_version": CORPUS_VERSION, "num_classes": dataset.num_classes,
                         "seed": dataset.seed}).parent


def load_dataset(dirpath) -> LongTailDataset:
    """The split saved in ``dirpath``; ValueError for any other container, for
    a label outside the stored class count and for a non-finite sample."""
    tensors, meta = load_tensors(Path(dirpath) / CORPUS_FILE)
    if (meta.get("corpus_version") != CORPUS_VERSION or tensors.keys() != {"samples", "labels"}
            or meta.keys() != {"corpus_version", "num_classes", "seed"}):
        raise ValueError(f"load_dataset: not a version {CORPUS_VERSION} corpus: meta {meta}, "
                         f"tensors {sorted(tensors)}")
    samples, labels, num_classes = tensors["samples"], tensors["labels"], meta["num_classes"]
    if (samples.dtype != np.float32 or labels.dtype != np.uint32 or samples.ndim == 0
            or samples.shape[:1] != labels.shape):
        raise ValueError(f"load_dataset: want float32 samples [N, ...] and uint32 labels [N], "
                         f"got {samples.dtype} {samples.shape} and {labels.dtype} {labels.shape}")
    if labels.size and labels.max() >= num_classes:
        raise ValueError(f"load_dataset: label {labels.max()} is out of range "
                         f"for {num_classes} classes")
    labels = labels.astype(np.int64)
    return LongTailDataset(samples, labels, np.bincount(labels, minlength=num_classes),
                           meta["seed"])


def cache_root() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def dataset_cache_dir(params: dict) -> Path:
    return cache_root() / f"dataset-{content_hash(params)}"
