"""Classifier with a latent category pool between encoder and decoder.

The encoder maps a batch to a feature map with D channels over P positions
per sample. It has one path: each hidden layer is a tanh of a 1x1 map over
the positions, which for image data first gathers each 3x3 stride-2 patch
into one column (a conv), and a final 1x1 map gives the D channels. A
vector sample is one position of ``dim`` channels, so its encoder is the
same stack at P = 1, an MLP. The latent pool scores every position against
M shared latent vectors; the features and the normalized similarity
channels are each globally average-pooled per sample, concatenated, and
classified by a linear decoder. Batches are carried as stacked position
columns [D, B*P].

The training objective of every variant (``objective``) combines three terms:
    total = gamma * cls + alpha * reconstruction + beta * latent augmentation

where the augmentation term scores the latent vectors themselves under a
separate linear pseudo-classifier with identity labels. Without a pool the
augmentation is raw ISDA, a class-wise penalty on the logits inside cls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .augment import CategoryStats, classwise_augmented_logits, isda_upper_bound_loss
from .diffcore import (ForwardTape, GradCheckReport, Parameter, ShapeError, Tape,
                       Tensor, _central_difference_error)
from .latent import (
    LatentPool,
    Reconstruction,
    SimilarityStack,
    fuse_for_decoder,
    init_pool,
    reconstruct,
    reconstruction_loss,
    similarity_maps,
)

CONV_KERNEL = 3
CONV_STRIDE = 2


def conv_grid(height: int, width: int, layers: int) -> tuple[int, int]:
    """Spatial size after ``layers`` valid 3x3 stride-2 convolutions."""
    for _ in range(layers):
        height = (height - CONV_KERNEL) // CONV_STRIDE + 1
        width = (width - CONV_KERNEL) // CONV_STRIDE + 1
        if height < 1 or width < 1:
            raise ValueError("conv_grid: input too small for the conv stack")
    return height, width


@dataclass(frozen=True)
class EncoderConfig:
    """Shape contract of the feature extractor: input_shape is (channels,
    *spatial), each hidden width is one layer, and a final 1x1 map produces
    feature_dim channels on ``grid``.

    The input shape gives ``kind`` and ``grid``: (dim,) is "vector", one
    position (grid (1, 1)) whose hidden layers are dense; (channels, H, W)
    is "image", whose hidden layers are 3x3 stride-2 convs.
    """
    kind: str = field(init=False)
    input_shape: tuple[int, ...]
    hidden: tuple[int, ...]
    feature_dim: int
    grid: tuple[int, int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.feature_dim < 2:
            raise ValueError("EncoderConfig: feature_dim must be >= 2")
        if any(h < 1 for h in self.hidden):
            raise ValueError("EncoderConfig: hidden widths must be positive")
        if len(self.input_shape) == 1:
            kind, grid = "vector", (1, 1)
        elif len(self.input_shape) == 3:
            kind, grid = "image", conv_grid(*self.input_shape[1:], len(self.hidden))
        else:
            raise ValueError(f"EncoderConfig: input_shape {self.input_shape} is "
                             f"neither (dim,) nor (C, H, W)")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "grid", grid)

    @property
    def positions(self) -> int:
        return self.grid[0] * self.grid[1]


def image_encoder(channels: int, height: int, width: int,
                  hidden: tuple[int, ...], feature_dim: int) -> EncoderConfig:
    """``EncoderConfig`` of (channels, height, width) maps, the one-call
    constructor ``bench/workloads.py`` uses."""
    return EncoderConfig((channels, height, width), hidden, feature_dim)


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    num_classes: int
    num_latents: int
    latent_on: bool = True

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("ModelConfig: need at least two classes")
        if self.latent_on and self.num_latents < 1:
            raise ValueError("ModelConfig: need at least one latent")

    @property
    def fused_channels(self) -> int:
        d = self.encoder.feature_dim
        return d + self.num_latents if self.latent_on else d


@dataclass
class ModelParams:
    config: ModelConfig
    encoder: list[Parameter]
    pool: LatentPool | None
    dec_w: Parameter
    dec_b: Parameter
    lat_w: Parameter | None
    lat_b: Parameter | None

    def parameters(self) -> list[Parameter]:
        out = list(self.encoder)
        if self.pool is not None:
            out += self.pool.parameters()
        out += [self.dec_w, self.dec_b]
        if self.lat_w is not None:
            out += [self.lat_w, self.lat_b]
        return out

    def decay_parameters(self) -> list[Parameter]:
        """Weight decay applies to encoder and decoder groups only."""
        return list(self.encoder) + [self.dec_w, self.dec_b]

    def stage2_trainable(self) -> list[Parameter]:
        return [self.dec_w, self.dec_b]


def _encoder_layer_dims(cfg: EncoderConfig) -> list[tuple[int, int]]:
    """(fan_out, fan_in) per layer, conv kernels flattened into fan_in."""
    taps = 1 if cfg.kind == "vector" else CONV_KERNEL * CONV_KERNEL
    chans = [cfg.input_shape[0], *cfg.hidden]
    layers = [(chans[i + 1], chans[i] * taps) for i in range(len(cfg.hidden))]
    return layers + [(cfg.feature_dim, chans[-1])]  # final 1x1 map


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameter id -> shape, in ``ModelParams.parameters()`` order: the one
    table that ``init_model`` draws and ``load_model`` checks against."""
    shapes = {}
    for i, (fan_out, fan_in) in enumerate(_encoder_layer_dims(cfg.encoder)):
        shapes[f"enc.{i}.w"] = (fan_out, fan_in)
        shapes[f"enc.{i}.b"] = (fan_out,)
    m, d = cfg.num_latents, cfg.encoder.feature_dim
    if cfg.latent_on:
        shapes.update({"pool.features": (m, d), "pool.enc_w": (d, d), "pool.enc_b": (d,)})
    shapes.update({"dec.w": (cfg.num_classes, cfg.fused_channels), "dec.b": (cfg.num_classes,)})
    if cfg.latent_on:
        shapes.update({"latcls.w": (m, d), "latcls.b": (m,)})
    return shapes


def _assemble(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelParams:
    """ModelParams whose parameters hold ``arrays`` (id -> array, in
    ``parameter_shapes`` order) as their values, uncopied."""
    it = iter([Parameter(value, pid) for pid, value in arrays.items()])
    encoder = [next(it) for _ in range(2 * len(_encoder_layer_dims(cfg.encoder)))]
    pool = LatentPool(next(it), next(it), next(it)) if cfg.latent_on else None
    dec_w, dec_b = next(it), next(it)
    lat_w, lat_b = (next(it), next(it)) if cfg.latent_on else (None, None)
    return ModelParams(cfg, encoder, pool, dec_w, dec_b, lat_w, lat_b)


def init_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """Parameter groups drawn from independent child streams of one seed, so
    configurations that share a group share its exact initialization.
    Biases start at zero."""
    def stream(key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([int(seed), key]))

    shapes = parameter_shapes(cfg)
    arrays = {pid: np.zeros(shape) for pid, shape in shapes.items()}
    enc_rng = stream(101)
    for pid, shape in shapes.items():
        if pid.startswith("enc.") and pid.endswith(".w"):
            arrays[pid] = enc_rng.standard_normal(shape) / np.sqrt(shape[1])
    arrays["dec.w"] = stream(103).standard_normal(shapes["dec.w"]) / np.sqrt(cfg.fused_channels)
    if cfg.latent_on:
        d = cfg.encoder.feature_dim
        pool = init_pool(cfg.num_latents, d, seed)
        arrays.update((p.id, p.value.data) for p in pool.parameters())
        arrays["latcls.w"] = stream(107).standard_normal(shapes["latcls.w"]) / np.sqrt(d)
    return _assemble(cfg, arrays)


_PATCH_INDEX_CACHE: dict[tuple, np.ndarray] = {}


def _patch_indices(channels: int, height: int, width: int, batch: int) -> np.ndarray:
    """Flat gather indices turning [C, B*H*W] columns into 3x3 patch rows."""
    key = (channels, height, width, batch)
    hit = _PATCH_INDEX_CACHE.get(key)
    if hit is not None:
        return hit
    k, s = CONV_KERNEL, CONV_STRIDE
    h1, w1 = conv_grid(height, width, 1)
    p0, p1 = height * width, h1 * w1
    ky = np.arange(k)
    kx = np.arange(k)
    ys = np.arange(h1) * s
    xs = np.arange(w1) * s
    # positions [H1, W1, k, k] inside one channel plane
    pos = (ys[:, None, None, None] + ky[None, None, :, None]) * width + (
        xs[None, :, None, None] + kx[None, None, None, :]
    )
    base = (
        np.arange(channels)[:, None, None, None, None] * (batch * p0)
        + pos[None, :, :, :, :]
    )  # [C, H1, W1, k, k]
    core = base.transpose(0, 3, 4, 1, 2).reshape(channels * k * k, p1)
    full = core[:, None, :] + (np.arange(batch) * p0)[None, :, None]
    idx = np.ascontiguousarray(full.reshape(channels * k * k, batch * p1))
    _PATCH_INDEX_CACHE[key] = idx
    return idx


def stack_batch_columns(cfg: EncoderConfig, x_batch: np.ndarray) -> np.ndarray:
    """Batch array to stacked position columns [C, B*P] for the encoder
    input: a new C-ordered float64 array, converted and laid out in one
    copy. A vector sample is one position of ``dim`` channels."""
    x_batch = np.asarray(x_batch)
    if x_batch.shape[1:] != cfg.input_shape:
        raise ShapeError(f"encode: batch shape {x_batch.shape} for {cfg.input_shape}")
    return x_batch.swapaxes(0, 1).astype(np.float64, order="C").reshape(cfg.input_shape[0], -1)


def encode(tape: Tape, params: ModelParams, x_batch: np.ndarray) -> tuple[Tensor, int]:
    """Feature columns [D, B*P] and the per-sample position count P."""
    cfg = params.config.encoder
    batch = len(x_batch)
    h = tape.constant(stack_batch_columns(cfg, x_batch))
    chans, grid = cfg.input_shape[0], cfg.input_shape[1:]
    *hidden, (w, b) = [(params.encoder[i], params.encoder[i + 1])
                       for i in range(0, len(params.encoder), 2)]
    for w_h, b_h in hidden:
        if cfg.kind == "image":
            h = tape.take_flat(h, _patch_indices(chans, *grid, batch))
            grid = conv_grid(*grid, 1)
        h = tape.tanh(tape.linear_map_1x1(h, tape.use(w_h), tape.use(b_h)))
        chans = w_h.value.shape[0]
    return tape.linear_map_1x1(h, tape.use(w), tape.use(b)), cfg.positions


def decode(tape: Tape, params: ModelParams, pooled: Tensor) -> Tensor:
    """Linear decoder on pooled channels [fused, B]: logits [B, C]."""
    return tape.transpose(
        tape.linear_map_1x1(pooled, tape.use(params.dec_w), tape.use(params.dec_b))
    )


@dataclass
class ForwardOut:
    logits: Tensor                      # [B, C]
    features: Tensor                    # [D, B*P]
    pooled: Tensor                      # [fused, B]
    positions: int
    sims: SimilarityStack | None = None
    recon: Reconstruction | None = None


def forward(tape: Tape, params: ModelParams, x_batch: np.ndarray,
            with_recon_corr: bool = False) -> ForwardOut:
    cfg = params.config
    f, p = encode(tape, params, x_batch)
    sims = recon = None
    if cfg.latent_on:
        sims = similarity_maps(tape, params.pool, f)
        if with_recon_corr and p > 1:
            recon = reconstruct(tape, sims, f, positions_per_sample=p)
        pooled = fuse_for_decoder(tape, f, sims, p)
    else:
        pooled = tape.mean_pool_segments(f, p)
    return ForwardOut(logits=decode(tape, params, pooled), features=f, pooled=pooled,
                      positions=p, sims=sims, recon=recon)


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.1   # reconstruction
    beta: float = 0.1    # latent augmentation
    gamma: float = 1.0   # classification


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar terms of one training step; total is their weighted sum."""
    total: float
    cls: float
    recon: float
    latent_aug: float


def objective(tape: Tape, params: ModelParams, fwd: ForwardOut, labels,
              stats: CategoryStats | None, lam: float, weights: LossWeights,
              aug_on: bool) -> tuple[LossBreakdown, Tensor]:
    """Stage-1 loss of a forward pass. Returns (breakdown, loss node).

    ``aug_on`` adds the augmentation bound at strength ``lam``: with a pool
    the latent bound (``stats`` per latent), without one raw ISDA (``stats``
    per class, the penalty on the logits inside cls, so ``latent_aug`` reads
    0). Reconstruction is scored when ``fwd`` carries one. Terms left out
    are recorded as exact zeros and contribute no gradient.
    """
    if aug_on and stats is None:
        raise ValueError("objective: augmentation enabled but no stats given")
    labels = np.asarray(labels, dtype=np.int64)
    pool = params.pool
    logits = fwd.logits
    if aug_on and pool is None:
        logits = classwise_augmented_logits(tape, logits, tape.use(params.dec_w),
                                            labels, stats, lam)
    cls = tape.cross_entropy(logits, labels)
    loss = tape.scale(cls, weights.gamma)

    recon_value = 0.0
    if fwd.recon is not None:
        recon_term = reconstruction_loss(tape, fwd.recon)
        recon_value = recon_term.item()
        loss = tape.add(loss, tape.scale(recon_term, weights.alpha))

    aug_value = 0.0
    if aug_on and pool is not None:
        aug_term = isda_upper_bound_loss(
            tape,
            tape.use(pool.features),
            tape.use(params.lat_w),
            tape.use(params.lat_b),
            stats,
            lam,
        )
        aug_value = aug_term.item()
        loss = tape.add(loss, tape.scale(aug_term, weights.beta))

    breakdown = LossBreakdown(
        total=loss.item(),
        cls=cls.item(),
        recon=recon_value,
        latent_aug=aug_value,
    )
    return breakdown, loss


def total_loss(tape: Tape, params: ModelParams, x_batch: np.ndarray, labels,
               stats: CategoryStats | None, lam: float,
               weights: LossWeights = LossWeights(),
               recon_on: bool = True, aug_on: bool = True):
    """``forward`` then ``objective``: (breakdown, loss node, forward pieces).
    At P = 1 ``forward`` skips reconstruction, whose loss is then log(1) = 0."""
    fwd = forward(tape, params, x_batch, with_recon_corr=recon_on)
    breakdown, loss = objective(tape, params, fwd, labels, stats, lam, weights, aug_on)
    return breakdown, loss, fwd


def end_to_end_grad_check(params: ModelParams, x_batch: np.ndarray, labels,
                          stats: CategoryStats | None, lam: float,
                          weights: LossWeights = LossWeights(),
                          recon_on: bool = True, aug_on: bool = True,
                          tolerance: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Central-difference check of the combined objective over every
    parameter scalar of the model."""

    def loss_value() -> float:
        tape = ForwardTape()
        breakdown, _, _ = total_loss(
            tape, params, x_batch, labels, stats, lam, weights, recon_on, aug_on
        )
        return breakdown.total

    all_params = params.parameters()
    for p in all_params:
        p.zero_grad()
    tape = Tape()
    _, loss, _ = total_loss(tape, params, x_batch, labels, stats, lam, weights,
                            recon_on, aug_on)
    tape.backward(loss)

    max_rel = _central_difference_error([p.value.data for p in all_params],
                                        [p.grad.data for p in all_params],
                                        loss_value, step)
    return GradCheckReport("end_to_end_total_loss", max_rel, tolerance, max_rel <= tolerance)


CHECKPOINT_META_VERSION = 1
STATS_IDS = ("stats.count", "stats.mean", "stats.cov")


def save_model(path, params: ModelParams, stats: CategoryStats | None, iteration: int):
    """Single-file checkpoint: all parameter groups, stats, iteration."""
    tensors = {p.id: p.value.data for p in params.parameters()}
    if stats is not None:
        tensors.update(zip(STATS_IDS, (stats.count.astype(np.float64), stats.mean, stats.cov)))
    meta = {
        "checkpoint_version": CHECKPOINT_META_VERSION,
        "iteration": int(iteration),
        "num_classes": params.config.num_classes,
        "num_latents": params.config.num_latents if params.config.latent_on else 0,
        "feature_dim": params.config.encoder.feature_dim,
        "latent_on": int(params.config.latent_on),
        "has_stats": int(stats is not None),
    }
    tensorio.save_tensors(path, tensors, meta)


def load_model(path, cfg: ModelConfig):
    """Rebuild (params, stats, iteration) from a checkpoint for ``cfg``. Every
    parameter and, when stored, every stats tensor must be finite float64."""
    tensors, meta = tensorio.load_tensors(path)
    if meta.get("checkpoint_version") != CHECKPOINT_META_VERSION:
        raise ValueError("load_model: unsupported checkpoint version")
    if meta.get("num_classes") != cfg.num_classes or meta.get("latent_on") != int(cfg.latent_on):
        raise ValueError("load_model: checkpoint does not match the model config")
    shapes = parameter_shapes(cfg)
    # stats shapes follow the variant, not cfg; CategoryStats checks them
    # against each other
    expected = {**shapes, **dict.fromkeys(STATS_IDS)} if meta.get("has_stats") else shapes
    for name, shape in expected.items():
        if name not in tensors:
            raise ValueError(f"load_model: checkpoint missing tensor {name}")
        if tensors[name].dtype != np.float64:
            raise ValueError(f"load_model: tensor {name} is {tensors[name].dtype}, not float64")
        if shape is not None and tensors[name].shape != shape:
            raise ValueError(f"load_model: shape mismatch for {name}")
    # one pass over all values; the per-tensor search runs only on failure
    if not np.isfinite(np.concatenate([tensors[name] for name in expected], axis=None)).all():
        bad = next(name for name in expected if not np.isfinite(tensors[name]).all())
        raise ValueError(f"load_model: non-finite value in tensor {bad}")
    if "iteration" not in meta:
        raise ValueError("load_model: checkpoint has no iteration")
    params = _assemble(cfg, {pid: tensors[pid] for pid in shapes})
    stats = None
    if meta.get("has_stats"):
        count, mean, cov = (tensors[name] for name in STATS_IDS)
        stats = CategoryStats(count=count.astype(np.int64), mean=mean, cov=cov)
    return params, stats, meta["iteration"]
