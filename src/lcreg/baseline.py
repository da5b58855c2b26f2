"""Self-contained reference classifier for the two-stage protocol.

Everything here is written directly in numpy: initialization, forward,
backprop, the update rule, both sampling streams, and evaluation. None of
the package's tape machinery is used. The point is an independent
implementation of the exact same arithmetic, so the full trainer with every
extra component switched off can be compared against it number for number.

"Exact" includes memory order. Batch columns and logits are C-ordered as
on the tape, because the order of an operand selects the BLAS path and the
summation order of row sums, and so the rounding. Stage 2 scores the frozen
encoder once over the whole training split, as the trainer does, because a
product's rounding also depends on the batch width. With both, the trained
parameters equal the trainer's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MANY_MIN = 101
FEW_MAX = 19


@dataclass
class BaselineModel:
    enc_ws: list
    enc_bs: list
    dec_w: np.ndarray
    dec_b: np.ndarray

    def named(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.enc_ws, self.enc_bs)):
            out[f"enc.{i}.w"] = w
            out[f"enc.{i}.b"] = b
        out["dec.w"] = self.dec_w
        out["dec.b"] = self.dec_b
        return out


def init_baseline(input_dim, hidden, feature_dim, num_classes, seed) -> BaselineModel:
    """Same draw order and scaling as the package model: one stream for the
    encoder stack, another for the decoder."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 101]))
    dims = [int(input_dim), *[int(h) for h in hidden], int(feature_dim)]
    ws, bs = [], []
    for i in range(len(dims) - 1):
        ws.append(rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]))
        bs.append(np.zeros(dims[i + 1]))
    dec_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 103]))
    dec_w = dec_rng.standard_normal((int(num_classes), int(feature_dim)))
    dec_w /= np.sqrt(feature_dim)
    return BaselineModel(ws, bs, dec_w, np.zeros(int(num_classes)))


def baseline_features(model: BaselineModel, xb: np.ndarray) -> np.ndarray:
    """Feature columns [D, B] of a batch."""
    h = np.asarray(xb, dtype=np.float64).T.copy()
    for w, b in zip(model.enc_ws[:-1], model.enc_bs[:-1]):
        h = np.tanh(w @ h + b[:, None])
    return model.enc_ws[-1] @ h + model.enc_bs[-1][:, None]


def _decode(model: BaselineModel, f: np.ndarray) -> np.ndarray:
    """Logits [B, C] of feature columns, in C order like the package's."""
    return np.ascontiguousarray((model.dec_w @ f + model.dec_b[:, None]).T)


def baseline_logits(model: BaselineModel, xb: np.ndarray) -> np.ndarray:
    return _decode(model, baseline_features(model, xb))


def _ce_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean softmax cross-entropy: (softmax - one-hot) / n."""
    n, c = logits.shape
    m = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return (np.exp(logits - lse) - onehot) * (1.0 / n)


def _step(value: np.ndarray, grad: np.ndarray, vel: np.ndarray,
          lr: float, momentum: float, weight_decay: float) -> None:
    g = grad + weight_decay * value
    vel *= momentum
    vel += g
    value -= lr * vel


def train_baseline(cfg, train_ds, test_ds):
    """Two-stage training of the plain classifier.

    ``cfg`` is read for the shared hyperparameters (hidden, feature_dim,
    iteration counts, batch size, learning rates, momentum, weight decay,
    seed). Returns (model, report dict).
    """
    num_classes = len(train_ds.counts)
    model = init_baseline(train_ds.samples.shape[1], cfg.hidden, cfg.feature_dim,
                          num_classes, cfg.seed)
    layers = len(model.enc_ws)
    vel = {k: np.zeros_like(v) for k, v in model.named().items()}
    t1 = int(cfg.t1_iters)

    def stage1_lr(t: int) -> float:
        passed = sum(1 for frac in cfg.lr_decay_points if t >= int(frac * t1))
        return cfg.lr * cfg.lr_decay_factor ** passed

    rng1 = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 41]))
    n_train = len(train_ds.labels)
    for t in range(t1):
        idx = rng1.integers(0, n_train, size=cfg.batch_size)
        xb, yb = train_ds.samples[idx], train_ds.labels[idx]
        lr = stage1_lr(t)

        ins = []
        h = np.asarray(xb, dtype=np.float64).T.copy()
        for i in range(layers - 1):
            ins.append(h)
            h = np.tanh(model.enc_ws[i] @ h + model.enc_bs[i][:, None])
        ins.append(h)
        f = model.enc_ws[-1] @ h + model.enc_bs[-1][:, None]
        logits = _decode(model, f)

        gcols = _ce_grad(logits, yb).T
        d_dec_w = gcols @ f.T
        d_dec_b = gcols.sum(axis=1)
        g = model.dec_w.T @ gcols
        d_ws = [None] * layers
        d_bs = [None] * layers
        d_ws[-1] = g @ ins[-1].T
        d_bs[-1] = g.sum(axis=1)
        g = model.enc_ws[-1].T @ g
        for i in range(layers - 2, -1, -1):
            g = g * (1.0 - ins[i + 1] * ins[i + 1])
            d_ws[i] = g @ ins[i].T
            d_bs[i] = g.sum(axis=1)
            if i > 0:
                g = model.enc_ws[i].T @ g

        for i in range(layers):
            _step(model.enc_ws[i], d_ws[i], vel[f"enc.{i}.w"], lr,
                  cfg.momentum, cfg.weight_decay)
            _step(model.enc_bs[i], d_bs[i], vel[f"enc.{i}.b"], lr,
                  cfg.momentum, cfg.weight_decay)
        _step(model.dec_w, d_dec_w, vel["dec.w"], lr, cfg.momentum, cfg.weight_decay)
        _step(model.dec_b, d_dec_b, vel["dec.b"], lr, cfg.momentum, cfg.weight_decay)

    if cfg.t2_iters > 0:
        seed2 = int(np.random.SeedSequence([int(cfg.seed), 43]).generate_state(1)[0])
        rng2 = np.random.default_rng(np.random.SeedSequence([seed2, 41]))
        counts = train_ds.counts
        lut = np.zeros((num_classes, int(counts.max())), dtype=np.int64)
        for k in range(num_classes):
            lut[k, : counts[k]] = np.where(train_ds.labels == k)[0]
        vel2_w = np.zeros_like(model.dec_w)
        vel2_b = np.zeros_like(model.dec_b)
        # the encoder is frozen, so every sample's features are computed once
        features = baseline_features(model, train_ds.samples)
        for t in range(int(cfg.t2_iters)):
            cls = rng2.integers(0, num_classes, size=cfg.batch_size)
            within = rng2.integers(0, counts[cls])
            idx = lut[cls, within]
            f, yb = features[:, idx], train_ds.labels[idx]
            gcols = _ce_grad(_decode(model, f), yb).T
            _step(model.dec_w, gcols @ f.T, vel2_w, cfg.stage2_lr,
                  cfg.momentum, cfg.weight_decay)
            _step(model.dec_b, gcols.sum(axis=1), vel2_b, cfg.stage2_lr,
                  cfg.momentum, cfg.weight_decay)

    return model, evaluate_baseline(model, test_ds, train_ds.counts)


def evaluate_baseline(model: BaselineModel, dataset, train_counts, chunk: int = 256) -> dict:
    c = len(dataset.counts)
    correct = np.zeros(c, dtype=np.int64)
    total = np.zeros(c, dtype=np.int64)
    for start in range(0, len(dataset.labels), chunk):
        xb = dataset.samples[start:start + chunk]
        yb = dataset.labels[start:start + chunk]
        pred = baseline_logits(model, xb).argmax(axis=1)
        np.add.at(correct, yb, pred == yb)
        np.add.at(total, yb, 1)
    counts = np.asarray(train_counts)
    groups = {
        "many": np.where(counts >= MANY_MIN)[0],
        "medium": np.where((counts < MANY_MIN) & (counts > FEW_MAX))[0],
        "few": np.where(counts <= FEW_MAX)[0],
    }
    report = {
        "overall": float(correct.sum() / max(total.sum(), 1)),
        "per_class": np.where(total > 0, correct / np.maximum(total, 1), 0.0),
    }
    for name, idx in groups.items():
        n = int(total[idx].sum()) if len(idx) else 0
        report[name] = float(correct[idx].sum() / n) if n else None
    return report
