"""Independent numpy oracles for the benchmark's correctness checks.

Nothing here imports lcreg: every expected value is recomputed from plain
arrays (checkpoint tensors, inputs, statistics) or follows from a property
of the method. Each ``check_*`` returns a list of failure messages; an
empty list means the check passed.
"""

from __future__ import annotations

import numpy as np


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=1)) + m[:, 0]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax_cols(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


# -- ablation grid -----------------------------------------------------------


def check_close_dicts(label: str, got: dict, want: dict, tol: float) -> list[str]:
    """Every array or number in ``want`` is matched by ``got`` within ``tol``."""
    errors = []
    for key, ref in want.items():
        if key not in got:
            errors.append(f"{label}: {key} missing")
            continue
        a = np.asarray(got[key], dtype=np.float64)
        b = np.asarray(ref, dtype=np.float64)
        if a.shape != b.shape:
            errors.append(f"{label}: {key} shape {a.shape} vs {b.shape}")
            continue
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        if not diff <= tol:
            errors.append(f"{label}: {key} differs by {diff:.3e} > {tol:.0e}")
    return errors


def isda_bound_numpy(latents, w, b, cov, lam) -> tuple[float, np.ndarray]:
    """Closed form of the augmentation bound, straight from its definition:

        z_mj = (w_j - w_m)^T f_m + (b_j - b_m)
               + (lam / 2) (w_j - w_m)^T Sigma_m (w_j - w_m)
        loss = mean_m log sum_j exp(z_mj)
    """
    m = len(latents)
    z = np.empty((m, m))
    for i in range(m):
        dw = w - w[i]                       # rows: w_j - w_m
        quad = np.einsum("jd,de,je->j", dw, cov[i], dw)
        z[i] = dw @ latents[i] + (b - b[i]) + 0.5 * lam * quad
    return float(_logsumexp_rows(z).mean()), z


def check_isda_bound(tape_loss: float, tape_z: np.ndarray, latents, w, b, cov, lam,
                     tol: float = 1e-10) -> list[str]:
    errors = []
    want, z = isda_bound_numpy(latents, w, b, cov, lam)
    err = _rel_err(tape_loss, want)
    if not err <= tol:
        errors.append(f"isda bound {tape_loss!r} vs closed form {want!r} (rel {err:.2e})")
    diag = np.diagonal(tape_z)
    if np.any(diag != 0.0):
        errors.append(f"isda z diagonal not exactly zero (max |z_mm| {np.abs(diag).max():.2e})")
    zerr = float(np.max(np.abs(tape_z - z)))
    if not zerr <= tol * max(1.0, float(np.abs(z).max())):
        errors.append(f"isda z differs from closed form by {zerr:.2e}")
    return errors


def check_counts(counts, expected: int) -> list[str]:
    counts = np.asarray(counts)
    if counts.size == 0 or np.any(counts != expected):
        return [f"stats counts {np.unique(counts).tolist()} != {expected}"]
    return []


# -- spatial reconstruction ------------------------------------------------


def conv_features_numpy(x: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]],
                        kernel: int = 3, stride: int = 2) -> tuple[np.ndarray, int]:
    """Feature columns [D, B*P] of the conv encoder: each hidden layer is a
    valid ``kernel``x``kernel`` convolution at ``stride`` with weights laid
    out (out, channel, ky, kx) and a tanh; the last layer is a 1x1 map.
    Columns run sample by sample, positions row-major within a sample."""
    h = np.asarray(x, dtype=np.float64)            # [B, C, H, W]
    for w, b in layers[:-1]:
        bsz, c, hh, ww = h.shape
        oh = (hh - kernel) // stride + 1
        ow = (ww - kernel) // stride + 1
        out = np.empty((bsz, w.shape[0], oh, ow))
        for i in range(oh):
            for j in range(ow):
                patch = h[:, :, i * stride:i * stride + kernel, j * stride:j * stride + kernel]
                out[:, :, i, j] = patch.reshape(bsz, -1) @ w.T + b
        h = np.tanh(out)
    bsz, c, hh, ww = h.shape
    cols = h.transpose(1, 0, 2, 3).reshape(c, bsz * hh * ww)
    w, b = layers[-1]
    return w @ cols + b[:, None], hh * ww


def similarity_numpy(latents, enc_w, enc_b, f) -> tuple[np.ndarray, np.ndarray]:
    """(encoded latents [M, D], latent-normalized similarity [M, N])."""
    enc = latents @ enc_w.T + enc_b
    return enc, _softmax_cols(_sigmoid(enc @ f))


def recon_loss_numpy(enc: np.ndarray, normalized: np.ndarray, f: np.ndarray,
                     positions: int) -> float:
    """Mean over samples of the row-wise cross-entropy of each sample's
    correlation f_hat_b^T f_b against diagonal targets."""
    f_hat = enc.T @ normalized
    losses = []
    for s in range(0, f.shape[1], positions):
        corr = f_hat[:, s:s + positions].T @ f[:, s:s + positions]
        losses.append(float((_logsumexp_rows(corr) - np.diagonal(corr)).mean()))
    return float(np.mean(losses))


def check_recon_loss(tape_value: float, numpy_value: float, tol: float = 1e-9) -> list[str]:
    err = _rel_err(tape_value, numpy_value)
    if not err <= tol:
        return [f"reconstruction loss {tape_value!r} vs numpy {numpy_value!r} (rel {err:.2e})"]
    return []


def check_columns_sum_to_one(normalized: np.ndarray, tol: float = 1e-12) -> list[str]:
    worst = float(np.max(np.abs(normalized.sum(axis=0) - 1.0)))
    if not worst <= tol:
        return [f"similarity columns sum off 1 by {worst:.2e} > {tol:.0e}"]
    return []


def check_descends(label: str, values, window: float = 0.2) -> list[str]:
    """Mean of the last ``window`` share of a loss history is below the
    mean of the first."""
    values = np.asarray(values, dtype=np.float64)
    k = max(1, int(len(values) * window))
    if len(values) < 2 * k:
        return [f"{label}: history too short ({len(values)})"]
    first, last = float(values[:k].mean()), float(values[-k:].mean())
    if not last < first:
        return [f"{label} did not descend: {first:.5f} -> {last:.5f}"]
    return []


def check_above_chance(accuracy: float, num_classes: int) -> list[str]:
    if not accuracy > 1.0 / num_classes:
        return [f"accuracy {accuracy:.4f} not above chance {1.0 / num_classes:.4f}"]
    return []


# -- evaluation and storage ---------------------------------------------------


def vector_logits_numpy(tensors: dict, x: np.ndarray) -> np.ndarray:
    """Logits of the vector model straight from checkpoint tensors: tanh MLP
    encoder, optional latent similarity channels, linear decoder (P = 1, so
    pooling is the identity)."""
    n_layers = sum(1 for k in tensors if k.startswith("enc.") and k.endswith(".w"))
    h = np.asarray(x, dtype=np.float64).T
    for i in range(n_layers - 1):
        h = np.tanh(tensors[f"enc.{i}.w"] @ h + tensors[f"enc.{i}.b"][:, None])
    f = tensors[f"enc.{n_layers - 1}.w"] @ h + tensors[f"enc.{n_layers - 1}.b"][:, None]
    fused = f
    if "pool.features" in tensors:
        _, norm = similarity_numpy(tensors["pool.features"], tensors["pool.enc_w"],
                                   tensors["pool.enc_b"], f)
        fused = np.concatenate([f, norm], axis=0)
    return (tensors["dec.w"] @ fused + tensors["dec.b"][:, None]).T


def check_per_class(reported, logits: np.ndarray, labels: np.ndarray,
                    margin: float = 1e-9) -> list[str]:
    """Reported per-class accuracy equals the numpy forward's, except that a
    sample whose top two logits are within ``margin`` may go either way."""
    labels = np.asarray(labels)
    num_classes = logits.shape[1]
    reported = np.asarray(reported, dtype=np.float64)
    if reported.shape != (num_classes,):
        return [f"per_class has shape {reported.shape}, expected ({num_classes},)"]
    pred = logits.argmax(axis=1)
    top2 = np.sort(logits, axis=1)[:, -2:]
    ambiguous = (top2[:, 1] - top2[:, 0]) < margin
    total = np.bincount(labels, minlength=num_classes)
    correct = np.bincount(labels, weights=(pred == labels), minlength=num_classes)
    slack = np.bincount(labels, weights=ambiguous, minlength=num_classes)
    got = np.rint(reported * total)
    bad = np.flatnonzero(np.abs(got - correct) > slack)
    if len(bad):
        c = int(bad[0])
        return [f"per-class accuracy of class {c}: reported {reported[c]:.6f}, "
                f"numpy forward {correct[c] / max(total[c], 1):.6f}"]
    return []


def check_rows_sum_to_one(rows: np.ndarray, tol: float) -> list[str]:
    rows = np.asarray(rows, dtype=np.float64)
    worst = float(np.max(np.abs(rows.sum(axis=1) - 1.0))) if rows.size else np.inf
    if not worst <= tol:
        return [f"histogram rows sum off 1 by {worst:.2e} > {tol:.0e}"]
    return []


def check_bit_exact(label: str, got: dict, want: dict) -> list[str]:
    if set(got) != set(want):
        return [f"{label}: tensor names differ: {sorted(set(got) ^ set(want))}"]
    for key in sorted(want):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return [f"{label}: {key} not bit-exact after the round trip"]
    return []


def check_float32_roundtrip(loaded_samples, loaded_labels, samples, labels) -> list[str]:
    """The corpus stores float32: loading must give exactly the float32
    rounding of the written samples, and the labels unchanged."""
    want = np.asarray(samples).astype("<f4").astype(np.float64)
    got = np.asarray(loaded_samples)
    if got.shape != want.shape or not np.array_equal(got, want):
        return ["corpus round trip differs from the float32-rounded samples"]
    if not np.array_equal(np.asarray(loaded_labels), np.asarray(labels)):
        return ["corpus round trip changed the labels"]
    return []
