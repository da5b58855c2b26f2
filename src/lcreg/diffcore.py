"""Small deterministic reverse-mode differentiation core.

Values are dense float64 arrays wrapped in :class:`Tensor`. All computation
goes through :class:`Tape`, which records each forward call in order and
replays the sequence backward, once, to accumulate gradients. The replay
consumes the record, so a finished step holds no activations. There is no
operator overloading and no graph structure beyond the recorded list: every
kernel pairs a numpy forward with an analytic backward rule, and
:func:`grad_check` verifies any composition against central finite
differences.

Kernels are pure (no hidden state) and deterministic: identical inputs give
bit-identical outputs. Gradients accumulate additively across uses of a
parameter; callers zero them explicitly between steps.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """An operation received tensors with incompatible or invalid shapes."""


class Tensor:
    """Dense n-dimensional float64 array; the single value type of the core."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter:
    """Trainable tensor with a persistent, explicitly zeroed gradient."""

    __slots__ = ("value", "grad", "id")

    def __init__(self, value, pid: str):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        # np.zeros on the shape is several times faster than np.zeros_like
        self.grad = Tensor(np.zeros(self.value.shape))
        self.id = str(pid)

    def zero_grad(self) -> None:
        self.grad.data[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.id!r}, shape={self.value.shape})"


# Elementwise derivative rules live at module level so a test harness can
# swap one out and watch the finite-difference checker catch the mismatch.
def _sigmoid_grad(y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _tanh_grad(y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|)
    <= 1: the numerator max(e, x >= 0) picks 1 or e without a branch."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


class Tape:
    """Recorded computation sequence; replaying it in reverse yields gradients.

    Each op appends (output, inputs, backward_fn) to the record. ``backward``
    seeds the output with a cotangent (1.0 for a scalar loss), walks the
    record in reverse, and sums every contribution a value receives from
    its consumers. Gradients of parameters used via :meth:`use` are flushed
    additively into ``Parameter.grad`` at the end of the replay.

    The replay consumes the record: it pops one entry at a time and drops
    each node's gradient once that node's entry is replayed, so an entry's
    closure and inputs are freed as soon as nothing else holds them.
    Afterwards the tape holds only the gradients of leaves (constants and
    :meth:`use` views) and of the seeded output, which :meth:`grad` returns.
    A second ``backward`` on the same tape raises ``RuntimeError``.

    The replay keeps a value's first contribution as returned, without a
    copy, and copies only to start a sum (or to make a strided view
    contiguous). So a backward rule must never write to its cotangent ``g``
    or to the arrays it returns, which may be views of ``g``. A kernel works
    in place only on arrays it has just allocated: never on its inputs, on
    ``g``, or on what a derivative rule such as ``_sigmoid_grad`` returns,
    which a test may swap for one returning its argument. Memory order
    must be kept: the copy is ``np.array``, which keeps it, and the sum is
    taken in place. A C- or F-ordered gradient selects a different BLAS
    path downstream, so a change of order changes the rounding of later
    products, and with it the bytes of every training record.
    """

    def __init__(self):
        # None once backward has consumed it
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] | None = []
        self._param_nodes: dict[int, tuple[Parameter, Tensor]] = {}
        self._grads: dict[int, tuple[Tensor, np.ndarray]] = {}

    # -- leaves ---------------------------------------------------------

    def constant(self, data) -> Tensor:
        return data if isinstance(data, Tensor) else Tensor(data)

    def use(self, param: Parameter) -> Tensor:
        """In-tape view of a parameter; the same node on repeated use."""
        hit = self._param_nodes.get(id(param))
        if hit is not None:
            return hit[1]
        node = Tensor(param.value.data)
        self._param_nodes[id(param)] = (param, node)
        return node

    # -- recording ------------------------------------------------------

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], bwd) -> Tensor:
        self._entries.append((out, inputs, bwd))
        return out

    # -- kernels --------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
        out = Tensor(a.data @ b.data)

        def bwd(g):
            return g @ b.data.T, a.data.T @ g

        return self._record(out, (a, b), bwd)

    def transpose(self, a: Tensor) -> Tensor:
        if a.data.ndim != 2:
            raise ShapeError(f"transpose: expected 2-d, got {a.shape}")
        out = Tensor(a.data.T)

        def bwd(g):
            return (g.T,)

        return self._record(out, (a,), bwd)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def bwd(g):
            return g, g

        return self._record(out, (a, b), bwd)

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        out = Tensor(a.data * c)

        def bwd(g):
            return (g * c,)

        return self._record(out, (a,), bwd)

    def sigmoid(self, a: Tensor) -> Tensor:
        y = _stable_sigmoid(a.data)
        out = Tensor(y)

        def bwd(g):
            return (g * _sigmoid_grad(out.data),)

        return self._record(out, (a,), bwd)

    def tanh(self, a: Tensor) -> Tensor:
        out = Tensor(np.tanh(a.data))

        def bwd(g):
            return (g * _tanh_grad(out.data),)

        return self._record(out, (a,), bwd)

    def softmax(self, a: Tensor, axis: int) -> Tensor:
        y = a.data - a.data.max(axis=axis, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=axis, keepdims=True)
        out = Tensor(y)

        def bwd(g):
            s = out.data
            # d keeps g's memory order, as s * (g - ...) does
            d = g - (g * s).sum(axis=axis, keepdims=True)
            d *= s
            return (d,)

        return self._record(out, (a,), bwd)

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        """Mean softmax cross-entropy over rows with integer index targets.

        Backward is (softmax - onehot(targets))/n.
        """
        if logits.data.ndim != 2:
            raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
        n, c = logits.shape
        t = np.asarray(targets, dtype=np.int64)
        if t.shape != (n,):
            raise ShapeError(f"cross_entropy: targets shape {t.shape}, expected ({n},)")
        if t.size and (t.min() < 0 or t.max() >= c):
            raise ValueError("cross_entropy: target index out of range")

        x = logits.data
        rows = np.arange(n)
        m = x.max(axis=1, keepdims=True)
        e = x - m
        np.exp(e, out=e)
        lse = np.log(e.sum(axis=1, keepdims=True)) + m
        losses = lse[:, 0] - x[rows, t]
        out = Tensor(losses.mean())

        def bwd(g):
            p = x - lse
            np.exp(p, out=p)
            p[rows, t] -= 1.0
            p *= g.reshape(-1)[0] / n
            return (p,)

        return self._record(out, (logits,), bwd)

    def linear_map_1x1(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """w @ x + b per column: a 1x1 convolution over P positions."""
        if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
            raise ShapeError("linear_map_1x1: x and w must be 2-d, b 1-d")
        if w.shape[1] != x.shape[0] or b.shape[0] != w.shape[0]:
            raise ShapeError(
                f"linear_map_1x1: shapes w{w.shape} x{x.shape} b{b.shape} do not chain"
            )
        y = w.data @ x.data
        y += b.data[:, None]
        out = Tensor(y)

        def bwd(g):
            return w.data.T @ g, g @ x.data.T, g.sum(axis=1)

        return self._record(out, (x, w, b), bwd)

    def sub_colvec(self, a: Tensor, v: Tensor) -> Tensor:
        """a[n,m] - v[n] broadcast across columns."""
        if a.data.ndim != 2 or v.data.ndim != 1 or v.shape[0] != a.shape[0]:
            raise ShapeError(f"sub_colvec: shapes {a.shape} and {v.shape}")
        out = Tensor(a.data - v.data[:, None])

        def bwd(g):
            return g, -g.sum(axis=1)

        return self._record(out, (a, v), bwd)

    def take_flat(self, a: Tensor, idx: np.ndarray) -> Tensor:
        """Gather from the flattened input; backward scatter-adds."""
        flat = a.data.reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
            raise ValueError("take_flat: flat index out of range")
        out = Tensor(flat[idx])

        def bwd(g):
            buf = np.zeros(flat.size)
            np.add.at(buf, idx.reshape(-1), g.reshape(-1))
            return (buf.reshape(a.data.shape),)

        return self._record(out, (a,), bwd)

    def quadratic_penalty(self, w: Tensor, cov, lam: float) -> Tensor:
        """All-pairs penalty of w [M, D] under a detached cov [M, D, D].

        With V[m, j] = w_j - w_m (so q[m, m] is exactly 0):
            forward   q[m, j] = (lam/2) V[m, j] cov[m] V[m, j]^T
            backward  G[m, j] = (lam/2) g[m, j] V[m, j] (cov[m] + cov[m]^T)
                      dw      = sum over m of G[m, :] - sum over j of G[:, j]
        """
        cov = np.asarray(cov, dtype=np.float64)
        if w.data.ndim != 2 or cov.shape != (w.shape[0], w.shape[1], w.shape[1]):
            raise ShapeError(f"quadratic_penalty: weights {w.shape} with cov {cov.shape}")
        half = float(lam) / 2.0
        v = w.data[None, :, :] - w.data[:, None, :]
        out = Tensor(np.einsum("mjd,mjd->mj", np.matmul(v, cov), v) * half)

        def bwd(g):
            gv = (g * half)[:, :, None] * np.matmul(v, cov + cov.transpose(0, 2, 1))
            return (gv.sum(axis=0) - gv.sum(axis=1),)

        return self._record(out, (w,), bwd)

    def block_correlation(self, a: Tensor, b: Tensor, width: int) -> Tensor:
        """Per-block correlation of a, b [D, K*width] cut into K column blocks.

        With a_k, b_k the k-th blocks [D, width], the output [K*width, width]
        stacks the rows of a_k^T b_k block by block:
            forward   out_k = a_k^T b_k
            backward  da_k  = b_k g_k^T,  db_k = a_k g_k
        """
        if (a.data.ndim != 2 or a.shape != b.shape or width < 1
                or a.shape[1] % width != 0):
            raise ShapeError(
                f"block_correlation: shapes {a.shape} and {b.shape} with block {width}")
        d, total = a.shape
        blocks = total // width
        a3 = a.data.reshape(d, blocks, width).transpose(1, 0, 2)  # [K, D, width]
        b3 = b.data.reshape(d, blocks, width).transpose(1, 0, 2)
        out = Tensor(np.matmul(a3.transpose(0, 2, 1), b3).reshape(total, width))

        def bwd(g):
            g3 = g.reshape(blocks, width, width)
            da = np.matmul(b3, g3.transpose(0, 2, 1))
            db = np.matmul(a3, g3)
            return (da.transpose(1, 0, 2).reshape(d, total),
                    db.transpose(1, 0, 2).reshape(d, total))

        return self._record(out, (a, b), bwd)

    def concat_rows(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ShapeError(f"concat_rows: shapes {a.shape} and {b.shape}")
        out = Tensor(np.concatenate([a.data, b.data], axis=0))
        na = a.shape[0]

        def bwd(g):
            return g[:na], g[na:]

        return self._record(out, (a, b), bwd)

    def mean_pool_segments(self, a: Tensor, seg_len: int) -> Tensor:
        """Mean over consecutive column segments: [c, B*P] -> [c, B].

        A segment of one column is its own mean, exactly, so ``seg_len`` 1
        returns ``a`` itself and records nothing."""
        if a.data.ndim != 2 or seg_len < 1 or a.shape[1] % seg_len != 0:
            raise ShapeError(f"mean_pool_segments: {a.shape} with segment {seg_len}")
        if seg_len == 1:
            return a
        c, total = a.shape
        # what .mean(axis=2) computes, without its Python-level wrapper
        y = np.add.reduce(a.data.reshape(c, total // seg_len, seg_len), axis=2)
        y /= seg_len
        out = Tensor(y)

        def bwd(g):
            d = np.repeat(g, seg_len, axis=1)
            d /= seg_len
            return (d,)

        return self._record(out, (a,), bwd)

    # -- replay ---------------------------------------------------------

    def backward(self, out: Tensor, cotangent=None) -> None:
        """Replay from ``out`` seeded with ``cotangent`` (shaped like ``out``);
        without one, ``out`` must be a scalar and is seeded with 1.0. The
        replay consumes the record, so a second call raises."""
        if self._entries is None:
            raise RuntimeError("backward: this tape's record was already replayed")
        if cotangent is None:
            if out.data.size != 1:
                raise ShapeError(f"backward: output must be scalar, got shape {out.shape}")
            seed = np.ones_like(out.data)
        else:
            seed = np.array(cotangent, dtype=np.float64)
            if seed.shape != out.shape:
                raise ShapeError(
                    f"backward: cotangent shape {seed.shape}, output shape {out.shape}")
        entries, self._entries = self._entries, None
        # node id -> (node, gradient): a gradient is kept next to its node, so
        # a leaf stays alive and a recycled id never answers for another node
        grads: dict[int, tuple[Tensor, np.ndarray]] = {id(out): (out, seed)}
        owned: set[int] = set()  # nodes whose gradient is a private sum buffer
        while entries:
            node, inputs, bwd = entries.pop()
            hit = grads.pop(id(node), None)
            if hit is None:
                continue
            for inp, contrib in zip(inputs, bwd(hit[1])):
                key = id(inp)
                prev = grads.get(key)
                if prev is None:
                    if not (contrib.flags.c_contiguous or contrib.flags.f_contiguous):
                        contrib = np.array(contrib)
                    grads[key] = (inp, contrib)
                else:
                    g = prev[1]
                    if key not in owned:
                        g = np.array(g)
                        grads[key] = (inp, g)
                        owned.add(key)
                    g += contrib
        # what is left are the leaves' gradients; the seed is kept too
        grads[id(out)] = (out, seed)
        self._grads = grads
        for param, node in self._param_nodes.values():
            hit = grads.get(id(node))
            if hit is not None:
                param.grad.data += hit[1]

    def grad(self, node: Tensor) -> np.ndarray:
        """Gradient of the replayed output with respect to ``node``, a leaf
        (a constant or a :meth:`use` view) or that output itself; zeros for
        any other node, whose gradient the replay has dropped."""
        hit = self._grads.get(id(node))
        if hit is None or hit[0] is not node:
            return np.zeros_like(node.data)
        return hit[1]


class ForwardTape(Tape):
    """A tape that runs the kernels without recording them, for forward
    passes that need no gradient (scoring, finite differences).

    A recording tape keeps every intermediate alive until ``backward``
    replays its entry; here each intermediate is freed as soon as nothing
    else holds it. Values are bit-identical to a recording tape's. Freeing early does
    not bound a pass's working set: that is the width of the chunk scored
    (``trainer.EVAL_COLUMNS`` position columns), and each forward kernel
    allocates its output and at most one float temporary of that width. A
    chunk too wide for the allocator's trim threshold has its pages handed
    back to the system at the end of every pass and faulted in again by the
    next: at P = 25 a process that has freed no block of a few MB faults
    ~11,700 pages per 3,000-map pass of 2,025-column chunks.
    """

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], bwd) -> Tensor:
        return out

    def backward(self, out: Tensor, cotangent=None) -> None:
        raise TypeError("ForwardTape records nothing to replay")


@dataclass(frozen=True)
class GradCheckReport:
    op: str
    max_rel_err: float
    tolerance: float
    passed: bool


def grad_check(name, fn, inputs, tolerance=1e-5, step=1e-5, seed=0) -> GradCheckReport:
    """Compare the recorded backward of ``fn`` against central differences.

    ``fn(tape, *nodes) -> node`` may return any shape; the replay is seeded
    with a fixed random cotangent, the gradient of the scalar objective
    sum(out * cotangent), so the comparison covers every input scalar. Relative error is floored at unit scale so near-zero
    gradients do not blow up the ratio.
    """
    arrays = [np.array(x, dtype=np.float64) for x in inputs]
    rng = np.random.default_rng(seed)

    tape = Tape()
    nodes = [tape.constant(x.copy()) for x in arrays]
    out = fn(tape, *nodes)
    vec = rng.standard_normal(out.data.shape)
    tape.backward(out, vec)
    analytic = [tape.grad(n).copy() for n in nodes]

    def objective() -> float:
        t = ForwardTape()
        o = fn(t, *[t.constant(x) for x in arrays])
        return float((o.data * vec).sum())

    max_rel = _central_difference_error(arrays, analytic, objective, step)
    return GradCheckReport(name, max_rel, tolerance, max_rel <= tolerance)


def _central_difference_error(arrays, grads, objective, step: float) -> float:
    """Largest relative gap between ``grads`` and central differences of
    ``objective()``, perturbing each scalar of ``arrays`` in place and
    restoring it; the error is floored at unit scale."""
    max_rel = 0.0
    for base, grad in zip(arrays, grads):
        flat = base.reshape(-1)
        an_flat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = objective()
            flat[j] = orig - step
            lo = objective()
            flat[j] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = an_flat[j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if rel > max_rel:
                max_rel = rel
    return max_rel


# The finite-difference battery: (name, fn, make_inputs) per kernel or
# kernel variant; make_inputs(rand) draws one instance, rand(*shape) ~ N(0, 1).
_TAKE_FLAT_IDX = np.arange(12).reshape(3, 4) % 11
_PENALTY_COV = np.random.default_rng(  # deliberately non-symmetric
    zlib.crc32(b"quadratic_penalty.cov")).standard_normal((4, 3, 3))

KERNEL_CHECKS = (
    ("matmul", lambda t, a, b: t.matmul(a, b), lambda rand: [rand(3, 4), rand(4, 2)]),
    ("transpose", lambda t, a: t.transpose(a), lambda rand: [rand(3, 4)]),
    ("add", lambda t, a, b: t.add(a, b), lambda rand: [rand(3, 4), rand(3, 4)]),
    ("scale", lambda t, a: t.scale(a, -1.7), lambda rand: [rand(3, 4)]),
    ("sigmoid", lambda t, a: t.sigmoid(a), lambda rand: [rand(3, 4)]),
    ("tanh", lambda t, a: t.tanh(a), lambda rand: [rand(3, 4)]),
    ("softmax_axis0", lambda t, a: t.softmax(a, 0), lambda rand: [rand(4, 3)]),
    ("softmax_axis1", lambda t, a: t.softmax(a, 1), lambda rand: [rand(3, 5)]),
    ("cross_entropy", lambda t, a: t.cross_entropy(a, [0, 2, 1]), lambda rand: [rand(3, 4)]),
    ("linear_map_1x1", lambda t, x, w, b: t.linear_map_1x1(x, w, b),
     lambda rand: [rand(4, 5), rand(3, 4), rand(3)]),
    ("sub_colvec", lambda t, a, v: t.sub_colvec(a, v), lambda rand: [rand(3, 4), rand(3)]),
    ("take_flat", lambda t, a: t.take_flat(a, _TAKE_FLAT_IDX), lambda rand: [rand(11)]),
    ("quadratic_penalty", lambda t, w: t.quadratic_penalty(w, _PENALTY_COV, 0.8),
     lambda rand: [rand(4, 3)]),
    ("block_correlation", lambda t, a, b: t.block_correlation(a, b, 3),
     lambda rand: [rand(4, 9), rand(4, 9)]),
    ("concat_rows", lambda t, a, b: t.concat_rows(a, b), lambda rand: [rand(2, 4), rand(3, 4)]),
    ("mean_pool_segments", lambda t, a: t.mean_pool_segments(a, 3), lambda rand: [rand(4, 6)]),
)


def standard_kernel_checks(instances: int = 10, seed: int = 0) -> list[GradCheckReport]:
    """Run the :data:`KERNEL_CHECKS` battery at random instances.

    Returns one report per entry, max relative error taken over
    ``instances`` random points. Each entry draws from its own stream,
    seeded by ``seed`` and the entry's name, so adding or removing an entry
    moves no other entry's points.
    """
    reports: list[GradCheckReport] = []
    for name, fn, make_inputs in KERNEL_CHECKS:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])

        def rand(*shape):
            return rng.standard_normal(shape)

        worst = 0.0
        for k in range(instances):
            rep = grad_check(name, fn, make_inputs(rand), seed=seed + 1000 + k)
            worst = max(worst, rep.max_rel_err)
        reports.append(GradCheckReport(name, worst, 1e-5, worst <= 1e-5))
    return reports
