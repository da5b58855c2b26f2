"""Numeric core: kernel values, gradient checks, accumulation contract."""

import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreg import diffcore
from lcreg.diffcore import (
    ForwardTape,
    GradCheckReport,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
)


def test_tensor_is_contiguous_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)


def test_matmul_identity():
    tape = Tape()
    a = tape.constant(np.eye(3))
    b = tape.constant(np.arange(9.0).reshape(3, 3))
    out = tape.matmul(a, b)
    assert np.array_equal(out.data, b.data)


def test_matmul_shape_mismatch_rejected():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))


def test_sigmoid_saturation():
    tape = Tape()
    y = tape.sigmoid(tape.constant(np.array([40.0])))
    assert abs(y.data[0] - 1.0) <= 1e-15
    y = tape.sigmoid(tape.constant(np.array([-40.0])))
    assert y.data[0] <= 1e-15
    assert np.isfinite(y.data).all()


def test_sigmoid_extreme_inputs_finite():
    tape = Tape()
    y = tape.sigmoid(tape.constant(np.array([-1e6, -750.0, 750.0, 1e6])))
    assert np.isfinite(y.data).all()


def test_sigmoid_matches_masked_formula_bitwise():
    # reference: the two-branch masked evaluation, computed independently
    x = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1000.0, -1000.0,
                  1e-300, -1e-300, 5e-324, -5e-324, 0.5, -0.5, 36.7, -36.7])
    x = np.concatenate([x, np.random.default_rng(0).standard_normal(400) * 30.0])
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    got = Tape().sigmoid(Tensor(x)).data
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_sigmoid_matches_two_quotient_form_bitwise():
    # reference: the np.where over both quotients the kernel used to take;
    # unlike the masked form above it pins nan's bits too (exp(-|nan|) is a
    # negative nan whatever the input's sign)
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                  5e-324, -5e-324, 1e-300, -1e-300])
    x = np.concatenate([x, np.random.default_rng(1).standard_normal((24, 2025)).ravel() * 30.0])
    e = np.exp(-np.abs(x))
    ref = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = Tape().sigmoid(Tensor(x)).data
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# Kernel outputs and gradients are pinned bit for bit: a record digest
# hashes every float the training loop produces. The references below are
# the plain expressions each in-place kernel replaced, at a P = 25 scoring
# shape (24 latents by 81 maps of 25 positions) with edge values planted.
_EDGES = np.array([0.0, -0.0, 745.0, -745.0, 700.0, -700.0, 1e-300, -1e-300,
                   5e-324, -5e-324, 1e150, -1e150, 36.7, -36.7])


def _with_edges(shape, seed, scale=3.0):
    x = np.random.default_rng(seed).standard_normal(shape) * scale
    planted = np.concatenate([_EDGES, _EDGES[::-1]])[:x.size]
    x.reshape(-1)[:planted.size] = planted
    x[..., -1] = x[..., -2]  # a tie for the max
    return x


def _assert_same_bits(got, ref):
    assert got.shape == ref.shape and got.strides == ref.strides
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _replay(fn, inputs, cotangent):
    """(output, input gradients) of ``fn`` on a recording tape."""
    tape = Tape()
    nodes = [tape.constant(x) for x in inputs]
    out = fn(tape, *nodes)
    tape.backward(out, cotangent)
    return out.data, [tape.grad(n) for n in nodes]


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", ["C", "F"])
def test_softmax_matches_reference_bitwise(axis, order):
    x = _with_edges((24, 2025), 20)
    x[:, 7] = 1e150  # a column with one value throughout
    g = np.asarray(_with_edges((24, 2025), 21), order=order)
    y, (dx,) = _replay(lambda t, a: t.softmax(a, axis), [x], g)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    ref = e / e.sum(axis=axis, keepdims=True)
    _assert_same_bits(y, ref)
    _assert_same_bits(dx, ref * (g - (g * ref).sum(axis=axis, keepdims=True)))


def test_cross_entropy_matches_reference_bitwise():
    x = _with_edges((81, 10), 22)
    t = np.random.default_rng(23).integers(0, 10, size=81)
    loss, (dx,) = _replay(lambda tp, a: tp.cross_entropy(a, t), [x], np.array(0.37))
    rows = np.arange(81)
    m = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=1, keepdims=True)) + m
    _assert_same_bits(loss, np.asarray((lse[:, 0] - x[rows, t]).mean()))
    p = np.exp(x - lse)
    p[rows, t] -= 1.0
    _assert_same_bits(dx, p * (0.37 / 81))


def test_linear_map_1x1_matches_reference_bitwise():
    x, w, b = _with_edges((16, 2025), 24), _with_edges((24, 16), 25), _with_edges(24, 26)
    g = _with_edges((24, 2025), 27)
    y, (dx, dw, db) = _replay(lambda t, *n: t.linear_map_1x1(*n), [x, w, b], g)
    _assert_same_bits(y, w @ x + b[:, None])
    _assert_same_bits(dx, w.T @ g)
    _assert_same_bits(dw, g @ x.T)
    _assert_same_bits(db, g.sum(axis=1))


def test_mean_pool_segments_matches_reference_bitwise():
    a = _with_edges((24, 2025), 28)
    g = _with_edges((24, 81), 29)
    y, (da,) = _replay(lambda t, n: t.mean_pool_segments(n, 25), [a], g)
    _assert_same_bits(y, a.reshape(24, 81, 25).mean(axis=2))
    _assert_same_bits(da, np.repeat(g, 25, axis=1) / 25)


def _composed_isda_scores(x, w, b, cov, lam, g):
    """(z, dx, dw, db) of the composed tape path ``isda_scores`` replaced,
    transpose(linear_map_1x1(transpose(x), w, b)) + quadratic_penalty(w)
    minus its diagonal (take_flat) per row (sub_colvec), replayed in order."""
    m = len(x)
    xt = np.ascontiguousarray(x.T)
    y = w @ xt
    y += b[:, None]
    half = float(lam) / 2.0
    v = w[None, :, :] - w[:, None, :]
    aug = np.ascontiguousarray(y.T) + np.einsum("mjd,mjd->mj", np.matmul(v, cov), v) * half
    idx = np.arange(m) * (m + 1)
    z = aug - aug.reshape(-1)[idx][:, None]
    scatter = np.zeros(m * m)
    np.add.at(scatter, idx, -g.sum(axis=1))
    ga = np.array(g)  # the replay copies g to start the sum
    ga += scatter.reshape(m, m)
    gv = (ga * half)[:, :, None] * np.matmul(v, cov + cov.transpose(0, 2, 1))
    dw = np.array(gv.sum(axis=0) - gv.sum(axis=1))
    gy = ga.T
    dw += gy @ xt.T
    return z, (w.T @ gy).T, dw, gy.sum(axis=1)


@pytest.mark.parametrize("m", [1, 5, 24])
@pytest.mark.parametrize("d", [3, 16])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_isda_scores_matches_composed_reference_bitwise(m, d, lam):
    rng = np.random.default_rng([m, d, int(lam * 10)])
    x, w, b = (rng.standard_normal(s) * 3.0 for s in ((m, d), (m, d), (m,)))
    cov = rng.standard_normal((m, d, d))  # not symmetric
    g = rng.standard_normal((m, m))
    g.reshape(-1)[1::3] = -0.0  # signed zeros on and off the diagonal
    g.reshape(-1)[2::7] = 0.0
    z, grads = _replay(lambda t, *n: t.isda_scores(*n, cov, lam), [x, w, b], g)
    want_z, *want_grads = _composed_isda_scores(x, w, b, cov, lam, g)
    _assert_same_bits(z, want_z)
    assert np.all(np.diagonal(z) == 0.0)
    for got, want in zip(grads, want_grads):
        _assert_same_bits(got, want)


@pytest.mark.parametrize("name, fn, make_inputs", diffcore.KERNEL_CHECKS,
                         ids=[entry[0] for entry in diffcore.KERNEL_CHECKS])
def test_kernel_writes_only_its_own_arrays(name, fn, make_inputs):
    # the replay contract: no kernel writes into its inputs or into the
    # cotangent it is handed, and a forward-only tape computes the same bytes
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    inputs = make_inputs(lambda *shape: rng.standard_normal(shape))
    kept = [x.copy() for x in inputs]
    tape = Tape()
    out = fn(tape, *[tape.constant(x) for x in inputs])
    cot = rng.standard_normal(out.shape)
    tape.backward(out, cot)
    for x, before in zip(inputs, kept):
        assert x.tobytes() == before.tobytes()
    assert tape.grad(out).tobytes() == cot.tobytes()  # the seed every rule saw
    forward_only = fn(ForwardTape(), *[Tensor(x) for x in inputs])
    assert forward_only.data.tobytes() == out.data.tobytes()


def test_softmax_uniform_rows():
    tape = Tape()
    out = tape.softmax(tape.constant(np.zeros((2, 4))), axis=1)
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_cross_entropy_uniform_logits_is_log_c():
    for c in (2, 5, 11):
        tape = Tape()
        loss = tape.cross_entropy(tape.constant(np.zeros((3, c))), [0] * 3)
        assert loss.item() == pytest.approx(math.log(c), rel=1e-14)


def test_cross_entropy_confident_correct():
    # logits [[10, -10]] with target 0: loss = log(1 + exp(-20))
    tape = Tape()
    loss = tape.cross_entropy(tape.constant(np.array([[10.0, -10.0]])), [0])
    assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
    assert loss.item() == pytest.approx(2.061153622438558e-09, rel=1e-6)


def test_cross_entropy_rejects_bad_targets():
    tape = Tape()
    logits = tape.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        tape.cross_entropy(logits, [0, 3])
    with pytest.raises(ValueError):
        tape.cross_entropy(logits, [-1, 0])


def test_cross_entropy_backward_is_softmax_minus_onehot_over_n():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    targets = [0, 2, 1, 1]
    tape = Tape()
    node = tape.constant(x)
    loss = tape.cross_entropy(node, targets)
    tape.backward(loss)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros((4, 3))
    onehot[np.arange(4), targets] = 1.0
    assert np.allclose(tape.grad(node), (p - onehot) / 4.0, atol=1e-12)


def test_linear_map_1x1_matches_manual():
    rng = np.random.default_rng(1)
    x, w, b = rng.standard_normal((4, 6)), rng.standard_normal((3, 4)), rng.standard_normal(3)
    tape = Tape()
    out = tape.linear_map_1x1(tape.constant(x), tape.constant(w), tape.constant(b))
    assert np.allclose(out.data, w @ x + b[:, None], atol=1e-15)


def test_parameter_gradients_accumulate_until_zeroed():
    p = Parameter(np.ones((2, 2)), "w")

    def one_pass():
        tape = Tape()
        node = tape.use(p)
        tape.backward(tape.matmul(node, node), np.ones((2, 2)))

    one_pass()
    first = p.grad.data.copy()
    one_pass()
    assert np.allclose(p.grad.data, 2.0 * first, atol=1e-15)
    p.zero_grad()
    assert np.all(p.grad.data == 0.0)


def test_param_reused_in_one_tape_accumulates_both_paths():
    # f(w) = sum(w @ w), the all-ones cotangent of w @ w: both uses of w
    # must contribute.
    p = Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), "w")
    tape = Tape()
    node = tape.use(p)
    tape.backward(tape.matmul(node, node), np.ones((2, 2)))
    rep = grad_check(
        "reused", lambda t, a: t.matmul(a, a), [p.value.data], tolerance=1e-6
    )
    assert rep.passed
    # analytic for sum(w@w): grad = ones @ w.T + w.T @ ones
    w = p.value.data
    ones = np.ones_like(w)
    assert np.allclose(p.grad.data, ones @ w.T + w.T @ ones, atol=1e-12)


def test_quadratic_penalty_rejects_mismatched_cov():
    tape = Tape()
    w = tape.constant(np.zeros((3, 2)))
    for shape in ((3, 2), (2, 2, 2), (3, 3, 3), (3, 2, 3)):
        with pytest.raises(ShapeError):
            tape.quadratic_penalty(w, np.zeros(shape), 1.0)


def test_isda_scores_rejects_mismatched_shapes():
    tape = Tape()
    x, w, b = np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3)
    cov = np.zeros((3, 2, 2))
    bad = [(np.zeros(6), w, b, cov), (x, np.zeros((2, 2)), b, cov),
           (x, np.zeros((3, 3)), b, cov), (x, w, np.zeros(2), cov),
           (x, w, np.zeros((3, 1)), cov)]
    bad += [(x, w, b, np.zeros(shape)) for shape in ((3, 2), (2, 2, 2), (3, 3, 3), (3, 2, 3))]
    for xs, ws, bs, c in bad:
        with pytest.raises(ShapeError):
            tape.isda_scores(tape.constant(xs), tape.constant(ws), tape.constant(bs), c, 1.0)
    assert tape._entries == []


def test_block_correlation_rejects_bad_shapes():
    tape = Tape()
    a = tape.constant(np.zeros((3, 6)))
    cases = [((3, 4), 2), ((2, 6), 2), ((3, 6), 0), ((3, 6), -3), ((3, 6), 4), ((3, 6), 7)]
    for b_shape, width in cases:
        with pytest.raises(ShapeError):
            tape.block_correlation(a, tape.constant(np.zeros(b_shape)), width)
    flat = tape.constant(np.zeros(6))
    with pytest.raises(ShapeError):
        tape.block_correlation(flat, flat, 2)


def test_backward_requires_scalar():
    tape = Tape()
    out = tape.add(tape.constant(np.ones(3)), tape.constant(np.ones(3)))
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_backward_cotangent_must_match_output_shape():
    tape = Tape()
    a = tape.constant(np.ones((2, 3)))
    out = tape.scale(a, 2.0)
    for shape in ((3, 2), (6,), (2, 3, 1), ()):
        with pytest.raises(ShapeError):
            tape.backward(out, np.ones(shape))
    cot = np.arange(6.0).reshape(2, 3)
    tape.backward(out, cot)
    assert np.array_equal(tape.grad(a), 2.0 * cot)


def _three_consumers(order):
    """fn(tape, x, z, m) in which x reaches the output through three
    consumers, recorded in ``order``, whose backward rules hand x a
    transposed view, a row slice and a fresh array."""
    def fn(t, x, z, m):
        made = {}
        for kind in order:
            if kind == "transpose":
                made[kind] = t.matmul(t.transpose(x), m)  # x gets (g @ m^T)^T
            elif kind == "slice":
                made[kind] = t.concat_rows(x, z)          # x gets g[:3]
            else:
                made[kind] = t.tanh(x)                    # x gets g * (1 - y^2)
        a, b, c = (made[k] for k in ("transpose", "slice", "fresh"))
        return t.concat_rows(t.concat_rows(a, b), c)
    return fn


@pytest.mark.parametrize("order", [("transpose", "slice", "fresh"),
                                   ("fresh", "slice", "transpose"),
                                   ("slice", "transpose", "fresh")])
def test_replay_sums_views_and_fresh_contributions(order):
    rng = np.random.default_rng(11)
    x, z, m = (rng.standard_normal(shape) for shape in ((3, 4), (2, 4), (3, 4)))
    fn = _three_consumers(order)
    assert grad_check("three_consumers", fn, [x, z, m]).passed

    tape = Tape()
    nodes = [tape.constant(v.copy()) for v in (x, z, m)]
    out = fn(tape, *nodes)
    cot = rng.standard_normal(out.shape)  # rows: 4 transpose, 5 slice, 3 fresh
    tape.backward(out, cot)
    parts = {"transpose": (cot[:4] @ m.T).T,
             "slice": cot[4:9][:3],
             "fresh": cot[9:] * (1.0 - np.tanh(x) * np.tanh(x))}
    # the replay meets the consumers in reverse order of recording
    first, *rest = (parts[k] for k in reversed(order))
    expect = np.array(first)
    for part in rest:
        expect += part
    got = tape.grad(nodes[0])
    assert np.array_equal(got, expect)
    assert got.strides == expect.strides  # the sum keeps the first part's memory order


def test_replay_leaves_cotangent_and_inputs_unchanged():
    rng = np.random.default_rng(12)
    x, z, m = (rng.standard_normal(shape) for shape in ((3, 4), (2, 4), (3, 4)))
    tape = Tape()
    nodes = [tape.constant(v) for v in (x.copy(), z.copy(), m.copy())]
    three = _three_consumers(("transpose", "slice", "fresh"))(tape, *nodes)
    # recorded last, so replayed first: add hands x the same array twice
    doubled = tape.add(nodes[0], nodes[0])
    out = tape.concat_rows(three, doubled)
    cot = rng.standard_normal(out.shape)
    kept = cot.copy()
    tape.backward(out, cot)
    assert np.array_equal(cot, kept)
    for node, v in zip(nodes, (x, z, m)):
        assert np.array_equal(node.data, v)
    # the seed, of which every rule saw views, is unwritten too
    assert np.array_equal(tape.grad(out), kept)


def test_second_backward_raises_and_leaves_parameter_gradients():
    # replaying one record twice used to flush its gradient into p.grad twice
    p = Parameter(np.array([[3.0, -2.0]]), "w")
    tape = Tape()
    out = tape.matmul(tape.use(p), tape.constant(np.ones((2, 1))))
    tape.backward(out)
    assert np.array_equal(p.grad.data, [[1.0, 1.0]])
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.backward(out)
    assert np.array_equal(p.grad.data, [[1.0, 1.0]])


def test_replay_frees_intermediates_and_keeps_leaves_and_seed():
    rng = np.random.default_rng(5)
    x, w = rng.standard_normal((3, 4)), rng.standard_normal((2, 3))
    tape = Tape()
    a = tape.constant(x.copy())
    h = tape.tanh(a)
    hidden = weakref.ref(h.data)
    leaf = tape.constant(w.copy())
    weights = weakref.ref(leaf.data)
    out = tape.matmul(leaf, h)
    del h, leaf  # the record alone holds them now, as it holds an inline constant
    cot = rng.standard_normal(out.shape)
    tape.backward(out, cot)
    assert hidden() is None  # the tanh output died with its entry
    # the record holds keys: a dropped leaf is freed, and a held one reads
    # its exact gradient
    assert weights() is None and np.array_equal(
        tape.grad(a), (w.T @ cot) * (1.0 - np.tanh(x) * np.tanh(x)))
    expect = (w.T @ cot) * (1.0 - np.tanh(x) ** 2)
    assert np.allclose(tape.grad(a), expect, atol=1e-12)
    assert np.array_equal(tape.grad(out), cot)
    assert np.array_equal(tape.grad(Tensor(np.ones(3))), np.zeros(3))


def test_a_recycled_id_reads_no_gradient():
    # a key is never reused, so a tensor made after the replay at a dropped
    # leaf's address does not read that leaf's gradient
    tape = Tape()
    leaf = tape.constant(np.full((2, 2), 3.0))
    out = tape.matmul(leaf, leaf)
    dead, key = id(leaf), leaf.key
    del leaf
    tape.backward(out, np.ones((2, 2)))
    assert np.any(tape._grads[key] != 0.0)  # the leaf's gradient, kept by key
    made = []
    for _ in range(10_000):
        made.append(Tensor(np.ones((2, 2))))
        if id(made[-1]) == dead:
            break
    else:
        pytest.skip("no new tensor took the dropped leaf's address")
    assert np.array_equal(tape.grad(made[-1]), np.zeros((2, 2)))


def _old_block_correlation(a, b, width, g):
    """(out, da, db) of ``block_correlation`` through [K, D, width] products
    copied back to [D, K*width], as the kernel used to replay."""
    d, total = a.shape
    blocks = total // width
    a3 = a.reshape(d, blocks, width).transpose(1, 0, 2)
    b3 = b.reshape(d, blocks, width).transpose(1, 0, 2)
    out = np.matmul(a3.transpose(0, 2, 1), b3).reshape(total, width)
    g3 = g.reshape(blocks, width, width)
    da = np.matmul(b3, g3.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(d, total)
    db = np.matmul(a3, g3).transpose(1, 0, 2).reshape(d, total)
    return out, da, db


@pytest.mark.parametrize("blocks", [1, 7, 64])
@pytest.mark.parametrize("width", [1, 3, 25])
def test_block_correlation_matches_reference_bitwise(width, blocks):
    rng = np.random.default_rng([width, blocks])
    a, b = rng.standard_normal((2, 16, blocks * width)) * 3.0
    g = rng.standard_normal((blocks * width, width))
    a[0, :2], b[1, :2], g[0, 0] = -0.0, 0.0, -0.0  # signed zeros
    y, (da, db) = _replay(lambda t, *n: t.block_correlation(*n, width), [a, b], g)
    for got, ref in zip((y, da, db), _old_block_correlation(a, b, width, g)):
        _assert_same_bits(got, ref)


def test_mean_pool_over_one_column_is_identity():
    tape = Tape()
    a = tape.constant(np.arange(6.0).reshape(2, 3))
    assert tape.mean_pool_segments(a, 1) is a
    assert tape._entries == []


def test_standard_kernel_battery_passes():
    reports = diffcore.standard_kernel_checks(instances=10, seed=0)
    failed = [r for r in reports if not r.passed]
    assert not failed, f"kernels failing gradcheck: {[(r.op, r.max_rel_err) for r in failed]}"
    assert all(isinstance(r, GradCheckReport) for r in reports)


def test_battery_covers_every_kernel():
    # every public Tape kernel has an entry named <kernel> or
    # <kernel>_<variant>, and every entry names an existing kernel
    leaves = {"constant", "use", "backward", "grad"}
    kernels = {name for name, v in vars(Tape).items()
               if callable(v) and not name.startswith("_") and name not in leaves}
    entries = {r.op for r in diffcore.standard_kernel_checks(instances=1)}

    def covers(kernel, entry):
        return entry == kernel or entry.startswith(kernel + "_")

    unchecked = {k for k in kernels if not any(covers(k, e) for e in entries)}
    orphaned = {e for e in entries if not any(covers(k, e) for k in kernels)}
    assert not unchecked, f"kernels missing from the battery: {sorted(unchecked)}"
    assert not orphaned, f"battery entries without a kernel: {sorted(orphaned)}"


def test_battery_entry_independent_of_earlier_entries(monkeypatch):
    base = {r.op: r for r in diffcore.standard_kernel_checks(instances=2, seed=3)}
    extra = ("tanh_extra", lambda t, a: t.tanh(a), lambda rand: [rand(5, 5)])
    monkeypatch.setattr(diffcore, "KERNEL_CHECKS",
                        (extra, *reversed(diffcore.KERNEL_CHECKS)))
    moved = {r.op: r for r in diffcore.standard_kernel_checks(instances=2, seed=3)}
    assert moved.pop("tanh_extra").passed
    assert moved == base


# (battery entry) -> the inputs whose arrays its backward rule reads
_RULE_READS = {"matmul": {0, 1}, "cross_entropy": {0}, "linear_map_1x1": {0, 1},
               "isda_scores": {1}, "block_correlation": {0, 1}}


def _captured(fn):
    """Every value a closure holds, through nested closures."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        yield value
        if callable(value) and hasattr(value, "__closure__"):
            yield from _captured(value)


def test_backward_rules_capture_only_the_arrays_they_read():
    # the record holds keys, so a rule's closure is all that keeps an
    # input alive until its entry replays
    rng = np.random.default_rng(9)

    def rand(*shape):
        return rng.standard_normal(shape)

    for name, fn, make_inputs in diffcore.KERNEL_CHECKS:
        tape = Tape()
        nodes = [tape.constant(x) for x in make_inputs(rand)]
        fn(tape, *nodes)
        held = list(_captured(tape._entries[-1][2]))
        assert not any(isinstance(v, Tensor) for v in held), name
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        for i, node in enumerate(nodes):
            pinned = any(np.shares_memory(v, node.data) for v in arrays)
            assert pinned == (i in _RULE_READS.get(name, ())), (name, i)


def test_grad_check_catches_wrong_backward(monkeypatch):
    monkeypatch.setattr(diffcore, "_sigmoid_grad", lambda y: -y * (1.0 - y))
    rep = grad_check("sigmoid", lambda t, a: t.sigmoid(a), [np.array([0.3, -0.8])])
    assert not rep.passed


def test_composed_chain_gradcheck():
    rng = np.random.default_rng(7)

    def fn(t, x, w1, b1, w2, b2):
        h = t.tanh(t.linear_map_1x1(x, w1, b1))
        return t.cross_entropy(t.transpose(t.linear_map_1x1(h, w2, b2)), [0, 2, 1])

    inputs = [
        rng.standard_normal((5, 3)),
        rng.standard_normal((4, 5)),
        rng.standard_normal(4),
        rng.standard_normal((3, 4)),
        rng.standard_normal(3),
    ]
    rep = grad_check("chain", fn, inputs, tolerance=1e-5)
    assert rep.passed, rep


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))

    def run():
        tape = Tape()
        node = tape.constant(x.copy())
        out = tape.softmax(tape.sigmoid(tape.matmul(node, tape.constant(x.T))), axis=1)
        tape.backward(out, np.ones_like(out.data))
        return out.data.copy(), tape.grad(node).copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2)
    assert np.array_equal(g1, g2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows):
    x = np.array(rows)
    tape = Tape()
    y = tape.softmax(tape.constant(x), axis=1).data
    assert np.all(np.abs(y.sum(axis=1) - 1.0) <= 1e-12)
    shifted = tape.softmax(tape.constant(x + 123.456), axis=1).data
    assert np.all(np.abs(y - shifted) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kernels_finite_on_finite_inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4)) * 10.0
    tape = Tape()
    n = tape.constant(x)
    for out in (
        tape.sigmoid(n),
        tape.tanh(n),
        tape.softmax(n, 0),
        tape.softmax(n, 1),
        tape.cross_entropy(n, [0, 1, 2]),
    ):
        assert np.isfinite(out.data).all()
