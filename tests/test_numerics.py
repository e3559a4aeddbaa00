import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interactdiff.numerics as N
from interactdiff.errors import CheckpointError, ContractError, ShapeError
from interactdiff.layers import NEG_MASK, GroupNorm
from interactdiff.numerics import (
    ParameterStore,
    Tensor,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    tensor,
)

from oracles import (
    CHECKPOINT_FAULTS,
    check_gradients,
    composed_attention,
    composed_conv2d,
    corrupt_checkpoint,
)

RNG = np.random.default_rng(0)


class TestMatmul:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal((eye @ x).data, x.data)

    def test_hand_multiplied(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        assert np.array_equal((a @ b).data, [[2.0], [4.0]])

    def test_zeros_annihilate(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(RNG.normal(size=(4, 5)))
        assert np.array_equal((a @ b).data, np.zeros((3, 5)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            N.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_attention_bias_needs_the_batch_axis(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError, match="batch axis"):
            N.attention(x, x, x, 2, Tensor(np.zeros((2, 1, 3))))


def _probs(logits):
    """Attention probabilities of one query over len(logits) keys: one head,
    q = k = 0 and the logits as bias, so with v = I the output row is p."""
    n = len(logits)
    bias = Tensor(np.reshape(logits, (1, 1, 1, n)))
    out = N.attention(Tensor(np.zeros((1, 1, n))), Tensor(np.zeros((1, n, n))),
                      Tensor(np.eye(n)[None]), 1, bias)
    return out.data[0, 0]


class TestSoftmax:
    def test_uniform(self):
        out = _probs([0.0, 0.0, 0.0])
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_no_overflow(self):
        out = _probs([1000.0, 0.0])
        assert abs(out[0] - 1.0) < 1e-12 and abs(out[1]) < 1e-12

    def test_closed_form(self):
        out = _probs([np.log(2.0), 0.0])
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_simplex(self, vals):
        out = _probs(vals)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12


ATTENTION_BIASES = {
    "none": lambda rng, B, H, Sk: None,
    "masked_key": lambda rng, B, H, Sk: Tensor(
        np.where(np.arange(Sk) < Sk - 1, 0.0, NEG_MASK)[None, None, None, :]
        * np.ones((B, 1, 1, 1))),
    "grad_bias": lambda rng, B, H, Sk: Tensor(rng.normal(size=(B, H, 1, Sk)), requires_grad=True),
    # the model's: a learned per-head key bias on the last keys plus the mask
    "model_bias": lambda rng, B, H, Sk: (
        Tensor(rng.normal(size=H), requires_grad=True).reshape(H, 1, 1)
        * Tensor(np.arange(Sk) >= Sk - 3).reshape(1, 1, Sk)
        + Tensor(np.where(np.arange(Sk) < Sk - 1 - np.arange(B)[:, None], 0.0, NEG_MASK)[:, None, None, :])),
}


def _grad_leaves(t):
    """The leaves under `t` that take a gradient (`t` itself if it is one)."""
    if t is None or not t._parents:
        return [t] if t is not None and t.requires_grad else []
    return [leaf for p in t._parents for leaf in _grad_leaves(p)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ATTENTION_BIASES)
def test_attention_bitwise_equals_composed_graph(case, dtype):
    """The fused node and the composed oracle give the same bits: the output
    and the q, k, v and bias gradients, over a batch of several blocks."""
    B, Sq, Sk, D, H = 2 * tensor._ATTENTION_BLOCK + 1, 5, 7, 8, 2

    def run(fn):
        rng = np.random.default_rng(31)
        with N.dtype_mode(dtype):
            q, k, v = (Tensor(rng.normal(size=s), requires_grad=True)
                       for s in [(B, Sq, D), (B, Sk, D), (B, Sk, D)])
            bias = ATTENTION_BIASES[case](rng, B, H, Sk)
            out = fn(q, k, v, H, bias)
            (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        grads = [t.grad for t in [q, k, v] + _grad_leaves(bias)]
        return [out.data] + grads

    fused, composed = run(N.attention), run(composed_attention)
    assert fused[0].dtype == dtype and len(fused) == 4 + (case in ("grad_bias", "model_bias"))
    for a, b in zip(fused, composed):
        assert a.tobytes() == b.tobytes()


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = N.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_closed_form_pm1(self):
        eps = 1e-5
        out = N.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expect = np.array([1.0, -1.0]) / np.sqrt(1.0 + eps)
        assert np.allclose(out.data, expect, atol=1e-14)

    def test_zero_gain_broadcasts_bias(self):
        x = Tensor(RNG.normal(size=(3, 5)))
        bias = Tensor(RNG.normal(size=5))
        out = N.layer_norm(x, Tensor(np.zeros(5)), bias)
        assert np.allclose(out.data, np.broadcast_to(bias.data, (3, 5)))


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            y = N.attention(x @ w, x, x, 2)
            (N.tanh(y) * N.silu(x)).sum().backward()
            return x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_no_grad_builds_no_tape_and_restores_it_after_an_error(self):
        w = Tensor([2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            with N.no_grad():
                out = w * w
                assert out._backward is None and out._parents == () and not out.requires_grad
                N.matmul(w, Tensor(np.ones((2, 2))))
        out = w * w
        assert out._backward is not None
        out.sum().backward()
        assert w.grad[0] == 4.0

    def test_backward_twice_adds_the_leaf_gradient_twice(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward()
        loss.backward()
        assert np.array_equal(x.grad, [4.0, 4.0])

    @pytest.mark.parametrize("add_first", [True, False])
    def test_gradient_handed_to_two_parents_is_not_written_into(self, add_first):
        """add hands one gradient array to both parents; a second
        contribution to one of them leaves the other's gradient unchanged."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        shared, again = (a + b).sum(), (a * 5.0).sum()
        (shared + again if add_first else again + shared).backward()
        assert np.array_equal(a.grad, [6.0, 6.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_only_leaves_keep_a_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(4,)))
        loss = (N.tanh(N.attention(x @ w, x, x + c, 2)) * x).sum()
        loss.backward()
        nodes, stack = set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in nodes:
                nodes.add(id(t))
                stack.extend(t._parents)
                if t._parents:
                    assert t.grad is None, t._op
                else:
                    assert (t.grad is not None) == t.requires_grad
                    assert t.grad is None or t.grad.shape == t.shape
        assert len(nodes) > 8


def _rand(shape):
    return RNG.normal(size=shape)


def _sq(y):
    return y * y


FD_CASES = [
    ("add", lambda a, b: (a + b).sum() if True else None, [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: (a + b).sum(), [(3, 4), (4,)]),
    ("mul", lambda a, b: (a * b * a).sum(), [(2, 5), (2, 5)]),
    ("matmul", lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)]),
    ("batched_matmul", lambda a, b: (a @ b).sum(), [(2, 3, 4), (2, 4, 3)]),
    ("attention", lambda q, k, v: _sq(N.attention(q, k, v, 2)).sum(), [(2, 3, 4), (2, 5, 4), (2, 5, 4)]),
    ("attention_bias", lambda q, k, v, b: _sq(N.attention(q, k, v, 2, b)).sum(), [(1, 3, 4), (1, 5, 4), (1, 5, 4), (1, 2, 1, 5)]),
    ("layer_norm", lambda x, g, b: _sq(N.layer_norm(x, g, b)).sum(), [(4, 6), (6,), (6,)]),
    ("group_norm", lambda x, g, b: _sq(N.layer_norm(x, g, b, groups=3)).sum(), [(2, 2, 2, 6), (6,), (6,)]),
    ("tanh", lambda a: N.tanh(a).sum(), [(7,)]),
    ("silu", lambda a: N.silu(a).sum(), [(7,)]),
    ("mean", lambda a: _sq(a).mean(), [(4, 3)]),
    ("reshape", lambda a, b: (a.reshape(4, 3) * b).sum(), [(2, 6), (4, 3)]),
    ("transpose", lambda a: (a.transpose(1, 0) @ a).sum(), [(3, 4)]),
    ("transpose_4d", lambda a, b: (a.transpose(0, 2, 3, 1) * b).sum(), [(2, 3, 4, 5), (2, 4, 5, 3)]),
    ("concat", lambda a, b: _sq(N.concat([a, b], axis=1)).sum(), [(2, 3), (2, 4)]),
    ("slice", lambda a: _sq(a[1:, :2]).sum(), [(4, 4)]),
    ("conv2d", lambda x, w, b: _sq(N.conv2d(x, w, b)).sum(), [(2, 5, 5, 3), (4, 3, 3, 3), (4,)]),
    ("conv2d_stride2", lambda x, w, b: _sq(N.conv2d(x, w, b, stride=2)).sum(), [(1, 6, 6, 2), (3, 2, 3, 3), (3,)]),
    ("upsample", lambda x: _sq(N.upsample_nearest2(x)).sum(), [(1, 3, 3, 2)]),
]


@pytest.mark.parametrize("name,func,shapes", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_gradients_match_finite_differences(name, func, shapes):
    # 5 random instances per op; criterion 4 in test_acceptance runs 100 per op
    for _ in range(5):
        arrays = [_rand(s) for s in shapes]
        check_gradients(func, arrays, rtol=1e-4, h=1e-5)


def test_fd_cases_cover_every_op_the_model_builds(monkeypatch):
    """Every op that a phase-1 and a phase-2 training step and a gated sample
    put in the graph has a finite-difference case in FD_CASES."""
    from interactdiff.diffusion import InteractionDiffusionModel, loss_step, make_batch, sample
    from test_diffusion import TINY, tiny_dataset

    ops, make = [], tensor._make

    def spy(data, parents, backward, op):
        ops.append(op)
        return make(data, parents, backward, op)

    monkeypatch.setattr(tensor, "_make", spy)
    rng = np.random.default_rng(0)
    model, ds = InteractionDiffusionModel(TINY), tiny_dataset(n=4)
    for with_interactions in (False, True):
        loss_step(model, make_batch(ds, rng, 2, 0.0, with_interactions), rng).backward()
    sample(model, [list(s.caption_ids) for s, _ in ds], [list(s.interactions) for s, _ in ds],
           steps=2, omega=1.0, seed=0)
    built = set(ops)
    ops.clear()
    for _, func, shapes in FD_CASES:
        func(*[Tensor(rng.normal(size=s)) for s in shapes])
    assert built <= set(ops), f"ops without an FD case: {sorted(built - set(ops))}"


def _conv_loops(x, w, b, stride, padding, g):
    """Direct cross-correlation of channels-last x, one output value at a
    time, and the gradients of sum(out * g) for x, w and b."""
    B, H, W, Cin = x.shape
    Cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, Ho, Wo, Cout))
    gxp, gw, gb = np.zeros_like(xp), np.zeros_like(w), np.zeros_like(b)
    for n in range(B):
        for i in range(Ho):
            for j in range(Wo):
                for co in range(Cout):
                    acc = b[co]
                    gb[co] += g[n, i, j, co]
                    for ci in range(Cin):
                        for di in range(kh):
                            for dj in range(kw):
                                r, c = i * stride + di, j * stride + dj
                                acc += xp[n, r, c, ci] * w[co, ci, di, dj]
                                gxp[n, r, c, ci] += g[n, i, j, co] * w[co, ci, di, dj]
                                gw[co, ci, di, dj] += g[n, i, j, co] * xp[n, r, c, ci]
                    out[n, i, j, co] = acc
    return out, gxp[:, padding:H + padding, padding:W + padding], gw, gb


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_direct_loops(stride):
    rng = np.random.default_rng(11)
    x, w, b = rng.normal(size=(2, 5, 6, 3)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = N.conv2d(*ts, stride=stride)
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    expect = _conv_loops(x, w, b, stride, 1, g)
    for got, want in zip([out.data] + [t.grad for t in ts], expect):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_float32_matches_direct_loops():
    rng = np.random.default_rng(13)
    x, w, b = rng.normal(size=(2, 6, 5, 4)), rng.normal(size=(3, 4, 3, 3)), rng.normal(size=3)
    with N.dtype_mode(np.float32):
        out = N.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    want = _conv_loops(x, w, b, 1, 1, np.zeros((2, 6, 5, 3)))[0]
    assert out.dtype == np.float32
    assert np.allclose(out, want, rtol=1e-5, atol=1e-5)


# (B, H, W, Cin, Cout, stride): every conv of the reference model at its
# batch of 16, a batch that ends in a partial forward chunk, and a
# non-square input
CONV_SHAPES = [
    (16, 32, 32, 3, 32, 1), (16, 32, 32, 32, 32, 1), (16, 32, 32, 32, 3, 1),
    (16, 32, 32, 32, 64, 2), (16, 16, 16, 64, 64, 1), (16, 8, 8, 64, 64, 1),
    (16, 16, 16, 64, 64, 2), (16, 32, 32, 64, 32, 1),
    (3, 32, 32, 32, 32, 1), (5, 12, 20, 8, 6, 1),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", CONV_SHAPES, ids=["x".join(map(str, s)) for s in CONV_SHAPES])
def test_conv2d_bitwise_equals_whole_batch_im2col(shape, dtype):
    """The chunked op and the whole-batch im2col oracle give the same bits:
    the output and the x, w and b gradients."""
    B, H, W, Cin, Cout, stride = shape

    def run(fn):
        rng = np.random.default_rng(17)
        with N.dtype_mode(dtype):
            ts = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(B, H, W, Cin), (Cout, Cin, 3, 3), (Cout,)]]
            out = fn(*ts, stride=stride)
            (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        return [out.data] + [t.grad for t in ts]

    chunked, whole = run(N.conv2d), run(composed_conv2d)
    assert chunked[0].dtype == dtype
    for a, b in zip(chunked, whole):
        assert a.tobytes() == b.tobytes()


# The two 3-wide convs at B = 2.  At batches 2-8 OpenBLAS runs their
# per-tap weight-gradient GEMMs, (Cout, Cin) = (32, 3) and (3, 32), with
# another kernel than the oracle's one (Cout, 9 Cin) GEMM, so the last bits
# differ (at B = 1 and 16 they agree).  Measured normwise error of the w
# gradient: 1.5e-6 and 9.1e-7 in float32, 1.9e-15 and 2.1e-15 in float64.
# The 3->32 conv's x gradient differed from the oracle before the per-tap
# weight gradient too (1.7e-7 in float32), from its per-tap GEMM.
SMALL_BATCH_CONVS = [(2, 32, 32, 3, 32, 1), (2, 32, 32, 32, 3, 1)]


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("shape", SMALL_BATCH_CONVS, ids=["x".join(map(str, s)) for s in SMALL_BATCH_CONVS])
def test_conv2d_small_batch_three_wide_weight_gradient_within_rounding(shape, dtype, rtol):
    """The output and the b gradient stay bitwise; the x and w gradients
    agree with the oracle to rtol of their largest entry."""
    B, H, W, Cin, Cout, stride = shape

    def run(fn):
        rng = np.random.default_rng(17)
        with N.dtype_mode(dtype):
            ts = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(B, H, W, Cin), (Cout, Cin, 3, 3), (Cout,)]]
            out = fn(*ts, stride=stride)
            (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        return [out.data] + [t.grad for t in ts]

    (out, gx, gw, gb), (want, wx, ww, wb) = run(N.conv2d), run(composed_conv2d)
    assert out.tobytes() == want.tobytes() and gb.tobytes() == wb.tobytes()
    for got, ref in ((gx, wx), (gw, ww)):
        assert got.dtype == dtype
        assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _traced_bytes(fn):
    """(bytes that fn()'s result still holds, peak bytes while it ran), as
    tracemalloc sees numpy's allocations."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- kept alive while the memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak


def test_conv2d_keeps_no_column_matrix():
    """A 64->32 conv at B=16 and 32 px has a 16*32*32 x 576 float32 column
    matrix (37.7 MB): after a grad-mode forward the graph holds the output
    and neither the columns nor the padded input (4.7 MB), a no-grad
    forward never builds all of the columns, and backward, which goes tap
    by tap, peaks less than a quarter of the columns above the graph and
    the gradients it leaves (the padded x, its gradient and one tap's
    window)."""
    rng = np.random.default_rng(3)
    with N.dtype_mode(np.float32):
        x = Tensor(rng.normal(size=(16, 32, 32, 64)), requires_grad=True)
        w = Tensor(rng.normal(size=(32, 64, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(32), requires_grad=True)
    columns = 16 * 32 * 32 * 64 * 9 * 4
    padded = 16 * 34 * 34 * 64 * 4
    held, _ = _traced_bytes(lambda: N.conv2d(x, w, b))
    assert held < 16 * 32 * 32 * 32 * 4 + padded / 2
    with N.no_grad():
        _, peak = _traced_bytes(lambda: N.conv2d(x, w, b))
    assert peak < columns
    out = N.conv2d(x, w, b)
    g = rng.normal(size=out.shape).astype(np.float32)
    held, peak = _traced_bytes(lambda: out._backward(g))
    assert all(t.grad is not None for t in (x, w, b))
    assert peak - held < columns / 4


# (x shape, groups) at the model's widths: a token LayerNorm and two GroupNorms
NORM_SHAPES = [((16, 256, 64), None), ((16, 32, 32, 32), 8), ((16, 16, 16, 64), 8)]


@pytest.mark.parametrize("shape,groups", NORM_SHAPES, ids=["x".join(map(str, s)) for s, _ in NORM_SHAPES])
def test_elementwise_nodes_keep_only_their_output(shape, groups):
    """After a grad-mode forward, silu holds its output and layer_norm its
    output plus two float32 numbers per normalized row (mean and inverse
    deviation): backward recomputes the sigmoid and the normalized x."""
    rng = np.random.default_rng(4)
    with N.dtype_mode(np.float32):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        gain, bias = (Tensor(rng.normal(size=shape[-1]), requires_grad=True) for _ in "gb")
    rows = x.size // (shape[-1] if groups is None else shape[1] * shape[2] * shape[3] // groups)
    slack = 4096  # array headers and the closure's cells
    for fn, extra in ((lambda: N.silu(x), 0),
                      (lambda: N.layer_norm(x, gain, bias, groups=groups), 2 * rows * 4)):
        out = []
        held, _ = _traced_bytes(lambda: out.append(fn()))
        assert out[0]._backward is not None
        assert held <= out[0].data.nbytes + extra + slack


def test_attention_keeps_only_probabilities_and_output():
    """A grad-mode attention node holds its (B, H, Sq, Sk) probabilities and
    its output, and no scaled copy of q."""
    rng = np.random.default_rng(5)
    B, H, Sq, Sk, D = 16, 4, 256, 268, 64
    with N.dtype_mode(np.float32):
        q = Tensor(rng.normal(size=(B, Sq, D)), requires_grad=True)
        k, v = (Tensor(rng.normal(size=(B, Sk, D)), requires_grad=True) for _ in "kv")
        bias = Tensor(rng.normal(size=(B, H, 1, Sk)), requires_grad=True)
    held, _ = _traced_bytes(lambda: N.attention(q, k, v, H, bias))
    assert held <= (B * H * Sq * Sk + B * Sq * D) * 4 + 64 * 1024


def test_attention_backward_builds_no_whole_batch_temporaries():
    """At B=16, 4 heads, 256 queries and 268 keys the (B, H, Sq, Sk)
    float32 probabilities take 17.6 MB: backward, the model's batched key
    bias included, peaks less than one such array above what the graph held
    before it."""
    rng = np.random.default_rng(5)
    B, H, Sq, Sk, D = 16, 4, 256, 268, 64
    with N.dtype_mode(np.float32):
        q = Tensor(rng.normal(size=(B, Sq, D)), requires_grad=True)
        k, v = (Tensor(rng.normal(size=(B, Sk, D)), requires_grad=True) for _ in "kv")
        bias = Tensor(rng.normal(size=(B, H, 1, Sk)), requires_grad=True)
        loss = (N.attention(q, k, v, H, bias) * Tensor(rng.normal(size=(B, Sq, D)))).sum()
    _, peak = _traced_bytes(loss.backward)
    assert all(t.grad is not None for t in (q, k, v, bias))
    assert peak < B * H * Sq * Sk * 4


def test_group_norm_matches_per_group_normalisation():
    rng = np.random.default_rng(12)
    B, H, W, C, groups, eps = 2, 3, 4, 8, 2, 1e-5  # 8 channels make 2 groups
    store = ParameterStore()
    gn = GroupNorm(store, "gn", C)
    gain, bias = rng.normal(size=C), rng.normal(size=C)
    store["gn.gain"].data[:] = gain
    store["gn.bias"].data[:] = bias
    x = rng.normal(size=(B, H, W, C)) * 3.0 + 1.0
    expect = np.empty_like(x)
    width = C // groups
    for n in range(B):
        for k in range(groups):
            block = x[n, :, :, k * width : (k + 1) * width]
            expect[n, :, :, k * width : (k + 1) * width] = (
                (block - block.mean()) / np.sqrt(block.var() + eps)
            )
    expect = expect * gain + bias
    assert np.allclose(gn(Tensor(x)).data, expect, rtol=1e-12, atol=1e-12)


def test_embedding_gradient():
    ids = np.array([[0, 2], [2, 1]])
    table = Tensor(_rand((3, 4)), requires_grad=True)
    N.take(table, ids).sum().backward()
    expect = np.zeros((3, 4))
    expect[0] += 1
    expect[1] += 1
    expect[2] += 2
    assert np.array_equal(table.grad, expect)


def test_slice_gradient_bitwise_equals_add_at():
    """A basic (slice) index adds its gradient in place, with the bits of
    np.add.at (integer-array ids, which may repeat, keep np.add.at:
    test_embedding_gradient)."""
    rng = np.random.default_rng(9)
    with N.dtype_mode(np.float32):
        a = Tensor(rng.normal(size=(4, 7, 16)), requires_grad=True)
        g = rng.normal(size=(4, 3, 16)).astype(np.float32)
        (N.take(a, (slice(None), slice(None, 3))) * Tensor(g)).sum().backward()
    want = np.zeros_like(a.data)
    np.add.at(want, (slice(None), slice(None, 3)), g)
    assert a.grad.tobytes() == want.tobytes()


class TestAdam:
    def _store_with(self, name, value, grad=None, frozen=False):
        store = ParameterStore()
        t = store.add(name, Tensor(np.array(value)))
        if grad is not None:
            t.grad = np.array(grad)
        if frozen:
            store.freeze(name)
        return store, t

    def test_frozen_untouched(self):
        store, t = self._store_with("w", [1.0, 2.0], frozen=True)
        before = t.data.tobytes()
        for step in range(1, 6):
            adam_step(store, 0.1, step)
        assert t.data.tobytes() == before

    def test_first_step_magnitude(self):
        store, t = self._store_with("w", [0.0], grad=[1.0])
        adam_step(store, 1e-3, 1)
        # bias-corrected first step is -lr * g/(|g| + eps-slack)
        assert abs(t.data[0] + 1e-3) < 1e-9

    def test_zero_grad_no_move(self):
        store, t = self._store_with("w", [3.0], grad=[0.0])
        adam_step(store, 0.5, 1)
        assert t.data[0] == 3.0

    def test_missing_grad_contract_error(self):
        store, _ = self._store_with("w", [1.0])
        with pytest.raises(ContractError):
            adam_step(store, 0.1, 1)

    def test_frozen_bitwise_after_training(self):
        rng = np.random.default_rng(3)
        store = ParameterStore()
        frozen = store.add("base.w", Tensor(rng.normal(size=(4, 4))))
        live = store.add("inter.w", Tensor(rng.normal(size=(4, 4))))
        store.freeze("base.")
        snapshot = frozen.data.tobytes()
        for step in range(1, 21):
            store.zero_grad()
            loss = _sq(frozen @ live).sum()
            loss.backward()
            adam_step(store, 1e-2, step)
        assert frozen.data.tobytes() == snapshot
        assert live.grad is not None

    def test_step_is_the_bias_correction_t(self):
        """`step` is the t of the bias correction: a first update at t = 1
        moves a parameter by lr, one at t = 8001 (counting on from 8,000
        phase-1 steps) by about 3.16 lr."""
        for step, factor in ((1, 1.0), (8001, 0.1 / np.sqrt(1e-3 / (1.0 - 0.999**8001)))):
            store, t = self._store_with("w", [0.0], grad=[2.0])
            adam_step(store, 1e-3, step)
            assert abs(t.data[0] + 1e-3 * factor) < 1e-9 * factor, step

    def test_freezing_drops_moments(self):
        store, _ = self._store_with("w", [1.0], grad=[0.5])
        adam_step(store, 0.1, 1)
        assert set(store.moments) == {"w"}
        store.freeze("w")
        assert store.moments == {}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        store = ParameterStore()
        store.add("base.conv.w", Tensor(rng.normal(size=(4, 3, 3, 3))))
        store.add("inter.gate", Tensor(np.array(0.25)))
        store.freeze("base.")
        # populate moments
        store.moments["inter.gate"] = (np.array(0.5), np.array(0.25))
        path = tmp_path / "ck.bin"
        save_checkpoint(store, path, meta={"seed": 1})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 1}
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
        for got, want in zip(loaded.moments["inter.gate"], store.moments["inter.gate"]):
            assert got.tobytes() == want.tobytes()

    def test_float32_round_trip(self, tmp_path):
        store = ParameterStore()
        with N.dtype_mode(np.float32):
            store.add("w", Tensor(np.random.default_rng(2).normal(size=(5,))))
        path = tmp_path / "ck32.bin"
        save_checkpoint(store, path)
        loaded, _ = load_checkpoint(path)
        assert loaded["w"].data.dtype == np.float32
        assert loaded["w"].data.tobytes() == store["w"].data.tobytes()

    def test_header_with_frozen_flags_loads(self, tmp_path):
        """A file whose parameter entries still carry a `frozen` flag, as
        files written before trainability left the header do, loads to the
        same arrays and moments, every parameter trainable; saved again, its
        entries are {name, dtype, shape} and the bytes are otherwise equal."""
        w, b, m, v = np.array([1.0, 2.0]), np.array([3.0]), np.array([0.5, 0.5]), np.array([0.25, 0.25])
        payload = b"".join(a.astype("<f8").tobytes() for a in (w, b, m, v))
        prefix = struct.Struct("<4sII")

        def ckpt_bytes(entries):
            header = {"params": entries, "moments": ["w"], "meta": {"step": 7}}
            blob = json.dumps(header, sort_keys=True).encode("utf-8")
            return prefix.pack(b"IDCK", 3, len(blob)) + blob + payload

        entries = [{"name": "w", "dtype": "f8", "shape": [2]}, {"name": "b", "dtype": "f8", "shape": [1]}]
        old = tmp_path / "old.ckpt"
        old.write_bytes(ckpt_bytes([dict(e, frozen=f) for e, f in zip(entries, (False, True))]))
        loaded, meta = load_checkpoint(old)
        assert meta == {"step": 7} and loaded.names() == ["w", "b"]
        assert loaded["w"].data.tobytes() == w.tobytes() and loaded["b"].data.tobytes() == b.tobytes()
        assert [a.tobytes() for a in loaded.moments["w"]] == [m.tobytes(), v.tobytes()]
        assert list(loaded.moments) == ["w"]
        assert loaded["w"].requires_grad and loaded["b"].requires_grad
        save_checkpoint(loaded, tmp_path / "new.ckpt", meta)
        assert (tmp_path / "new.ckpt").read_bytes() == ckpt_bytes(entries)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        store = ParameterStore()
        store.add("w", Tensor([1.0, 2.0]))
        path = tmp_path / "ck.bin"
        save_checkpoint(store, path, meta={"step": 1})
        before = path.read_bytes()
        store["w"].data[...] = 5.0

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(store, path, meta={"step": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    @pytest.mark.parametrize("fault", CHECKPOINT_FAULTS)
    def test_bad_magic(self, tmp_path, fault):
        """Every malformed file raises CheckpointError: bad magic, version 1
        or 2 (whose moments ran under one Adam count across phases), a
        header that is not UTF-8 or not JSON, an unknown dtype, moments of an
        unknown parameter, a short payload, trailing bytes."""
        store = ParameterStore()
        store.add("w", Tensor([1.0, 2.0]))
        store.moments["w"] = (np.array([0.5, 0.5]), np.array([0.25, 0.25]))
        path = tmp_path / "ck.bin"
        save_checkpoint(store, path)
        path.write_bytes(corrupt_checkpoint(path.read_bytes(), fault))
        with pytest.raises(CheckpointError, match=CHECKPOINT_FAULTS[fault]):
            load_checkpoint(path)

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", Tensor([1.0]))
        with pytest.raises(ContractError):
            store.add("w", Tensor([2.0]))
