"""Dense tensor with reverse-mode automatic differentiation.

The tape is implicit: each Tensor produced by an op keeps references to its
parents and a closure that routes the incoming gradient to them.  backward()
topologically sorts the graph and runs the closures in reverse, which makes
gradient accumulation order deterministic for a fixed graph construction
order.  A node keeps the first gradient passed to it, not a copy, and drops
it once its closure has passed it on: after backward() only leaves hold one.
A closure keeps its parents, its output, per-row statistics and attention's
probabilities; cheaper intermediates are recomputed in backward.

Precision is float64 by default; float32 is an opt-in runtime mode
(dtype_mode).  Inside no_grad() ops build no tape at all.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from ..errors import ContractError, ShapeError

_DEFAULT_DTYPE = np.float64
_GRAD = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: ops keep no parents and no backward
    closure, so their intermediates are freed as soon as they are used."""
    global _GRAD
    old = _GRAD
    _GRAD = False
    try:
        yield
    finally:
        _GRAD = old


@contextlib.contextmanager
def dtype_mode(dtype):
    """New Tensors default to `dtype`, float32 or float64, inside the block."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported dtype {dtype}; use float32 or float64")
    old = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


class Tensor:
    """n-dimensional array node on the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- tape ---------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g` to .grad out of place.  The first `g` is kept, not copied
        (cast only if its dtype differs): ops hand one array to several nodes,
        so nothing may write into a .grad."""
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)

    def backward(self) -> None:
        """Add this graph's gradient to .grad of each leaf that requires one.

        The root must be scalar.  Each interior node's gradient is spent: it
        is set to None as soon as the node's closure has passed it on, so
        calling backward() twice on one graph adds the leaf gradients twice.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: float):
        return mul(self, 1.0 / other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents, backward, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _GRAD and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    out._op = op
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, "mul")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _make(data, (a,), backward, "tanh")


def silu(a) -> Tensor:
    """x * sigmoid(x); backward recomputes the sigmoid with the same expression."""
    a = as_tensor(a)
    data = a.data * (1.0 / (1.0 + np.exp(-a.data)))

    def backward(g):
        if a.requires_grad:
            s = 1.0 / (1.0 + np.exp(-a.data))
            a._accumulate(g * s * (1.0 + a.data * (1.0 - s)))

    return _make(data, (a,), backward, "silu")


# -- reductions -------------------------------------------------------------


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(data), (a,), backward, "sum")


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        n = a.data.shape[axis]
    return mul(reduce_sum(a, axis, keepdims), 1.0 / n)


# -- shape ops --------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    if isinstance(shape, (list, tuple)) and len(shape) == 1 and isinstance(shape[0], (list, tuple)):
        shape = shape[0]
    shape = tuple(int(s) for s in shape)
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), backward, "reshape")


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is not None and len(axes) == 0:
        axes = None
    data = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.transpose(g, inv))

    return _make(data, (a,), backward, "transpose")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return _make(data, tuple(tensors), backward, "concat")


def take(a, idx) -> Tensor:
    """Basic slicing / integer-array indexing."""
    a = as_tensor(a)
    data = a.data[idx]
    view = np.may_share_memory(data, a.data)  # basic indices: no repeats

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            if view:
                buf[idx] += g
            else:  # integer-array ids may repeat: add.at sums them
                np.add.at(buf, idx, g)
            a._accumulate(buf)

    return _make(np.asarray(data), (a,), backward, "take")


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1:
        raise ShapeError("matmul requires at least 1-d operands")
    if a.data.shape[-1] != b.data.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), backward, "matmul")


# images per attention block; only p is built for the whole batch at once
_ATTENTION_BLOCK = 1


def attention(q, k, v, n_heads: int, bias=None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.  q: (B, Sq, D);
    k, v: (B, Sk, D); bias: optional additive Tensor broadcasting to the
    (B, H, Sq, Sk) logits.  Returns (B, Sq, D).  Backward keeps only the
    probabilities p: dv = p^T g, ds = p * (g v^T - rowsum), dq, dk, dbias from
    ds.  Both run _ATTENTION_BLOCK images at a time and scale that block's q
    when they use it: no scaled copy of the whole q is kept.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    B, Sq, D = q.data.shape
    Sk = k.data.shape[1]
    dh = D // n_heads
    scale = 1.0 / math.sqrt(dh)

    def qh(s):
        return (q.data[s] * scale).reshape(-1, Sq, n_heads, dh).transpose(0, 2, 1, 3)

    kt = k.data.reshape(B, Sk, n_heads, dh).transpose(0, 2, 3, 1)
    vh = v.data.reshape(B, Sk, n_heads, dh).transpose(0, 2, 1, 3)
    p = np.empty((B, n_heads, Sq, Sk), dtype=np.result_type(q.data, kt))
    blocks = [slice(lo, lo + _ATTENTION_BLOCK) for lo in range(0, B, _ATTENTION_BLOCK)]
    out = np.empty((B, Sq, D), dtype=np.result_type(p, vh))
    for s in blocks:
        ps = np.matmul(qh(s), kt[s], out=p[s])
        if bias is not None:
            ps += np.broadcast_to(bias.data, p.shape)[s]
        ps -= ps.max(axis=-1, keepdims=True)
        np.exp(ps, out=ps)
        ps /= ps.sum(axis=-1, keepdims=True)
        out[s] = (ps @ vh[s]).transpose(0, 2, 1, 3).reshape(-1, Sq, D)

    def backward(g):
        g = g.reshape(B, Sq, n_heads, dh).transpose(0, 2, 1, 3)
        gq, gk, gv = (np.empty_like(t.data, dtype=g.dtype) for t in (q, k, v))
        # a bias with a batch axis sums ds over queries per block; one without
        # sums it over images, then queries: _unbroadcast's order if ndim < 4
        batched = bias is not None and bias.ndim == 4 and bias.shape[0] == B
        gb = np.empty(bias.shape, dtype=g.dtype) if batched else None
        for s in blocks:
            gs, ps = g[s], p[s]
            if v.requires_grad:
                gv[s] = (np.swapaxes(ps, -1, -2) @ gs).transpose(0, 2, 1, 3).reshape(-1, Sk, D)
            ds = gs @ np.swapaxes(vh[s], -1, -2)
            ds -= (ds * ps).sum(axis=-1, keepdims=True)
            ds *= ps
            if bias is not None and bias.requires_grad:
                if batched:
                    gb[s] = _unbroadcast(ds, gb[s].shape)
                else:
                    for d in ds:
                        gb = d if gb is None else gb + d
            if q.requires_grad:
                gq[s] = (ds @ np.swapaxes(kt[s], -1, -2)).transpose(0, 2, 1, 3).reshape(-1, Sq, D) * scale
            if k.requires_grad:
                gk[s] = (np.swapaxes(qh(s), -1, -2) @ ds).transpose(0, 3, 1, 2).reshape(-1, Sk, D)
        if bias is not None and bias.requires_grad and not batched:
            gb = _unbroadcast(gb, bias.shape[-3:]).reshape(bias.shape)
        for t, gt in zip((v, bias, q, k), (gv, gb, gq, gk)):
            if t is not None and t.requires_grad:
                t._accumulate(gt)

    return _make(out, (q, k, v) if bias is None else (q, k, v, bias), backward, "attention")


def layer_norm(x, gain, bias, groups=None) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, eps 1e-5,
    then affine.  With `groups` (GroupNorm), x is channels-last (B, H, W, C)
    with (C,) gain and bias, normalized over axes (1, 3) of a
    (B, H*W, groups, C/groups) view.  The node keeps each row's mean and
    inverse deviation; backward recomputes the normalized x from them."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    shape = x.data.shape
    axes, view, affine = (-1,), shape, gain.data.shape
    if groups is not None:
        B, H, W, C = shape
        axes, view, affine = (1, 3), (B, H * W, groups, C // groups), (groups, C // groups)
    xd, gd, bd = x.data.reshape(view), gain.data.reshape(affine), bias.data.reshape(affine)
    n = int(np.prod([view[a] for a in axes]))

    def mean(a):
        # one axis at a time: numpy's multi-axis reductions are much slower
        for ax in axes:
            a = a.sum(axis=ax, keepdims=True)
        return a / n

    mu = mean(xd)
    xc = xd - mu
    inv = 1.0 / np.sqrt(mean(xc * xc) + 1e-5)
    data = (gd * (xc * inv) + bd).reshape(shape)

    def backward(g):
        g = g.reshape(view)
        xhat = (xd - mu) * inv
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, affine).reshape(gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, affine).reshape(bias.data.shape))
        if x.requires_grad:
            gx = g * gd
            x._accumulate(((gx - mean(gx) - xhat * mean(gx * xhat)) * inv).reshape(shape))

    return _make(data, (x, gain, bias), backward, "layer_norm")


# -- convolution and resampling --------------------------------------------


# output rows per forward GEMM, which bounds the column block built at once
_CONV_CHUNK_ROWS = 2048


def conv2d(x, w, b, stride: int = 1) -> Tensor:
    """2-d cross-correlation of channels-last input, zero-padded by 1 on each
    side, via im2col + GEMM.

    x: (B, H, W, Cin); w: (Cout, Cin, kh, kw); b: (Cout,).
    Returns (B, Ho, Wo, Cout).  The columns are in (kh, kw, Cin) order, so a
    kernel row's kw*Cin entries are one contiguous run of the padded input and
    im2col is one copy of a strided view; the weight is permuted to match.
    The forward builds columns for about _CONV_CHUNK_ROWS output rows at a
    time, and the node keeps only x, which its parent holds anyway: backward
    pads x again and builds no columns.  It goes tap by tap, one
    (Cout, Cin) GEMM of the gradient with that tap's window of the padded x
    for the weight gradient, one for the tap's share of the input gradient.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    B, H, W, Cin = x.data.shape
    Cout, Cin_w, kh, kw = w.data.shape
    if Cin != Cin_w:
        raise ShapeError(f"conv2d channel mismatch: {x.data.shape} vs {w.data.shape}")
    Ho = (H + 2 - kh) // stride + 1
    Wo = (W + 2 - kw) // stride + 1

    def im2col(xp):
        s0, s1, s2, s3 = xp.strides
        view = np.lib.stride_tricks.as_strided(xp, (len(xp), Ho, Wo, kh, kw * Cin),
                                               (s0, s1 * stride, s2 * stride, s1, s3))
        return view.reshape(-1, kh * kw * Cin)

    wmat = w.data.transpose(0, 2, 3, 1).reshape(Cout, -1)
    out = np.empty((B, Ho, Wo, Cout), dtype=np.result_type(x.data, wmat))
    step = max(1, _CONV_CHUNK_ROWS // (Ho * Wo))
    widths = ((0, 0), (1, 1), (1, 1), (0, 0))
    xp = np.pad(x.data, widths)  # not kept: backward pads x again
    for lo in range(0, B, step):
        np.matmul(im2col(xp[lo:lo + step]), wmat.T, out=out[lo:lo + step].reshape(-1, Cout))
    out += b.data

    def backward(g):
        gmat = g.reshape(B * Ho * Wo, Cout)
        if b.requires_grad:
            b._accumulate(gmat.sum(axis=0))
        if w.requires_grad:
            xp, gw = np.pad(x.data, widths), np.empty((Cout, kh, kw, Cin), np.result_type(g, x.data))
        if x.requires_grad:
            gxp = np.zeros((B, H + 2, W + 2, Cin), dtype=x.data.dtype)
        for t in range(kh * kw):
            i, j = divmod(t, kw)
            win = (slice(None), slice(i, i + stride * Ho, stride), slice(j, j + stride * Wo, stride))
            if w.requires_grad:
                gw[:, i, j] = gmat.T @ xp[win].reshape(-1, Cin)
            if x.requires_grad:
                gxp[win] += (gmat @ wmat[:, t * Cin:(t + 1) * Cin]).reshape(B, Ho, Wo, Cin)
        if w.requires_grad:
            w._accumulate(gw.transpose(0, 3, 1, 2))
        if x.requires_grad:
            x._accumulate(gxp[:, 1:-1, 1:-1])

    return _make(out, (x, w, b), backward, "conv2d")


def upsample_nearest2(x) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of channels-last (B, H, W, C)."""
    x = as_tensor(x)
    B, H, W, C = x.data.shape
    data = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(B, H, 2, W, 2, C).sum(axis=(2, 4)))

    return _make(data, (x,), backward, "upsample_nearest2")
