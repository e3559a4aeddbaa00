"""Dense tensor with reverse-mode automatic differentiation.

The tape is implicit: each Tensor produced by an op keeps references to its
parents and a closure that routes the incoming gradient to them.  backward()
topologically sorts the graph and runs the closures in reverse, which makes
gradient accumulation order deterministic for a fixed graph construction
order.

Precision is float64 by default; float32 is an opt-in runtime mode
(set_default_dtype).  Strict mode raises NumericError whenever an op
produces non-finite values; training loops may switch it off for speed.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import ContractError, NumericError, ShapeError

_DEFAULT_DTYPE = np.float64
_STRICT = True


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


def set_strict(flag: bool) -> None:
    global _STRICT
    _STRICT = bool(flag)


def strict_enabled() -> bool:
    return _STRICT


@contextlib.contextmanager
def strict_mode(flag: bool):
    global _STRICT
    old = _STRICT
    _STRICT = bool(flag)
    try:
        yield
    finally:
        _STRICT = old


@contextlib.contextmanager
def dtype_mode(dtype):
    global _DEFAULT_DTYPE
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


def _check_finite(arr: np.ndarray, op: str) -> None:
    if _STRICT and not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {op}")


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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- tape ---------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad tensor.

        The root must be scalar.
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
        if _STRICT:
            for node in topo:
                if node.grad is not None and not np.all(np.isfinite(node.grad)):
                    raise NumericError(f"non-finite gradient at op {node._op}")

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

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / other)
        return mul(self, reciprocal(other))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

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
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    out._op = op
    _check_finite(data, op)
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


def reciprocal(a) -> Tensor:
    a = as_tensor(a)
    data = 1.0 / a.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g * data * data)

    return _make(data, (a,), backward, "reciprocal")


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    data = a.data**p

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * p * a.data ** (p - 1.0))

    return _make(data, (a,), backward, "power")


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data)

    return _make(data, (a,), backward, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(data, (a,), backward, "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / data)

    return _make(data, (a,), backward, "sqrt")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _make(data, (a,), backward, "tanh")


def silu(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    data = a.data * s

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * s * (1.0 + a.data * (1.0 - s)))

    return _make(data, (a,), backward, "silu")


# -- reductions -------------------------------------------------------------


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
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


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    data = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, ax1, ax2))

    return _make(data, (a,), backward, "swapaxes")


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

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
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


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    a = as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (g - dot))

    return _make(data, (a,), backward, "softmax")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = gain.data * xhat + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((gx - m1 - xhat * m2) * inv)

    return _make(data, (x, gain, bias), backward, "layer_norm")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward; ids is an integer array."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids, g)
            table._accumulate(buf)

    return _make(data, (table,), backward, "embedding")


# -- convolution and resampling --------------------------------------------


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation via im2col + BLAS matmul.

    x: (B, Cin, H, W); w: (Cout, Cin, kh, kw); b: (Cout,) or None.
    """
    x, w = as_tensor(x), as_tensor(w)
    if b is not None:
        b = as_tensor(b)
    B, Cin, H, W = x.data.shape
    Cout, Cin_w, kh, kw = w.data.shape
    if Cin != Cin_w:
        raise ShapeError(f"conv2d channel mismatch: {x.data.shape} vs {w.data.shape}")
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (B, Cin, Ho, Wo, kh, kw) view, then flattened for a single GEMM
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    col = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B * Ho * Wo, Cin * kh * kw
    )
    wmat = w.data.reshape(Cout, Cin * kh * kw)
    out = (col @ wmat.T).reshape(B, Ho, Wo, Cout).transpose(0, 3, 1, 2)
    if b is not None:
        out = out + b.data[None, :, None, None]
    out = np.ascontiguousarray(out)

    def backward(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, Cout)
        if b is not None and b.requires_grad:
            b._accumulate(gmat.sum(axis=0))
        if w.requires_grad:
            gw = gmat.T @ col
            w._accumulate(gw.reshape(Cout, Cin, kh, kw))
        if x.requires_grad:
            gcol = (gmat @ wmat).reshape(B, Ho, Wo, Cin, kh, kw)
            gxp = np.zeros(
                (B, Cin, H + 2 * padding, W + 2 * padding), dtype=x.data.dtype
            )
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride] += (
                        gcol[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                    )
            if padding:
                gxp = gxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(gxp)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, backward, "conv2d")


def upsample_nearest2(x) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of (B, C, H, W)."""
    x = as_tensor(x)
    B, C, H, W = x.data.shape
    data = np.ascontiguousarray(
        np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    )

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5)))

    return _make(data, (x,), backward, "upsample_nearest2")
