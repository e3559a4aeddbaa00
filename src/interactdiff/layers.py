"""Small parameterized layer helpers over the tensor core.

Each helper registers its weights into a shared ParameterStore under a
caller-chosen name prefix, so freezing and checkpointing work by prefix.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from . import numerics as N
from .numerics import ParameterStore, Tensor


class Linear:
    def __init__(self, store: ParameterStore, name: str, d_in: int, d_out: int, rng, bias: bool = True):
        self.name = name
        self.store = store
        scale = 1.0 / np.sqrt(d_in)
        store.add(f"{name}.w", Tensor(rng.normal(0.0, scale, size=(d_in, d_out))))
        self.bias = bias
        if bias:
            store.add(f"{name}.b", Tensor(np.zeros(d_out)))

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.store[f"{self.name}.w"]
        if self.bias:
            out = out + self.store[f"{self.name}.b"]
        return out


class Conv2d:
    """3x3 convolution, padding 1."""

    def __init__(self, store, name, c_in, c_out, stride=1, rng=None, zero_init=False):
        self.name = name
        self.store = store
        self.stride = stride
        if zero_init:
            w = np.zeros((c_out, c_in, 3, 3))
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(c_in * 9), size=(c_out, c_in, 3, 3))
        store.add(f"{name}.w", Tensor(w))
        store.add(f"{name}.b", Tensor(np.zeros(c_out)))

    def __call__(self, x: Tensor) -> Tensor:
        w, b = self.store[f"{self.name}.w"], self.store[f"{self.name}.b"]
        return N.conv2d(x, w, b, stride=self.stride)


class GroupNorm:
    """GroupNorm of channels-last (B, H, W, C) input as one layer_norm: each
    sample's `groups` = clip(C // 4, 1, 8) contiguous channel blocks are
    normalized separately."""

    def __init__(self, store, name, channels):
        self.name = name
        self.store = store
        self.groups = max(1, min(8, channels // 4))
        if channels % self.groups:
            raise ContractError(f"{name}: {self.groups} groups do not divide {channels} channels")
        store.add(f"{name}.gain", Tensor(np.ones(channels)))
        store.add(f"{name}.bias", Tensor(np.zeros(channels)))

    def __call__(self, x: Tensor) -> Tensor:
        B, H, W, C = x.shape
        g = self.groups
        gain = self.store[f"{self.name}.gain"].reshape(g, C // g)
        bias = self.store[f"{self.name}.bias"].reshape(g, C // g)
        out = N.layer_norm(x.reshape(B, H * W, g, C // g), gain, bias, axis=(1, 3))
        return out.reshape(B, H, W, C)


class LayerNorm:
    def __init__(self, store, name, dim):
        self.name = name
        self.store = store
        store.add(f"{name}.gain", Tensor(np.ones(dim)))
        store.add(f"{name}.bias", Tensor(np.zeros(dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return N.layer_norm(x, self.store[f"{self.name}.gain"], self.store[f"{self.name}.bias"])


NEG_MASK = -1e30  # additive mask; exp underflows to exactly 0 after max-shift


class AttentionLayer:
    """Multi-head attention with learned q/k/v/out projections."""

    def __init__(self, store, name, d_model, n_heads, rng):
        if d_model % n_heads:
            raise ContractError(f"{name}: {n_heads} heads do not divide d_model {d_model}")
        self.n_heads = n_heads
        self.wq = Linear(store, f"{name}.q", d_model, d_model, rng, bias=False)
        self.wk = Linear(store, f"{name}.k", d_model, d_model, rng, bias=False)
        self.wv = Linear(store, f"{name}.v", d_model, d_model, rng, bias=False)
        self.wo = Linear(store, f"{name}.out", d_model, d_model, rng, bias=False)

    def __call__(self, q_in: Tensor, kv_in: Tensor, key_mask=None,
                 logit_bias=None) -> Tensor:
        """key_mask: boolean (B, Sk), True = valid; it is added, as NEG_MASK on
        invalid keys, to logit_bias (a Tensor broadcasting to (B, H, Sq, Sk))."""
        if key_mask is not None:
            mask = Tensor(np.where(key_mask, 0.0, NEG_MASK)[:, None, None, :])
            logit_bias = mask if logit_bias is None else logit_bias + mask
        out = N.attention(self.wq(q_in), self.wk(kv_in), self.wv(kv_in),
                          self.n_heads, logit_bias)
        return self.wo(out)
