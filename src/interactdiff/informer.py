"""Transformer block with gated interaction self-attention, plus the
scheduled-sampling gate.

Block wiring (pre-norm residual):

    v = v + pos                                      # learned, frozen after phase 1
    v = v + SelfAttn(LN(v))                          # frozen after phase 1
    v = v + eta * tanh(gamma) * TS(SelfAttn(LN([v, e])))   # trainable
    v = v + CrossAttn(LN(v), c)                      # frozen after phase 1

The interaction term computes queries only for visual rows, which equals
full self-attention over [v, e] followed by Token Slicing.  When the gate
multiplier is exactly zero (eta = 0, or no interaction tokens) the branch
is skipped entirely, so gate-off output is bit-identical to the base block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from . import numerics as N
from .layers import AttentionLayer, LayerNorm
from .numerics import ParameterStore, Tensor


@dataclass
class SamplerConfig:
    """Scheduled sampling: fraction omega of the reverse trajectory is
    interaction-controlled."""

    omega: float
    total_steps: int

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ContractError(f"omega must be in [0,1], got {self.omega}")
        if self.total_steps < 1:
            raise ContractError("total_steps must be >= 1")


def eta_schedule(t: int, config: SamplerConfig) -> int:
    """Binary gate for reverse-sampling step t (1-based from the noisiest):
    the first ceil(omega*T) steps, at the high-noise end, are gated on."""
    T = config.total_steps
    if not 1 <= t <= T:
        raise ContractError(f"step index {t} outside 1..{T}")
    # omega * T carries float error (0.14 * 50 = 7.000000000000001), which
    # must not gate an extra step; with T <= 1000 it is far below 1e-9
    n_gated = math.ceil(config.omega * T - 1e-9)
    return 1 if t <= n_gated else 0


def grid_position_features(n_tokens: int, d_tok: int) -> np.ndarray:
    """Sinusoidal position features for a row-major square token grid: the
    initial value of each InformerBlock's learned `pos` parameter, which
    phase 1 trains.

    Unit-amplitude so position stays legible next to O(1) activations; the
    x/y coordinates each fill half the channels.
    """
    side = int(round(math.sqrt(n_tokens)))
    if side * side != n_tokens:
        raise ContractError(f"{n_tokens} tokens do not form a square grid")
    ys, xs = np.divmod(np.arange(n_tokens), side)
    coords = [xs / max(side - 1, 1), ys / max(side - 1, 1)]
    per = d_tok // len(coords)
    feats = np.zeros((n_tokens, d_tok))
    for ci, c in enumerate(coords):
        half = per // 2
        freqs = np.pi * np.arange(1, half + 1)
        ang = c[:, None] * freqs[None, :]
        feats[:, ci * per : ci * per + half] = np.sin(ang)
        feats[:, ci * per + half : ci * per + 2 * half] = np.cos(ang)
    return feats


class InformerBlock:
    """One interaction transformer block over M = H*W visual tokens."""

    def __init__(self, store: ParameterStore, name: str, n_tokens: int, d_tok: int,
                 n_heads: int, rng):
        self.n_tokens = n_tokens
        base = f"base.{name}"
        inter = f"inter.{name}"
        self.pos = store.add(f"{base}.pos", Tensor(grid_position_features(n_tokens, d_tok)))
        self.norm_self = LayerNorm(store, f"{base}.norm_self", d_tok)
        self.self_attn = AttentionLayer(store, f"{base}.self_attn", d_tok, n_heads, rng)
        self.norm_cross = LayerNorm(store, f"{base}.norm_cross", d_tok)
        self.cross_attn = AttentionLayer(store, f"{base}.cross_attn", d_tok, n_heads, rng)
        self.norm_inter = LayerNorm(store, f"{inter}.norm_inter", d_tok)
        self.inter_attn = AttentionLayer(store, f"{inter}.inter_attn", d_tok, n_heads, rng)
        self.gate_gamma = store.add(f"{inter}.gate_gamma", Tensor(np.zeros(())))  # zero-init gate
        # Additive per-head pre-softmax bias on interaction-key logits; without
        # it the handful of interaction rows must out-compete all M visual rows
        # in the softmax via raw QK magnitudes, which trains extremely slowly.
        self.key_bias = store.add(f"{inter}.key_bias", Tensor(np.zeros(n_heads)))

    def __call__(
        self,
        v: Tensor,
        caption: Tensor,
        caption_mask: np.ndarray,
        inter_tokens: Tensor | None,
        inter_mask: np.ndarray | None,
        eta: int,
    ) -> Tensor:
        if v.shape[1] != self.n_tokens:
            raise ContractError(f"expected {self.n_tokens} visual tokens, got {v.shape[1]}")
        if eta not in (0, 1):
            raise ContractError(f"eta must be 0 or 1, got {eta}")
        B, M, _ = v.shape
        v = v + self.pos
        normed_v = self.norm_self(v)
        v = v + self.self_attn(normed_v, normed_v)
        if eta == 1 and inter_tokens is not None:
            n_inter = inter_tokens.shape[1]
            if inter_mask is None or inter_mask.shape != (B, n_inter):
                raise ContractError("interaction mask missing or mismatched with tokens")
            stacked = N.concat([v, inter_tokens], axis=1)
            normed = self.norm_inter(stacked)
            key_mask = np.concatenate(
                [np.ones((B, M), dtype=bool), inter_mask], axis=1
            )
            # queries from visual rows only == Token Slicing of the full output
            indicator = Tensor(np.concatenate([np.zeros(M), np.ones(n_inter)]))
            bias = (self.key_bias.reshape(-1, 1, 1)
                    * indicator.reshape(1, 1, M + n_inter))
            sliced = self.inter_attn(normed[:, :M], normed,
                                     key_mask=key_mask, logit_bias=bias)
            gate = N.tanh(self.gate_gamma)
            v = v + gate * sliced
        v = v + self.cross_attn(self.norm_cross(v), caption, key_mask=caption_mask)
        return v
