"""Interaction tokenizer: (label, box) pairs -> one block of interaction tokens.

Subject and object share one MLP; the action path has its own.  Label
embeddings are trained from scratch over the toy vocabulary (no pretrained
text encoder exists at this scale).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, VocabularyError
from .geometry import BoundingBox, fourier_embed
from .layers import Linear
from . import numerics as N
from .numerics import ParameterStore, Tensor
from .scenes import VOCAB

# store names of the tokenizer's parameters (checkpoints key on them)
PREFIX = "inter.tok"


class InteractionTokenizer:
    """Parameters and forward pass of the tokenizer.

    All parameters are registered under `inter.tok` in the shared store, so
    they ride along in checkpoints and can be frozen/unfrozen as a group.
    """

    def __init__(self, store: ParameterStore, d_text: int, d_tok: int, n_freqs: int, seed: int):
        self.n_freqs = n_freqs
        rng = np.random.default_rng(seed)
        self.label_embed = store.add(
            f"{PREFIX}.label_embed", Tensor(rng.normal(0.0, 0.02, size=(len(VOCAB), d_text))))
        d_in = d_text + 4 * 2 * n_freqs
        self.mlps = {
            which: (Linear(store, f"{PREFIX}.{which}.0", d_in, 4 * d_tok, rng),
                    Linear(store, f"{PREFIX}.{which}.1", 4 * d_tok, d_tok, rng))
            for which in ("object_mlp", "action_mlp")
        }

    def _mlp(self, which: str, ids: list[int], boxes: list[BoundingBox]) -> Tensor:
        """One token row per (label id, box) pair through MLP `which`."""
        ids, n_labels = np.asarray(ids), self.label_embed.shape[0]
        if ids.min() < 0 or ids.max() >= n_labels:
            raise VocabularyError(f"label id out of range 0..{n_labels - 1}")
        box_emb = Tensor(np.stack([fourier_embed(b, self.n_freqs) for b in boxes]))
        first, second = self.mlps[which]
        return second(N.silu(first(N.concat([N.take(self.label_embed, ids), box_emb], axis=-1))))

    def tokenize_instances(self, instances) -> Tensor:
        """Tokens of n instances as one (3n, d_tok) block: the n subject rows
        and the n object rows, which go through the shared MLP in one pass,
        then the n action rows."""
        if not instances:
            raise ContractError("tokenize_instances needs at least one instance")
        so = self._mlp("object_mlp", [i.s for i in instances] + [i.o for i in instances],
                       [i.b_s for i in instances] + [i.b_o for i in instances])
        a = self._mlp("action_mlp", [i.a for i in instances], [i.b_a for i in instances])
        return N.concat([so, a], axis=0)
