"""Interaction tokenizer: (label, box) pairs -> subject/action/object tokens.

Subject and object share one MLP; the action path has its own.  Label
embeddings are trained from scratch over the toy vocabulary (no pretrained
text encoder exists at this scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, VocabularyError
from .geometry import BoundingBox, between, fourier_embed
from .layers import Linear
from . import numerics as N
from .numerics import ParameterStore, Tensor


@dataclass
class InteractionInstance:
    """One (subject, action, object) triplet with its three boxes."""

    s: int
    a: int
    o: int
    b_s: BoundingBox
    b_a: BoundingBox
    b_o: BoundingBox
    action_box_override: bool = False

    def __post_init__(self):
        if not self.action_box_override and self.b_a != between(self.b_s, self.b_o):
            raise ContractError(
                "b_a does not equal between(b_s, b_o); pass "
                "action_box_override=True to keep a custom action box"
            )


@dataclass
class EntityTokenTriplet:
    """(h_s, h_a, h_o), all of token dimension d_tok."""

    h_s: Tensor
    h_a: Tensor
    h_o: Tensor


class InteractionTokenizer:
    """Parameters and forward pass of the tokenizer.

    All parameters are registered under `prefix` in the shared store, so
    they ride along in checkpoints and can be frozen/unfrozen as a group.
    """

    def __init__(
        self,
        store: ParameterStore,
        vocab_size: int,
        prefix: str = "inter.tok",
        d_text: int = 64,
        d_tok: int = 64,
        n_freqs: int = 8,
        seed: int = 0,
    ):
        self.store = store
        self.prefix = prefix
        self.vocab_size = vocab_size
        self.d_text = d_text
        self.d_tok = d_tok
        self.n_freqs = n_freqs
        self.d_four = 4 * 2 * n_freqs
        rng = np.random.default_rng(seed)
        store.add(f"{prefix}.label_embed", Tensor(rng.normal(0.0, 0.02, size=(vocab_size, d_text))))
        d_in = d_text + self.d_four
        self.mlps = {
            which: (Linear(store, f"{prefix}.{which}.0", d_in, 4 * d_tok, rng),
                    Linear(store, f"{prefix}.{which}.1", 4 * d_tok, d_tok, rng))
            for which in ("object_mlp", "action_mlp")
        }

    # -- label / box featurization ------------------------------------------

    def label_embedding(self, ids) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise VocabularyError(f"label id out of range 0..{self.vocab_size - 1}")
        return N.embedding(self.store[f"{self.prefix}.label_embed"], ids)

    def box_features(self, boxes) -> Tensor:
        return Tensor(np.stack([fourier_embed(b, self.n_freqs) for b in boxes]))

    # -- MLP paths ----------------------------------------------------------

    def _mlp(self, which: str, label_emb: Tensor, box_emb: Tensor) -> Tensor:
        if label_emb.shape[-1] != self.d_text or box_emb.shape[-1] != self.d_four:
            raise ContractError(
                f"expected dims ({self.d_text}, {self.d_four}), got "
                f"({label_emb.shape[-1]}, {box_emb.shape[-1]})"
            )
        first, second = self.mlps[which]
        return second(N.silu(first(N.concat([label_emb, box_emb], axis=-1))))

    def object_mlp(self, label_emb: Tensor, box_emb: Tensor) -> Tensor:
        """Shared subject/object path."""
        return self._mlp("object_mlp", label_emb, box_emb)

    def action_mlp(self, label_emb: Tensor, box_emb: Tensor) -> Tensor:
        return self._mlp("action_mlp", label_emb, box_emb)

    # -- tokenization -------------------------------------------------------

    def tokenize_instances(self, instances) -> tuple[Tensor, Tensor, Tensor]:
        """Batched tokenization: returns (h_s, h_a, h_o), each (n, d_tok).

        Subject and object rows go through the shared MLP in one pass.
        """
        n = len(instances)
        if n == 0:
            raise ContractError("tokenize_instances needs at least one instance")
        s_ids = [inst.s for inst in instances]
        o_ids = [inst.o for inst in instances]
        a_ids = [inst.a for inst in instances]
        so_labels = self.label_embedding(s_ids + o_ids)
        so_boxes = self.box_features([inst.b_s for inst in instances] + [inst.b_o for inst in instances])
        so = self.object_mlp(so_labels, so_boxes)
        h_s, h_o = so[:n], so[n:]
        h_a = self.action_mlp(self.label_embedding(a_ids), self.box_features([inst.b_a for inst in instances]))
        return h_s, h_a, h_o

    def intoken(self, instance: InteractionInstance) -> EntityTokenTriplet:
        h_s, h_a, h_o = self.tokenize_instances([instance])
        return EntityTokenTriplet(h_s=h_s[0], h_a=h_a[0], h_o=h_o[0])
