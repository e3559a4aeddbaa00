"""Instance and role embeddings over tokenizer output.

Purely additive: e = h + q_instance + r_role.  Slots beyond the actual
instance count hold zeros and are masked out of attention.
Instance embeddings are slot-indexed (segment-embedding style).
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ContractError
from . import numerics as N
from .numerics import ParameterStore, Tensor

# store names of the embedder's parameters (checkpoints key on them)
PREFIX = "inter.embed"


class InteractionEmbeddings:
    def __init__(self, store: ParameterStore, n_max: int, d_tok: int, seed: int):
        self.n_max = n_max
        rng = np.random.default_rng(seed)
        self.instance = store.add(f"{PREFIX}.instance", Tensor(rng.normal(0.0, 0.02, size=(n_max, d_tok))))
        self.role = store.add(f"{PREFIX}.role", Tensor(rng.normal(0.0, 0.02, size=(3, d_tok))))

    def embed_batch(self, tokens: Tensor, counts) -> tuple[Tensor, np.ndarray]:
        """Pad and embed a batch of scenes.

        tokens: the (3 * total, d_tok) block `tokenize_instances` gives for
        the batch's `total` instances, scene by scene: every subject row, then
        every object row, then every action row; counts[b] of the instances
        belong to scene b (0 for an empty scene, but not for every scene).
        Returns tokens (B, 3*n_max, d_tok) and a boolean validity mask
        (B, 3*n_max); slot layout is [s_1, a_1, o_1, s_2, ...].
        """
        B = len(counts)
        total = sum(counts)
        if max(counts) > self.n_max:
            raise CapacityError(f"{max(counts)} instances exceed n_max={self.n_max}")
        if tokens.shape[0] != 3 * total:
            raise ContractError(f"{tokens.shape[0]} token rows for {total} instances")
        # pool rows: each scene's subjects, actions and objects in turn, then
        # a zero pad row; this order fixes the summation order of the instance
        # and role embedding gradients.  Batch slots index into the pool.
        idx = np.full((B, 3 * self.n_max), 3 * total, dtype=np.int64)
        mask = np.zeros((B, 3 * self.n_max), dtype=bool)
        perm, slot_ids, role_ids = [], [], []
        start = 0
        for b, n in enumerate(counts):
            # first block row of each role: subject, action, object
            for role, offset in enumerate((0, 2 * total, total)):
                for i in range(n):
                    idx[b, 3 * i + role] = len(perm)
                    mask[b, 3 * i + role] = True
                    perm.append(offset + start + i)
                    slot_ids.append(i)
                    role_ids.append(role)
            start += n
        h_all = N.take(tokens, np.array(perm))
        e_all = (h_all + N.take(self.instance, np.array(slot_ids))
                 + N.take(self.role, np.array(role_ids)))
        pad = Tensor(np.zeros((1, tokens.shape[1])))
        return N.take(N.concat([e_all, pad], axis=0), idx), mask
