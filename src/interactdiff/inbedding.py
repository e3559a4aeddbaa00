"""Instance and role embeddings over tokenizer output.

Purely additive: e = h + q_instance + r_role.  Slots beyond the actual
instance count hold a learned null token and are masked out of attention.
Instance embeddings are slot-indexed (segment-embedding style).
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ContractError
from . import numerics as N
from .numerics import ParameterStore, Tensor

ROLES = ("subject", "action", "object")


class InteractionEmbeddings:
    def __init__(
        self,
        store: ParameterStore,
        prefix: str = "inter.embed",
        n_max: int = 4,
        d_tok: int = 64,
        seed: int = 0,
    ):
        self.store = store
        self.prefix = prefix
        self.n_max = n_max
        self.d_tok = d_tok
        rng = np.random.default_rng(seed)
        store.add(f"{prefix}.instance", Tensor(rng.normal(0.0, 0.02, size=(n_max, d_tok))))
        store.add(f"{prefix}.role", Tensor(rng.normal(0.0, 0.02, size=(3, d_tok))))
        store.add(f"{prefix}.null", Tensor(rng.normal(0.0, 0.02, size=(d_tok,))))

    def embed_batch(self, h_s, h_a, h_o, counts) -> tuple[Tensor, np.ndarray]:
        """Pad and embed a batch of scenes.

        h_s, h_a, h_o: (n_total, d_tok) tokens of every instance in the batch,
        scene by scene; counts[b] of them belong to scene b (0 for an empty
        scene; the tokens may be None when every count is 0).
        Returns tokens (B, 3*n_max, d_tok) and a boolean validity mask
        (B, 3*n_max); slot layout is [s_1, a_1, o_1, s_2, ...].
        """
        B = len(counts)
        total = sum(counts)
        if any(n > self.n_max for n in counts):
            raise CapacityError(f"{max(counts)} instances exceed n_max={self.n_max}")
        null = N.reshape(self.store[f"{self.prefix}.null"], (1, self.d_tok))
        # pool rows: each scene's subjects, actions and objects in turn, then
        # the null row; this order fixes the summation order of the instance
        # and role embedding gradients.  Batch slots index into the pool.
        idx = np.full((B, 3 * self.n_max), 3 * total, dtype=np.int64)
        mask = np.zeros((B, 3 * self.n_max), dtype=bool)
        if total == 0:
            return N.take(null, idx), mask
        if h_s.shape[0] != total:
            raise ContractError(f"{h_s.shape[0]} token rows for {total} instances")
        perm, slot_ids, role_ids = [], [], []
        start = 0
        for b, n in enumerate(counts):
            for role in range(3):
                for i in range(n):
                    idx[b, 3 * i + role] = len(perm)
                    mask[b, 3 * i + role] = True
                    perm.append(role * total + start + i)
                    slot_ids.append(i)
                    role_ids.append(role)
            start += n
        q = self.store[f"{self.prefix}.instance"]
        r = self.store[f"{self.prefix}.role"]
        h_all = N.take(N.concat([h_s, h_a, h_o], axis=0), np.array(perm))
        e_all = h_all + N.take(q, np.array(slot_ids)) + N.take(r, np.array(role_ids))
        return N.take(N.concat([e_all, null], axis=0), idx), mask

    def embed_instances(self, triplets) -> tuple[Tensor, np.ndarray]:
        """Single-scene entry point over a list of EntityTokenTriplet."""
        if triplets:
            h_s = N.concat([N.reshape(t.h_s, (1, self.d_tok)) for t in triplets], axis=0)
            h_a = N.concat([N.reshape(t.h_a, (1, self.d_tok)) for t in triplets], axis=0)
            h_o = N.concat([N.reshape(t.h_o, (1, self.d_tok)) for t in triplets], axis=0)
            toks, mask = self.embed_batch(h_s, h_a, h_o, [len(triplets)])
        else:
            toks, mask = self.embed_batch(None, None, None, [0])
        return toks[0], mask[0]
