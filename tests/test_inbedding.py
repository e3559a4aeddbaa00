"""Instance/role embedding algebra tests."""

import numpy as np
import pytest

from interactdiff.errors import CapacityError
from interactdiff.inbedding import InteractionEmbeddings
from interactdiff.intoken import EntityTokenTriplet
from interactdiff.numerics import ParameterStore, Tensor

D = 64
N_MAX = 4


def make_embedder(seed=0):
    store = ParameterStore()
    emb = InteractionEmbeddings(store, n_max=N_MAX, d_tok=D, seed=seed)
    return store, emb


def random_triplets(rng, n):
    return [
        EntityTokenTriplet(
            h_s=Tensor(rng.normal(size=D)),
            h_a=Tensor(rng.normal(size=D)),
            h_o=Tensor(rng.normal(size=D)),
        )
        for _ in range(n)
    ]


def test_zero_embeddings_are_identity():
    store, emb = make_embedder()
    store[f"{emb.prefix}.instance"].data[...] = 0.0
    store[f"{emb.prefix}.role"].data[...] = 0.0
    rng = np.random.default_rng(0)
    trips = random_triplets(rng, 2)
    toks, mask = emb.embed_instances(trips)
    for i, t in enumerate(trips):
        assert np.allclose(toks.data[3 * i + 0], t.h_s.data)
        assert np.allclose(toks.data[3 * i + 1], t.h_a.data)
        assert np.allclose(toks.data[3 * i + 2], t.h_o.data)


def test_slot_layout_and_mask():
    store, emb = make_embedder()
    rng = np.random.default_rng(1)
    for n in range(N_MAX + 1):
        toks, mask = emb.embed_instances(random_triplets(rng, n))
        assert toks.shape == (3 * N_MAX, D)
        assert mask.shape == (3 * N_MAX,)
        assert mask[: 3 * n].all()
        assert not mask[3 * n :].any()
        # padded slots carry the learned null token
        null = store[f"{emb.prefix}.null"].data
        for slot in range(3 * n, 3 * N_MAX):
            assert np.array_equal(toks.data[slot], null)


def test_capacity_error():
    _, emb = make_embedder()
    rng = np.random.default_rng(2)
    with pytest.raises(CapacityError, match="4"):
        emb.embed_instances(random_triplets(rng, N_MAX + 1))


def test_same_instance_sharing():
    """e - h - r is the same q_i for all three roles of instance i."""
    store, emb = make_embedder()
    rng = np.random.default_rng(3)
    trips = random_triplets(rng, 3)
    toks, _ = emb.embed_instances(trips)
    r = store[f"{emb.prefix}.role"].data
    q = store[f"{emb.prefix}.instance"].data
    for i, t in enumerate(trips):
        qs = toks.data[3 * i + 0] - t.h_s.data - r[0]
        qa = toks.data[3 * i + 1] - t.h_a.data - r[1]
        qo = toks.data[3 * i + 2] - t.h_o.data - r[2]
        assert np.allclose(qs, q[i], atol=1e-12)
        assert np.allclose(qa, q[i], atol=1e-12)
        assert np.allclose(qo, q[i], atol=1e-12)


def test_same_role_sharing():
    """e^a - h^a - q_i recovers the single role vector r_a for every i."""
    store, emb = make_embedder()
    rng = np.random.default_rng(4)
    trips = random_triplets(rng, N_MAX)
    toks, _ = emb.embed_instances(trips)
    q = store[f"{emb.prefix}.instance"].data
    r_a = store[f"{emb.prefix}.role"].data[1]
    for i, t in enumerate(trips):
        assert np.allclose(toks.data[3 * i + 1] - t.h_a.data - q[i], r_a, atol=1e-12)


def test_instance_perturbation_locality():
    store, emb = make_embedder()
    rng = np.random.default_rng(5)
    trips = random_triplets(rng, 3)
    before, _ = emb.embed_instances(trips)
    delta = rng.normal(size=D)
    store[f"{emb.prefix}.instance"].data[1] += delta
    after, _ = emb.embed_instances(trips)
    for slot in range(9):
        diff = after.data[slot] - before.data[slot]
        if slot // 3 == 1:
            assert np.allclose(diff, delta, atol=1e-12)
        else:
            assert np.allclose(diff, 0.0)


def test_role_perturbation_hits_all_instances():
    store, emb = make_embedder()
    rng = np.random.default_rng(6)
    trips = random_triplets(rng, 3)
    before, _ = emb.embed_instances(trips)
    delta = rng.normal(size=D)
    store[f"{emb.prefix}.role"].data[1] += delta  # action role
    after, _ = emb.embed_instances(trips)
    for slot in range(9):
        diff = after.data[slot] - before.data[slot]
        if slot % 3 == 1:
            assert np.allclose(diff, delta, atol=1e-12)
        else:
            assert np.allclose(diff, 0.0)


def test_additivity_in_tokens():
    """embed(h + d) == embed(h) + d on valid slots: pure addition."""
    _, emb = make_embedder()
    rng = np.random.default_rng(7)
    trips = random_triplets(rng, 2)
    delta = rng.normal(size=D)
    shifted = [
        EntityTokenTriplet(
            h_s=Tensor(t.h_s.data + delta),
            h_a=Tensor(t.h_a.data + delta),
            h_o=Tensor(t.h_o.data + delta),
        )
        for t in trips
    ]
    base, _ = emb.embed_instances(trips)
    moved, _ = emb.embed_instances(shifted)
    assert np.allclose(moved.data[:6], base.data[:6] + delta, atol=1e-12)
    assert np.array_equal(moved.data[6:], base.data[6:])  # padding untouched


def test_batch_matches_single_scene():
    store, emb = make_embedder()
    rng = np.random.default_rng(8)
    scenes = [random_triplets(rng, n) for n in (1, 3, 0, 2)]
    flat = [t for trips in scenes for t in trips]
    h_s, h_a, h_o = (Tensor(np.stack([getattr(t, role).data for t in flat]))
                     for role in ("h_s", "h_a", "h_o"))

    toks, mask = emb.embed_batch(h_s, h_a, h_o, [len(s) for s in scenes])
    assert toks.shape == (4, 3 * N_MAX, D)
    for b, trips in enumerate(scenes):
        single, smask = emb.embed_instances(trips)
        assert np.array_equal(toks.data[b], single.data)
        assert np.array_equal(mask[b], smask)
