"""Instance/role embedding algebra tests."""

import numpy as np
import pytest

from interactdiff.errors import CapacityError
from interactdiff.inbedding import InteractionEmbeddings
from interactdiff.numerics import ParameterStore

from oracles import random_tokens, token_block

D = 64
N_MAX = 4


def make_embedder(seed=0):
    store = ParameterStore()
    emb = InteractionEmbeddings(store, n_max=N_MAX, d_tok=D, seed=seed)
    return store, emb


def embed_scene(emb, h_s, h_a, h_o):
    """Slots and mask of one scene, embedded as a batch of one."""
    toks, mask = emb.embed_batch(token_block(h_s, h_a, h_o), [len(h_s)])
    return toks.data[0], mask[0]


def test_zero_embeddings_are_identity():
    store, emb = make_embedder()
    store["inter.embed.instance"].data[...] = 0.0
    store["inter.embed.role"].data[...] = 0.0
    rng = np.random.default_rng(0)
    h_s, h_a, h_o = random_tokens(rng, 2, D)
    toks, _ = embed_scene(emb, h_s, h_a, h_o)
    for i in range(2):
        assert np.allclose(toks[3 * i + 0], h_s[i])
        assert np.allclose(toks[3 * i + 1], h_a[i])
        assert np.allclose(toks[3 * i + 2], h_o[i])


def test_slot_layout_and_mask():
    """Scene 0 holds n = 0..N_MAX instances, scene 1 one more, so n = 0 is
    an empty scene next to a non-empty one."""
    _, emb = make_embedder()
    rng = np.random.default_rng(1)
    for n in range(N_MAX + 1):
        toks, mask = emb.embed_batch(token_block(*random_tokens(rng, n + 1, D)), [n, 1])
        assert toks.shape == (2, 3 * N_MAX, D)
        assert mask.shape == (2, 3 * N_MAX)
        for b, count in enumerate((n, 1)):
            assert mask[b, : 3 * count].all()
            assert not mask[b, 3 * count :].any()
            # padded slots hold zeros
            assert not toks.data[b, 3 * count :].any()


def test_capacity_error():
    _, emb = make_embedder()
    rng = np.random.default_rng(2)
    with pytest.raises(CapacityError, match="4"):
        embed_scene(emb, *random_tokens(rng, N_MAX + 1, D))


def test_same_instance_sharing():
    """e - h - r is the same q_i for all three roles of instance i."""
    store, emb = make_embedder()
    rng = np.random.default_rng(3)
    h_s, h_a, h_o = random_tokens(rng, 3, D)
    toks, _ = embed_scene(emb, h_s, h_a, h_o)
    r = store["inter.embed.role"].data
    q = store["inter.embed.instance"].data
    for i in range(3):
        qs = toks[3 * i + 0] - h_s[i] - r[0]
        qa = toks[3 * i + 1] - h_a[i] - r[1]
        qo = toks[3 * i + 2] - h_o[i] - r[2]
        assert np.allclose(qs, q[i], atol=1e-12)
        assert np.allclose(qa, q[i], atol=1e-12)
        assert np.allclose(qo, q[i], atol=1e-12)


def test_same_role_sharing():
    """e^a - h^a - q_i recovers the single role vector r_a for every i."""
    store, emb = make_embedder()
    rng = np.random.default_rng(4)
    h_s, h_a, h_o = random_tokens(rng, N_MAX, D)
    toks, _ = embed_scene(emb, h_s, h_a, h_o)
    q = store["inter.embed.instance"].data
    r_a = store["inter.embed.role"].data[1]
    for i in range(N_MAX):
        assert np.allclose(toks[3 * i + 1] - h_a[i] - q[i], r_a, atol=1e-12)


def test_instance_perturbation_locality():
    store, emb = make_embedder()
    rng = np.random.default_rng(5)
    tokens = random_tokens(rng, 3, D)
    before, _ = embed_scene(emb, *tokens)
    delta = rng.normal(size=D)
    store["inter.embed.instance"].data[1] += delta
    after, _ = embed_scene(emb, *tokens)
    for slot in range(9):
        diff = after[slot] - before[slot]
        if slot // 3 == 1:
            assert np.allclose(diff, delta, atol=1e-12)
        else:
            assert np.allclose(diff, 0.0)


def test_role_perturbation_hits_all_instances():
    store, emb = make_embedder()
    rng = np.random.default_rng(6)
    tokens = random_tokens(rng, 3, D)
    before, _ = embed_scene(emb, *tokens)
    delta = rng.normal(size=D)
    store["inter.embed.role"].data[1] += delta  # action role
    after, _ = embed_scene(emb, *tokens)
    for slot in range(9):
        diff = after[slot] - before[slot]
        if slot % 3 == 1:
            assert np.allclose(diff, delta, atol=1e-12)
        else:
            assert np.allclose(diff, 0.0)


def test_additivity_in_tokens():
    """embed(h + d) == embed(h) + d on valid slots: pure addition."""
    _, emb = make_embedder()
    rng = np.random.default_rng(7)
    tokens = random_tokens(rng, 2, D)
    delta = rng.normal(size=D)
    base, _ = embed_scene(emb, *tokens)
    moved, _ = embed_scene(emb, *(h + delta for h in tokens))
    assert np.allclose(moved[:6], base[:6] + delta, atol=1e-12)
    assert np.array_equal(moved[6:], base[6:])  # padding untouched


def test_batch_matches_single_scene():
    _, emb = make_embedder()
    rng = np.random.default_rng(8)
    scenes = [random_tokens(rng, n, D) for n in (1, 3, 0, 2)]
    h_s, h_a, h_o = (np.concatenate([s[role] for s in scenes]) for role in range(3))

    toks, mask = emb.embed_batch(token_block(h_s, h_a, h_o), [len(s[0]) for s in scenes])
    assert toks.shape == (4, 3 * N_MAX, D)
    for b, tokens in enumerate(scenes):
        if len(tokens[0]) == 0:  # an empty scene: every slot zero and masked
            assert not toks.data[b].any()
            assert not mask[b].any()
            continue
        single, smask = embed_scene(emb, *tokens)
        assert np.array_equal(toks.data[b], single)
        assert np.array_equal(mask[b], smask)
