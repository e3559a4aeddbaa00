"""Gated interaction attention block and sampling-gate schedule tests."""

import math

import numpy as np
import pytest

from interactdiff.errors import ContractError
from interactdiff.inbedding import InteractionEmbeddings
from interactdiff.informer import InformerBlock, SamplerConfig, eta_schedule
from interactdiff.numerics import ParameterStore, Tensor

from oracles import random_tokens, token_block

D = 64
HEADS = 4
M = 16  # visual tokens


# ---------------------------------------------------------------------------
# eta_schedule
# ---------------------------------------------------------------------------


def test_eta_schedule_omega_zero_and_one():
    for T in (1, 10, 50):
        off = SamplerConfig(omega=0.0, total_steps=T)
        on = SamplerConfig(omega=1.0, total_steps=T)
        assert all(eta_schedule(t, off) == 0 for t in range(1, T + 1))
        assert all(eta_schedule(t, on) == 1 for t in range(1, T + 1))


def test_eta_schedule_point_eight_fifty():
    cfg = SamplerConfig(omega=0.8, total_steps=50)
    for t in range(1, 41):
        assert eta_schedule(t, cfg) == 1
    for t in range(41, 51):
        assert eta_schedule(t, cfg) == 0


def test_eta_schedule_threshold_is_ceiling():
    cfg = SamplerConfig(omega=0.5, total_steps=3)  # ceil(1.5) = 2 gated steps
    assert [eta_schedule(t, cfg) for t in (1, 2, 3)] == [1, 1, 0]


@pytest.mark.parametrize("omega,T,gated", [(0.14, 50, 7), (0.55, 100, 55)])
def test_eta_schedule_float_error_adds_no_step(omega, T, gated):
    # omega * T lands just above an integer in floating point
    assert omega * T > gated
    cfg = SamplerConfig(omega=omega, total_steps=T)
    assert sum(eta_schedule(t, cfg) for t in range(1, T + 1)) == gated


def test_eta_monotone_in_omega():
    T = 50
    for t in range(1, T + 1):
        vals = [
            eta_schedule(t, SamplerConfig(omega=w, total_steps=T))
            for w in np.linspace(0, 1, 11)
        ]
        assert vals == sorted(vals)


def test_eta_schedule_domain_errors():
    cfg = SamplerConfig(omega=0.5, total_steps=10)
    for bad in (0, 11, -3):
        with pytest.raises(ContractError):
            eta_schedule(bad, cfg)
    with pytest.raises(ContractError):
        SamplerConfig(omega=1.5, total_steps=10)


# ---------------------------------------------------------------------------
# block forward
# ---------------------------------------------------------------------------


def make_block(seed=0):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    block = InformerBlock(store, "blk", n_tokens=M, d_tok=D, n_heads=HEADS, rng=rng)
    emb = InteractionEmbeddings(ParameterStore(), n_max=4, d_tok=D, seed=seed)
    return store, block, emb


def scene_tokens(rng, emb, batch, n_inter):
    """Embedded tokens and mask of one random scene of `n_inter` instances,
    repeated `batch` times; an empty scene is embedded next to a non-empty
    one."""
    counts = [n_inter] if n_inter else [0, 1]
    toks, mask = emb.embed_batch(token_block(*random_tokens(rng, sum(counts), D)), counts)
    toks = Tensor(np.broadcast_to(toks.data[0], (batch,) + toks.shape[1:]).copy())
    return toks, np.broadcast_to(mask[0], (batch, mask.shape[1])).copy()


def inputs(rng, batch=2, n_inter=2, emb=None):
    v = Tensor(rng.normal(size=(batch, M, D)))
    cap = Tensor(rng.normal(size=(batch, 6, D)))
    cap_mask = np.ones((batch, 6), dtype=bool)
    return (v, cap, cap_mask) + scene_tokens(rng, emb, batch, n_inter)


def test_gate_zero_is_bit_identical_to_base():
    store, block, emb = make_block()
    rng = np.random.default_rng(1)
    v, cap, cap_mask, toks, mask = inputs(rng, emb=emb)
    assert store["inter.blk.gate_gamma"].data == 0.0
    with_inter = block(v, cap, cap_mask, toks, mask, eta=1)
    without = block(v, cap, cap_mask, None, None, eta=1)
    assert np.array_equal(with_inter.data, without.data)


def test_eta_zero_identity_even_with_nonzero_gate():
    store, block, emb = make_block()
    store["inter.blk.gate_gamma"].data[...] = 1.3
    rng = np.random.default_rng(2)
    v, cap, cap_mask, toks, mask = inputs(rng, emb=emb)
    gated = block(v, cap, cap_mask, toks, mask, eta=0)
    base = block(v, cap, cap_mask, None, None, eta=0)
    assert np.array_equal(gated.data, base.data)


def test_nonzero_gate_changes_output():
    store, block, emb = make_block()
    store["inter.blk.gate_gamma"].data[...] = 1.0
    rng = np.random.default_rng(3)
    v, cap, cap_mask, toks, mask = inputs(rng, emb=emb)
    gated = block(v, cap, cap_mask, toks, mask, eta=1)
    base = block(v, cap, cap_mask, None, None, eta=1)
    assert not np.allclose(gated.data, base.data)


def test_token_slicing_output_shape():
    rng = np.random.default_rng(4)
    for m in (4, 16, 64):
        store = ParameterStore()
        block = InformerBlock(store, "blk", n_tokens=m, d_tok=D, n_heads=HEADS,
                              rng=np.random.default_rng(0))
        store["inter.blk.gate_gamma"].data[...] = 0.7
        emb = InteractionEmbeddings(ParameterStore(), n_max=4, d_tok=D, seed=0)
        for n_inter in (0, 1, 4):
            v = Tensor(rng.normal(size=(2, m, D)))
            cap = Tensor(rng.normal(size=(2, 5, D)))
            cap_mask = np.ones((2, 5), dtype=bool)
            toks, mask = scene_tokens(rng, emb, 2, n_inter)
            out = block(v, cap, cap_mask, toks, mask, eta=1)
            assert out.shape == (2, m, D)


def test_interaction_rows_are_a_set():
    """Permuting interaction rows together with their mask leaves the
    visual output unchanged up to summation order."""
    store, block, emb = make_block()
    store["inter.blk.gate_gamma"].data[...] = 0.9
    rng = np.random.default_rng(5)
    v, cap, cap_mask, toks, mask = inputs(rng, n_inter=3, emb=emb)
    perm = rng.permutation(toks.shape[1])
    toks_p = Tensor(toks.data[:, perm])
    mask_p = mask[:, perm]
    out = block(v, cap, cap_mask, toks, mask, eta=1)
    out_p = block(v, cap, cap_mask, toks_p, mask_p, eta=1)
    assert np.max(np.abs(out.data - out_p.data)) <= 1e-10 * max(
        1.0, np.max(np.abs(out.data))
    )


def test_masked_padding_invariance():
    """Appending masked null slots changes nothing (<= 1e-10)."""
    store, block, emb = make_block()
    store["inter.blk.gate_gamma"].data[...] = 0.9
    rng = np.random.default_rng(6)
    v, cap, cap_mask, toks, mask = inputs(rng, n_inter=2, emb=emb)
    pad = Tensor(np.concatenate([toks.data, rng.normal(size=(2, 3, D))], axis=1))
    pad_mask = np.concatenate([mask, np.zeros((2, 3), dtype=bool)], axis=1)
    out = block(v, cap, cap_mask, toks, mask, eta=1)
    out_pad = block(v, cap, cap_mask, pad, pad_mask, eta=1)
    assert np.max(np.abs(out.data - out_pad.data)) <= 1e-10


def test_mask_mismatch_raises():
    store, block, emb = make_block()
    rng = np.random.default_rng(7)
    v, cap, cap_mask, toks, mask = inputs(rng, emb=emb)
    with pytest.raises(ContractError):
        block(v, cap, cap_mask, toks, mask[:, :-1], eta=1)
    with pytest.raises(ContractError):
        block(v, cap, cap_mask, toks, mask, eta=2)


def test_non_square_token_grid_raises():
    """Visual tokens are a square grid, (image_size / 2)^2 or (image_size / 4)^2."""
    with pytest.raises(ContractError):
        InformerBlock(ParameterStore(), "grid", 12, D, HEADS, np.random.default_rng(0))


def test_gate_gradient_flows_only_when_active():
    store, block, emb = make_block()
    rng = np.random.default_rng(8)
    v, cap, cap_mask, toks, mask = inputs(rng, emb=emb)
    store.zero_grad()
    block(v, cap, cap_mask, toks, mask, eta=1).sum().backward()
    g_active = store["inter.blk.gate_gamma"].grad
    assert g_active is not None and abs(float(g_active)) > 0
    store.zero_grad()
    block(v, cap, cap_mask, toks, mask, eta=0).sum().backward()
    assert store["inter.blk.gate_gamma"].grad is None
