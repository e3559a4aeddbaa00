"""Interaction tokenizer tests: MLP paths, weight sharing, gradients."""

import numpy as np
import pytest

from interactdiff.errors import ContractError, VocabularyError
from interactdiff.geometry import BoundingBox, between
from interactdiff.intoken import (
    EntityTokenTriplet,
    InteractionInstance,
    InteractionTokenizer,
)
from interactdiff.numerics import ParameterStore, Tensor
from interactdiff.scenes import VOCAB

from oracles import check_gradients

D_TOK = 64


def make_tokenizer(seed=0):
    store = ParameterStore()
    tok = InteractionTokenizer(store, seed=seed)
    return store, tok


def make_instance(rng, s=None, a=None, o=None):
    def box(r):
        x0, y0 = r.uniform(0, 0.5, 2)
        w, h = r.uniform(0.1, 0.4, 2)
        return BoundingBox(x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0))

    b_s, b_o = box(rng), box(rng)
    return InteractionInstance(
        s=s if s is not None else VOCAB.subject_ids[rng.integers(4)],
        a=a if a is not None else VOCAB.action_ids[rng.integers(5)],
        o=o if o is not None else VOCAB.object_ids[rng.integers(6)],
        b_s=b_s,
        b_a=between(b_s, b_o),
        b_o=b_o,
    )


def test_instance_requires_consistent_action_box():
    rng = np.random.default_rng(0)
    inst = make_instance(rng)
    with pytest.raises(ContractError):
        InteractionInstance(inst.s, inst.a, inst.o, inst.b_s, inst.b_s, inst.b_o)


def test_zero_weights_give_zero_tokens():
    store, tok = make_tokenizer()
    for name in store.names():
        if "mlp" in name:
            store[name].data[...] = 0.0
    rng = np.random.default_rng(1)
    trip = tok.intoken(make_instance(rng))
    for h in (trip.h_s, trip.h_a, trip.h_o):
        assert np.allclose(h.data, 0.0)


def test_silu_fixes_zero():
    # zero input through a zero-bias network stays zero because SiLU(0) = 0
    from interactdiff import numerics as N

    assert N.silu(Tensor(np.zeros(5))).data.tolist() == [0.0] * 5


def test_token_shapes_and_determinism():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(2)
    inst = make_instance(rng)
    t1 = tok.intoken(inst)
    t2 = tok.intoken(inst)
    for h in (t1.h_s, t1.h_a, t1.h_o):
        assert h.shape == (D_TOK,)
    assert np.array_equal(t1.h_s.data, t2.h_s.data)
    assert np.array_equal(t1.h_a.data, t2.h_a.data)
    assert np.array_equal(t1.h_o.data, t2.h_o.data)


def test_identical_label_box_identical_tokens():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(3)
    inst = make_instance(rng)
    # subject token depends only on (label, box): reuse them as an object pair
    same = InteractionInstance(
        s=inst.s, a=inst.a, o=inst.s, b_s=inst.b_s,
        b_a=between(inst.b_s, inst.b_s), b_o=inst.b_s,
    )
    trip = tok.intoken(same)
    assert np.allclose(trip.h_s.data, trip.h_o.data, atol=1e-12)


def test_swapping_subject_object_swaps_tokens():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(4)
    inst = make_instance(rng)
    swapped = InteractionInstance(
        s=inst.o, a=inst.a, o=inst.s, b_s=inst.b_o,
        b_a=between(inst.b_o, inst.b_s), b_o=inst.b_s,
    )
    t1, t2 = tok.intoken(inst), tok.intoken(swapped)
    assert np.allclose(t1.h_s.data, t2.h_o.data, atol=1e-12)
    assert np.allclose(t1.h_o.data, t2.h_s.data, atol=1e-12)
    # the action box is symmetric, so the action token is unchanged
    assert np.allclose(t1.h_a.data, t2.h_a.data, atol=1e-12)


def test_object_and_action_paths_differ():
    store, tok = make_tokenizer(seed=9)
    rng = np.random.default_rng(5)
    label = Tensor(rng.normal(size=(1, tok.d_text)))
    box = Tensor(rng.normal(size=(1, tok.d_four)))
    assert not np.allclose(tok.object_mlp(label, box).data, tok.action_mlp(label, box).data)


def test_mlp_dimension_mismatch():
    store, tok = make_tokenizer()
    with pytest.raises(ContractError):
        tok.object_mlp(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, tok.d_four))))


def test_unknown_label_raises():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(6)
    inst = make_instance(rng)
    bad = InteractionInstance(
        s=len(VOCAB) + 5, a=inst.a, o=inst.o, b_s=inst.b_s, b_a=inst.b_a, b_o=inst.b_o
    )
    with pytest.raises(VocabularyError):
        tok.intoken(bad)


def test_weight_sharing_structure():
    """Perturbing the shared MLP moves h_s and h_o; the action MLP moves
    only h_a."""
    store, tok = make_tokenizer()
    rng = np.random.default_rng(7)
    inst = make_instance(rng)
    base = tok.intoken(inst)
    store[f"{tok.prefix}.object_mlp.0.w"].data[0, 0] += 0.5
    moved = tok.intoken(inst)
    assert not np.allclose(moved.h_s.data, base.h_s.data)
    assert not np.allclose(moved.h_o.data, base.h_o.data)
    assert np.array_equal(moved.h_a.data, base.h_a.data)
    store[f"{tok.prefix}.action_mlp.0.w"].data[0, 0] += 0.5
    moved2 = tok.intoken(inst)
    assert np.array_equal(moved2.h_s.data, moved.h_s.data)
    assert np.array_equal(moved2.h_o.data, moved.h_o.data)
    assert not np.allclose(moved2.h_a.data, moved.h_a.data)


@pytest.mark.parametrize("which", ["object_mlp", "action_mlp"])
def test_mlp_gradients_match_fd(which):
    store, tok = make_tokenizer()
    rng = np.random.default_rng(8)
    label = rng.normal(size=(2, tok.d_text)) * 0.5
    box = rng.normal(size=(2, tok.d_four)) * 0.5
    probe = rng.normal(size=(2, tok.d_tok))

    def f(label_t, box_t):
        out = getattr(tok, which)(label_t, box_t)
        return (out * Tensor(probe)).sum()

    check_gradients(f, [label, box])


def test_end_to_end_gradient_through_label_table():
    """Scalar readout of the token triplet differentiates back to the label
    embedding table and matches finite differences."""
    store, tok = make_tokenizer()
    rng = np.random.default_rng(9)
    inst = make_instance(rng)
    probe = rng.normal(size=(D_TOK,))
    table_name = f"{tok.prefix}.label_embed"
    base_table = store[table_name].data.copy()

    def readout():
        trip = tok.intoken(inst)
        return ((trip.h_s + trip.h_a + trip.h_o) * Tensor(probe)).sum()

    store.zero_grad()
    loss = readout()
    loss.backward()
    analytic = store[table_name].grad.copy()
    h = 1e-5
    for row in (inst.s, inst.a, inst.o):
        for col in range(0, D_TOK, 16):  # probe a spread of columns
            store[table_name].data[row, col] = base_table[row, col] + h
            fp = readout().item()
            store[table_name].data[row, col] = base_table[row, col] - h
            fm = readout().item()
            store[table_name].data[row, col] = base_table[row, col]
            num = (fp - fm) / (2 * h)
            assert abs(analytic[row, col] - num) / max(abs(num), 1.0) <= 1e-4
