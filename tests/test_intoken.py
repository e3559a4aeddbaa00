"""Interaction tokenizer tests: MLP paths, weight sharing, gradients."""

import numpy as np
import pytest

from interactdiff.errors import ContractError, VocabularyError
from interactdiff.geometry import BoundingBox
from interactdiff.intoken import InteractionTokenizer
from interactdiff.numerics import ParameterStore, Tensor
from interactdiff.scenes import VOCAB, InteractionInstance

D_TOK = 64


def make_tokenizer(seed=0):
    store = ParameterStore()
    tok = InteractionTokenizer(store, d_text=64, d_tok=D_TOK, n_freqs=8, seed=seed)
    return store, tok


def rows(tok, inst):
    """(h_s, h_a, h_o) of one instance: rows 0, 2 and 1 of its token block."""
    block = tok.tokenize_instances([inst]).data
    assert block.shape == (3, D_TOK)
    return block[0], block[2], block[1]


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
        b_o=b_o,
    )


def test_zero_weights_give_zero_tokens():
    store, tok = make_tokenizer()
    for name in store.names():
        if "mlp" in name:
            store[name].data[...] = 0.0
    rng = np.random.default_rng(1)
    assert np.allclose(tok.tokenize_instances([make_instance(rng)]).data, 0.0)


def test_silu_fixes_zero():
    # zero input through a zero-bias network stays zero because SiLU(0) = 0
    from interactdiff import numerics as N

    assert N.silu(Tensor(np.zeros(5))).data.tolist() == [0.0] * 5


def test_token_shapes_and_determinism():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(2)
    insts = [make_instance(rng) for _ in range(3)]
    block = tok.tokenize_instances(insts)
    assert block.shape == (3 * 3, D_TOK)
    assert np.array_equal(block.data, tok.tokenize_instances(insts).data)
    # subjects, then objects, then actions: each row is its instance's alone
    for i, inst in enumerate(insts):
        h_s, h_a, h_o = rows(tok, inst)
        assert np.allclose(block.data[i], h_s, atol=1e-12)
        assert np.allclose(block.data[3 + i], h_o, atol=1e-12)
        assert np.allclose(block.data[6 + i], h_a, atol=1e-12)


def test_identical_label_box_identical_tokens():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(3)
    inst = make_instance(rng)
    # subject token depends only on (label, box): reuse them as an object pair
    same = InteractionInstance(s=inst.s, a=inst.a, o=inst.s, b_s=inst.b_s, b_o=inst.b_s)
    h_s, _, h_o = rows(tok, same)
    assert np.allclose(h_s, h_o, atol=1e-12)


def test_swapping_subject_object_swaps_tokens():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(4)
    inst = make_instance(rng)
    swapped = InteractionInstance(s=inst.o, a=inst.a, o=inst.s, b_s=inst.b_o, b_o=inst.b_s)
    (s1, a1, o1), (s2, a2, o2) = rows(tok, inst), rows(tok, swapped)
    assert np.allclose(s1, o2, atol=1e-12)
    assert np.allclose(o1, s2, atol=1e-12)
    # the action box is symmetric, so the action token is unchanged
    assert np.allclose(a1, a2, atol=1e-12)


def test_object_and_action_paths_differ():
    """Subject and action rows with equal inputs (label embedding and box)
    differ, because they go through different MLPs."""
    store, tok = make_tokenizer(seed=9)
    rng = np.random.default_rng(5)
    inst = make_instance(rng)
    table = store["inter.tok.label_embed"].data
    table[inst.a] = table[inst.s]
    same_box = InteractionInstance(inst.s, inst.a, inst.o, inst.b_s, inst.b_s)
    h_s, h_a, _ = rows(tok, same_box)
    assert not np.allclose(h_s, h_a)


def test_unknown_label_raises():
    store, tok = make_tokenizer()
    rng = np.random.default_rng(6)
    inst = make_instance(rng)
    bad = InteractionInstance(s=len(VOCAB) + 5, a=inst.a, o=inst.o, b_s=inst.b_s, b_o=inst.b_o)
    with pytest.raises(VocabularyError):
        tok.tokenize_instances([inst, bad])
    with pytest.raises(ContractError):
        tok.tokenize_instances([])


def test_weight_sharing_structure():
    """Perturbing the shared MLP moves h_s and h_o; the action MLP moves
    only h_a."""
    store, tok = make_tokenizer()
    rng = np.random.default_rng(7)
    inst = make_instance(rng)
    base = rows(tok, inst)
    store["inter.tok.object_mlp.0.w"].data[0, 0] += 0.5
    moved = rows(tok, inst)
    assert not np.allclose(moved[0], base[0])
    assert not np.allclose(moved[2], base[2])
    assert np.array_equal(moved[1], base[1])
    store["inter.tok.action_mlp.0.w"].data[0, 0] += 0.5
    moved2 = rows(tok, inst)
    assert np.array_equal(moved2[0], moved[0])
    assert np.array_equal(moved2[2], moved[2])
    assert not np.allclose(moved2[1], moved[1])


def assert_store_grad_matches_fd(store, name, entries, readout, h=1e-5):
    """Tape gradient of `readout()` w.r.t. parameter `name` against central
    differences at each index in `entries`."""
    store.zero_grad()
    readout().backward()
    analytic = store[name].grad.copy()
    data = store[name].data
    for idx in entries:
        keep = data[idx]
        data[idx] = keep + h
        fp = readout().item()
        data[idx] = keep - h
        fm = readout().item()
        data[idx] = keep
        num = (fp - fm) / (2 * h)
        assert abs(analytic[idx] - num) / max(abs(num), 1.0) <= 1e-4, (name, idx)


@pytest.mark.parametrize("which", ["object_mlp", "action_mlp"])
def test_mlp_gradients_match_fd(which):
    """Each MLP's gradient w.r.t. its weights and, through it, w.r.t. the
    label embeddings it reads (the box features are constants)."""
    store, tok = make_tokenizer()
    rng = np.random.default_rng(8)
    insts = [make_instance(rng) for _ in range(2)]
    probe = Tensor(rng.normal(size=(3 * 2, D_TOK)))

    def readout():
        return (tok.tokenize_instances(insts) * probe).sum()

    def some_entries(name, count=6):
        return [tuple(int(rng.integers(0, n)) for n in store[name].shape) for _ in range(count)]

    for layer in (0, 1):
        for kind in ("w", "b"):
            name = f"inter.tok.{which}.{layer}.{kind}"
            assert_store_grad_matches_fd(store, name, some_entries(name), readout)
    if which == "action_mlp":
        labels = [i.a for i in insts]
    else:
        labels = [i.s for i in insts] + [i.o for i in insts]
    entries = [(row, col) for row in labels for col in range(0, D_TOK, 16)]
    assert_store_grad_matches_fd(store, "inter.tok.label_embed", entries, readout)


def test_end_to_end_gradient_through_label_table():
    """Scalar readout of the token block differentiates back to the label
    embedding table and matches finite differences."""
    store, tok = make_tokenizer()
    rng = np.random.default_rng(9)
    inst = make_instance(rng)
    probe = rng.normal(size=(D_TOK,))

    def readout():
        return (tok.tokenize_instances([inst]) * Tensor(probe)).sum()

    entries = [(row, col) for row in (inst.s, inst.a, inst.o) for col in range(0, D_TOK, 16)]
    assert_store_grad_matches_fd(store, "inter.tok.label_embed", entries, readout)
