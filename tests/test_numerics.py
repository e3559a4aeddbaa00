import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interactdiff.numerics as N
from interactdiff.errors import ContractError, NumericError, ShapeError
from interactdiff.numerics import (
    ParameterStore,
    Tensor,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)

from oracles import check_gradients

RNG = np.random.default_rng(0)


class TestMatmul:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal((eye @ x).data, x.data)

    def test_hand_multiplied(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        assert np.array_equal((a @ b).data, [[2.0], [4.0]])

    def test_zeros_annihilate(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(RNG.normal(size=(4, 5)))
        assert np.array_equal((a @ b).data, np.zeros((3, 5)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            N.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_uniform(self):
        out = N.softmax(Tensor([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_no_overflow(self):
        out = N.softmax(Tensor([1000.0, 0.0])).data
        assert abs(out[0] - 1.0) < 1e-12 and abs(out[1]) < 1e-12

    def test_closed_form(self):
        out = N.softmax(Tensor([np.log(2.0), 0.0])).data
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_simplex(self, vals):
        out = N.softmax(Tensor(vals)).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            N.softmax(Tensor([1.0, 2.0]), axis=3)


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = N.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_closed_form_pm1(self):
        eps = 1e-5
        out = N.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=eps)
        expect = np.array([1.0, -1.0]) / np.sqrt(1.0 + eps)
        assert np.allclose(out.data, expect, atol=1e-14)

    def test_zero_gain_broadcasts_bias(self):
        x = Tensor(RNG.normal(size=(3, 5)))
        bias = Tensor(RNG.normal(size=5))
        out = N.layer_norm(x, Tensor(np.zeros(5)), bias)
        assert np.allclose(out.data, np.broadcast_to(bias.data, (3, 5)))


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            y = N.softmax(x @ w, axis=-1)
            (N.tanh(y) * N.silu(x)).sum().backward()
            return x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_strict_nonfinite_raises(self):
        with pytest.raises(NumericError):
            N.log(Tensor([-1.0]))

    def test_strict_off_allows_nonfinite(self):
        with N.strict_mode(False):
            out = N.log(Tensor([-1.0]))
        assert np.isnan(out.data[0])


def _rand(shape):
    return RNG.normal(size=shape)


FD_CASES = [
    ("add", lambda a, b: (a + b).sum() if True else None, [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: (a + b).sum(), [(3, 4), (4,)]),
    ("mul", lambda a, b: (a * b * a).sum(), [(2, 5), (2, 5)]),
    ("matmul", lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)]),
    ("batched_matmul", lambda a, b: (a @ b).sum(), [(2, 3, 4), (2, 4, 3)]),
    ("softmax", lambda a: (N.softmax(a, axis=-1) * N.softmax(a, axis=-1)).sum(), [(3, 5)]),
    ("layer_norm", lambda x, g, b: (N.layer_norm(x, g, b) ** 2.0).sum(), [(4, 6), (6,), (6,)]),
    ("tanh", lambda a: N.tanh(a).sum(), [(7,)]),
    ("silu", lambda a: N.silu(a).sum(), [(7,)]),
    ("exp", lambda a: N.exp(a).sum(), [(5,)]),
    ("sqrt_abs", lambda a: N.sqrt(a * a + 1.0).sum(), [(5,)]),
    ("power", lambda a: (a ** 4.0).sum(), [(5,)]),
    ("mean", lambda a: (a.mean(axis=0) ** 2.0).sum(), [(4, 3)]),
    ("transpose", lambda a: (a.transpose(1, 0) @ a).sum(), [(3, 4)]),
    ("concat", lambda a, b: (N.concat([a, b], axis=1) ** 2.0).sum(), [(2, 3), (2, 4)]),
    ("slice", lambda a: (a[1:, :2] ** 2.0).sum(), [(4, 4)]),
    ("conv2d", lambda x, w, b: (N.conv2d(x, w, b, padding=1) ** 2.0).sum(), [(2, 3, 5, 5), (4, 3, 3, 3), (4,)]),
    ("conv2d_stride2", lambda x, w, b: (N.conv2d(x, w, b, stride=2, padding=1) ** 2.0).sum(), [(1, 2, 6, 6), (3, 2, 3, 3), (3,)]),
    ("upsample", lambda x: (N.upsample_nearest2(x) ** 2.0).sum(), [(1, 2, 3, 3)]),
]


@pytest.mark.parametrize("name,func,shapes", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_gradients_match_finite_differences(name, func, shapes):
    # 5 random instances per op; criterion 4 in test_acceptance runs 100 per op
    for _ in range(5):
        arrays = [_rand(s) for s in shapes]
        check_gradients(func, arrays, rtol=1e-4, h=1e-5)


def test_embedding_gradient():
    ids = np.array([[0, 2], [2, 1]])
    table = Tensor(_rand((3, 4)), requires_grad=True)
    N.embedding(table, ids).sum().backward()
    expect = np.zeros((3, 4))
    expect[0] += 1
    expect[1] += 1
    expect[2] += 2
    assert np.array_equal(table.grad, expect)


class TestAdam:
    def _store_with(self, name, value, grad=None, frozen=False):
        store = ParameterStore()
        t = store.add(name, Tensor(np.array(value)))
        if grad is not None:
            t.grad = np.array(grad)
        if frozen:
            store.freeze(name)
        return store, t

    def test_frozen_untouched(self):
        store, t = self._store_with("w", [1.0, 2.0], frozen=True)
        before = t.data.tobytes()
        for _ in range(5):
            adam_step(store, lr=0.1)
        assert t.data.tobytes() == before

    def test_first_step_magnitude(self):
        store, t = self._store_with("w", [0.0], grad=[1.0])
        adam_step(store, lr=1e-3, eps=1e-8)
        # bias-corrected first step is -lr * g/(|g| + eps-slack)
        assert abs(t.data[0] + 1e-3) < 1e-9

    def test_zero_grad_no_move(self):
        store, t = self._store_with("w", [3.0], grad=[0.0])
        adam_step(store, lr=0.5)
        assert t.data[0] == 3.0

    def test_missing_grad_contract_error(self):
        store, _ = self._store_with("w", [1.0])
        with pytest.raises(ContractError):
            adam_step(store, lr=0.1)

    def test_frozen_bitwise_after_training(self):
        rng = np.random.default_rng(3)
        store = ParameterStore()
        frozen = store.add("base.w", Tensor(rng.normal(size=(4, 4))))
        live = store.add("inter.w", Tensor(rng.normal(size=(4, 4))))
        store.freeze("base.")
        snapshot = frozen.data.tobytes()
        for _ in range(20):
            store.zero_grad()
            loss = ((frozen.detach() @ live) ** 2.0).sum()
            loss.backward()
            adam_step(store, lr=1e-2)
        assert frozen.data.tobytes() == snapshot
        assert live.grad is not None


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        store = ParameterStore()
        store.add("base.conv.w", Tensor(rng.normal(size=(4, 3, 3, 3))))
        store.add("inter.gate", Tensor(np.array(0.25)))
        store.freeze("base.")
        # populate moments
        store._m["inter.gate"] = np.array(0.5)
        store._v["inter.gate"] = np.array(0.25)
        store.step_count = 17
        path = tmp_path / "ck.bin"
        save_checkpoint(store, path, meta={"seed": 1})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 1}
        assert loaded.step_count == 17
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
            assert loaded.is_frozen(name) == store.is_frozen(name)
        assert loaded._m["inter.gate"].tobytes() == store._m["inter.gate"].tobytes()

    def test_float32_round_trip(self, tmp_path):
        store = ParameterStore()
        with N.dtype_mode(np.float32):
            store.add("w", Tensor(np.random.default_rng(2).normal(size=(5,))))
        path = tmp_path / "ck32.bin"
        save_checkpoint(store, path)
        loaded, _ = load_checkpoint(path)
        assert loaded["w"].data.dtype == np.float32
        assert loaded["w"].data.tobytes() == store["w"].data.tobytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        store = ParameterStore()
        store.add("w", Tensor([1.0, 2.0]))
        path = tmp_path / "ck.bin"
        save_checkpoint(store, path, meta={"step": 1})
        before = path.read_bytes()
        store["w"].data[...] = 5.0

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(store, path, meta={"step": 2})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        from interactdiff.errors import CheckpointError

        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", Tensor([1.0]))
        with pytest.raises(ContractError):
            store.add("w", Tensor([2.0]))
