"""Noise schedule, denoiser, training-loop and sampler tests.

Uses a shrunken model (8x8 images) so forward/backward passes stay fast;
the full-size behavior is exercised by the acceptance suite.
"""

import os

import numpy as np
import pytest

from interactdiff.diffusion import (
    InteractionDiffusionModel,
    ModelConfig,
    NoiseSchedule,
    TrainConfig,
    loss_step,
    make_batch,
    sample,
    time_features,
    train_phase,
)
from interactdiff.errors import ContractError
from interactdiff.geometry import BoundingBox, between
from interactdiff.intoken import InteractionInstance
from interactdiff import numerics as N
from interactdiff.numerics import Tensor, tensor

from oracles import live_phase2_checkpoint
from interactdiff.scenes import VOCAB, SceneSpec

TINY = ModelConfig(image_size=8, base_channels=8, caption_len=12, init_seed=3)


def tiny_dataset(n=12, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        b_s = BoundingBox(0.1, 0.1, 0.4, 0.5)
        b_o = BoundingBox(0.5, 0.4, 0.9, 0.8)
        inst = InteractionInstance(
            s=VOCAB.subject_ids[rng.integers(4)],
            a=VOCAB.action_ids[rng.integers(5)],
            o=VOCAB.object_ids[rng.integers(6)],
            b_s=b_s,
            b_a=between(b_s, b_o),
            b_o=b_o,
        )
        spec = SceneSpec(
            image_size=8, interactions=[inst], caption_ids=VOCAB.caption_ids([inst])
        )
        out.append((spec, rng.normal(size=(3, 8, 8)) * 0.5))
    return out


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_invariants():
    sched = NoiseSchedule()
    ab = sched.alpha_bar
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert np.all(ab[1:] > 0) and np.all(ab[1:] < 1)


def test_q_sample_endpoints():
    sched = NoiseSchedule()
    rng = np.random.default_rng(0)
    z0 = rng.normal(size=(2, 3, 8, 8))
    eps = rng.normal(size=z0.shape)
    # eps = 0: pure scaling
    zt = sched.q_sample(z0, np.array([100, 900]), np.zeros_like(z0))
    expect = np.sqrt(sched.alpha_bar[[100, 900]]).reshape(-1, 1, 1, 1) * z0
    assert np.array_equal(zt, expect)
    # t = 1: deviation bounded by sqrt(1 - alpha_bar_1) * |eps|
    zt1 = sched.q_sample(z0, np.array([1, 1]), eps)
    bound = np.sqrt(1.0 - sched.alpha_bar[1]) * np.abs(eps) + 1e-12
    assert np.all(np.abs(zt1 - np.sqrt(sched.alpha_bar[1]) * z0) <= bound)


def test_q_sample_variance_monte_carlo():
    sched = NoiseSchedule()
    rng = np.random.default_rng(1)
    t = 400
    z0 = np.full((10_000, 1, 1, 1), 0.3)
    eps = rng.standard_normal(z0.shape)
    zt = sched.q_sample(z0, np.full(10_000, t), eps)
    centered = zt - np.sqrt(sched.alpha_bar[t]) * z0
    var = centered.var()
    assert abs(var - (1 - sched.alpha_bar[t])) <= 0.03 * (1 - sched.alpha_bar[t])


def test_q_sample_range_errors():
    sched = NoiseSchedule()
    z = np.zeros((1, 3, 8, 8))
    for t in (0, 1001):
        with pytest.raises(ContractError):
            sched.q_sample(z, np.array([t]), z)


def test_time_features_shape_and_range():
    f = time_features(np.array([0, 1, 999]), 64)
    assert f.shape == (3, 64)
    assert np.all(np.abs(f) <= 1.0)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


class _StubModel:
    """Denoiser stub with a controllable prediction."""

    def __init__(self, mode):
        self.config = ModelConfig(image_size=8)
        self.schedule = NoiseSchedule()
        self.mode = mode

    def forward(self, z_t, t, captions, interactions=None, eta=1):
        if isinstance(self.mode, str):
            return Tensor(np.zeros_like(z_t))
        return Tensor(self.mode)  # explicit array


def test_loss_zero_for_perfect_prediction():
    ds = tiny_dataset()
    rng = np.random.default_rng(5)
    batch = make_batch(ds, rng, 4, 0.0, True)
    # replay the rng to learn which eps loss_step will draw
    rng_probe = np.random.default_rng(5)
    make_batch(ds, rng_probe, 4, 0.0, True)
    rng_probe.integers(1, 1001, size=4)
    eps = rng_probe.standard_normal((4, 3, 8, 8))
    stub = _StubModel(eps)
    loss = loss_step(stub, batch, rng)
    assert loss.item() == 0.0


def test_loss_near_one_for_zero_prediction():
    ds = tiny_dataset(n=20)
    rng = np.random.default_rng(6)
    losses = []
    for _ in range(10):
        batch = make_batch(ds, rng, 16, 0.0, True)
        losses.append(loss_step(_StubModel("zero"), batch, rng).item())
    assert abs(np.mean(losses) - 1.0) < 0.05  # E||eps||^2 per element


def test_loss_empty_batch():
    with pytest.raises(ContractError):
        loss_step(_StubModel("zero"), (np.zeros((0, 3, 8, 8)), [], []), np.random.default_rng(0))


def test_loss_gradient_matches_fd():
    """End-to-end FD check on a probe parameter entry (64-bit)."""
    model = InteractionDiffusionModel(TINY)
    ds = tiny_dataset(n=4)
    name = "base.res3.conv1.w"
    probe_idx = (0, 0, 1, 1)

    def run():
        rng = np.random.default_rng(7)
        batch = make_batch(ds, rng, 2, 0.0, True)
        return loss_step(model, batch, rng)

    model.store.zero_grad()
    run().backward()
    analytic = model.store[name].grad[probe_idx]
    h = 1e-5
    base_val = model.store[name].data[probe_idx]
    model.store[name].data[probe_idx] = base_val + h
    fp = run().item()
    model.store[name].data[probe_idx] = base_val - h
    fm = run().item()
    model.store[name].data[probe_idx] = base_val
    num = (fp - fm) / (2 * h)
    assert abs(analytic - num) / max(abs(num), 1.0) <= 1e-4


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sample_deterministic():
    model = InteractionDiffusionModel(TINY)
    ds = tiny_dataset(n=3)
    caps = [list(s.caption_ids) for s, _ in ds]
    inters = [list(s.interactions) for s, _ in ds]
    a = sample(model, caps, inters, steps=4, omega=0.8, seed=11)
    b = sample(model, caps, inters, steps=4, omega=0.8, seed=11)
    assert np.array_equal(a, b)
    assert a.shape == (3, 3, 8, 8)
    d = sample(model, caps, inters, steps=4, omega=0.8, seed=12)
    assert not np.array_equal(a, d)


def test_sample_omega_zero_ignores_interactions():
    model = InteractionDiffusionModel(TINY)
    ds = tiny_dataset(n=2)
    caps = [list(s.caption_ids) for s, _ in ds]
    inters = [list(s.interactions) for s, _ in ds]
    a = sample(model, caps, inters, steps=4, omega=0.0, seed=3)
    b = sample(model, caps, None, steps=4, omega=0.0, seed=3)
    assert np.array_equal(a, b)


def test_sample_builds_no_tape(tmp_path, monkeypatch):
    """Gated sampling from a phase-2 checkpoint, whose `inter.*` parameters
    are trainable, records no backward closure; a loss right after it still
    fills their gradients."""
    model, _ = InteractionDiffusionModel.load(live_phase2_checkpoint(tmp_path / "p2.ckpt", TINY))
    ds = tiny_dataset(n=2)
    caps = [list(s.caption_ids) for s, _ in ds]
    inters = [list(s.interactions) for s, _ in ds]
    taped, make = [], tensor._make

    def spy(*args):
        out = make(*args)
        taped.append(out._backward is not None)
        return out

    monkeypatch.setattr(tensor, "_make", spy)
    sample(model, caps, inters, steps=3, omega=1.0, seed=0)
    assert taped and not any(taped)
    batch = (np.stack([img for _, img in ds]), caps, inters)
    loss_step(model, batch, np.random.default_rng(1)).backward()
    assert any(taped)
    for name, p in model.store.items():
        assert (p.grad is not None) == name.startswith("inter."), name


def test_sample_step_count_error():
    model = InteractionDiffusionModel(TINY)
    with pytest.raises(ContractError):
        sample(model, [[1]], None, steps=TINY.t_train + 1, omega=0.5, seed=0)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def tiny_train_config(**kw):
    base = dict(
        steps_phase1=3,
        steps_phase2=3,
        batch_size=2,
        lr=1e-3,
        warmup_steps=2,
        caption_dropout=0.0,
        save_every=0,
        log_every=1,
        seed=4,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_gate_zero_model_matches_base_forward():
    """At initialization every gate is zero, so the interaction branch is
    inert: full forward equals the caption-only forward bit-exactly."""
    model = InteractionDiffusionModel(TINY)
    ds = tiny_dataset(n=2)
    rng = np.random.default_rng(9)
    z = rng.normal(size=(2, 3, 8, 8))
    t = np.array([500, 20])
    caps = [list(s.caption_ids) for s, _ in ds]
    inters = [list(s.interactions) for s, _ in ds]
    full = model.forward(z, t, caps, inters, eta=1)
    base = model.forward(z, t, caps, None, eta=0)
    assert np.array_equal(full.data, base.data)


def test_train_phases_freeze_correctly(tmp_path):
    model = InteractionDiffusionModel(TINY)
    ds = tiny_dataset()
    tcfg = tiny_train_config()
    inter_hash_before = model.store.state_hash("inter.")
    train_phase(model, ds, tcfg, phase=1, out_dir=tmp_path)
    assert model.store.state_hash("inter.") == inter_hash_before
    base_hash = model.store.state_hash("base.")
    train_phase(model, ds, tcfg, phase=2, out_dir=tmp_path)
    assert model.store.state_hash("base.") == base_hash
    assert model.store.state_hash("inter.") != inter_hash_before


def test_metrics_csv_schema(tmp_path):
    model = InteractionDiffusionModel(TINY)
    train_phase(model, tiny_dataset(), tiny_train_config(), phase=1, out_dir=tmp_path)
    lines = (tmp_path / "metrics_phase1.csv").read_text().strip().splitlines()
    assert lines[0] == "step,phase,loss,lr"
    steps = [int(row.split(",")[0]) for row in lines[1:]]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert all(row.split(",")[1] == "1" for row in lines[1:])


def _graph_ops(loss) -> dict:
    """Op name -> count over the non-leaf nodes reachable from `loss`."""
    ops, seen, stack = {}, set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op != "leaf":
            ops[node._op] = ops.get(node._op, 0) + 1
        stack.extend(node._parents)
    return ops


@pytest.mark.parametrize("phase,bound,n_attention", [(1, 180, 6), (2, 185, 8)])
def test_loss_graph_size(phase, bound, n_attention):
    """Channels-last activations need no layout shuffles and each attention
    is one fused node: the only transpose gives forward its (B, 3, S, S)
    output, and there is no softmax or swapaxes node."""
    model = InteractionDiffusionModel(TINY)
    model.store.unfreeze("base." if phase == 1 else "inter.")
    model.store.freeze("inter." if phase == 1 else "base.")
    rng = np.random.default_rng(0)
    batch = make_batch(tiny_dataset(), rng, 4, 0.0, with_interactions=phase == 2)
    ops = _graph_ops(loss_step(model, batch, rng))
    assert sum(ops.values()) <= bound
    assert ops["transpose"] == 1
    assert "softmax" not in ops and "swapaxes" not in ops
    assert ops["attention"] == n_attention


def test_checkpoint_round_trip_forward(tmp_path):
    model = InteractionDiffusionModel(TINY)
    ds = tiny_dataset()
    train_phase(model, ds, tiny_train_config(), phase=1, out_dir=tmp_path)
    path = tmp_path / "phase1_final.ckpt"
    loaded, meta = InteractionDiffusionModel.load(path)
    assert meta["phase"] == 1
    rng = np.random.default_rng(10)
    z = rng.normal(size=(2, 3, 8, 8))
    t = np.array([700, 30])
    caps = [list(s.caption_ids) for s, _ in ds[:2]]
    a = model.forward(z, t, caps, None, eta=0)
    b = loaded.forward(z, t, caps, None, eta=0)
    assert np.array_equal(a.data, b.data)


def test_resume_matches_uninterrupted(tmp_path):
    """Stopping after k steps and resuming reproduces an uninterrupted run
    parameter-for-parameter."""
    ds = tiny_dataset()
    full = InteractionDiffusionModel(TINY)
    train_phase(full, ds, tiny_train_config(steps_phase1=4), phase=1,
                out_dir=tmp_path / "full")
    half = InteractionDiffusionModel(TINY)
    train_phase(half, ds, tiny_train_config(steps_phase1=2), phase=1,
                out_dir=tmp_path / "half")
    resumed, meta = InteractionDiffusionModel.load(tmp_path / "half" / "phase1_final.ckpt")
    train_phase(resumed, ds, tiny_train_config(steps_phase1=4), phase=1,
                out_dir=tmp_path / "resumed", start_step=int(meta["step"]))
    for name in full.store.names():
        assert np.array_equal(full.store[name].data, resumed.store[name].data), name


def test_nonfinite_loss_aborts_with_seed(tmp_path):
    model = InteractionDiffusionModel(TINY)
    model.store["base.conv_in.w"].data[...] = np.inf
    from interactdiff.errors import NumericError

    # inf weights make numpy warn (inf - inf) before the loss check raises
    with pytest.raises(NumericError, match="step 1"), pytest.warns(RuntimeWarning):
        train_phase(model, tiny_dataset(), tiny_train_config(), phase=1,
                    out_dir=tmp_path)
