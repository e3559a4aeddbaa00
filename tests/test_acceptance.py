"""Acceptance criteria, one test per criterion.

Criteria 7 and 8 read the committed reference-run artifacts in
tests/reference_run/ (training metrics, evaluation reports, checkpoints) and
additionally re-verify the headline ordering by re-sampling a subset of test
conditions from the committed checkpoint.  tests/reference_run/README.md
documents how to regenerate every artifact from the CLI.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from interactdiff.diffusion import (
    InteractionDiffusionModel,
    ModelConfig,
    loss_step,
    make_batch,
    sample,
)
from interactdiff.evaluation import detection_map, kid_analog
from interactdiff.geometry import BoundingBox, between
from interactdiff.inbedding import InteractionEmbeddings
from interactdiff.intoken import InteractionTokenizer
from interactdiff import numerics as N
from interactdiff.numerics import ParameterStore, Tensor, load_checkpoint, save_checkpoint
from interactdiff.scenes import VOCAB, build_dataset, detect, generate_scene, render

from oracles import between_bruteforce, bounding_hull, check_gradients, random_tokens, token_block
from test_numerics import FD_CASES, _rand

REF_DIR = os.path.join(os.path.dirname(__file__), "reference_run")

# Full-mAP floor at omega = 1.0, pinned from the reference run (the target
# named in the build contract was provisional; this value is the pilot-pinned
# floor it calls for, set with margin below the observed reference result).
MAP_FLOOR_OMEGA1 = 0.55
MIN_GAP_VS_BASE = 0.15
MIN_GAP_SWEEP = 0.10
SWEEP_TOLERANCE = 0.02


def _ref(name):
    path = os.path.join(REF_DIR, name)
    assert os.path.exists(path), (
        f"reference artifact {name} missing; regenerate per tests/reference_run/README.md"
    )
    return path


def _load_summary():
    rows = {}
    with open(_ref("summary.csv")) as fh:
        for row in csv.DictReader(fh):
            rows[float(row["omega"])] = float(row["map_full"])
    return rows


# ---------------------------------------------------------------------------
# 1. Gate-zero pluggability
# ---------------------------------------------------------------------------


def test_criterion_1_gate_zero_pluggability():
    """With every gate at zero, the full model's forward equals the base
    forward bit-exactly on 100 random inputs."""
    model = InteractionDiffusionModel(ModelConfig(init_seed=11))
    for name in model.store.names():
        if name.endswith("gate_gamma"):
            assert model.store[name].data == 0.0
    rng = np.random.default_rng(0)
    scenes = [generate_scene(s) for s in range(10)]
    checked = 0
    for chunk in range(10):
        z = rng.normal(size=(10, 3, 32, 32))
        t = rng.integers(1, 1001, size=10)
        caps = [list(s.caption_ids) for s in scenes]
        inters = [list(s.interactions) for s in scenes]
        full = model.forward(z, t, caps, inters, eta=1)
        base = model.forward(z, t, caps, None, eta=0)
        assert np.array_equal(full.data, base.data)
        checked += 10
    assert checked == 100


# ---------------------------------------------------------------------------
# 2. Gate-off sampling identity
# ---------------------------------------------------------------------------


def test_criterion_2_gate_off_sampling_identity():
    """omega = 0 sampling from the trained full checkpoint is bit-identical
    to the phase-1 (caption-only) model at the same seed, for 20 seeds."""
    with N.dtype_mode("float32"):
        full, _ = InteractionDiffusionModel.load(_ref("phase2_final.ckpt"))
        base, _ = InteractionDiffusionModel.load(_ref("phase1_final.ckpt"))
        scenes = [generate_scene(1000 + s) for s in range(20)]
        caps = [list(s.caption_ids) for s in scenes]
        inters = [list(s.interactions) for s in scenes]
        for seed in range(20):
            a = sample(full, caps[seed : seed + 1], inters[seed : seed + 1],
                       steps=50, omega=0.0, seed=seed)
            b = sample(base, caps[seed : seed + 1], None,
                       steps=50, omega=0.0, seed=seed)
            assert np.array_equal(a, b), f"seed {seed} diverged"


# ---------------------------------------------------------------------------
# 3. Between-operator oracle
# ---------------------------------------------------------------------------


def test_criterion_3_between_oracle():
    rng = np.random.default_rng(3)

    def rand_box():
        x = np.sort(rng.uniform(0, 1, 2))
        y = np.sort(rng.uniform(0, 1, 2))
        return BoundingBox(x[0], y[0], x[1], y[1])

    for _ in range(10_000):
        a, b = rand_box(), rand_box()
        got = between(a, b)
        assert got.as_list() == pytest.approx(between_bruteforce(a.as_list(), b.as_list()), abs=0)
        assert got == between(b, a)  # symmetry
        hull = bounding_hull(a, b)
        assert hull.x_min <= got.x_min <= got.x_max <= hull.x_max
        assert hull.y_min <= got.y_min <= got.y_max <= hull.y_max


# ---------------------------------------------------------------------------
# 4. Gradient suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,func,shapes", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_criterion_4_gradient_suite_per_op(name, func, shapes):
    """>= 100 random instances per differentiable op, relative error <= 1e-4
    against central finite differences at 64-bit."""
    for _ in range(100):
        arrays = [_rand(s) for s in shapes]
        check_gradients(func, arrays, rtol=1e-4, h=1e-5)


def test_criterion_4_end_to_end_loss_gradient():
    config = ModelConfig(image_size=8, base_channels=8, caption_len=12, init_seed=5)
    model = InteractionDiffusionModel(config)
    from test_diffusion import tiny_dataset

    ds = tiny_dataset(n=4, seed=1)

    def run():
        rng = np.random.default_rng(13)
        batch = make_batch(ds, rng, 2, 0.0, True)
        return loss_step(model, batch, rng)

    model.store.zero_grad()
    run().backward()
    probes = [
        ("base.res1.conv1.w", (0, 0, 0, 0)),
        ("inter.tok.object_mlp.0.w", (5, 7)),
        ("base.caption.tok", (1, 3)),
        ("inter.embed.role", (1, 2)),
    ]
    h = 1e-5
    for name, idx in probes:
        analytic = model.store[name].grad[idx]
        keep = model.store[name].data[idx]
        model.store[name].data[idx] = keep + h
        fp = run().item()
        model.store[name].data[idx] = keep - h
        fm = run().item()
        model.store[name].data[idx] = keep
        num = (fp - fm) / (2 * h)
        assert abs(analytic - num) / max(abs(num), 1.0) <= 1e-4, name


# ---------------------------------------------------------------------------
# 5. Embedding algebra
# ---------------------------------------------------------------------------


def test_criterion_5_embedding_algebra():
    store = ParameterStore()
    emb = InteractionEmbeddings(store, n_max=4, d_tok=64, seed=21)
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        h_s, h_a, h_o = random_tokens(rng, n, 64)
        toks, mask = emb.embed_batch(token_block(h_s, h_a, h_o), [n])
        toks = toks.data[0]
        q = store["inter.embed.instance"].data
        r = store["inter.embed.role"].data
        for i in range(n):
            qs = toks[3 * i + 0] - h_s[i] - r[0]
            qa = toks[3 * i + 1] - h_a[i] - r[1]
            qo = toks[3 * i + 2] - h_o[i] - r[2]
            # same-instance sharing, machine precision
            assert np.max(np.abs(qs - q[i])) <= 1e-14
            assert np.max(np.abs(qa - q[i])) <= 1e-14
            assert np.max(np.abs(qo - q[i])) <= 1e-14
            # same-role sharing
            assert np.max(np.abs((toks[3 * i + 1] - h_a[i] - q[i]) - r[1])) <= 1e-14


def test_criterion_5_masked_padding_invariance():
    from interactdiff.informer import InformerBlock

    store = ParameterStore()
    rng = np.random.default_rng(6)
    block = InformerBlock(store, "blk", n_tokens=16, d_tok=64, n_heads=4, rng=rng)
    store["inter.blk.gate_gamma"].data[...] = 0.8
    emb = InteractionEmbeddings(ParameterStore(), n_max=4, d_tok=64, seed=6)
    toks1, mask1 = emb.embed_batch(token_block(*random_tokens(rng, 2, 64)), [2])
    v = Tensor(rng.normal(size=(1, 16, 64)))
    cap = Tensor(rng.normal(size=(1, 5, 64)))
    cap_mask = np.ones((1, 5), dtype=bool)
    extra = Tensor(np.concatenate([toks1.data, rng.normal(size=(1, 6, 64))], axis=1))
    extra_mask = np.concatenate([mask1, np.zeros((1, 6), dtype=bool)], axis=1)
    out = block(v, cap, cap_mask, toks1, mask1, eta=1)
    out_pad = block(v, cap, cap_mask, extra, extra_mask, eta=1)
    assert np.max(np.abs(out.data - out_pad.data)) <= 1e-10


# ---------------------------------------------------------------------------
# 6. Oracle soundness
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_detection_exact():
    scenes = [generate_scene(s) for s in range(1000)]
    dets = [detect(render(s))[0] for s in scenes]
    gts = [list(s.interactions) for s in scenes]
    report = detection_map(dets, gts)
    assert report.map_full == 1.0
    assert report.map_rare == 1.0


def test_criterion_6_kid_null_distribution():
    scenes = build_dataset(500, seed=1000)
    feats = np.stack([detect(render(s))[1] for s in scenes])
    est, stderr = kid_analog(feats[:250], feats[250:])
    assert abs(est) < 3 * max(stderr, 1e-12)


# ---------------------------------------------------------------------------
# 7. Desk-scale training effect
# ---------------------------------------------------------------------------


def test_criterion_7_training_effect_reference_report():
    """Reference-run numbers: omega = 1.0 beats omega = 0.0 (== the
    caption-only baseline, since phase 2 froze the base bitwise) by >= 15
    Full-mAP points on 500 test conditions, and clears the pinned floor."""
    summary = _load_summary()
    assert summary[1.0] >= summary[0.0] + MIN_GAP_VS_BASE
    assert summary[1.0] >= MAP_FLOOR_OMEGA1
    with open(_ref("report_omega1.00.json")) as fh:
        report = json.load(fh)
    assert report["sample_count"] == 500
    # the baseline comparison (b): base model == omega-0 sampling, verified
    # bitwise by criterion 2; training left the base parameters untouched
    s1, _ = load_checkpoint(_ref("phase1_final.ckpt"))
    s2, _ = load_checkpoint(_ref("phase2_final.ckpt"))
    for name in s1.names():
        if name.startswith("base."):
            assert np.array_equal(s1[name].data, s2[name].data), name


def test_criterion_7_training_effect_resampled_subset():
    """Independent re-check: sample a fresh 60-condition subset from the
    committed checkpoint and reproduce the ordering and gap."""
    with N.dtype_mode("float32"):
        model, _ = InteractionDiffusionModel.load(_ref("phase2_final.ckpt"))
        scenes = build_dataset(60, seed=777)
        caps = [list(s.caption_ids) for s in scenes]
        inters = [list(s.interactions) for s in scenes]
        gts = [list(s.interactions) for s in scenes]
        maps = {}
        for omega in (0.0, 1.0):
            images = sample(model, caps, inters, steps=50, omega=omega, seed=99)
            dets = [detect(img)[0] for img in images]
            maps[omega] = detection_map(dets, gts).map_full
    # 60 conditions is a noisy estimate of the 500-condition gap; require a
    # clear majority of it rather than the full margin
    assert maps[1.0] >= maps[0.0] + 0.6 * MIN_GAP_VS_BASE


def test_criterion_7_loss_curves_descend():
    """EMA(loss) at step 2000 is below EMA(loss) at step 100 in both phases."""
    for phase in (1, 2):
        steps, losses = [], []
        with open(_ref(f"metrics_phase{phase}.csv")) as fh:
            for row in csv.DictReader(fh):
                steps.append(int(row["step"]))
                losses.append(float(row["loss"]))
        ema = {}
        acc = losses[0]
        for s, l in zip(steps, losses):
            acc = 0.9 * acc + 0.1 * l
            ema[s] = acc
        assert ema[2000] < ema[100], f"phase {phase}"


# ---------------------------------------------------------------------------
# 8. omega-sweep direction
# ---------------------------------------------------------------------------


def test_criterion_8_omega_sweep():
    summary = _load_summary()
    omegas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert set(omegas) <= set(summary), sorted(summary)
    values = [summary[w] for w in omegas]
    assert values[-1] >= values[0] + MIN_GAP_SWEEP
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - SWEEP_TOLERANCE, values


# ---------------------------------------------------------------------------
# 9. Determinism & persistence
# ---------------------------------------------------------------------------


def test_criterion_9_checkpoint_round_trip_bits(tmp_path):
    store, meta = load_checkpoint(_ref("phase2_final.ckpt"))
    out = tmp_path / "roundtrip.ckpt"
    save_checkpoint(store, out, meta=meta)
    again, meta2 = load_checkpoint(out)
    assert meta2 == meta
    for name in store.names():
        a, b = store[name].data, again[name].data
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_criterion_9_sampling_reproducible():
    with N.dtype_mode("float32"):
        model, _ = InteractionDiffusionModel.load(_ref("phase2_final.ckpt"))
        scene = generate_scene(42)
        caps = [list(scene.caption_ids)]
        inters = [list(scene.interactions)]
        a = sample(model, caps, inters, steps=10, omega=0.8, seed=5)
        b = sample(model, caps, inters, steps=10, omega=0.8, seed=5)
    assert np.array_equal(a, b)


def test_criterion_9_training_resume_bit_exact(tmp_path):
    # exercised at full fidelity in test_diffusion.test_resume_matches_uninterrupted;
    # here the same property on the real model size for a couple of steps
    from interactdiff.diffusion import TrainConfig, train_phase

    ds = [(s, render(s)) for s in (generate_scene(i) for i in range(8))]
    cfg = dict(batch_size=2, warmup_steps=2, save_every=0, log_every=1, train_seed=8,
               caption_dropout=0.0)
    with N.dtype_mode("float32"):
        full = InteractionDiffusionModel(ModelConfig(init_seed=9))
        train_phase(full, ds, TrainConfig(steps_phase1=3, **cfg), 1, tmp_path / "a")
        half = InteractionDiffusionModel(ModelConfig(init_seed=9))
        train_phase(half, ds, TrainConfig(steps_phase1=1, **cfg), 1, tmp_path / "b")
        resumed, meta = InteractionDiffusionModel.load(tmp_path / "b" / "phase1_final.ckpt")
        train_phase(resumed, ds, TrainConfig(steps_phase1=3, **cfg), 1,
                    tmp_path / "c", start_step=int(meta["step"]))
    for name in full.store.names():
        assert np.array_equal(full.store[name].data, resumed.store[name].data), name
