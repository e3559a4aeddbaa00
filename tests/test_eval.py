"""Oracle detector, mAP protocol and kernel-MMD metric tests."""

import numpy as np
import pytest

from interactdiff.errors import ContractError
from interactdiff.evaluation import detection_map, kid_analog, mmd2_unbiased, polynomial_kernel
from interactdiff.geometry import BoundingBox
from interactdiff.scenes import (
    BACKGROUND_COLOR,
    PALETTE,
    STRIPE_COLOR,
    VOCAB,
    DetectedInteraction,
    detect,
    generate_scene,
    render,
)

from oracles import mmd2_full_ustat


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------


def as_set(instances):
    return {
        (i.s, i.a, i.o, i.b_s.as_list() if hasattr(i.b_s, "as_list") else None)
        for i in instances
    }


def test_detector_inverts_renderer():
    for seed in range(200):
        scene = generate_scene(seed)
        dets, _ = detect(render(scene))
        assert len(dets) == len(scene.interactions)
        gt = {(i.s, i.a, i.o, tuple(i.b_s.as_list()), tuple(i.b_o.as_list()))
              for i in scene.interactions}
        found = {(d.s, d.a, d.o, tuple(d.b_s.as_list()), tuple(d.b_o.as_list()))
                 for d in dets}
        assert found == gt


def test_detector_constant_background():
    bg = np.array(BACKGROUND_COLOR, dtype=np.float64) / 127.5 - 1.0
    img = np.tile(bg.reshape(3, 1, 1), (1, 32, 32))
    dets, feats = detect(img)
    assert dets == []
    # every pixel is the background, the last palette colour; no boxes
    assert feats.tolist() == [0.0] * 11 + [1.0] + [0.0] * 4


def test_detector_noise_robustness():
    rng = np.random.default_rng(0)
    for _ in range(5):
        img = rng.uniform(-1, 1, size=(3, 32, 32))
        dets, _ = detect(img)  # must not crash
        for d in dets:
            assert 0 < d.confidence <= 1


def test_detect_features_are_palette_shares_then_mean_box():
    """`detect`'s feature vector is the share of pixels nearest each palette
    colour (entities, stripe, background), then the mean cx, cy, w, h over
    the detected subject boxes followed by the object boxes."""
    colors = np.array([*PALETTE.values(), STRIPE_COLOR, BACKGROUND_COLOR]) / 127.5 - 1.0
    rng = np.random.default_rng(1)
    images = [render(generate_scene(seed)) for seed in range(20)]
    images += [np.clip(img + rng.normal(0, 0.3, img.shape), -1, 1) for img in images[:10]]
    for img in images:
        dets, feats = detect(img)
        pix = img.reshape(3, -1).T
        nearest = np.argmin(((pix[:, None, :] - colors[None]) ** 2).sum(axis=2), axis=1)
        boxes = [d.b_s for d in dets] + [d.b_o for d in dets]
        stats = [np.mean([(b.x_min + b.x_max) / 2 for b in boxes]),
                 np.mean([(b.y_min + b.y_max) / 2 for b in boxes]),
                 np.mean([b.width for b in boxes]),
                 np.mean([b.height for b in boxes])] if boxes else [0.0] * 4
        assert feats.tolist() == [np.mean(nearest == c) for c in range(len(colors))] + stats


def test_detection_confidence_degrades_with_noise():
    scene = generate_scene(1)
    clean = render(scene)
    rng = np.random.default_rng(2)
    noisy = np.clip(clean + rng.normal(0, 0.35, clean.shape), -1, 1)
    conf_clean = min((d.confidence for d in detect(clean)[0]), default=0.0)
    conf_noisy = min((d.confidence for d in detect(noisy)[0]), default=0.0)
    assert conf_clean == 1.0
    assert conf_noisy <= conf_clean


# ---------------------------------------------------------------------------
# mAP protocol
# ---------------------------------------------------------------------------


def _det_from_gt(inst, confidence=0.9):
    return DetectedInteraction(
        s=inst.s, a=inst.a, o=inst.o, b_s=inst.b_s, b_o=inst.b_o,
        confidence=confidence,
    )


def test_map_perfect_detections():
    scenes = [generate_scene(s) for s in range(30)]
    gts = [list(s.interactions) for s in scenes]
    dets = [[_det_from_gt(i) for i in gt] for gt in gts]
    report = detection_map(dets, gts)
    assert report.map_full == 1.0
    assert all(ap == 1.0 for ap in report.per_class_ap.values())


def test_map_empty_detections():
    scenes = [generate_scene(s) for s in range(10)]
    gts = [list(s.interactions) for s in scenes]
    report = detection_map([[] for _ in gts], gts)
    assert report.map_full == 0.0


def test_map_half_detected_single_class():
    """One class, equal counts per image, half the images missed -> AP 0.5."""
    scene = generate_scene(0)
    inst = scene.interactions[0]
    gts = [[inst] for _ in range(10)]
    dets = [[_det_from_gt(inst)] if i < 5 else [] for i in range(10)]
    report = detection_map(dets, gts)
    assert report.per_class_ap[(inst.s, inst.a, inst.o)] == pytest.approx(0.5)


def test_map_wrong_box_is_false_positive():
    scene = generate_scene(0)
    inst = scene.interactions[0]
    shifted = DetectedInteraction(
        s=inst.s, a=inst.a, o=inst.o,
        b_s=BoundingBox(0.0, 0.0, 0.05, 0.05),
        b_o=BoundingBox(0.9, 0.9, 0.95, 0.95),
        confidence=1.0,
    )
    report = detection_map([[shifted]], [[inst]])
    assert report.map_full == 0.0


def test_map_mismatched_lengths():
    with pytest.raises(ContractError):
        detection_map([[]], [[], []])


def test_map_order_invariance():
    scenes = [generate_scene(s) for s in range(20)]
    gts = [list(s.interactions) for s in scenes]
    dets = [[_det_from_gt(i, confidence=0.5) for i in gt] for gt in gts]
    a = detection_map(dets, gts)
    perm = np.random.default_rng(0).permutation(20)
    b = detection_map([dets[i] for i in perm], [gts[i] for i in perm])
    assert a.map_full == b.map_full
    assert a.per_class_ap == b.per_class_ap


def test_map_monotone_under_corruption():
    scenes = [generate_scene(s) for s in range(40)]
    gts = [list(s.interactions) for s in scenes]
    last = 1.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        dets = [[_det_from_gt(inst) for inst in gt] for gt in gts]
        # corrupt the first fraction p of detections into a wrong action class
        flat = [(i, j) for i, row in enumerate(dets) for j in range(len(row))]
        k = int(round(p * len(flat)))
        for i, j in flat[:k]:
            d = dets[i][j]
            wrong = VOCAB.action_ids[(VOCAB.action_ids.index(d.a) + 1) % 5]
            dets[i][j] = DetectedInteraction(
                s=d.s, a=wrong, o=d.o, b_s=d.b_s, b_o=d.b_o, confidence=d.confidence
            )
        score = detection_map(dets, gts).map_full
        assert score <= last + 1e-12
        last = score


# ---------------------------------------------------------------------------
# kernel MMD
# ---------------------------------------------------------------------------


def test_polynomial_kernel_values():
    x = np.zeros((1, 16))
    e1 = np.eye(16)[:1]
    assert polynomial_kernel(x, x)[0, 0] == 1.0
    assert polynomial_kernel(e1, e1)[0, 0] == pytest.approx((1 / 16 + 1) ** 3)


def test_mmd2_identical_sets_exact_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 16))
    assert mmd2_unbiased(x, x) == 0.0


def test_mmd2_disjoint_constant_sets_closed_form():
    d = 16
    x = np.zeros((10, d))
    y = np.tile(np.eye(d)[:1], (10, 1))
    expect = 1.0 + (1 / d + 1) ** 3 - 2.0
    assert mmd2_unbiased(x, y) == pytest.approx(expect, rel=1e-12)


def test_mmd2_matches_bruteforce():
    rng = np.random.default_rng(1)
    kern = lambda a, b: float((a @ b / a.shape[0] + 1.0) ** 3)
    for m, n in ((30, 30), (30, 25)):
        x = rng.normal(size=(m, 8))
        y = rng.normal(size=(n, 8)) + 0.3
        fast = mmd2_unbiased(x, y)
        slow = mmd2_full_ustat(list(x), list(y), kern)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_mmd2_sample_count_error():
    with pytest.raises(ContractError):
        mmd2_unbiased(np.zeros((1, 4)), np.zeros((5, 4)))


def test_kid_identical_sets_zero():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(120, 16))
    est, stderr = kid_analog(x, x.copy())
    assert est == 0.0
    assert stderr == 0.0


def test_kid_separated_sets_positive():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(150, 16))
    y = rng.normal(size=(150, 16)) + 1.0
    est, stderr = kid_analog(x, y)
    assert est > 3 * stderr > 0


def test_kid_too_few_samples():
    with pytest.raises(ContractError):
        kid_analog(np.zeros((50, 4)), np.zeros((200, 4)))


def test_kid_two_halves_of_real_data():
    scenes = [generate_scene(s) for s in range(240)]
    feats = np.stack([detect(render(s))[1] for s in scenes])
    est, stderr = kid_analog(feats[:120], feats[120:])
    assert abs(est) < 3 * max(stderr, 1e-12)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_serialization(tmp_path):
    scenes = [generate_scene(s) for s in range(10)]
    gts = [list(s.interactions) for s in scenes]
    dets = [[_det_from_gt(i) for i in gt] for gt in gts]
    report = detection_map(dets, gts)
    import json

    obj = json.loads(report.to_json())
    assert obj["map_full"] == 1.0
    csv_path = tmp_path / "ap.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "subject,action,object,ap"
    assert len(lines) == len(report.per_class_ap) + 1
