"""Oracle detection, detection-score (mAP) protocol and kernel-MMD metric.

The detector inverts the renderer: nearest-palette classification per
pixel, connected components per entity colour, boxes from component
extents, and action labels from the scene module's relation predicates.
On ground-truth renders it recovers the interaction set exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ContractError
from .geometry import BoundingBox, iou
from .scenes import (
    BACKGROUND_COLOR,
    PALETTE,
    STRIPE_COLOR,
    VOCAB,
    classify_action_px,
    rare_triplet_classes,
)

# ---------------------------------------------------------------------------
# Detector
# ---------------------------------------------------------------------------

_ENTITY_LABELS = list(PALETTE)
_ALL_COLORS = np.array(
    [PALETTE[l] for l in _ENTITY_LABELS] + [STRIPE_COLOR, BACKGROUND_COLOR],
    dtype=np.float64,
) / 127.5 - 1.0  # same [-1, 1] space as rendered images


COLOR_TOL = 0.55  # max RGB distance (in [-1,1] space) to count a pixel pure
MIN_AREA = 4  # pixels in a component
MIN_CONFIDENCE = 0.35  # share of a component's pixels that are pure

# rows per side kid_analog needs; below it, eval reports KID as null
KID_MIN_SAMPLES = 100


@dataclass
class DetectedInteraction:
    s: int
    a: int
    o: int
    b_s: BoundingBox
    b_o: BoundingBox
    confidence: float


def _palette_distances(image: np.ndarray) -> np.ndarray:
    """(HW, n_colours) squared RGB distances of a (3, H, W) image's pixels."""
    pix = image.reshape(3, -1).T  # (HW, 3)
    return ((pix[:, None, :] - _ALL_COLORS[None, :, :]) ** 2).sum(axis=2)


def _find_entities(nearest: np.ndarray, near_dist: np.ndarray):
    """Connected blobs of an (H, W) nearest-palette index map, with each
    pixel's distance to its nearest colour -> (label_id, box_px, box,
    confidence) candidates."""
    h, w = nearest.shape
    entities = []
    for ci, label in enumerate(_ENTITY_LABELS):
        mask = nearest == ci
        if not mask.any():
            continue
        comp, n_comp = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        for k in range(1, n_comp + 1):
            rows, cols = np.nonzero(comp == k)
            if rows.size < MIN_AREA:
                continue
            conf = float(np.mean(near_dist[rows, cols] <= COLOR_TOL))
            if conf < MIN_CONFIDENCE:
                continue
            box_px = (int(cols.min()), int(rows.min()), int(cols.max()) + 1, int(rows.max()) + 1)
            box = BoundingBox(box_px[0] / w, box_px[1] / h, box_px[2] / w, box_px[3] / h)
            entities.append((VOCAB.id_of[label], box_px, box, conf))
    return entities


def detect(image: np.ndarray) -> tuple[list[DetectedInteraction], np.ndarray]:
    """Recover interaction instances from a rendered or generated (3, H, W)
    image, and its KID feature vector, from one nearest-palette pass.

    The features are the share of pixels nearest each palette colour, then
    the mean cx, cy, w, h over the detected subject and object boxes (zeros
    when nothing is detected).
    """
    _, h, w = image.shape
    d2 = _palette_distances(image)
    nearest = d2.argmin(axis=1)
    entities = _find_entities(nearest.reshape(h, w), np.sqrt(d2.min(axis=1)).reshape(h, w))
    subjects = [e for e in entities if e[0] in VOCAB.subject_ids]
    objects = [e for e in entities if e[0] in VOCAB.object_ids]
    out = []
    for s_id, s_px, s_box, s_conf in subjects:
        for o_id, o_px, o_box, o_conf in objects:
            action = classify_action_px(s_px, o_px)
            if action is None:
                continue
            out.append(
                DetectedInteraction(
                    s=s_id,
                    a=VOCAB.id_of[action],
                    o=o_id,
                    b_s=s_box,
                    b_o=o_box,
                    confidence=min(s_conf, o_conf),
                )
            )
    fracs = np.bincount(nearest, minlength=_ALL_COLORS.shape[0]) / nearest.size
    boxes = [d.b_s for d in out] + [d.b_o for d in out]
    stats = np.zeros(4)
    if boxes:
        # one contiguous row per statistic: each sums as np.mean over a list
        # does, where a mean over axis 0 of (n, 4) rounds differently
        x0, y0, x1, y1 = np.array([b.as_list() for b in boxes]).T
        stats = np.array([(x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0]).mean(axis=1)
    return out, np.concatenate([fracs, stats])


# ---------------------------------------------------------------------------
# Detection score (mAP)
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    map_full: float
    map_rare: float
    per_class_ap: dict
    kid: float | None
    sample_count: int
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "map_full": self.map_full,
            "map_rare": self.map_rare,
            "kid": self.kid,
            "sample_count": self.sample_count,
            "config": self.config_echo,
            "per_class_ap": {"/".join(map(str, k)): v for k, v in self.per_class_ap.items()},
        }
        return json.dumps(obj, sort_keys=True, indent=2)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject", "action", "object", "ap"])
            for (s, a, o), ap in sorted(self.per_class_ap.items()):
                writer.writerow([VOCAB.token(s), VOCAB.token(a), VOCAB.token(o), f"{ap:.6f}"])


def _ap_from_matches(tp_flags: list[bool], n_gt: int) -> float:
    """All-points interpolated area under the precision-recall curve."""
    if n_gt == 0:
        return 0.0
    tp = np.cumsum(np.array(tp_flags, dtype=np.float64)) if tp_flags else np.array([])
    if tp.size == 0:
        return 0.0
    fp = np.arange(1, tp.size + 1) - tp
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope, then area
    for i in range(precision.size - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


# subject and object IoU a detection needs to match a ground truth
MATCH_IOU = 0.5


def detection_map(
    detections_per_image: list[list[DetectedInteraction]],
    ground_truth_per_image: list,
) -> EvalReport:
    """HOI-style AP: a detection matches an unmatched ground truth with the
    same triplet class when both subject and object IoU reach MATCH_IOU.

    ground_truth_per_image holds lists of InteractionInstance.
    """
    if len(detections_per_image) != len(ground_truth_per_image):
        raise ContractError(
            f"got {len(detections_per_image)} detection lists vs "
            f"{len(ground_truth_per_image)} ground-truth lists"
        )
    gt_count: dict = {}
    per_class_dets: dict = {}
    for img_idx, gts in enumerate(ground_truth_per_image):
        for gt in gts:
            gt_count[(gt.s, gt.a, gt.o)] = gt_count.get((gt.s, gt.a, gt.o), 0) + 1
    for img_idx, dets in enumerate(detections_per_image):
        for det in dets:
            key = (det.s, det.a, det.o)
            per_class_dets.setdefault(key, []).append((img_idx, det))
    per_class_ap = {}
    for cls in sorted(gt_count):
        dets = per_class_dets.get(cls, [])
        # confidence-ordered, deterministic tie-break by image index then boxes
        dets.sort(
            key=lambda item: (
                -item[1].confidence,
                item[0],
                tuple(item[1].b_s.as_list()),
                tuple(item[1].b_o.as_list()),
            )
        )
        matched: set = set()
        tp_flags = []
        for img_idx, det in dets:
            best = None
            best_iou = MATCH_IOU
            for gi, gt in enumerate(ground_truth_per_image[img_idx]):
                if (gt.s, gt.a, gt.o) != cls or (img_idx, gi) in matched:
                    continue
                pair_iou = min(iou(det.b_s, gt.b_s), iou(det.b_o, gt.b_o))
                if pair_iou >= best_iou:
                    best_iou = pair_iou
                    best = gi
            if best is not None:
                matched.add((img_idx, best))
                tp_flags.append(True)
            else:
                tp_flags.append(False)
        per_class_ap[cls] = _ap_from_matches(tp_flags, gt_count[cls])
    rare = rare_triplet_classes()
    present = list(per_class_ap)
    rare_present = [c for c in present if c in rare]
    map_full = float(np.mean([per_class_ap[c] for c in present])) if present else 0.0
    map_rare = float(np.mean([per_class_ap[c] for c in rare_present])) if rare_present else 0.0
    return EvalReport(
        map_full=map_full,
        map_rare=map_rare,
        per_class_ap=per_class_ap,
        kid=None,
        sample_count=len(detections_per_image),
    )


# ---------------------------------------------------------------------------
# Kernel-MMD image metric
# ---------------------------------------------------------------------------


def polynomial_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """k(x, y) = (x.y / d + 1)^3 over rows of x and y."""
    d = x.shape[1]
    return (x @ y.T / d + 1.0) ** 3


def mmd2_unbiased(x: np.ndarray, y: np.ndarray) -> float:
    """Unbiased squared-MMD U-statistic with the polynomial kernel.

    For equal sample sizes the cross term also excludes paired indices,
    so mmd2_unbiased(X, X) == 0 exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ContractError("need at least 2 samples per side")
    kxx = polynomial_kernel(x, x)
    kyy = polynomial_kernel(y, y)
    kxy = polynomial_kernel(x, y)
    sum_xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    sum_yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    if m == n:
        sum_xy = (kxy.sum() - np.trace(kxy)) / (m * (m - 1))
    else:
        sum_xy = kxy.sum() / (m * n)
    return float(sum_xx + sum_yy - 2.0 * sum_xy)


def kid_analog(features_real: np.ndarray, features_gen: np.ndarray) -> tuple[float, float]:
    """Unbiased MMD^2 averaged over 10 subsets of 50 rows; returns
    (estimate, stderr).

    One index draw per round is shared by both sides when the sample counts
    match, so identical feature sets score exactly zero.
    """
    x = np.asarray(features_real, dtype=np.float64)
    y = np.asarray(features_gen, dtype=np.float64)
    if x.shape[0] < KID_MIN_SAMPLES or y.shape[0] < KID_MIN_SAMPLES:
        raise ContractError(f"kid_analog needs at least {KID_MIN_SAMPLES} samples per side")
    rng = np.random.default_rng(0)
    estimates = []
    for _ in range(10):
        idx = rng.permutation(x.shape[0])[:50]
        jdx = idx if x.shape[0] == y.shape[0] else rng.permutation(y.shape[0])[:50]
        estimates.append(mmd2_unbiased(x[idx], y[jdx]))
    estimates = np.array(estimates)
    return float(estimates.mean()), float(estimates.std(ddof=1) / np.sqrt(estimates.size))
