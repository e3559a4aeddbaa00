"""Detection-score (mAP) protocol and kernel-MMD metric.

Both score what the oracle detector, `scenes.detect`, finds in an image:
mAP matches its detections against the conditioning scene's instances,
and the kernel-MMD metric (a KID analogue) compares its feature vectors
across two image sets.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .geometry import iou
from .scenes import VOCAB, rare_triplet_classes

# ---------------------------------------------------------------------------
# Detection score (mAP)
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    map_full: float
    map_rare: float
    per_class_ap: dict
    kid: float | None
    kid_stderr: float | None
    sample_count: int
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "map_full": self.map_full,
            "map_rare": self.map_rare,
            "kid": self.kid,
            "kid_stderr": self.kid_stderr,
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
    detections_per_image: list[list],
    ground_truth_per_image: list,
) -> EvalReport:
    """HOI-style AP: a detection matches an unmatched ground truth with the
    same triplet class when both subject and object IoU reach MATCH_IOU.

    detections_per_image holds lists of scenes.DetectedInteraction,
    ground_truth_per_image lists of scenes.InteractionInstance.
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
        kid_stderr=None,
        sample_count=len(detections_per_image),
    )


# ---------------------------------------------------------------------------
# Kernel-MMD image metric
# ---------------------------------------------------------------------------

# rows per side kid_analog needs; below it, eval reports KID as null
KID_MIN_SAMPLES = 100


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
