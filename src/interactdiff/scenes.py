"""Procedural synthetic interaction scenes: the scene records, the renderer
that draws them, and the oracle detector that inverts the renderer.

A scene is a set of (subject, action, object) instances with pixel-aligned
boxes.  Every action label encodes a spatial relation between the subject
and object boxes, chosen so that a colour/shape oracle can recover the full
interaction set from the rendered image alone:

  riding  - subject sits on top of the object, overlapping its upper edge
  holding - object lies inside the upper-right quarter of the subject
  pushing - subject directly left of the object, boxes touching
  pulling - subject directly right of the object, 1-2 px gap, connector
            stripe drawn between them
  kicking - subject left of the object with a 2-3 px gap

All boxes are snapped to the pixel grid, shapes are rasterized so that the
filled pixels span the exact box extents, and instances are laid out in
separated regions.  The detector classifies each pixel to its nearest
palette colour, takes connected components per entity colour, boxes them by
extent and labels subject/object pairs with the same relation bands the
generator places by, so it recovers a render's interaction set exactly.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ContractError, DataError, GenerationError
from .geometry import BoundingBox, between

# ---------------------------------------------------------------------------
# Vocabulary and palette
# ---------------------------------------------------------------------------

SUBJECTS = ["person", "girl", "boy", "robot"]
OBJECTS = ["ball", "box", "cart", "kite", "lamp", "drum"]
ACTIONS = ["riding", "holding", "pushing", "pulling", "kicking"]
FUNCTION_WORDS = ["<pad>", "a", "and"]

# unique flat colour per entity label, mutually well separated in RGB
PALETTE = {
    "person": (230, 50, 50),
    "girl": (240, 160, 40),
    "boy": (230, 230, 50),
    "robot": (150, 60, 230),
    "ball": (50, 220, 60),
    "box": (60, 200, 220),
    "cart": (50, 80, 230),
    "kite": (230, 70, 220),
    "lamp": (245, 245, 245),
    "drum": (140, 90, 40),
}
STRIPE_COLOR = (128, 128, 128)
BACKGROUND_COLOR = (20, 20, 20)

# subjects are circles; objects are squares or apex-down triangles
SHAPES = {
    "person": "circle",
    "girl": "circle",
    "boy": "circle",
    "robot": "circle",
    "ball": "square",
    "box": "square",
    "cart": "square",
    "lamp": "square",
    "kite": "triangle",
    "drum": "triangle",
}


class ToyVocabulary:
    """Closed label space with a frozen bijective label<->id mapping."""

    def __init__(self):
        self.tokens = list(FUNCTION_WORDS) + SUBJECTS + ACTIONS + OBJECTS
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self.subject_ids = [self.id_of[s] for s in SUBJECTS]
        self.object_ids = [self.id_of[o] for o in OBJECTS]
        self.action_ids = [self.id_of[a] for a in ACTIONS]
        self.pad_id = self.id_of["<pad>"]

    def __len__(self):
        return len(self.tokens)

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self.tokens):
            raise ContractError(f"token id {idx} out of range")
        return self.tokens[idx]

    def caption_ids(self, instances) -> list[int]:
        """'a {subject} {action} a {object}' per instance, joined by 'and'."""
        out: list[int] = []
        for i, inst in enumerate(instances):
            if i:
                out.append(self.id_of["and"])
            out += [
                self.id_of["a"],
                inst.s,
                inst.a,
                self.id_of["a"],
                inst.o,
            ]
        return out


VOCAB = ToyVocabulary()

# triplet class helpers -----------------------------------------------------


def all_triplet_classes() -> list[tuple[int, int, int]]:
    return [
        (s, a, o)
        for s in VOCAB.subject_ids
        for a in VOCAB.action_ids
        for o in VOCAB.object_ids
    ]


# instance slots a dataset gives each rare triplet class at most
RARE_CAP = 8


def rare_triplet_classes() -> set[tuple[int, int, int]]:
    """Deterministic 20% subset, held to RARE_CAP occurrences per dataset."""
    classes = all_triplet_classes()
    return {c for i, c in enumerate(classes) if i % 5 == 0}


# ---------------------------------------------------------------------------
# Scene data
# ---------------------------------------------------------------------------


@dataclass
class InteractionInstance:
    """One (subject, action, object) triplet with its subject and object
    boxes; the action box is derived from them."""

    s: int
    a: int
    o: int
    b_s: BoundingBox
    b_o: BoundingBox

    @property
    def b_a(self) -> BoundingBox:
        return between(self.b_s, self.b_o)


@dataclass
class SceneSpec:
    """Ground-truth description of one synthetic scene."""

    image_size: int
    interactions: list[InteractionInstance]
    caption_ids: list[int]

    def to_json_obj(self, image_path: str) -> dict:
        return {
            "image": image_path,
            "size": self.image_size,
            "caption_ids": list(self.caption_ids),
            "interactions": [
                {
                    "s": inst.s,
                    "a": inst.a,
                    "o": inst.o,
                    "bs": inst.b_s.as_list(),
                    "ba": inst.b_a.as_list(),
                    "bo": inst.b_o.as_list(),
                }
                for inst in self.interactions
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SceneSpec":
        """Scene of one JSONL record.  A missing or ill-typed field, a box
        that breaks the BoundingBox or between contract, a label outside its
        role's ids or a caption id outside the vocabulary raises DataError.
        Other keys are ignored: sample sidecars carry more."""
        try:
            size, captions, records = obj["size"], obj["caption_ids"], obj["interactions"]
            if (type(size) is not int or not isinstance(captions, list)
                    or not isinstance(records, list)):
                raise TypeError("size must be an integer, caption_ids and interactions lists")
            insts = [_instance(rec) for rec in records]
            caption_ids = [_label_id(t, range(len(VOCAB)), "caption") for t in captions]
        except (KeyError, TypeError, ContractError) as exc:
            raise DataError(f"malformed scene record: {exc!r}") from exc
        return cls(image_size=size, interactions=insts, caption_ids=caption_ids)


def _instance(rec) -> InteractionInstance:
    inst = InteractionInstance(
        s=_label_id(rec["s"], VOCAB.subject_ids, "subject"),
        a=_label_id(rec["a"], VOCAB.action_ids, "action"),
        o=_label_id(rec["o"], VOCAB.object_ids, "object"),
        b_s=_box(rec["bs"]),
        b_o=_box(rec["bo"]),
    )
    if _box(rec["ba"]) != inst.b_a:
        raise DataError(f"ba {rec['ba']!r} is not between(bs, bo)")
    return inst


def _label_id(value, ids, role: str) -> int:
    if type(value) is not int or value not in ids:
        raise DataError(f"{value!r} is not a {role} id")
    return value


def _box(coords) -> BoundingBox:
    if not isinstance(coords, list) or any(type(v) not in (int, float) for v in coords):
        raise DataError(f"box {coords!r} is not a list of numbers")
    return BoundingBox.from_list(coords)


@dataclass
class SceneConfig:
    image_size: int = 32
    n_max: int = 4


# ---------------------------------------------------------------------------
# Relation predicates (pixel units)
# ---------------------------------------------------------------------------


def to_px(box: BoundingBox, size: int) -> tuple[int, int, int, int]:
    return (
        int(round(box.x_min * size)),
        int(round(box.y_min * size)),
        int(round(box.x_max * size)),
        int(round(box.y_max * size)),
    )


def from_px(px_box, size: int) -> BoundingBox:
    x0, y0, x1, y1 = px_box
    return BoundingBox(x0 / size, y0 / size, x1 / size, y1 / size)


def classify_action_px(s_box, o_box) -> str | None:
    """Map a (subject, object) pixel-box pair to an action label.

    Returns None when no relation holds.  Bands are slightly wider than the
    generator's placement rules so near-miss generated layouts still
    classify, while exact renders classify uniquely.
    """
    sx0, sy0, sx1, sy1 = s_box
    ox0, oy0, ox1, oy1 = o_box
    x_ov = min(sx1, ox1) - max(sx0, ox0)
    y_ov = min(sy1, oy1) - max(sy0, oy0)
    if x_ov > 0 and y_ov > 0:
        scx = (sx0 + sx1) / 2.0
        inside = (
            ox0 >= scx - 1.0
            and ox1 <= sx1 + 0.5
            and oy0 >= sy0 - 0.5
            and oy1 <= sy1 + 0.5
        )
        if inside:
            return "holding"
        if sy0 < oy0 and sy1 < oy1:
            return "riding"
        return None
    if y_ov > 0:
        if ox0 >= sx1:  # object to the right of subject
            gap = ox0 - sx1
            if gap <= 1.5:
                return "pushing"
            if gap <= 4.5:
                return "kicking"
            return None
        gap = sx0 - ox1  # object to the left
        if 0 <= gap <= 3.5:
            return "pulling"
        return None
    return None


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

# attempts at placing one pair in its region, and at placing one scene
PLACEMENT_RETRIES = 200

# region layouts keep cross-instance pairs out of every relation band:
# >= 2 px vertical or >= 6 px horizontal separation between regions
def _regions(size: int, n: int) -> list[tuple[int, int, int, int]]:
    if n == 1:
        return [(1, 1, size - 1, size - 1)]
    half_x_lo = (1, 1, size // 2 - 3, size - 1)
    half_x_hi = (size // 2 + 3, 1, size - 1, size - 1)
    half_y_lo = (1, 1, size - 1, size // 2 - 1)
    half_y_hi = (1, size // 2 + 1, size - 1, size - 1)
    if n == 2:
        return [half_y_lo, half_y_hi]
    quads = [
        (1, 1, size // 2 - 3, size // 2 - 1),
        (size // 2 + 3, 1, size - 1, size // 2 - 1),
        (1, size // 2 + 1, size // 2 - 3, size - 1),
        (size // 2 + 3, size // 2 + 1, size - 1, size - 1),
    ]
    if n == 3:
        return [half_y_lo, quads[2], quads[3]]
    if n == 4:
        return quads
    raise GenerationError(f"no region layout for {n} instances at size {size}")


def _randint(rng, lo, hi):
    """Uniform integer in [lo, hi]; requires lo <= hi."""
    return int(rng.integers(lo, hi + 1))


def _place_pair(rng, region, action: str):
    """Sample subject/object pixel boxes realizing `action` inside `region`."""
    rx0, ry0, rx1, ry1 = region
    rw, rh = rx1 - rx0, ry1 - ry0
    if action == "riding":
        wo = _randint(rng, 5, min(rw, 9))
        ho = _randint(rng, 4, min(rh - 3, 7))
        ws = _randint(rng, 3, wo - 2)
        d = _randint(rng, 1, min(2, ho - 2))
        hs = _randint(rng, max(3, d + 1), min(6, rh - ho + d))
        ox0 = _randint(rng, rx0, rx1 - wo)
        oy1_max = ry1
        oy0 = _randint(rng, ry0 + hs - d, oy1_max - ho)
        sx0 = _randint(rng, ox0 + 1, ox0 + wo - ws - 1)
        sy1 = oy0 + d
        s_box = (sx0, sy1 - hs, sx0 + ws, sy1)
        o_box = (ox0, oy0, ox0 + wo, oy0 + ho)
    elif action == "holding":
        ws = _randint(rng, 10, min(rw, 12))
        hs = _randint(rng, 10, min(rh, 13))
        sx0 = _randint(rng, rx0, rx1 - ws)
        sy0 = _randint(rng, ry0, ry1 - hs)
        half_x = sx0 + (ws + 1) // 2
        half_y = sy0 + hs // 2
        wo = _randint(rng, 3, min(4, sx0 + ws - 1 - (half_x + 1)))
        ho = _randint(rng, 3, min(4, half_y - 1 - (sy0 + 1)))
        ox0 = _randint(rng, half_x + 1, sx0 + ws - 1 - wo)
        oy0 = _randint(rng, sy0 + 1, half_y - 1 - ho)
        s_box = (sx0, sy0, sx0 + ws, sy0 + hs)
        o_box = (ox0, oy0, ox0 + wo, oy0 + ho)
    else:
        # horizontally arranged, disjoint pairs
        if action == "pushing":
            gap, subj_left = 0, True
        elif action == "kicking":
            gap, subj_left = _randint(rng, 2, 3), True
        elif action == "pulling":
            gap, subj_left = _randint(rng, 1, 2), False
        else:
            raise ContractError(f"unknown action {action!r}")
        ws = _randint(rng, 3, 6)
        wo = _randint(rng, 3, 6)
        total = ws + gap + wo
        if total > rw:
            raise GenerationError("pair too wide for region")
        hs = _randint(rng, 3, min(7, rh))
        ho = _randint(rng, 3, min(7, rh))
        left_x = _randint(rng, rx0, rx1 - total)
        # vertical overlap of at least 2 px
        ov = 2
        sy0 = _randint(rng, ry0, ry1 - hs)
        oy0_lo = max(ry0, sy0 - ho + ov)
        oy0_hi = min(ry1 - ho, sy0 + hs - ov)
        if oy0_lo > oy0_hi:
            raise GenerationError("no vertical overlap slot")
        oy0 = _randint(rng, oy0_lo, oy0_hi)
        if subj_left:
            s_box = (left_x, sy0, left_x + ws, sy0 + hs)
            o_box = (left_x + ws + gap, oy0, left_x + ws + gap + wo, oy0 + ho)
        else:
            o_box = (left_x, oy0, left_x + wo, oy0 + ho)
            s_box = (left_x + wo + gap, sy0, left_x + wo + gap + ws, sy0 + hs)
    if classify_action_px(s_box, o_box) != action:
        raise GenerationError(f"placement failed relation check for {action}")
    return s_box, o_box


def _place_scene(rng, config: SceneConfig, triplets) -> SceneSpec:
    """Lay out `triplets` as one scene, drawing a new layout from `rng` after
    each failed one, up to PLACEMENT_RETRIES layouts."""
    for _ in range(PLACEMENT_RETRIES - 1):
        try:
            return _layout_scene(rng, config, triplets)
        except GenerationError:
            pass
    return _layout_scene(rng, config, triplets)


def _layout_scene(rng, config: SceneConfig, triplets) -> SceneSpec:
    size = config.image_size
    regions = _regions(size, len(triplets))
    order = rng.permutation(len(regions))
    instances = []
    for (s_id, a_id, o_id), ridx in zip(triplets, order):
        action = VOCAB.token(a_id)
        region = regions[int(ridx)]
        s_px = o_px = None
        for _ in range(PLACEMENT_RETRIES):
            try:
                s_px, o_px = _place_pair(rng, region, action)
                break
            except GenerationError:
                continue
        if s_px is None:
            raise GenerationError(
                f"could not place action {action!r} in region {region}"
            )
        instances.append(InteractionInstance(
            s=s_id, a=a_id, o=o_id, b_s=from_px(s_px, size), b_o=from_px(o_px, size)))
    caption = VOCAB.caption_ids(instances)
    scene = SceneSpec(image_size=size, interactions=instances, caption_ids=caption)
    _validate_oracle_round_trip(scene)
    return scene


def _validate_oracle_round_trip(scene: SceneSpec) -> None:
    """Reject layouts whose render the oracle cannot invert exactly."""
    truth = {
        (i.s, i.a, i.o, tuple(i.b_s.as_list()), tuple(i.b_o.as_list()))
        for i in scene.interactions
    }
    found = {
        (d.s, d.a, d.o, tuple(d.b_s.as_list()), tuple(d.b_o.as_list()))
        for d in detect(render(scene))[0]
    }
    if truth != found:
        raise GenerationError("oracle round trip failed for placed scene")


def generate_scene(rng_seed: int, config: SceneConfig | None = None) -> SceneSpec:
    """Sample one scene with 1..n_max uniformly-labelled instances."""
    config = config or SceneConfig()
    rng = np.random.default_rng(rng_seed)
    n = _randint(rng, 1, config.n_max)
    triplets = [
        (
            VOCAB.subject_ids[_randint(rng, 0, len(SUBJECTS) - 1)],
            VOCAB.action_ids[_randint(rng, 0, len(ACTIONS) - 1)],
            VOCAB.object_ids[_randint(rng, 0, len(OBJECTS) - 1)],
        )
        for _ in range(n)
    ]
    return _place_scene(rng, config, triplets)


def build_dataset(count: int, seed: int, config: SceneConfig | None = None) -> list[SceneSpec]:
    """Generate a class-balanced dataset of `count` scenes.

    Each rare triplet class (20% of the space) fills at most RARE_CAP
    instance slots; the common classes share the other slots evenly, the
    remainder going to a random subset of them, one slot each.
    """
    config = config or SceneConfig()
    rng = np.random.default_rng(seed)
    if count == 0:
        return []
    per_scene = [_randint(rng, 1, config.n_max) for _ in range(count)]
    total_slots = sum(per_scene)
    rare = rare_triplet_classes()
    common = [c for c in all_triplet_classes() if c not in rare]
    schedule: list[tuple[int, int, int]] = []
    for c in sorted(rare):
        schedule += [c] * min(RARE_CAP, max(0, total_slots - len(schedule)))
    remaining = total_slots - len(schedule)
    reps = remaining // len(common)
    schedule += common * reps
    extra = remaining - reps * len(common)
    extra_idx = rng.permutation(len(common))[:extra]
    schedule += [common[int(i)] for i in extra_idx]
    schedule = [schedule[int(i)] for i in rng.permutation(len(schedule))]
    scenes = []
    pos = 0
    for n in per_scene:
        triplets = schedule[pos : pos + n]
        pos += n
        scenes.append(_place_scene(rng, config, triplets))
    return scenes


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------


def _color_float(rgb) -> np.ndarray:
    return np.array(rgb, dtype=np.float64) / 127.5 - 1.0


def _fill_shape(img: np.ndarray, shape: str, px_box, color: np.ndarray) -> None:
    x0, y0, x1, y1 = px_box
    w, h = x1 - x0, y1 - y0
    if w <= 0 or h <= 0:
        return
    if shape == "square":
        img[:, y0:y1, x0:x1] = color[:, None, None]
        return
    cols = np.arange(x0, x1) + 0.5
    rows = np.arange(y0, y1) + 0.5
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    rx, ry = w / 2.0, h / 2.0
    if shape == "circle":
        mask = ((cols[None, :] - cx) / rx) ** 2 + ((rows[:, None] - cy) / ry) ** 2 <= 1.0
    elif shape == "triangle":
        # apex-down: full-width base at the top row, narrowing toward the
        # bottom; edge retreat capped at 1 px/row so the blob stays
        # 4-connected for the detector
        step = min((rx - 0.5) / max(h - 1, 1), 1.0)
        halfw = np.maximum(rx - step * (rows[:, None] - (y0 + 0.5)), 0.5)
        mask = np.abs(cols[None, :] - cx) <= halfw
    else:
        raise ContractError(f"unknown shape {shape!r}")
    sub = img[:, y0:y1, x0:x1]
    sub[:, mask] = color[:, None]


def render(scene: SceneSpec) -> np.ndarray:
    """Rasterize a scene to a float image (3, S, S) in [-1, 1].

    Deterministic; flat shading on a constant background.
    """
    size = scene.image_size
    img = np.empty((3, size, size), dtype=np.float64)
    img[:] = _color_float(BACKGROUND_COLOR)[:, None, None]
    stripe = _color_float(STRIPE_COLOR)
    # connector stripes first, then entities
    for inst in scene.interactions:
        if VOCAB.token(inst.a) != "pulling":
            continue
        s_px = to_px(inst.b_s, size)
        o_px = to_px(inst.b_o, size)
        y_lo = max(s_px[1], o_px[1])
        y_hi = min(s_px[3], o_px[3])
        yc = (y_lo + y_hi) // 2
        img[:, yc : yc + 1, o_px[2] : s_px[0]] = stripe[:, None, None]
    for inst in scene.interactions:
        action = VOCAB.token(inst.a)
        s_label, o_label = VOCAB.token(inst.s), VOCAB.token(inst.o)
        subj = (SHAPES[s_label], to_px(inst.b_s, size), _color_float(PALETTE[s_label]))
        obj = (SHAPES[o_label], to_px(inst.b_o, size), _color_float(PALETTE[o_label]))
        order = (obj, subj) if action == "riding" else (subj, obj)
        for shape, px_box, color in order:
            _fill_shape(img, shape, px_box, color)
    return img


# ---------------------------------------------------------------------------
# Oracle detector
# ---------------------------------------------------------------------------

_ENTITY_LABELS = list(PALETTE)
_ALL_COLORS = _color_float(
    [PALETTE[l] for l in _ENTITY_LABELS] + [STRIPE_COLOR, BACKGROUND_COLOR])

COLOR_TOL = 0.55  # max RGB distance (in [-1,1] space) to count a pixel pure
MIN_AREA = 4  # pixels in a component
MIN_CONFIDENCE = 0.35  # share of a component's pixels that are pure


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
# Dataset I/O
# ---------------------------------------------------------------------------


def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6 portable pixmap, 8-bit, from a float image in [-1, 1]."""
    _, h, w = img.shape
    bytes_img = np.clip(np.rint((img + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(bytes_img.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P6\n(\d+) (\d+)\n255\n", data)
    if header is None:
        raise DataError(f"{path}: not a binary 8-bit P6 pixmap with a 'width height' line")
    w, h = int(header[1]), int(header[2])
    raw = np.frombuffer(data[header.end() :][: w * h * 3], dtype=np.uint8)
    if raw.size != w * h * 3:
        raise DataError(f"{path}: truncated pixel payload")
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 127.5 - 1.0


def write_dataset(scenes: list[SceneSpec], path) -> None:
    """JSONL scene records plus a sibling images/ directory of P6 pixmaps."""
    path = os.fspath(path)
    img_dir = os.path.join(os.path.dirname(path) or ".", "images")
    os.makedirs(img_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, scene in enumerate(scenes):
            rel = f"images/{i:05d}.ppm"
            write_ppm(os.path.join(os.path.dirname(path) or ".", rel), render(scene))
            fh.write(json.dumps(scene.to_json_obj(rel), sort_keys=True) + "\n")


def scene_records(path, n_max=None):
    """Yield (line number, record, SceneSpec) for each non-blank line of a
    JSONL scene file; a malformed record, or one with more than `n_max`
    instances, raises DataError naming path:line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                scene = SceneSpec.from_json_obj(obj)
                if n_max is not None and len(scene.interactions) > n_max:
                    raise DataError(f"{len(scene.interactions)} instances exceed n_max={n_max}")
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON record") from exc
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, obj, scene


def read_dataset(path, n_max=None, image_size=None):
    """Yield (SceneSpec, image) pairs from a JSONL dataset.  Raises
    DataError naming path:line for a record `scene_records` rejects, a
    missing or malformed image, an image whose width or height is not the
    record's size, and a size other than `image_size`."""
    path = os.fspath(path)
    base = os.path.dirname(path) or "."
    for lineno, obj, scene in scene_records(path, n_max):
        image = obj.get("image")
        try:
            if not isinstance(image, str) or not os.path.exists(os.path.join(base, image)):
                raise DataError(f"missing image file {image}")
            pixels = read_ppm(os.path.join(base, image))
            if pixels.shape[1:] != (scene.image_size,) * 2:
                raise DataError(f"{image} is not {scene.image_size} px square, the record's size")
            if image_size not in (None, scene.image_size):
                raise DataError(f"size {scene.image_size} is not the model's image_size {image_size}")
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        yield scene, pixels
