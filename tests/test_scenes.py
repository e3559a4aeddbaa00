"""Scene generator, renderer and dataset I/O tests."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interactdiff.errors import DataError
from interactdiff.geometry import between
from interactdiff.scenes import (
    ACTIONS,
    BACKGROUND_COLOR,
    OBJECTS,
    SUBJECTS,
    VOCAB,
    SceneConfig,
    SceneSpec,
    build_dataset,
    classify_action_px,
    generate_scene,
    rare_triplet_classes,
    read_dataset,
    read_ppm,
    render,
    to_px,
    write_dataset,
    write_ppm,
)

from oracles import SCENE_FAULTS, bounding_hull, corrupt_scene_record

BG = np.array(BACKGROUND_COLOR, dtype=np.float64) / 127.5 - 1.0


def test_vocabulary_layout():
    assert VOCAB.pad_id == 0
    assert len(SUBJECTS) == 4 and len(OBJECTS) == 6 and len(ACTIONS) == 5
    for tok in SUBJECTS + OBJECTS + ACTIONS + ["a", "and", "<pad>"]:
        assert VOCAB.token(VOCAB.id_of[tok]) == tok


def test_generate_scene_deterministic():
    a = generate_scene(123)
    b = generate_scene(123)
    assert a == b
    assert a != generate_scene(124)


def test_generated_scene_structure():
    for seed in range(50):
        scene = generate_scene(seed)
        assert 1 <= len(scene.interactions) <= SceneConfig().n_max
        for inst in scene.interactions:
            assert inst.s in VOCAB.subject_ids
            assert inst.a in VOCAB.action_ids
            assert inst.o in VOCAB.object_ids
            # stored action box always recomputes from the operands
            assert inst.b_a == between(inst.b_s, inst.b_o)
            # the sampled boxes satisfy the action's spatial predicate
            s_px, o_px = to_px(inst.b_s, 32), to_px(inst.b_o, 32)
            assert classify_action_px(s_px, o_px) == VOCAB.token(inst.a)
        assert scene.caption_ids == VOCAB.caption_ids(scene.interactions)


def test_riding_relation_geometry():
    """Riding: subject sits on top, overlapping the object horizontally."""
    found = 0
    for seed in range(400):
        scene = generate_scene(seed)
        for inst in scene.interactions:
            if VOCAB.token(inst.a) != "riding":
                continue
            found += 1
            assert inst.b_o.y_min < inst.b_s.y_max <= inst.b_o.y_max
            x_overlap = min(inst.b_s.x_max, inst.b_o.x_max) - max(
                inst.b_s.x_min, inst.b_o.x_min
            )
            assert x_overlap > 0
    assert found > 10


def test_single_instance_config():
    config = SceneConfig(n_max=1)
    for seed in range(20):
        assert len(generate_scene(seed, config).interactions) == 1


def test_render_empty_scene_is_background():
    scene = SceneSpec(image_size=32, interactions=[], caption_ids=[])
    img = render(scene)
    assert img.shape == (3, 32, 32)
    assert np.allclose(img, BG.reshape(3, 1, 1))


def test_render_pixels_confined_to_boxes():
    """Non-background pixels stay inside the entity boxes (the pulling
    connector stripe may additionally occupy the gap between the pair)."""
    for seed in range(30):
        scene = generate_scene(seed)
        img = render(scene)
        allowed = np.zeros((32, 32), dtype=bool)
        for inst in scene.interactions:
            for box in (inst.b_s, inst.b_o):
                x0, y0, x1, y1 = to_px(box, 32)
                allowed[y0:y1, x0:x1] = True
            if VOCAB.token(inst.a) == "pulling":
                hx0, hy0, hx1, hy1 = to_px(bounding_hull(inst.b_s, inst.b_o), 32)
                allowed[hy0:hy1, hx0:hx1] = True
        nonbg = ~np.all(np.isclose(img, BG.reshape(3, 1, 1)), axis=0)
        assert not np.any(nonbg & ~allowed)


def test_render_idempotent():
    scene = generate_scene(7)
    assert np.array_equal(render(scene), render(scene))


def test_ppm_round_trip(tmp_path):
    img = render(generate_scene(3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert np.array_equal(
        np.rint((img + 1.0) * 127.5), np.rint((back + 1.0) * 127.5)
    )


def test_dataset_round_trip(tmp_path):
    scenes = [generate_scene(seed) for seed in range(100)]
    path = tmp_path / "scenes.jsonl"
    write_dataset(scenes, path)
    pairs = list(read_dataset(path))
    assert len(pairs) == 100
    for scene, (back, img) in zip(scenes, pairs):
        assert back == scene
        assert np.array_equal(
            np.rint((img + 1.0) * 127.5), np.rint((render(scene) + 1.0) * 127.5)
        )


def test_read_dataset_empty_file(tmp_path):
    path = tmp_path / "scenes.jsonl"
    path.write_text("")
    assert list(read_dataset(path)) == []


def test_read_dataset_truncated_line(tmp_path):
    """A truncated or malformed second record, or one whose size is not its
    image's, raises DataError naming line 2."""
    path = tmp_path / "scenes.jsonl"
    good = generate_scene(0).to_json_obj("images/00000.ppm")
    import json

    (tmp_path / "images").mkdir()
    write_ppm(tmp_path / "images" / "00000.ppm", render(generate_scene(0)))
    bad_lines = [json.dumps(good)[: len(json.dumps(good)) // 2]]
    bad_lines += [json.dumps(corrupt_scene_record(good, fault)) for fault in SCENE_FAULTS]
    bad_lines.append(json.dumps(dict(good, size=36)))  # the image is 32 px
    for bad in bad_lines:
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        with pytest.raises(DataError) as err:
            list(read_dataset(path))
        assert str(err.value).startswith(f"{path}:2: "), bad


def test_read_dataset_missing_image(tmp_path):
    path = tmp_path / "scenes.jsonl"
    import json

    path.write_text(json.dumps(generate_scene(0).to_json_obj("images/00000.ppm")) + "\n")
    with pytest.raises((DataError, OSError)):
        list(read_dataset(path))


def test_dataset_class_balance():
    scenes = build_dataset(1500, seed=5)
    freq: collections.Counter = collections.Counter()
    for scene in scenes:
        for inst in scene.interactions:
            freq[(inst.s, inst.a, inst.o)] += 1
    rare = rare_triplet_classes()
    assert len(rare) == 24
    common = {c: n for c, n in freq.items() if c not in rare}
    mean = np.mean(list(common.values()))
    for c, n in common.items():
        assert abs(n - mean) <= 0.2 * mean + 1
    for c in rare:
        assert freq[c] <= 10  # "rare" = fewer than 10 training occurrences


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_scene_boxes_and_captions_valid(seed):
    scene = generate_scene(seed)
    for inst in scene.interactions:
        for box in (inst.b_s, inst.b_a, inst.b_o):
            assert 0.0 <= box.x_min <= box.x_max <= 1.0
            assert 0.0 <= box.y_min <= box.y_max <= 1.0
    assert all(0 <= t < len(VOCAB) for t in scene.caption_ids)
