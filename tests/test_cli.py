"""End-to-end CLI tests on miniature configs."""

import hashlib
import json
import os
import re
import shutil
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from interactdiff import cli, diffusion, evaluation, scenes
from interactdiff import numerics as N
from interactdiff.cli import RunConfig, build_parser, load_run_config, main
from interactdiff.diffusion import InteractionDiffusionModel, ModelConfig, TrainConfig
from interactdiff.errors import CheckpointError, ConfigError
from interactdiff.numerics import ParameterStore, Tensor, load_checkpoint, save_checkpoint
from interactdiff.scenes import (
    SceneConfig,
    SceneSpec,
    build_dataset,
    read_ppm,
    write_dataset,
    write_ppm,
)

from oracles import (
    CHECKPOINT_FAULTS,
    SCENE_FAULTS,
    corrupt_checkpoint,
    corrupt_scene_record,
    live_phase2_checkpoint,
)


REF_CFG = Path(__file__).parent / "reference_run" / "run.cfg"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """Shared tiny dataset + two-phase checkpoint."""
    root = tmp_path_factory.mktemp("mini")
    cfg = root / "tiny.cfg"
    cfg.write_text(
        "steps_phase1 = 4\n"
        "steps_phase2 = 4\n"
        "batch_size = 2\n"
        "save_every = 0\n"
        "log_every = 1\n"
        "steps = 4\n"
        "eval_batch = 8\n"
        "dtype = float64\n"
    )
    assert run(["gen-data", "--out", root / "data", "--count", 12, "--seed", 3]) == 0
    assert run(["train", "--config", cfg, "--data", root / "data",
                "--out", root / "run", "--phase", "both"]) == 0
    return root


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.omega == 0.8
    assert cfg.steps == 50
    assert cfg.train_scenes == 8000


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("omega = 0.5\nsteps = 25  # comment\n")
    cfg = load_run_config(path)
    assert cfg.omega == 0.5 and cfg.steps == 25


def test_config_file_reaches_model_and_train_config(tmp_path):
    """Every key of ModelConfig, TrainConfig and SceneConfig set in a config
    file reaches the plain part config that RunConfig builds."""
    parts = {ModelConfig: RunConfig.model_config, TrainConfig: RunConfig.train_config,
             SceneConfig: RunConfig.scene_config}
    keys = sorted({f.name for cls in parts for f in fields(cls)})
    assert len(keys) == 22
    defaults = RunConfig()
    # default + 1 would be rejected (d_tok 80 takes n_heads 5 and 8 GroupNorm
    # groups, base_channels 20 its 5 groups)
    accepted = {"image_size": 36, "n_max": 3, "time_dim": 66, "base_channels": 20, "d_tok": 80}
    values = {}
    for key in keys:
        default = getattr(defaults, key)
        if key in accepted:
            values[key] = accepted[key]
        elif isinstance(default, int):
            values[key] = default + 1
        else:
            values[key] = default * 3
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    cfg = load_run_config(path)
    for cls, part in parts.items():
        built = part(cfg)
        assert type(built) is cls
        for f in fields(cls):
            assert getattr(built, f.name) == values[f.name] != getattr(defaults, f.name), f.name


def test_readme_config_table_matches_run_config():
    """README's config table lists exactly the RunConfig keys, each with its
    default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys and defaults", 1)[1]
    table = section.split("\n\n")[1]
    listed = re.findall(r"\| `(\w+)` \| ([^|]+?) \|", table)
    defaults = RunConfig().to_dict()
    assert sorted(key for key, _ in listed) == sorted(defaults)
    for key, text in listed:
        assert type(defaults[key])(text) == defaults[key], key


def test_reference_init_and_scene_bytes_pinned(tmp_path):
    """Fresh float32 parameters at the reference config and the bytes of a
    generated scene set, as the committed reference artifacts rest on them."""
    cfg = load_run_config(REF_CFG)
    with N.dtype_mode("float32"):
        model = InteractionDiffusionModel(cfg.model_config())
    write_dataset(build_dataset(50, 0, cfg.scene_config()), tmp_path / "scenes.jsonl")
    digest = hashlib.sha256((tmp_path / "scenes.jsonl").read_bytes()).hexdigest()
    # these change only with a deliberate regeneration of the reference artifacts
    assert model.store.state_hash() == 17060391145670425143
    assert digest == "afc02834ce5835215ea6f24a919c7d35ba0c36859e1b46dd178bea78eda16382"


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        load_run_config(path)
    # an override is checked against the same key table: a method is no key
    with pytest.raises(ConfigError, match="model_config"):
        load_run_config(None, {"model_config": 1})


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("omega = 2.0\n")
    code = run(["gen-data", "--config", path, "--out", tmp_path / "d"])
    assert code == 2
    # values that would fail later with a traceback (a zero step, batch or
    # layer width, no region layout for n_max instances, no room for a holding
    # pair or a second downsample, a negative seed, an odd time_dim, no box
    # frequency) or be silently misread (a negative save_every checkpoints
    # every step, a negative step count trains nothing, a zero d_text embeds
    # no label, a caption_dropout above 1 drops every caption, a negative lr
    # ascends the loss, a beta_start above beta_end runs a falling-beta
    # schedule) are rejected at load, naming the key; so are the layer shapes
    # and betas the model cannot build
    for key, value in (("log_every", 0), ("eval_batch", 0), ("eval_count", 0), ("n_max", 0),
                       ("n_max", 5), ("image_size", 24), ("image_size", 30),
                       ("caption_len", 0), ("n_heads", 0), ("base_channels", 0), ("d_tok", 0),
                       ("save_every", -1), ("data_seed", -1), ("init_seed", -1),
                       ("train_seed", -1), ("sample_seed", -1), ("steps_phase1", -3),
                       ("steps_phase2", -1), ("warmup_steps", -1), ("time_dim", 63),
                       ("time_dim", 0), ("n_freqs", 0), ("d_text", 0), ("caption_dropout", 2.0),
                       ("caption_dropout", -0.1), ("lr", -1), ("lr", 0),
                       ("beta_start", 0.05), ("beta_start", 0), ("beta_start", -1e-4),
                       ("beta_end", 1.0), ("beta_end", 1.5), ("beta_end", 0.99),
                       ("n_heads", 3), ("base_channels", 9), ("d_tok", 60)):
        path.write_text(f"{key} = {value}\n")
        capsys.readouterr()
        code = run(["gen-data", "--config", path, "--out", tmp_path / "d", "--count", 2])
        assert code == 2 and key in capsys.readouterr().err, (key, value)
        assert not (tmp_path / "d").exists(), (key, value)
    # a negative scene count, or a sample count below one, is rejected before
    # anything is read or written
    for argv in (["gen-data", "--count", -3],
                 ["sample", "--ckpt", tmp_path / "c.ckpt", "--scene-json", tmp_path / "s.jsonl",
                  "--count", 0],
                 ["sample", "--ckpt", tmp_path / "c.ckpt", "--scene-json", tmp_path / "s.jsonl",
                  "--count", -2]):
        capsys.readouterr()
        code = run(argv + ["--out", tmp_path / "o"])
        assert code == 2 and "--count" in capsys.readouterr().err, argv
        assert not (tmp_path / "o").exists(), argv
    # layer shapes the model cannot build: 30 channels do not split into
    # GroupNorm's 7 groups, d_tok 64 does not split into 5 attention heads
    assert run(["gen-data", "--out", tmp_path / "data", "--count", 2]) == 0
    for bad in ("base_channels = 30\n", "n_heads = 5\n"):
        path.write_text(bad)
        code = run(["train", "--config", path, "--data", tmp_path / "data",
                    "--out", tmp_path / "run"])
        assert code == 2, bad
    # an eval over no image is rejected before anything is written
    capsys.readouterr()
    assert run(["eval", "--use-renders", "--data", tmp_path / "data", "--count", 0,
                "--out", tmp_path / "o"]) == 2
    assert "eval_count" in capsys.readouterr().err and not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run(["gen-data", "--out", tmp_path / sub, "--count", 10, "--seed", 5]) == 0
    a = (tmp_path / "a" / "scenes.jsonl").read_bytes()
    b = (tmp_path / "b" / "scenes.jsonl").read_bytes()
    assert a == b


def test_gen_data_count_zero(tmp_path):
    assert run(["gen-data", "--out", tmp_path / "empty", "--count", 0]) == 0
    assert (tmp_path / "empty" / "scenes.jsonl").read_text() == ""


def test_gen_data_writes_config_echo(tmp_path):
    assert run(["gen-data", "--out", tmp_path / "d", "--count", 3, "--seed", 1]) == 0
    echo = json.loads((tmp_path / "d" / "run_config.json").read_text())
    assert echo["schema_version"] == 1
    assert echo["config"]["data_seed"] == 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_outputs(mini):
    assert (mini / "run" / "phase1_final.ckpt").exists()
    assert (mini / "run" / "phase2_final.ckpt").exists()
    lines = (mini / "run" / "metrics_phase1.csv").read_text().strip().splitlines()
    assert lines[0] == "step,phase,loss,lr"
    steps = [int(r.split(",")[0]) for r in lines[1:]]
    assert steps == sorted(steps)


def test_train_phase2_without_base(tmp_path, mini):
    code = run(["train", "--data", mini / "data", "--out", tmp_path / "r", "--phase", "2"])
    assert code == 3


def test_resume_after_interruption_matches_uninterrupted(mini, tmp_path, monkeypatch):
    cfg = tmp_path / "resume.cfg"
    cfg.write_text((mini / "tiny.cfg").read_text() + "save_every = 2\n")
    train = ["train", "--config", cfg, "--data", mini / "data"]
    assert run(train + ["--out", tmp_path / "full"]) == 0

    class Interrupted(Exception):
        pass

    calls = []
    loss_step = diffusion.loss_step

    def interrupted_at_phase1_step4(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise Interrupted
        return loss_step(*args, **kwargs)

    monkeypatch.setattr(diffusion, "loss_step", interrupted_at_phase1_step4)
    with pytest.raises(Interrupted):
        run(train + ["--out", tmp_path / "cut"])
    monkeypatch.undo()
    cut = tmp_path / "cut"
    # step 3 was logged after the step-2 checkpoint the run resumes from
    assert (cut / "metrics_phase1.csv").read_text().splitlines()[-1].startswith("3,")
    assert run(train + ["--out", cut, "--resume", cut / "phase1_step000002.ckpt"]) == 0
    for name in ("metrics_phase1.csv", "metrics_phase2.csv"):
        assert (cut / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
    resumed, _ = load_checkpoint(cut / "phase2_final.ckpt")
    full, _ = load_checkpoint(tmp_path / "full" / "phase2_final.ckpt")
    assert resumed.state_hash() == full.state_hash()


def test_resume_rejects_another_phase(mini, tmp_path):
    """`--resume` with `--phase 1` or `--phase 2` resumes only a checkpoint of
    that phase; any other is rejected before anything is written."""
    for phase, ckpt in (("2", "phase1_final.ckpt"), ("1", "phase2_final.ckpt")):
        out = tmp_path / f"p{phase}"
        code = run(["train", "--config", mini / "tiny.cfg", "--data", mini / "data",
                    "--out", out, "--phase", phase, "--resume", mini / "run" / ckpt])
        assert code == 2 and not out.exists(), (phase, ckpt)


def test_train_missing_dataset(tmp_path):
    code = run(["train", "--data", tmp_path / "nope", "--out", tmp_path / "r"])
    assert code == 3


@pytest.mark.parametrize("key, lowest", [("time_dim", 2), ("n_freqs", 1), ("d_text", 1),
                                         ("caption_len", 1), ("n_heads", 1),
                                         ("base_channels", 1)])
def test_lowest_accepted_width_trains(mini, tmp_path, key, lowest):
    """The lowest value the config check accepts for a width trains a step of
    each phase: a value it lets through does not fail later."""
    values = {"base_channels": 4, "d_tok": 8, "n_heads": 2, "time_dim": 8, "caption_len": 4,
              "d_text": 8, "n_freqs": 2, "batch_size": 2, "steps_phase1": 1,
              "steps_phase2": 1, "save_every": 0, "log_every": 1, key: lowest}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert run(["train", "--config", cfg, "--data", mini / "data", "--out", tmp_path / "r"]) == 0
    model, meta = InteractionDiffusionModel.load(tmp_path / "r" / "phase2_final.ckpt")
    assert getattr(model.config, key) == lowest and meta["step"] == 1


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_outputs_and_determinism(mini, tmp_path):
    cfg = mini / "tiny.cfg"
    ckpt = mini / "run" / "phase2_final.ckpt"
    scenes = mini / "data" / "scenes.jsonl"
    for sub in ("s1", "s2"):
        assert run(["sample", "--config", cfg, "--ckpt", ckpt, "--scene-json", scenes,
                    "--count", 2, "--seed", 9, "--out", tmp_path / sub]) == 0
    a = (tmp_path / "s1" / "sample_00000.ppm").read_bytes()
    b = (tmp_path / "s2" / "sample_00000.ppm").read_bytes()
    assert a == b
    sidecar = json.loads((tmp_path / "s1" / "sample_00000.json").read_text())
    assert sidecar["omega"] == 0.8  # default from supplied config
    assert sidecar["interactions"]


def test_sample_sidecar_regenerates_its_image(mini, tmp_path):
    """The sidecar holds the seed of the batch an image was drawn in and its
    index there; sampling that condition alone with that seed gives the same
    image."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text((mini / "tiny.cfg").read_text() + "eval_batch = 2\n")
    ckpt = mini / "run" / "phase2_final.ckpt"
    scenes = mini / "data" / "scenes.jsonl"
    assert run(["sample", "--config", cfg, "--ckpt", ckpt, "--scene-json", scenes,
                "--count", 3, "--seed", 9, "--out", tmp_path / "s"]) == 0
    sidecar = json.loads((tmp_path / "s" / "sample_00002.json").read_text())
    assert sidecar["seed"] == 9 + 2 and sidecar["batch_index"] == 0
    spec = SceneSpec.from_json_obj(sidecar)
    model, _ = InteractionDiffusionModel.load(ckpt)
    img = diffusion.sample(model, [list(spec.caption_ids)], [list(spec.interactions)],
                           steps=sidecar["steps"], omega=sidecar["omega"],
                           seed=sidecar["seed"])[0]
    write_ppm(tmp_path / "again.ppm", img)
    again = (tmp_path / "again.ppm").read_bytes()
    assert again == (tmp_path / "s" / "sample_00002.ppm").read_bytes()
    # a sidecar records its image's size, also when the model's image_size
    # (8 px here) is not the condition's (32 px)
    small = live_phase2_checkpoint(tmp_path / "p2.ckpt", ModelConfig(
        image_size=8, base_channels=8, caption_len=12, init_seed=3))
    assert run(["sample", "--config", cfg, "--ckpt", small, "--scene-json", scenes,
                "--count", 1, "--out", tmp_path / "small"]) == 0
    for sub, side in (("s", 32), ("small", 8)):
        sidecar = json.loads((tmp_path / sub / "sample_00000.json").read_text())
        assert read_ppm(tmp_path / sub / "sample_00000.ppm").shape == (3, side, side)
        assert sidecar["size"] == side, sub


def test_sample_omega_zero_matches_base_checkpoint(mini, tmp_path):
    """After phase 2 the base weights are frozen, so omega = 0 sampling from
    the full checkpoint is bitwise the phase-1 model's output."""
    cfg = mini / "tiny.cfg"
    scenes = mini / "data" / "scenes.jsonl"
    for sub, ckpt in (("full", "phase2_final.ckpt"), ("base", "phase1_final.ckpt")):
        assert run(["sample", "--config", cfg, "--ckpt", mini / "run" / ckpt,
                    "--scene-json", scenes, "--count", 2, "--seed", 4,
                    "--omega", 0.0, "--out", tmp_path / sub]) == 0
    a = (tmp_path / "full" / "sample_00000.ppm").read_bytes()
    b = (tmp_path / "base" / "sample_00000.ppm").read_bytes()
    assert a == b


@pytest.mark.parametrize("fault", CHECKPOINT_FAULTS)
def test_sample_corrupt_checkpoint(mini, tmp_path, fault):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt_checkpoint((mini / "run" / "phase2_final.ckpt").read_bytes(), fault))
    code = run(["sample", "--ckpt", bad, "--scene-json", mini / "data" / "scenes.jsonl",
                "--out", tmp_path / "o"])
    assert code == 3


@pytest.mark.parametrize("fault,culprit", [
    ("missing", "base.conv_out.b"), ("extra", "inter.unused"), ("shape", "base.conv_out.b"),
])
def test_mismatched_checkpoint_rejected(mini, tmp_path, fault, culprit):
    store, meta = load_checkpoint(mini / "run" / "phase2_final.ckpt")
    bad = ParameterStore()
    for name, t in store.items():
        if name == "base.conv_out.b" and fault != "extra":
            if fault == "missing":
                continue
            t = Tensor(np.zeros(t.shape[0] + 1))
        bad.add(name, t)
    if fault == "extra":
        bad.add("inter.unused", Tensor(np.zeros(2)))
    path = tmp_path / "bad.ckpt"
    save_checkpoint(bad, path, meta=meta)
    with pytest.raises(CheckpointError, match=culprit):
        InteractionDiffusionModel.load(path)
    code = run(["sample", "--ckpt", path, "--scene-json", mini / "data" / "scenes.jsonl",
                "--out", tmp_path / "o"])
    assert code == 3


# checkpoint metadata whose model config is absent, malformed, or one the
# model cannot be built from (beta_start above the default beta_end)
MODEL_META_FAULTS = {
    "missing": lambda meta: {},
    "unknown-field": lambda meta: dict(meta, model={"no_such_field": 1}),
    "not-a-mapping": lambda meta: dict(meta, model=[16]),
    "unbuildable": lambda meta: dict(meta, model=dict(meta["model"], beta_start=0.05)),
}


@pytest.mark.parametrize("fault", MODEL_META_FAULTS)
def test_checkpoint_without_valid_model_config_rejected(mini, tmp_path, capsys, fault):
    store, meta = load_checkpoint(mini / "run" / "phase2_final.ckpt")
    path = tmp_path / "bad.ckpt"
    save_checkpoint(store, path, meta=MODEL_META_FAULTS[fault](meta))
    with pytest.raises(CheckpointError, match="model config"):
        InteractionDiffusionModel.load(path)
    capsys.readouterr()
    code = run(["sample", "--ckpt", path, "--scene-json", mini / "data" / "scenes.jsonl",
                "--out", tmp_path / "o"])
    assert code == 3
    assert str(path) in capsys.readouterr().err


def test_nonfinite_samples_exit_4(mini, tmp_path):
    store, meta = load_checkpoint(mini / "run" / "phase2_final.ckpt")
    store["base.conv_out.b"].data[...] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(store, path, meta=meta)
    cfg = mini / "tiny.cfg"
    assert run(["sample", "--config", cfg, "--ckpt", path, "--count", 2,
                "--scene-json", mini / "data" / "scenes.jsonl", "--out", tmp_path / "s"]) == 4
    assert run(["eval", "--config", cfg, "--ckpt", path, "--data", mini / "data",
                "--count", 2, "--omega-sweep", "0", "--out", tmp_path / "e"]) == 4


def test_cli_flag_defaults():
    parser = build_parser()
    args = parser.parse_args(["sample", "--ckpt", "x", "--scene-json", "y", "--out", "z"])
    # flags default to None -> resolved from RunConfig (omega 0.8, steps 50)
    assert args.omega is None and args.steps is None
    cfg = load_run_config(None, {"omega": args.omega, "steps": args.steps})
    assert cfg.omega == 0.8 and cfg.steps == 50


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_ground_truth_renders(mini, tmp_path):
    out = tmp_path / "gt"
    assert run(["eval", "--config", mini / "tiny.cfg", "--data", mini / "data",
                "--use-renders", "--count", 12, "--out", out]) == 0
    report = json.loads((out / "report_renders.json").read_text())
    assert report["map_full"] == 1.0


def test_eval_sweep_rows(mini, tmp_path):
    out = tmp_path / "sweep"
    assert run(["eval", "--config", mini / "tiny.cfg",
                "--ckpt", mini / "run" / "phase2_final.ckpt",
                "--data", mini / "data", "--count", 4,
                "--omega-sweep", "0,0.5,1", "--out", out]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,map_full,map_rare,kid"
    assert len(lines) == 4
    for w in ("0.00", "0.50", "1.00"):
        assert (out / f"report_omega{w}.json").exists()


@pytest.mark.parametrize("grid", [",", "0.5,0.5", "0.5,0.501", "abc", "1.5", None],
                         ids=["empty", "repeated", "same-tag", "not-a-number", "above-1",
                              "no-ckpt"])
def test_eval_rejects_sweep_that_writes_nothing_or_overwrites(mini, tmp_path, capsys, grid):
    """A report is named by its omega at two decimals: a sweep with no omega,
    with two omegas of one name or with one that is no omega in [0, 1] is a
    config error, found before the run reads data or writes anything.  So is
    an eval with neither a checkpoint to sample (grid None) nor --use-renders."""
    out = tmp_path / "sweep"
    model = [] if grid is None else ["--ckpt", mini / "run" / "phase2_final.ckpt",
                                     "--omega-sweep", grid]
    assert run(["eval", "--config", mini / "tiny.cfg", *model, "--data", mini / "data",
                "--count", 2, "--out", out]) == 2
    assert ("--ckpt" if grid is None else "--omega-sweep") in capsys.readouterr().err
    assert not out.exists()


def test_eval_sweep_shares_gated_steps_and_equals_independent_sampling(mini, tmp_path,
                                                                       monkeypatch):
    """Each batch runs its gated steps once, for the largest omega, and each
    omega's ungated tail from there; every scored image is bitwise the one
    `sample` draws for its omega alone.  The grid is out of order and the
    last batch is short."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("steps = 4\neval_batch = 2\nsample_seed = 5\ndtype = float64\n")
    tiny = ModelConfig(image_size=8, base_channels=8, caption_len=12, init_seed=3)
    ckpt = live_phase2_checkpoint(tmp_path / "p2.ckpt", tiny)
    scored, calls = [], []
    evaluate, forward = cli.evaluate_images, InteractionDiffusionModel.forward

    def counting_forward(self, z_t, t, caption_ids, interactions=None, eta=1):
        calls.append((len(z_t), "gated" if eta == 1 and interactions else "ungated"))
        return forward(self, z_t, t, caption_ids, interactions, eta)

    monkeypatch.setattr(cli, "evaluate_images",
                        lambda images, *a, **k: scored.append(images) or evaluate(images, *a, **k))
    monkeypatch.setattr(InteractionDiffusionModel, "forward", counting_forward)
    omegas = (1.0, 0.0, 0.5)
    assert run(["eval", "--config", cfg, "--ckpt", ckpt, "--data", mini / "data", "--count", 3,
                "--omega-sweep", ",".join(map(str, omegas)), "--out", tmp_path / "out"]) == 0
    monkeypatch.undo()
    # per batch: max n = 4 gated steps and sum(T - n) = 0 + 4 + 2 ungated
    assert sorted(Counter(calls).items()) == [((1, "gated"), 4), ((1, "ungated"), 6),
                                              ((2, "gated"), 4), ((2, "ungated"), 6)]
    model, _ = InteractionDiffusionModel.load(ckpt)
    specs = [spec for spec, _ in cli._load_pairs(mini / "data")[:3]]
    for omega, images in zip(omegas, scored, strict=True):
        alone = []
        for lo in (0, 2):
            chunk = specs[lo : lo + 2]
            alone.extend(diffusion.sample(model, [list(s.caption_ids) for s in chunk],
                                          [list(s.interactions) for s in chunk],
                                          steps=4, omega=omega, seed=5 + lo))
        assert len(images) == 3
        assert all(np.array_equal(a, b) for a, b in zip(images, alone)), omega
    assert not np.array_equal(scored[0][0], scored[2][0])  # the gate changes the images


def test_eval_detects_each_real_image_once(mini, tmp_path, monkeypatch):
    """A 3-omega sweep over 100 conditions scores each real image once, and
    `eval --use-renders` over them scores each render once: every scored
    image costs one `detect` call and one nearest-palette pass.  The sweep's
    reports equal ones whose real-image features are detected afresh for
    every omega.  The sampler is replaced by negated renders, so generated
    and real images differ and the test needs no denoising."""
    data = tmp_path / "data"
    assert run(["gen-data", "--out", data, "--count", 100, "--seed", 4]) == 0
    pairs = cli._load_pairs(data)
    real = {img.tobytes() for _, img in pairs}
    monkeypatch.setattr(cli, "_sample_batched", lambda model, specs, cfg, omegas, seed:
                        ([[-img for _, img in pairs] for _ in omegas], None))
    seen, palette = [], []
    detect, distances = scenes.detect, scenes._palette_distances

    def counting_detect(img):
        seen.append(img.tobytes())
        return detect(img)

    monkeypatch.setattr(cli, "detect", counting_detect)
    monkeypatch.setattr(scenes, "_palette_distances",
                        lambda img: palette.append(None) or distances(img))
    out = tmp_path / "out"
    assert run(["eval", "--config", mini / "tiny.cfg", "--ckpt", mini / "run" / "phase2_final.ckpt",
                "--data", data, "--count", 100, "--omega-sweep", "0,0.5,1", "--out", out]) == 0
    assert sorted(b for b in seen if b in real) == sorted(real)
    assert len(seen) == len(palette) == (3 + 1) * 100
    seen.clear()
    palette.clear()
    assert run(["eval", "--use-renders", "--data", data, "--count", 100,
                "--out", tmp_path / "renders"]) == 0
    assert sorted(seen) == sorted(real) and len(palette) == 100
    # both sides of the renders' KID are the same feature set
    assert json.loads((tmp_path / "renders" / "report_renders.json").read_text())["kid"] == 0.0
    monkeypatch.undo()

    gts = [list(spec.interactions) for spec, _ in pairs]
    feats_real = np.stack([scenes.detect(img)[1] for _, img in pairs])
    images = [-img for _, img in pairs]
    dets, feats_gen = zip(*(scenes.detect(img) for img in images))
    for omega in (0.0, 0.5, 1.0):
        report = evaluation.detection_map(list(dets), gts)
        report.kid, report.kid_stderr = evaluation.kid_analog(feats_real, np.stack(feats_gen))
        report.config_echo.update(load_run_config(mini / "tiny.cfg", {"eval_count": 100}).to_dict())
        report.config_echo["omega"] = omega
        assert report.kid is not None
        assert (out / f"report_omega{omega:.2f}.json").read_text() == report.to_json() + "\n"


@pytest.mark.parametrize("fault", SCENE_FAULTS + ("ppm-header",))
def test_malformed_scene_record_exits_3(mini, tmp_path, capsys, fault):
    """Every command that reads a scene record rejects a malformed one, and
    every command that reads its image one whose PPM header is malformed,
    with exit 3, naming the file and line."""
    data = tmp_path / "data"
    shutil.copytree(mini / "data", data)
    path = data / "scenes.jsonl"
    lines = path.read_text().splitlines()
    ckpt = mini / "run" / "phase2_final.ckpt"
    commands = [["train", "--config", mini / "tiny.cfg", "--data", data],
                ["eval", "--ckpt", ckpt, "--data", data],
                ["eval", "--use-renders", "--data", data],
                ["sample", "--ckpt", ckpt, "--scene-json", path]]
    if fault == "ppm-header":
        (data / json.loads(lines[1])["image"]).write_bytes(b"P6\nabc\n255\n")
        commands.pop()  # sample reads no image
    else:
        lines[1] = json.dumps(corrupt_scene_record(json.loads(lines[1]), fault))
        path.write_text("\n".join(lines) + "\n")
    for argv in commands:
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "o"]) == 3, argv
        assert f"{path}:2: " in capsys.readouterr().err, argv


@pytest.mark.parametrize("command", ["train", "eval", "sample"])
def test_record_over_n_max_exits_3(mini, tmp_path, capsys, command):
    """A record with more instances than the model's n_max (4) is a data
    error naming the file and line, not a failure inside the model."""
    data = tmp_path / "data"
    shutil.copytree(mini / "data", data)
    path = data / "scenes.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["interactions"] = record["interactions"][:1] * 5
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    ckpt = mini / "run" / "phase2_final.ckpt"
    argv = {"train": ["train", "--config", mini / "tiny.cfg", "--data", data],
            "eval": ["eval", "--ckpt", ckpt, "--data", data],
            "sample": ["sample", "--ckpt", ckpt, "--scene-json", path]}[command]
    assert run(argv + ["--out", tmp_path / "o"]) == 3
    assert f"{path}:2: 5 instances exceed n_max=4" in capsys.readouterr().err


def test_train_rejects_dataset_of_another_image_size(mini, tmp_path, capsys):
    """A dataset whose scenes are not the model's image_size is a data error
    naming the first such line, before any training step."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text((mini / "tiny.cfg").read_text() + "image_size = 36\n")
    assert run(["train", "--config", cfg, "--data", mini / "data", "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert f"{mini / 'data' / 'scenes.jsonl'}:1: " in err and "image_size 36" in err
    assert not (tmp_path / "o").exists()


def test_eval_empty_test_set(tmp_path, mini):
    empty = tmp_path / "empty"
    assert run(["gen-data", "--out", empty, "--count", 0]) == 0
    code = run(["eval", "--ckpt", mini / "run" / "phase2_final.ckpt",
                "--data", empty, "--out", tmp_path / "o"])
    assert code == 3
