"""End-to-end CLI tests on miniature configs."""

import json
import os
from dataclasses import fields

import numpy as np
import pytest

from interactdiff import diffusion
from interactdiff.cli import RunConfig, build_parser, load_run_config, main
from interactdiff.diffusion import InteractionDiffusionModel, ModelConfig, TrainConfig
from interactdiff.errors import CheckpointError, ConfigError
from interactdiff.numerics import ParameterStore, Tensor, load_checkpoint, save_checkpoint
from interactdiff.scenes import read_ppm


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
    assert cfg.train_scenes == 8000 and cfg.test_scenes == 1000


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("omega = 0.5\nsteps = 25  # comment\ngate_low_noise_end = true\n")
    cfg = load_run_config(path)
    assert cfg.omega == 0.5 and cfg.steps == 25 and cfg.gate_low_noise_end is True


def test_config_file_reaches_model_and_train_config(tmp_path):
    """Every RunConfig key that ModelConfig or TrainConfig also has reaches the
    built config; train_seed is TrainConfig.seed."""
    run_keys = {f.name for f in fields(RunConfig)}
    shared = [
        (cls, f.name, "train_seed" if (cls, f.name) == (TrainConfig, "seed") else f.name)
        for cls in (ModelConfig, TrainConfig)
        for f in fields(cls)
    ]
    shared = [entry for entry in shared if entry[2] in run_keys]
    assert len(shared) == 24
    defaults = RunConfig()
    values = {}
    for _, _, key in shared:
        default = getattr(defaults, key)
        if isinstance(default, str):
            values[key] = "float64" if default == "float32" else "float32"
        elif isinstance(default, int):
            values[key] = default + 1
        else:
            values[key] = default * 3
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    cfg = load_run_config(path)
    built = {ModelConfig: cfg.model_config(), TrainConfig: cfg.train_config()}
    for cls, name, key in shared:
        assert getattr(built[cls], name) == values[key] != getattr(defaults, key), key


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        load_run_config(path)


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("omega = 2.0\n")
    code = run(["gen-data", "--config", path, "--out", tmp_path / "d"])
    assert code == 2


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


def test_train_missing_dataset(tmp_path):
    code = run(["train", "--data", tmp_path / "nope", "--out", tmp_path / "r"])
    assert code == 3


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


def test_sample_corrupt_checkpoint(mini, tmp_path):
    bad = tmp_path / "bad.ckpt"
    data = bytearray((mini / "run" / "phase2_final.ckpt").read_bytes())
    data[:4] = b"XXXX"
    bad.write_bytes(bytes(data))
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


def test_eval_empty_test_set(tmp_path, mini):
    empty = tmp_path / "empty"
    assert run(["gen-data", "--out", empty, "--count", 0]) == 0
    code = run(["eval", "--ckpt", mini / "run" / "phase2_final.ckpt",
                "--data", empty, "--out", tmp_path / "o"])
    assert code == 3
