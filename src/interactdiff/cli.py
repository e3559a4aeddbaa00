"""Command-line entry points: dataset generation, two-phase training,
sampling, and evaluation, all reproducible from a flat key-value config.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .diffusion import (
    InteractionDiffusionModel,
    ModelConfig,
    NoiseSchedule,
    TrainConfig,
    sample,
    train_phase,
)
from .errors import ConfigError, ContractError, DataError, InteractDiffError, NumericError
from . import numerics as N
from .evaluation import KID_MIN_SAMPLES, detection_map, kid_analog
from .layers import norm_groups
from .scenes import (
    VOCAB,
    SceneConfig,
    build_dataset,
    detect,
    read_dataset,
    scene_records,
    write_dataset,
    write_ppm,
)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


@dataclass
class RunConfig(ModelConfig, TrainConfig):
    """Every tunable in one flat, typed namespace: the fields of ModelConfig
    (and its SceneConfig) and TrainConfig, and the run's own below.

    Values come from defaults, then a `key = value` config file, then CLI
    flags, in increasing priority. Unknown keys are rejected.
    """

    # dataset
    train_scenes: int = 8000
    data_seed: int = 0
    # training and sampling precision
    dtype: str = "float32"
    # sampling
    omega: float = 0.8
    steps: int = 50
    sample_seed: int = 0
    # evaluation
    eval_count: int = 500
    eval_batch: int = 50

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _part(self, cls):
        """A plain `cls`, one of RunConfig's bases, with this run's values."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._part(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._part(TrainConfig)

    def scene_config(self) -> SceneConfig:
        return self._part(SceneConfig)


def _parse_value(raw: str, typ):
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {typ.__name__}") from exc


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file <- explicit overrides."""
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    typemap = {"int": int, "float": float, "str": str}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in types:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                setattr(cfg, key, _parse_value(raw, typemap[types[key]]))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not 0.0 <= cfg.omega <= 1.0:
        raise ConfigError(f"omega must be in [0,1], got {cfg.omega}")
    if cfg.steps < 1 or cfg.steps > cfg.t_train:
        raise ConfigError(f"steps must be in 1..{cfg.t_train}, got {cfg.steps}")
    if cfg.dtype not in ("float32", "float64"):
        raise ConfigError(f"dtype must be float32 or float64, got {cfg.dtype!r}")
    for name in ("batch_size", "log_every", "eval_batch", "eval_count",
                 "base_channels", "d_tok", "n_heads", "caption_len", "d_text", "n_freqs"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    # save_every = 0: no step checkpoints
    for name in ("train_scenes", "save_every", "steps_phase1", "steps_phase2", "warmup_steps",
                 "data_seed", "init_seed", "train_seed", "sample_seed"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    if cfg.time_dim < 2 or cfg.time_dim % 2:  # a sin half and a cos half
        raise ConfigError(f"time_dim must be even and >= 2, got {cfg.time_dim}")
    if not 0.0 <= cfg.caption_dropout <= 1.0:
        raise ConfigError(f"caption_dropout must be in [0,1], got {cfg.caption_dropout}")
    if not cfg.lr > 0.0:
        raise ConfigError(f"lr must be > 0, got {cfg.lr}")
    if not 1 <= cfg.n_max <= 4:  # the instance counts scenes._regions lays out
        raise ConfigError(f"n_max must be in 1..4, got {cfg.n_max}")
    # two stride-2 downsamples; a holding subject (>= 10 px) must fit a
    # quadrant size // 2 - 4 px wide
    if cfg.image_size % 4 or cfg.image_size < 28:
        raise ConfigError(f"image_size must be a multiple of 4 and >= 28, got {cfg.image_size}")
    if cfg.d_tok % cfg.n_heads:
        raise ConfigError(f"n_heads must divide d_tok {cfg.d_tok}, got {cfg.n_heads}")
    # the model's own checks, with the keys they read named
    for keys, check in (("base_channels", lambda: norm_groups(cfg.base_channels)),
                        ("d_tok", lambda: norm_groups(cfg.d_tok)),
                        ("beta_start, beta_end",
                         lambda: NoiseSchedule(cfg.t_train, cfg.beta_start, cfg.beta_end))):
        try:
            check()
        except ContractError as exc:
            raise ConfigError(f"{keys}: {exc}") from exc


def _write_config_echo(cfg: RunConfig, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run_config.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": cfg.to_dict()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_against(ckpt, part, saved: dict) -> None:
    """Raise ConfigError naming each key whose value in `part`, a ModelConfig
    or TrainConfig of this run, differs from the one checkpoint `ckpt`
    recorded in `saved`."""
    bad = [f"{key} = {value} (checkpoint: {saved[key]})"
           for key, value in asdict(part).items() if key in saved and saved[key] != value]
    if bad:
        raise ConfigError(f"the config differs from {ckpt}: " + ", ".join(bad))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config, {"data_seed": args.seed})
    if args.count is not None and args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    count = args.count if args.count is not None else cfg.train_scenes
    scenes = build_dataset(count, cfg.data_seed, cfg.scene_config())
    os.makedirs(args.out, exist_ok=True)
    write_dataset(scenes, os.path.join(args.out, "scenes.jsonl"))
    _write_config_echo(cfg, args.out)
    freq: dict = {}
    for scene in scenes:
        for inst in scene.interactions:
            key = (VOCAB.token(inst.s), VOCAB.token(inst.a), VOCAB.token(inst.o))
            freq[key] = freq.get(key, 0) + 1
    print(f"wrote {len(scenes)} scenes to {args.out} ({len(freq)} triplet classes)")
    for key in sorted(freq):
        print(f"  {' '.join(key)}: {freq[key]}")
    return 0


def _load_pairs(data_dir, n_max=None, image_size=None):
    path = os.path.join(data_dir, "scenes.jsonl")
    if not os.path.exists(path):
        raise DataError(f"dataset not found: {path}")
    return list(read_dataset(path, n_max, image_size))


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    with N.dtype_mode(cfg.dtype):
        return _cmd_train(args, cfg)


def _cmd_train(args, cfg: RunConfig) -> int:
    tcfg = cfg.train_config()
    phases = [1, 2] if args.phase == "both" else [int(args.phase)]
    start = 0
    if args.resume:
        model, meta = InteractionDiffusionModel.load(args.resume)
        first = int(meta.get("phase", phases[0]))
        if args.phase != "both" and int(args.phase) != first:
            raise ConfigError(f"--phase {args.phase} but {args.resume} is a phase-{first} "
                              "checkpoint (phase 2 starts from phase 1 with --base-ckpt)")
        phases = [1, 2] if args.phase == "both" and first == 1 else [first]
        start = int(meta.get("step", 0))
        _check_against(args.resume, cfg.model_config(), asdict(model.config))
        _check_against(args.resume, tcfg, meta.get("train", {}))
    elif phases == [2]:
        base = args.base_ckpt or os.path.join(args.out, "phase1_final.ckpt")
        if not os.path.exists(base):
            raise DataError(
                f"phase 2 requires the phase-1 checkpoint; {base} not found "
                "(run --phase 1 first or pass --base-ckpt)"
            )
        model, _ = InteractionDiffusionModel.load(base)
        _check_against(base, cfg.model_config(), asdict(model.config))
    else:
        model = InteractionDiffusionModel(cfg.model_config())
    dataset = _load_pairs(args.data, model.config.n_max, model.config.image_size)
    if not dataset:
        raise DataError(f"dataset at {args.data} is empty")
    _write_config_echo(cfg, args.out)
    for phase in phases:
        final = train_phase(model, dataset, tcfg, phase, args.out, start_step=start)
        start = 0  # only the resumed phase starts part-way
        print(f"phase {phase} complete -> {final}")
    return 0


def _sample_batched(model, specs, cfg: RunConfig, omegas, seed):
    """Sample images for SceneSpec conditions at each of `omegas`, batch by
    batch, the batch from condition `lo` with seed `seed + lo`; the omegas of
    a batch share its gated steps through one trunk (see `sample`).  Returns
    one image list per omega and, per image, that seed and the image's index
    in its batch."""
    images, draws = [[] for _ in omegas], []
    for lo in range(0, len(specs), cfg.eval_batch):
        chunk = specs[lo : lo + cfg.eval_batch]
        captions = [list(s.caption_ids) for s in chunk]
        inters = [list(s.interactions) for s in chunk]
        trunk = []
        for out, omega in zip(images, omegas):
            # omega = 0 runs no gated step, so it samples as a plain call
            out.extend(sample(model, captions, inters, steps=cfg.steps, omega=omega,
                              seed=seed + lo, trunk=trunk if omega else None))
        draws.extend((seed + lo, i) for i in range(len(chunk)))
    return images, draws


def cmd_sample(args) -> int:
    cfg = load_run_config(
        args.config, {"omega": args.omega, "steps": args.steps, "sample_seed": args.seed}
    )
    if args.count is not None and args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    with N.dtype_mode(cfg.dtype):
        return _cmd_sample(args, cfg)


def _cmd_sample(args, cfg: RunConfig) -> int:
    model, _ = InteractionDiffusionModel.load(args.ckpt)
    records = scene_records(args.scene_json, model.config.n_max)
    specs = [scene for _, _, scene in itertools.islice(records, args.count)]
    if not specs:
        raise DataError(f"no conditions in {args.scene_json}")
    _write_config_echo(dataclasses.replace(cfg, **asdict(model.config)), args.out)
    (images,), draws = _sample_batched(model, specs, cfg, [cfg.omega], cfg.sample_seed)
    for i, (spec, img, (seed, batch_index)) in enumerate(zip(specs, images, draws)):
        name = f"sample_{i:05d}"
        write_ppm(os.path.join(args.out, f"{name}.ppm"), img)
        sidecar = spec.to_json_obj(f"{name}.ppm")
        sidecar["size"] = model.config.image_size  # the image's, not the condition's
        sidecar["omega"] = cfg.omega
        sidecar["steps"] = cfg.steps
        sidecar["seed"] = seed
        sidecar["batch_index"] = batch_index
        with open(os.path.join(args.out, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(images)} samples to {args.out}")
    return 0


def _report(scores, specs, feats_real):
    """Report on scored images, one `detect` result each: detection mAP
    against their conditioning scenes `specs`, and KID of their features
    against the real images' `feats_real` (None: no KID)."""
    report = detection_map([dets for dets, _ in scores], [list(s.interactions) for s in specs])
    if feats_real is not None:
        report.kid, report.kid_stderr = kid_analog(
            feats_real, np.stack([feats for _, feats in scores]))
    return report


def evaluate_images(images, specs, feats_real):
    """`_report` on generated images, each scored once."""
    return _report([detect(img) for img in images], specs, feats_real)


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, {"eval_count": args.count})
    with N.dtype_mode(cfg.dtype):
        return _cmd_eval(args, cfg)


def _cmd_eval(args, cfg: RunConfig) -> int:
    try:
        omegas = [float(v) for v in args.omega_sweep.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --omega-sweep: {args.omega_sweep!r}") from exc
    if any(not 0.0 <= w <= 1.0 for w in omegas):
        raise ConfigError(f"--omega-sweep {args.omega_sweep!r}: every omega must be in [0,1]")
    if args.ckpt is None and not args.use_renders:
        raise ConfigError("eval needs --ckpt, or --use-renders to score the renders")
    tags = [f"omega{w:.2f}" for w in omegas]
    if not tags:
        raise ConfigError("--omega-sweep lists no omega")
    if len(set(tags)) < len(tags):  # each tag names one report file
        raise ConfigError(f"--omega-sweep {args.omega_sweep!r} repeats an omega at two decimals")
    model = None if args.use_renders else InteractionDiffusionModel.load(args.ckpt)[0]
    pairs = _load_pairs(args.data, None if model is None else model.config.n_max)
    if not pairs:
        raise DataError(f"test set at {args.data} is empty")
    pairs = pairs[: cfg.eval_count]
    specs = [p[0] for p in pairs]
    real_images = [p[1] for p in pairs]
    # the echo records the model that runs: a checkpoint's, not the config's
    echo = cfg if model is None else dataclasses.replace(cfg, **asdict(model.config))
    _write_config_echo(echo, args.out)
    # the real images' scores do not depend on omega: score them once
    real_scores, feats_real = [], None
    if args.use_renders or len(real_images) >= KID_MIN_SAMPLES:
        real_scores = [detect(img) for img in real_images]
    if len(real_scores) >= KID_MIN_SAMPLES:
        feats_real = np.stack([feats for _, feats in real_scores])
    if args.use_renders:
        report = _report(real_scores, specs, feats_real)
        with open(os.path.join(args.out, "report_renders.json"), "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"renders: map_full={report.map_full:.4f} map_rare={report.map_rare:.4f}")
        return 0
    rows = []
    sweep, _ = _sample_batched(model, specs, cfg, omegas, cfg.sample_seed)
    for omega, tag, images in zip(omegas, tags, sweep):
        report = evaluate_images(images, specs, feats_real)
        with open(os.path.join(args.out, f"report_{tag}.json"), "w") as fh:
            fh.write(report.to_json() + "\n")
        kid_txt = "n/a" if report.kid is None else f"{report.kid:.6f}"
        rows.append((omega, report.map_full, report.map_rare, kid_txt))
        print(
            f"omega={omega:.2f}: map_full={report.map_full:.4f} "
            f"map_rare={report.map_rare:.4f} kid={kid_txt}"
        )
    with open(os.path.join(args.out, "summary.csv"), "w") as fh:
        fh.write("omega,map_full,map_rare,kid\n")
        for omega, mf, mr, kid_txt in rows:
            fh.write(f"{omega},{mf:.6f},{mr:.6f},{kid_txt}\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interactdiff",
        description="Interaction-conditioned diffusion on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a scene dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one or both training phases")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--phase", choices=["1", "2", "both"], default="both")
    p.add_argument("--base-ckpt", default=None)
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample images for stored conditions")
    p.add_argument("--config", default=None)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene-json", required=True)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="detection mAP and KID over an omega sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--omega-sweep", default="0.8")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--use-renders", action="store_true",
                   help="evaluate the ground-truth renders instead of sampling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InteractDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
