"""One benchmark child process: prepare inputs, probe set-up, or run a workload.

`run.py` starts this file as a fresh interpreter with the BLAS thread count
already in its environment, so the count holds before numpy loads:

    python3 perfbench/worker.py --role prep|setup|work --workload W \
        --seed N --dir WORK_DIR [--seconds S] [--trace 0|1]

`prep` writes the inputs derived from the seed into WORK_DIR (untimed),
`setup` performs only the set-up path of a workload (run.py times the whole
process), and `work` measures the workload for S seconds, checks its
outputs and writes `result.json` (and, traced, `trace.jsonl`) into WORK_DIR.
Run from the root of a source checkout with `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import time

import numpy as np

from interactdiff import cli, diffusion, informer, scenes
from interactdiff import numerics as N
from spans import Tracer, run_metrics

REF_CFG = os.path.join("tests", "reference_run", "run.cfg")
OMEGAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
# train: scenes in the generated training set (the step cost does not depend
# on it; the reference set's 8000 would only lengthen set-up).
TRAIN_SCENES = 256
# sweep: conditions and sampler steps per eval call, scaled down from the
# reference 500 x 50 so that one `eval` call takes about 8 s.  The omega grid
# is kept; at T = 5 it gates 15 of the 30 denoise steps, half, as at T = 50.
# The per-image cost is flat from a batch of 8 up, so 8 conditions stand
# for 500.
SWEEP_CONDITIONS = 8
SWEEP_STEPS = 5
# sweep: rounds of the omega = 0 caption-only replay after each eval call
# (about 1.3 s each), so that stage 2 is sampled across the whole run
REPLAYS = 2
# data: scenes per gen-data call; eval --use-renders computes KID from 100 up.
DATA_SCENES = 128
# sampler steps of the reference run's omega sweep (for reference_run_h)
REF_SAMPLER_STEPS = 50


class _Patches:
    """Replace module attributes with probes; restore them on close."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, name, make):
        old = getattr(module, name)
        self._saved.append((module, name, old))
        setattr(module, name, make(old))

    def close(self):
        while self._saved:
            module, name, old = self._saved.pop()
            setattr(module, name, old)


class Run:
    """State shared by the phases of one `work` process."""

    def __init__(self, workdir, seconds, tracer=None):
        self.workdir = workdir
        self.seconds = seconds
        self.tracer = tracer
        self.checks: list[tuple[str, bool, str]] = []
        self.info: dict = {}

    def mark(self, run_id):
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def write_config(path, seed, overrides=None):
    """The reference config with the seed-derived and scaled-down keys."""
    values = {
        "data_seed": seed,
        "train_seed": seed,
        "init_seed": seed,
        "sample_seed": seed,
        "save_every": 0,
        "log_every": 1,
        "steps": SWEEP_STEPS,
        "eval_count": SWEEP_CONDITIONS,
        "eval_batch": SWEEP_CONDITIONS,
    }
    values.update(overrides or {})
    cfg = cli.load_run_config(REF_CFG, values)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in cfg.to_dict().items():
            fh.write(f"{key} = {value}\n")
    return cfg


def _write_scene_set(path, count, seed, cfg):
    specs = scenes.build_dataset(count, seed, cfg.scene_config())
    scenes.write_dataset(specs, os.path.join(path, "scenes.jsonl"))


def prep(workload, seed, workdir, overrides=None):
    """Write the seed's inputs into `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    cfg = write_config(os.path.join(workdir, "bench.cfg"), seed, overrides)
    if workload == "train":
        _write_scene_set(os.path.join(workdir, "train"), TRAIN_SCENES, seed, cfg)
    elif workload == "sweep":
        _write_scene_set(os.path.join(workdir, "test"), cfg.eval_count, seed + 1_000_000, cfg)
        pairs = list(scenes.read_dataset(os.path.join(workdir, "test", "scenes.jsonl")))
        # one real train_phase step per phase, so that inter.* loads with
        # requires_grad=True as in the reference run; the batch size does not
        # shape the model, so a small one keeps this cheap
        tcfg = cfg.train_config()
        tcfg.steps_phase1 = tcfg.steps_phase2 = 1
        tcfg.batch_size = 2
        with N.dtype_mode(cfg.dtype):
            model = diffusion.InteractionDiffusionModel(cfg.model_config())
            for phase in (1, 2):
                diffusion.train_phase(model, pairs, tcfg, phase, os.path.join(workdir, "ckpt"))


# ---------------------------------------------------------------------------
# set-up: import (done above), read inputs, build or load the model
# ---------------------------------------------------------------------------


def setup(workload, workdir):
    cfg = cli.load_run_config(os.path.join(workdir, "bench.cfg"))
    if workload == "train":
        pairs = list(scenes.read_dataset(os.path.join(workdir, "train", "scenes.jsonl")))
        with N.dtype_mode(cfg.dtype):
            model = diffusion.InteractionDiffusionModel(cfg.model_config())
        return cfg, pairs, model
    if workload == "sweep":
        pairs = list(scenes.read_dataset(os.path.join(workdir, "test", "scenes.jsonl")))
        with N.dtype_mode(cfg.dtype):
            model, _ = diffusion.InteractionDiffusionModel.load(_ckpt(workdir))
        return cfg, pairs, model
    cli.build_parser()
    return cfg, None, None


def _ckpt(workdir):
    return os.path.join(workdir, "ckpt", "phase2_final.ckpt")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_train(run: Run, cfg, pairs, model):
    """Phase 1 then phase 2 through diffusion.train_phase.  Per phase: a
    warm-up call of one step, then a call of two steps whose median step time
    sizes a last call that fills half the run.  A step's time runs from the
    previous Adam update, or the start of its call, to its own Adam update."""
    tcfg = cfg.train_config()
    out = os.path.join(run.workdir, "train_out")
    losses: list[float] = []
    ends: list[float] = []
    patches = _Patches()
    patches.wrap(diffusion, "loss_step", lambda f: _record_loss(f, losses))
    patches.wrap(diffusion, "adam_step", lambda f: _stamp(f, ends))
    rates, step_s, steps_run = {}, {}, 0
    try:
        with N.dtype_mode(cfg.dtype):
            for phase in (1, 2):
                key = f"steps_phase{phase}"
                if phase == 2:
                    base_hash = model.store.state_hash("base.")
                first = len(losses)
                run.mark(f"warmup:p{phase}")
                setattr(tcfg, key, 1)
                final = diffusion.train_phase(model, pairs, tcfg, phase, out)
                times: list[float] = []
                start, done = time.perf_counter(), 1
                for part in (2, None):
                    if part is None:
                        left = start + run.seconds / 2 - time.perf_counter()
                        part = int(left / statistics.median(times))
                        if part < 1:
                            break
                    setattr(tcfg, key, done + part)
                    run.mark(f"work:p{phase}:{done}")
                    mark = len(ends)
                    t0 = time.perf_counter()
                    final = diffusion.train_phase(model, pairs, tcfg, phase, out, start_step=done)
                    stamps = [t0] + ends[mark:]
                    times += [b - a for a, b in zip(stamps, stamps[1:])]
                    done += part
                step_s[phase] = statistics.median(times)
                rates[phase] = tcfg.batch_size / step_s[phase]
                steps_run += 1 + len(times)
                run.info[f"p{phase}_steps_timed"] = len(times)
                run.info.setdefault("losses", {})[phase] = losses[first:]
                if phase == 2:
                    run.check("phase 2 leaves base.* bitwise unchanged",
                              model.store.state_hash("base.") == base_hash)
            run.mark("check")
            loaded, _ = diffusion.InteractionDiffusionModel.load(final)
            run.check("final checkpoint reloads to identical parameters",
                      loaded.store.state_hash() == model.store.state_hash()
                      and loaded.store.names() == model.store.names())
    finally:
        patches.close()
    run.check("every loss is finite", losses and all(math.isfinite(v) for v in losses),
              f"{len(losses)} losses")
    run.info["reference_run"] = {"p1_step_s": step_s[1], "p2_step_s": step_s[2]}
    return {"stage1": rates[1], "stage2": rates[2], "attempted": steps_run, "failed": 0,
            "stage_names": ("p1_samples_per_s", "p2_samples_per_s"),
            "stage_units": ("samples/s", "samples/s")}


def _stamp(fn, ends):
    def probe(*args, **kwargs):
        out = fn(*args, **kwargs)
        ends.append(time.perf_counter())
        return out

    return probe


def _record_loss(fn, losses):
    def probe(*args, **kwargs):
        loss = fn(*args, **kwargs)
        losses.append(float(loss.data))
        return loss

    return probe


def run_sweep(run: Run, cfg, *_):
    """Repeated in-process `eval` calls over the omega grid, each followed by
    REPLAYS rounds of the criterion-1 replay: the omega = 0 sample calls of
    the first `eval` sampled again without interactions, timed as stage 2
    and compared bitwise with what `eval` produced."""
    cfg_path = os.path.join(run.workdir, "bench.cfg")
    test_dir = os.path.join(run.workdir, "test")
    grid = ",".join(str(w) for w in OMEGAS)
    calls: list[tuple[dict, np.ndarray]] = []
    per_eval: list[list] = []
    sample_sig = inspect.signature(diffusion.sample)

    def capture_sample(fn):
        def probe(*args, **kwargs):
            out = fn(*args, **kwargs)
            bound = sample_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["omega"] == 0.0:
                calls.append((dict(bound.arguments), out))
            return out

        return probe

    def capture_images(fn):
        def probe(images, *args, **kwargs):
            per_eval[-1].append([np.array(img) for img in images])
            return fn(images, *args, **kwargs)

        return probe

    patches = _Patches()
    patches.wrap(cli, "sample", capture_sample)
    patches.wrap(cli, "evaluate_images", capture_images)
    rates, replay_rates, first_calls = [], [], None
    start = last = time.perf_counter()
    try:
        while _another(rates, start, last, run.seconds):
            i = len(rates)
            out = os.path.join(run.workdir, f"eval{i}")
            per_eval.append([])
            run.mark(f"work:{i}")
            t0 = time.perf_counter()
            rc = cli.main(["eval", "--config", cfg_path, "--ckpt", _ckpt(run.workdir),
                           "--data", test_dir, "--omega-sweep", grid,
                           "--count", str(cfg.eval_count), "--out", out])
            rates.append(len(OMEGAS) * cfg.eval_count / (time.perf_counter() - t0))
            run.check("eval exits 0", rc == 0, f"exit code {rc}")
            with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
                rows = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
            run.check("eval: one summary row per omega",
                      [float(r) for r in rows] == list(OMEGAS), f"rows {rows}")
            if first_calls is None:
                first_calls = list(calls)
                if not first_calls:
                    raise RuntimeError("eval made no omega=0 call to sample; nothing to replay")
            run.mark("check")
            replay_rates += [_replay(run, cfg, first_calls, per_eval[0][0]) for _ in range(REPLAYS)]
            last = time.perf_counter()
    finally:
        patches.close()
    images = per_eval[0]
    run.check("one image set per omega, one image per condition",
              len(images) == len(OMEGAS) and all(len(s) == cfg.eval_count for s in images))
    run.check("every image is finite",
              all(np.all(np.isfinite(img)) for ev in per_eval for s in ev for img in s))
    run.check("repeated eval calls give bitwise-equal images",
              all(_equal_sets(ev, images) for ev in per_eval[1:]), f"{len(per_eval)} calls")
    # gated per-image forward cost, for the informational reference_run_h
    bound = first_calls[0][0]
    with N.dtype_mode(cfg.dtype):
        t0 = time.perf_counter()
        diffusion.sample(**dict(bound, omega=1.0))
        gated_s = (time.perf_counter() - t0) / (len(bound["caption_ids"]) * bound["steps"])
    ungated_s = 1.0 / statistics.median(replay_rates) / bound["steps"]
    gated_steps = sum(
        informer.eta_schedule(t, informer.SamplerConfig(omega=w, total_steps=REF_SAMPLER_STEPS))
        for w in OMEGAS for t in range(1, REF_SAMPLER_STEPS + 1)
    )
    run.info["reference_run"] = {"ungated_img_step_s": ungated_s, "gated_img_step_s": gated_s,
                                 "ref_gated_steps": gated_steps}
    run.info["evals"] = len(rates)
    run.info["output_sha256"] = hashlib.sha256(
        b"".join(np.ascontiguousarray(img).tobytes() for s in images for img in s)).hexdigest()
    return {"stage1": statistics.median(rates), "stage2": statistics.median(replay_rates),
            "attempted": len(rates) * len(OMEGAS) * cfg.eval_count, "failed": 0,
            "stage_names": ("sweep_images_per_s", "caption_only_images_per_s"),
            "stage_units": ("images/s", "images/s")}


def _replay(run: Run, cfg, calls, omega0_images) -> float:
    """Criterion 1: sample each omega = 0 call again with interactions None;
    the images must equal the call's and the eval's bitwise.  Returns
    images per second."""
    replayed = []
    with N.dtype_mode(cfg.dtype):
        t0 = time.perf_counter()
        for bound, out in calls:
            ref = diffusion.sample(**dict(bound, interactions=None))
            replayed.extend(ref)
            run.check("omega=0 sample call equals caption-only sampling", np.array_equal(ref, out))
        rate = len(replayed) / (time.perf_counter() - t0)
    run.check("omega=0 eval images equal caption-only sampling",
              _equal_sets([replayed], [omega0_images]))
    return rate


def _another(done, start, last, seconds):
    """Whether one more repetition, as long as the last, fits the run."""
    if not done:
        return True
    return last + (last - start) / len(done) <= start + seconds


def _equal_sets(a, b):
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y)) for x, y in zip(a, b)
    )


def run_data(run: Run, cfg, *_):
    """Alternate `gen-data` and `eval --use-renders` on fresh scene sets.

    The gated generation rate counts the time in `build_dataset` (placement
    and the oracle round trip), not the writing that follows: on the VM the
    bounds were measured on, creating a file in the checkout cost 0.3-0.9 ms
    of kernel time that drifted over minutes (0.03 ms in another directory
    of the same volume), which moved the rate of whole `gen-data` calls by
    up to 40 % between runs.  That rate is printed too, and the traced run
    reports `scenes.write_ms`.  Each set goes to a new directory and nothing
    is deleted until the run has ended, because deleting between sets made
    the next set's writes vary too."""
    cfg_path = os.path.join(run.workdir, "bench.cfg")
    gen_rates, gen_call_rates, score_rates = [], [], []
    build_s: list[float] = []

    def time_build(fn):
        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            build_s.append(time.perf_counter() - t0)
            return out

        return probe

    seed = cfg.data_seed
    patches = _Patches()
    patches.wrap(cli, "build_dataset", time_build)
    start = last = time.perf_counter()
    try:
        while _another(gen_rates, start, last, run.seconds):
            i = len(gen_rates)
            data_dir = os.path.join(run.workdir, f"data{i}")
            run.mark(f"work:{i}")
            t0 = time.perf_counter()
            rc = cli.main(["gen-data", "--config", cfg_path, "--out", data_dir,
                           "--seed", str(seed * 1000 + i), "--count", str(DATA_SCENES)])
            gen_call_rates.append(DATA_SCENES / (time.perf_counter() - t0))
            gen_rates.append(DATA_SCENES / build_s[-1])
            run.check("gen-data exits 0", rc == 0, f"exit code {rc}")
            report_dir = os.path.join(data_dir, "report")
            t0 = time.perf_counter()
            rc = cli.main(["eval", "--config", cfg_path, "--data", data_dir, "--use-renders",
                           "--count", str(DATA_SCENES), "--out", report_dir])
            score_rates.append(DATA_SCENES / (time.perf_counter() - t0))
            run.check("eval --use-renders exits 0", rc == 0, f"exit code {rc}")
            report = _read_json(os.path.join(report_dir, "report_renders.json"))
            if i == 0:
                digest = hashlib.sha256()
                for path in (os.path.join(data_dir, "scenes.jsonl"),
                             os.path.join(report_dir, "report_renders.json")):
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
                run.info["output_sha256"] = digest.hexdigest()
            run.check("renders: map_full = map_rare = 1.0",
                      report["map_full"] == 1.0 and report["map_rare"] == 1.0,
                      f"map_full {report['map_full']} map_rare {report['map_rare']}")
            run.check("renders: KID computed", report["kid"] is not None)
            last = time.perf_counter()
    finally:
        patches.close()
    run.info["sets"] = len(gen_rates)
    run.info["gen_data_calls_scenes_per_s"] = statistics.median(gen_call_rates)
    return {"stage1": statistics.median(gen_rates), "stage2": statistics.median(score_rates),
            "attempted": 2 * DATA_SCENES * len(gen_rates), "failed": 0,
            "stage_names": ("gen_scenes_per_s", "score_images_per_s"),
            "stage_units": ("scenes/s", "images/s")}


WORKLOADS = {"train": run_train, "sweep": run_sweep, "data": run_data}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _git_revision(root=".") -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def _src_lines(root="src") -> int:
    total = 0
    for base, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def manifest() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads_effective": _threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def work(workload, workdir, seconds, traced):
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    run = Run(workdir, seconds, tracer)
    try:
        state = setup(workload, workdir)
        result = WORKLOADS[workload](run, *state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = run.checks
    result["info"] = run.info
    result["manifest"] = manifest()
    if tracer is not None:
        result["per_layer"] = run_metrics(tracer, workload)
        tracer.write(os.path.join(workdir, "trace.jsonl"))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--role", choices=("prep", "setup", "work"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.role == "prep":
        prep(args.workload, args.seed, args.dir)
    elif args.role == "setup":
        setup(args.workload, args.dir)
    else:
        result = work(args.workload, args.dir, args.seconds, args.trace == 1)
        with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
