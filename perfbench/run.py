"""Benchmark of interactdiff at the reference model config.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train|sweep|data --seed N \
        --seconds S --trace 0|1

Each workload runs in fresh child processes (perfbench/worker.py) whose BLAS
thread count is fixed in their environment before numpy loads.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs the
workload untraced and then traced for S/2 seconds each, and prints the
per-layer metrics and the tracing overhead.  Every run checks the program's
outputs; the last stdout line is one JSON object, and the exit code is 0
only when every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("train", "sweep", "data")
BLAS_THREADS = 1
SETUP_PROBES = 8
# every child must end before the whole run has used this many seconds
RUN_LIMIT_S = 170
REQUIRED = (os.path.join("src", "interactdiff", "__init__.py"),
            os.path.join("tests", "reference_run", "run.cfg"))


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("INTERACTDIFF_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(role, args, workdir, deadline, seconds=None, trace=0) -> float:
    """Run one worker process to completion; returns its wall time."""
    cmd = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", workdir, "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    log_path = os.path.join(workdir, f"{role}.log")
    t0 = time.perf_counter()
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"{role} process exceeded the run's time limit") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        with open(log_path, "rb") as fh:
            tail = fh.read()[-3000:].decode("utf-8", "replace")
        raise ChildError(f"{role} process exited with code {proc.returncode}:\n{tail}")
    return wall


def work(args, workdir, deadline, seconds, trace) -> dict:
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    run_child("work", args, workdir, deadline, seconds=seconds, trace=trace)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_checks(res) -> bool:
    """Print each output check once, with how often it held."""
    tally: dict[str, list] = {}
    for name, passed, detail in res["checks"]:
        entry = tally.setdefault(name, [0, 0, ""])
        entry[0] += passed
        entry[1] += 1
        if not passed and not entry[2]:
            entry[2] = detail
    for name, (held, total, detail) in tally.items():
        status = "ok  " if held == total else "FAIL"
        print(f"  check {status} {name} ({held}/{total})" + (f": {detail}" if detail else ""))
    return all(passed for _, passed, _ in res["checks"])


def reference_run_h(workload, seed, res):
    """ROADMAP's headline: projected hours of the reference run (8000
    phase-1 and 20000 phase-2 steps, then 6 omega x 500 conditions x 50
    sampler steps), from the latest untraced train and sweep runs in this
    checkout.  Informational; not a gated metric."""
    store = os.path.join(".perfbench", "reference_run.json")
    try:
        with open(store, encoding="utf-8") as fh:
            ref = json.load(fh)
    except (OSError, ValueError):
        ref = {}
    if "reference_run" in res["info"]:
        ref[workload] = dict(res["info"]["reference_run"], seed=seed)
        with open(store + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        os.replace(store + ".tmp", store)
    if "train" not in ref or "sweep" not in ref:
        print("reference_run_h: needs an untraced run of both the train and the sweep "
              "workload in this checkout")
        return
    t, s = ref["train"], ref["sweep"]
    gated, ungated = s["ref_gated_steps"], 6 * 50 - s["ref_gated_steps"]
    train_h = (8000 * t["p1_step_s"] + 20000 * t["p2_step_s"]) / 3600
    eval_h = 500 * (gated * s["gated_img_step_s"] + ungated * s["ungated_img_step_s"]) / 3600
    print(f"reference_run_h = {train_h + eval_h:.2f} h (informational, not gated) = "
          f"(8000 x {t['p1_step_s']:.3f} s + 20000 x {t['p2_step_s']:.3f} s"
          f" + 500 x ({gated} x {1e3 * s['gated_img_step_s']:.1f} ms + {ungated} x "
          f"{1e3 * s['ungated_img_step_s']:.1f} ms)) / 3600 s/h: training {train_h:.2f} h "
          f"(train seed {t['seed']}), eval {eval_h:.2f} h (sweep seed {s['seed']})")


def end_to_end(args, workdir, deadline) -> tuple[bool, dict]:
    # half of the set-up probes before the work process and half after, so
    # that their median spans two moments of a machine whose speed drifts
    setups = [run_child("setup", args, workdir, deadline) for _ in range(SETUP_PROBES // 2)]
    res = work(args, workdir, deadline, args.seconds, 0)
    setups += [run_child("setup", args, workdir, deadline) for _ in range(SETUP_PROBES // 2)]
    names, units = res["stage_names"], res["stage_units"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "stage1_per_s": (res["stage1"], "1/s"),
        "stage2_per_s": (res["stage2"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace 0  "
          f"blas_threads {BLAS_THREADS}")
    print(f"  setup_s = {fmt(metrics['setup_s'][0])} s  (median of {SETUP_PROBES} fresh "
          f"processes: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"  {names[0]} = {fmt(res['stage1'])} {units[0]}  [stage1_per_s]")
    print(f"  {names[1]} = {fmt(res['stage2'])} {units[1]}  [stage2_per_s]")
    print(f"  peak_rss_mb = {fmt(res['peak_rss_mb'])} MB")
    print(f"  failed_frac = {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g} ratio  (attempted {res['attempted']})")
    print(f"  info: {json.dumps({k: v for k, v in res['info'].items() if k != 'losses'})}")
    ok = report_checks(res)
    print(f"manifest: {json.dumps(res['manifest'], sort_keys=True)}")
    reference_run_h(args.workload, args.seed, res)
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return ok, {"attempted": res["attempted"], "failed": res["failed"], "metrics": out}


def identical_outputs(plain, traced) -> bool:
    """The untraced and traced runs agree bitwise: loss series on train
    (phase 2 only when phase 1 ran as many steps), images on sweep, the
    first scene set and its report on data."""
    if "output_sha256" in plain:
        return plain["output_sha256"] == traced["output_sha256"]
    a, b = plain["losses"], traced["losses"]
    n = min(len(a["1"]), len(b["1"]))
    same = a["1"][:n] == b["1"][:n]
    if len(a["1"]) == len(b["1"]):
        n = min(len(a["2"]), len(b["2"]))
        same &= a["2"][:n] == b["2"][:n]
    return same


def per_layer(args, workdir, deadline) -> tuple[bool, dict]:
    half = args.seconds / 2
    plain = work(args, workdir, deadline, half, 0)
    traced = work(args, workdir, deadline, half, 1)
    trace_dir = os.path.join(".perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    shutil.move(os.path.join(workdir, "trace.jsonl"), trace_file)
    overhead = {k: 100.0 * (plain[k] / traced[k] - 1.0) for k in ("stage1", "stage2")}
    names = plain["stage_names"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace 1  "
          f"blas_threads {BLAS_THREADS}")
    print(f"  tracing overhead: {names[0]} {fmt(plain['stage1'])} untraced vs "
          f"{fmt(traced['stage1'])} traced ({overhead['stage1']:+.1f}%); {names[1]} "
          f"{fmt(plain['stage2'])} vs {fmt(traced['stage2'])} ({overhead['stage2']:+.1f}%)")
    print(f"  spans written to {trace_file}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["per_layer"].items()}
    metrics["trace.overhead_pct"] = {"value": overhead["stage1"], "unit": "%"}
    for name, m in metrics.items():
        print(f"  {name} = {fmt(m['value'])} {m['unit']}")
    same = identical_outputs(plain["info"], traced["info"])
    print(f"  check {'ok  ' if same else 'FAIL'} traced and untraced outputs are bitwise equal")
    ok = report_checks(plain) & report_checks(traced) & same
    print(f"manifest: {json.dumps(traced['manifest'], sort_keys=True)}")
    return ok, {"attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="interactdiff benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [path for path in REQUIRED if not os.path.exists(path)]
    if missing:
        print(f"perfbench: run from the root of an interactdiff checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.abspath(os.path.join(
        ".perfbench", "work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}"))
    os.makedirs(workdir)
    try:
        run_child("prep", args, workdir, deadline)
        measure = per_layer if args.trace else end_to_end
        ok, body = measure(args, workdir, deadline)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": ok, **body}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
