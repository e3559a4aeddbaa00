"""Tests of the benchmark itself: tracing leaves outputs bitwise unchanged,
self time is computed correctly, and graph nodes are all counted.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import spans  # noqa: E402
import worker  # noqa: E402
from interactdiff import cli, diffusion, scenes  # noqa: E402
from interactdiff import numerics as N  # noqa: E402
from interactdiff.numerics import tensor  # noqa: E402

# small enough to train a few steps in about a second
SMALL = {"base_channels": 8, "batch_size": 2, "steps": 2, "eval_count": 2, "eval_batch": 2}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _run(workload, workdir, traced):
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        run = worker.Run(str(workdir), 0, tracer)
        worker.WORKLOADS[workload](run, *worker.setup(workload, str(workdir)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert all(ok for _, ok, _ in run.checks), run.checks
    return run, tracer


@pytest.mark.parametrize("workload,key", [("train", "losses"), ("sweep", "output_sha256")])
def test_traced_and_untraced_outputs_are_bitwise_equal(tmp_path, workload, key):
    worker.prep(workload, 7, str(tmp_path), SMALL)
    plain, _ = _run(workload, tmp_path, traced=False)
    traced, tracer = _run(workload, tmp_path, traced=True)
    assert plain.info[key] == traced.info[key]
    assert tracer.spans, "the traced run recorded no spans"
    if workload == "train":
        assert [len(plain.info[key][p]) for p in (1, 2)] == [3, 3]


def test_uninstall_restores_every_binding():
    before = (cli.sample, diffusion.adam_step, tensor._make, N.conv2d,
              tensor.Tensor.__dict__["backward"], scenes.read_dataset)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.sample is not before[0] and cli.sample is diffusion.sample
    assert N.conv2d is tensor.conv2d is not before[3]
    tracer.uninstall()
    after = (cli.sample, diffusion.adam_step, tensor._make, N.conv2d,
             tensor.Tensor.__dict__["backward"], scenes.read_dataset)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_of_a_hand_built_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["b", 3.0, 6.0, 0, "r"],  # overlaps a: together they cover 1..6
        ["c", 8.0, 12.0, 0, "r"],  # ends after its parent: covers 8..10 of it
        ["a1", 1.5, 2.0, 1, "r"],
        ["other", 20.0, 21.0, -1, "s"],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5, 1.0])

    tracer = spans.Tracer()
    tracer.spans[:] = tree
    summary = spans.Summary(tracer, keep=lambda run_id: run_id == "r")
    assert summary.ms("root") == pytest.approx(10e3)
    assert summary.ms("root", "self") == pytest.approx(3e3)
    assert summary.n("other") == 0


def test_node_count_equals_make_calls(monkeypatch):
    made = []
    original = tensor._make

    def counting_make(data, parents, backward, op):
        made.append(op)
        return original(data, parents, backward, op)

    monkeypatch.setattr(tensor, "_make", counting_make)
    cfg = cli.load_run_config(worker.REF_CFG, SMALL)
    pairs = [(spec, scenes.render(spec)) for spec in scenes.build_dataset(4, 0, cfg.scene_config())]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with N.dtype_mode("float32"):
            model = diffusion.InteractionDiffusionModel(cfg.model_config())
            rng = np.random.default_rng(0)
            batch = diffusion.make_batch(pairs, rng, 2, 0.0, True)
            diffusion.loss_step(model, batch, rng).backward()
    finally:
        tracer.uninstall()
    counts = {name[6:]: n for (_, name), n in tracer.counts.items() if name.startswith("nodes:")}
    assert made and tracer.counts[("setup", "nodes")] == len(made)
    assert counts == {op: made.count(op) for op in set(made)}
    fwd = sum(1 for s in tracer.spans if s[0] == "op:conv2d")
    bwd = sum(1 for s in tracer.spans if s[0] == "bwd:conv2d")
    assert fwd == made.count("conv2d") and bwd == fwd
