"""In-memory span tracer that instruments interactdiff from outside.

`Tracer.install()` replaces the public functions and class methods of the
library's modules with timing wrappers, and rebinds every module-level name
that referred to an original (so `cli.sample` is traced as well as
`diffusion.sample`).  Tensor ops are wrapped one level deeper: every
`numerics.tensor._make` call is counted, and the backward closure it stores
is wrapped so that backward time is attributed to the op that built it.

A span is `[name, start, end, parent_index, run_id]`; spans stay in memory
and are written out once, by `write()`, when the run ends.  Nothing under
`src/` is modified; `uninstall()` restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

# Modules instrumented, by name under the `interactdiff` package.  `geometry`
# and `errors` are left out: geometry's calls show up inside scene generation
# and evaluation spans, and wrapping its many tiny methods would only add
# overhead.
TRACED_MODULES = (
    "numerics.tensor",
    "numerics.params",
    "layers",
    "informer",
    "intoken",
    "inbedding",
    "diffusion",
    "scenes",
    "evaluation",
    "cli",
)
# Public names in numerics.tensor that are configuration helpers, not ops.
_NOT_OPS = {
    "as_tensor",
    "default_dtype",
    "dtype_mode",
    "set_default_dtype",
    "set_strict",
    "strict_enabled",
    "strict_mode",
}
# Private functions that carry a per-layer metric of their own.
_EXTRA = {"cli": ("_load_pairs",)}
# Classes whose methods are too small to be worth a span.
_SKIP_CLASSES = {"ToyVocabulary", "SceneSpec"}

LAYOUT_OPS = ("reshape", "swapaxes", "transpose", "concat", "take")


def _informer_tag(fn):
    sig = inspect.signature(fn)

    def tag(args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        return "gated" if a["eta"] == 1 and a["inter_tokens"] is not None else "ungated"

    return tag


def _forward_tag(fn):
    sig = inspect.signature(fn)

    def tag(args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        inter = a.get("interactions")
        gated = a.get("eta", 1) == 1 and inter is not None and any(inter)
        return "gated" if gated else "ungated"

    return tag


def _path_size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _tree_size(path) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class Tracer:
    """Records spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value=1) -> None:
        self.counts[(self.run_id, name)] += value

    def wrap(self, fn, name, tag=None, after=None):
        """Return `fn` wrapped in a span named `name` (plus `[tag]`)."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.run_id])
                    stack.append(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spans[idx][2] = clock()
                        stack.pop()
                    if after is not None:
                        after(tracer, args, kwargs, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if tag is None else f"{name}[{tag(args, kwargs)}]"
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, tracer.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_make(self, make):
        """Count every graph node and time the backward closure it stores."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(make)
        def traced_make(data, parents, backward, op):
            if backward is not None:
                inner, label = backward, f"bwd:{op}"

                def backward(g):
                    idx = len(spans)
                    spans.append([label, clock(), 0.0, stack[-1] if stack else -1, tracer.run_id])
                    stack.append(idx)
                    try:
                        inner(g)
                    finally:
                        spans[idx][2] = clock()
                        stack.pop()

            out = make(data, parents, backward, op)
            tracer.count("nodes")
            tracer.count(f"nodes:{op}")
            if out._backward is not None:
                tracer.count("tape_nodes")
            return out

        return traced_make

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Instrument every module in TRACED_MODULES (imports them)."""
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"interactdiff.{short}")
            is_tensor = short == "numerics.tensor"
            if is_tensor:
                self._set(mod, "_make", self._wrap_make(mod._make))
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public = not attr.startswith("_") or attr in _EXTRA.get(short, ())
                    if is_tensor:
                        if public and attr not in _NOT_OPS:
                            new = self.wrap(obj, f"op:{attr}")
                        else:
                            continue
                    elif public:
                        new = self.wrap(obj, f"{short}.{attr}", after=_AFTER.get(f"{short}.{attr}"))
                    else:
                        continue
                    replaced[id(obj)] = new
                    self._set(mod, attr, new)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if obj.__name__.startswith("_") or obj.__name__ in _SKIP_CLASSES:
                        continue
                    self._install_class(short, obj, only=("backward",) if is_tensor else None)
        # rebind names other modules imported (cli.sample, diffusion.adam_step, ...)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "interactdiff" or modname.startswith("interactdiff.")):
                continue
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None and new is not obj:
                    self._set(mod, attr, new)

    def _install_class(self, short, cls, only=None) -> None:
        for attr, raw in list(vars(cls).items()):
            if only is not None and attr not in only:
                continue
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                new = type(raw)(self.wrap(fn, name, after=_AFTER.get(name)))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, tag=_TAGS.get(name, lambda f: None)(raw),
                                after=_AFTER.get(name))
            else:
                continue
            self._set(cls, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _counts(**measures):
    """An `after` hook adding `measure(args, kwargs, result)` to each count."""
    def after(tracer, args, kwargs, result):
        for name, measure in measures.items():
            tracer.count(name, measure(args, kwargs, result))

    return after


_TAGS = {
    "informer.InformerBlock.__call__": _informer_tag,
    "diffusion.InteractionDiffusionModel.forward": _forward_tag,
}
_AFTER = {
    "numerics.params.save_checkpoint": _counts(
        ckpt_saves=lambda a, k, r: 1,
        ckpt_bytes=lambda a, k, r: _path_size(a[1] if len(a) > 1 else k["path"]),
    ),
    "scenes.build_dataset": _counts(scenes_generated=lambda a, k, r: len(r)),
    "scenes.write_dataset": _counts(
        scenes_written=lambda a, k, r: len(a[0]),
        bytes_written=lambda a, k, r: _tree_size(os.path.dirname(os.fspath(a[1])) or "."),
    ),
    # a generator: the hook runs once per yielded (scene, image) pair
    "scenes.read_dataset": _counts(scenes_read=lambda a, k, r: 1),
    "scenes.read_ppm": _counts(bytes_read=lambda a, k, r: _path_size(a[0])),
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Summary:
    """Per-name totals over the spans whose run id is kept."""

    def __init__(self, tracer: Tracer, keep):
        selfs = self_times(tracer.spans)
        self.total: Counter = Counter()
        self.self: Counter = Counter()
        self.calls: Counter = Counter()
        for span, st in zip(tracer.spans, selfs):
            if not keep(span[4]):
                continue
            name = span[0]
            self.total[name] += span[2] - span[1]
            self.self[name] += st
            self.calls[name] += 1
        self.counts: Counter = Counter()
        for (run, name), value in tracer.counts.items():
            if keep(run):
                self.counts[name] += value

    def ms(self, names, kind="total") -> float:
        table = self.total if kind == "total" else self.self
        if isinstance(names, str):
            names = (names,)
        return 1e3 * sum(table[n] for n in names)

    def n(self, names) -> int:
        if isinstance(names, str):
            names = (names,)
        return sum(self.calls[n] for n in names)


def _per(value, denom) -> float:
    return value / denom if denom else 0.0


FWD = "diffusion.InteractionDiffusionModel.forward"
INFORMER = "informer.InformerBlock.__call__"


def per_layer_metrics(s: Summary, workload: str) -> dict[str, tuple[float, str, bool]]:
    """Per-layer metrics `(value, unit, per_step)` from a traced run's summary.

    Times of ops and layers are per unit of model work: per train step on
    `train`, per denoiser forward on `sweep` (0 on `data`, which has no
    model).  Call counts are per train step on `train` and per `eval` call
    on `sweep` and `data`.  `per_step` marks the metrics with these two
    denominators; everything else is per call or per item as named.
    """
    steps = s.n("diffusion.loss_step")
    forwards = s.n((f"{FWD}[gated]", f"{FWD}[ungated]"))
    evals = s.n("cli.cmd_eval")
    unit = steps if workload == "train" else forwards
    run = steps if workload == "train" else evals
    m: dict[str, tuple[float, str, bool]] = {}

    def per_unit(name, value, kind="ms"):
        m[name] = (_per(value, unit), kind, True)

    def per_run(name, value):
        m[name] = (_per(value, run), "count", True)

    def per(name, value, denom, kind="ms"):
        m[name] = (_per(value, denom), kind, False)

    for key, names in (("conv2d", ("conv2d",)), ("matmul", ("matmul",)),
                       ("softmax", ("softmax",)), ("layout", LAYOUT_OPS)):
        per_unit(f"numerics.{key}.fwd_ms", s.ms([f"op:{n}" for n in names], "self"))
        per_unit(f"numerics.{key}.bwd_ms", s.ms([f"bwd:{n}" for n in names]))
    per_unit("numerics.nodes_per_step", s.counts["nodes"], "count")
    bwd = "numerics.tensor.Tensor.backward"
    per_unit("numerics.backward_ms", s.ms(bwd))
    per_unit("numerics.backward_self_ms", s.ms(bwd, "self"))
    per_unit("numerics.adam_ms", s.ms("numerics.params.adam_step"))
    per("numerics.tape_nodes_per_forward", s.counts["tape_nodes"], forwards, "count")
    save, load = "numerics.params.save_checkpoint", "numerics.params.load_checkpoint"
    per("numerics.ckpt_save_ms", s.ms(save), s.n(save))
    per("numerics.ckpt_bytes", s.counts["ckpt_bytes"], s.counts["ckpt_saves"], "bytes")
    per("numerics.ckpt_load_ms", s.ms(load), s.n(load))
    for key, cls in (("conv", "Conv2d"), ("groupnorm", "GroupNorm"),
                     ("layernorm", "LayerNorm"), ("attention", "AttentionLayer")):
        per_unit(f"layers.{key}_ms", s.ms(f"layers.{cls}.__call__"))
    for gate in ("gated", "ungated"):
        name = f"{INFORMER}[{gate}]"
        per(f"informer.{gate}_ms", s.ms(name), s.n(name))
    per_run("informer.gated_calls", s.n(f"{INFORMER}[gated]"))
    tok = "intoken.InteractionTokenizer.tokenize_instances"
    emb = "inbedding.InteractionEmbeddings.embed_batch"
    per_unit("intoken.tokenize_ms", s.ms(tok))
    per_run("intoken.tokenize_calls", s.n(tok))
    per_unit("inbedding.embed_ms", s.ms(emb))
    per_run("inbedding.embed_calls", s.n(emb))
    per_unit("diffusion.make_batch_ms", s.ms("diffusion.make_batch"))
    per_unit("diffusion.loss_fwd_ms", s.ms("diffusion.loss_step"))
    for gate in ("gated", "ungated"):
        name = f"{FWD}[{gate}]"
        per(f"diffusion.forward_{gate}_ms", s.ms(name), s.n(name))
    per_run("diffusion.forward_calls", forwards)
    per("diffusion.sample_self_ms", s.ms("diffusion.sample", "self"), s.n("diffusion.sample"))
    generated, written, read = s.counts["scenes_generated"], s.counts["scenes_written"], s.counts["scenes_read"]
    per("scenes.generate_ms", s.ms("scenes.build_dataset"), generated)
    per("scenes.render_ms", s.ms("scenes.render"), s.n("scenes.render"))
    per("scenes.write_ms", s.ms("scenes.write_dataset"), written)
    per("scenes.bytes_written", s.counts["bytes_written"], written, "bytes")
    per("scenes.read_ms", s.ms("scenes.read_dataset"), read)
    per("scenes.bytes_read", s.counts["bytes_read"], read, "bytes")
    for key, name, kind in (("detect", "detect", "total"), ("features", "image_features", "self"),
                            ("map", "detection_map", "total"), ("kid", "kid_analog", "total")):
        full = f"evaluation.{name}"
        per(f"evaluation.{key}_ms", s.ms(full, kind), s.n(full))
    per("cli.load_pairs_ms", s.ms("cli._load_pairs"), s.n("cli._load_pairs"))
    per("cli.eval_self_ms", s.ms("cli.cmd_eval", "self"), evals)
    return m


def run_metrics(tracer: Tracer, workload: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, without its warm-up and checks.

    On `train` a per-step metric is the mean of its phase-1 and phase-2
    values, so that it does not depend on how many steps of each phase fit
    the run.
    """
    def keep(run_id, skip=("warmup", "check")):
        return not run_id.startswith(skip)

    whole = per_layer_metrics(Summary(tracer, keep), workload)
    if workload != "train":
        return {k: (v, unit) for k, (v, unit, _) in whole.items()}
    phases = [per_layer_metrics(Summary(tracer, lambda r, p=p: keep(r, ("warmup", "check", p))),
                                workload) for p in ("work:p2", "work:p1")]
    return {k: ((phases[0][k][0] + phases[1][k][0]) / 2 if per_step else v, unit)
            for k, (v, unit, per_step) in whole.items()}
