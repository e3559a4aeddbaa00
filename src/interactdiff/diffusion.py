"""Noise schedule, UNet denoiser with interaction blocks, training loop and
deterministic sampler.

The denoiser is a small two-level UNet (32 -> 16 -> 8 px) with interaction
transformer blocks at 16x16 (encoder and decoder) and 8x8 (bottleneck).
Training is two-phase: phase 1 fits the caption-conditioned base; phase 2
freezes it and trains only the interaction module, preserving the
gate-zero identity with the base model.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError, ContractError, NumericError
from . import numerics as N
from .inbedding import InteractionEmbeddings
from .informer import InformerBlock, SamplerConfig, eta_schedule
from .intoken import InteractionTokenizer
from .layers import Conv2d, GroupNorm, Linear
from .numerics import (
    ParameterStore,
    Tensor,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from .scenes import VOCAB

# ---------------------------------------------------------------------------
# Noise schedule
# ---------------------------------------------------------------------------


@dataclass
class NoiseSchedule:
    """Linear-beta DDPM forward process; alpha-bar indexed 0..T with
    alpha_bar[0] = 1 (clean image)."""

    t_train: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 2e-2

    def __post_init__(self):
        betas = np.linspace(self.beta_start, self.beta_end, self.t_train)
        alphas = 1.0 - betas
        self.betas = betas
        self.alpha_bar = np.concatenate([[1.0], np.cumprod(alphas)])
        if not np.all(np.diff(self.alpha_bar) < 0):
            raise ContractError("alpha-bar must be strictly decreasing")

    def q_sample(self, z0: np.ndarray, t: np.ndarray, eps: np.ndarray) -> np.ndarray:
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > self.t_train):
            raise ContractError(f"t outside 1..{self.t_train}")
        ab = self.alpha_bar[t].reshape(-1, 1, 1, 1)
        return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def time_features(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal step features, (B, dim)."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class ModelConfig:
    image_size: int = 32
    base_channels: int = 16
    d_tok: int = 64
    n_heads: int = 4
    time_dim: int = 64
    caption_len: int = 24
    n_max: int = 4
    d_text: int = 64
    n_freqs: int = 8
    t_train: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    init_seed: int = 0


class ResBlock:
    def __init__(self, store, name, channels, time_dim, rng):
        self.gn1 = GroupNorm(store, f"{name}.gn1", channels)
        self.conv1 = Conv2d(store, f"{name}.conv1", channels, channels, rng=rng)
        self.time_proj = Linear(store, f"{name}.time", time_dim, channels, rng)
        self.gn2 = GroupNorm(store, f"{name}.gn2", channels)
        self.conv2 = Conv2d(store, f"{name}.conv2", channels, channels, rng=rng)

    def __call__(self, x: Tensor, temb: Tensor) -> Tensor:
        B, _, _, C = x.shape
        h = self.conv1(N.silu(self.gn1(x)))
        h = h + self.time_proj(N.silu(temb)).reshape(B, 1, 1, C)
        h = self.conv2(N.silu(self.gn2(h)))
        return x + h


class CaptionEncoder:
    """Token + learned positional embeddings; empty captions keep one valid
    pad slot so cross-attention always has a key."""

    def __init__(self, store, prefix, length, dim, rng):
        self.store = store
        self.prefix = prefix
        self.length = length
        store.add(f"{prefix}.tok", Tensor(rng.normal(0.0, 0.02, size=(len(VOCAB), dim))))
        store.add(f"{prefix}.pos", Tensor(rng.normal(0.0, 0.02, size=(length, dim))))

    def __call__(self, caption_ids: list[list[int]]) -> tuple[Tensor, np.ndarray]:
        B = len(caption_ids)
        ids = np.full((B, self.length), VOCAB.pad_id, dtype=np.int64)
        mask = np.zeros((B, self.length), dtype=bool)
        for b, cap in enumerate(caption_ids):
            n = min(len(cap), self.length)
            ids[b, :n] = cap[:n]
            mask[b, : max(n, 1)] = True
        emb = N.take(self.store[f"{self.prefix}.tok"], ids)
        return emb + self.store[f"{self.prefix}.pos"], mask


class InteractionDiffusionModel:
    """Denoiser eps(z_t, t, caption, interactions) with a pluggable
    interaction module (all its parameters live under the `inter.` prefix)."""

    def __init__(self, config: ModelConfig, store: ParameterStore | None = None):
        self.config = config
        self.schedule = NoiseSchedule(config.t_train, config.beta_start, config.beta_end)
        self.store = store if store is not None else ParameterStore()
        rng = np.random.default_rng(config.init_seed)
        # the middle levels are as wide as the informer tokens they feed
        cb, mb = config.base_channels, config.d_tok
        s = self.store
        self.time_mlp0 = Linear(s, "base.time.0", config.time_dim, config.time_dim, rng)
        self.time_mlp1 = Linear(s, "base.time.1", config.time_dim, config.time_dim, rng)
        self.caption = CaptionEncoder(s, "base.caption", config.caption_len, config.d_tok, rng)
        self.conv_in = Conv2d(s, "base.conv_in", 3, cb, rng=rng)
        self.res1 = ResBlock(s, "base.res1", cb, config.time_dim, rng)
        self.down1 = Conv2d(s, "base.down1", cb, mb, stride=2, rng=rng)
        self.res2 = ResBlock(s, "base.res2", mb, config.time_dim, rng)
        sz16 = config.image_size // 2
        sz8 = config.image_size // 4
        self.inf_enc = InformerBlock(s, "inf_enc", sz16 * sz16, config.d_tok, config.n_heads, rng)
        self.down2 = Conv2d(s, "base.down2", mb, mb, stride=2, rng=rng)
        self.res3 = ResBlock(s, "base.res3", mb, config.time_dim, rng)
        self.inf_mid = InformerBlock(s, "inf_mid", sz8 * sz8, config.d_tok, config.n_heads, rng)
        self.up1 = Conv2d(s, "base.up1", mb, mb, rng=rng)
        self.res4 = ResBlock(s, "base.res4", mb, config.time_dim, rng)
        self.inf_dec = InformerBlock(s, "inf_dec", sz16 * sz16, config.d_tok, config.n_heads, rng)
        self.up2 = Conv2d(s, "base.up2", mb, cb, rng=rng)
        self.res5 = ResBlock(s, "base.res5", cb, config.time_dim, rng)
        self.gn_out = GroupNorm(s, "base.gn_out", cb)
        self.conv_out = Conv2d(s, "base.conv_out", cb, 3, zero_init=True)
        self.tokenizer = InteractionTokenizer(
            s,
            prefix="inter.tok",
            d_text=config.d_text,
            d_tok=config.d_tok,
            n_freqs=config.n_freqs,
            seed=config.init_seed + 1,
        )
        self.embedder = InteractionEmbeddings(
            s, prefix="inter.embed", n_max=config.n_max, d_tok=config.d_tok,
            seed=config.init_seed + 2,
        )

    # -- conditioning -------------------------------------------------------

    def interaction_tokens(self, interactions) -> tuple[Tensor, np.ndarray] | None:
        """Tokenize + embed a batch of per-scene instance lists."""
        if interactions is None or all(not insts for insts in interactions):
            return None
        flat = [inst for insts in interactions for inst in (insts or [])]
        h_s, h_a, h_o = self.tokenizer.tokenize_instances(flat)
        counts = [len(insts or []) for insts in interactions]
        return self.embedder.embed_batch(h_s, h_a, h_o, counts)

    # -- denoiser forward ---------------------------------------------------

    def forward(
        self,
        z_t: np.ndarray,
        t: np.ndarray,
        caption_ids: list[list[int]],
        interactions=None,
        eta: int = 1,
    ) -> Tensor:
        """eps prediction, (B, 3, S, S); activations inside are channels last."""
        B = z_t.shape[0]
        temb = N.silu(self.time_mlp0(Tensor(time_features(t, self.config.time_dim))))
        temb = self.time_mlp1(temb)
        cap, cap_mask = self.caption(caption_ids)
        embedded = self.interaction_tokens(interactions) if eta == 1 else None
        if embedded is None:
            e_tok, e_mask = None, None
        else:
            e_tok, e_mask = embedded

        d = self.config.d_tok
        x = self.conv_in(Tensor(z_t.transpose(0, 2, 3, 1)))  # channels last
        s1 = self.res1(x, temb)
        x = self.down1(s1)
        x = self.res2(x, temb)
        x = self.inf_enc(x.reshape(B, -1, d), cap, cap_mask, e_tok, e_mask, eta).reshape(x.shape)
        s2 = x
        x = self.down2(x)
        x = self.res3(x, temb)
        x = self.inf_mid(x.reshape(B, -1, d), cap, cap_mask, e_tok, e_mask, eta).reshape(x.shape)
        x = self.up1(N.upsample_nearest2(x)) + s2
        x = self.res4(x, temb)
        x = self.inf_dec(x.reshape(B, -1, d), cap, cap_mask, e_tok, e_mask, eta).reshape(x.shape)
        x = self.up2(N.upsample_nearest2(x)) + s1
        x = self.res5(x, temb)
        return self.conv_out(N.silu(self.gn_out(x))).transpose(0, 3, 1, 2)

    # -- persistence --------------------------------------------------------

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"model": asdict(self.config), "schema_version": 1}
        meta.update(extra_meta or {})
        save_checkpoint(self.store, path, meta=meta)

    @classmethod
    def load(cls, path) -> tuple["InteractionDiffusionModel", dict]:
        store, meta = load_checkpoint(path)
        try:
            config = ModelConfig(**meta["model"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: no valid model config in metadata: {exc!r}") from exc
        model = cls(config)
        model.store.load_state(store)
        return model, meta


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    steps_phase1: int = 6000
    steps_phase2: int = 6000
    batch_size: int = 16
    lr: float = 1e-3
    warmup_steps: int = 200
    caption_dropout: float = 0.1
    seed: int = 0
    save_every: int = 2000
    log_every: int = 25


def _step_rng(seed: int, phase: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, phase, step])


def make_batch(dataset, rng, batch_size: int,
               caption_dropout: float, with_interactions: bool):
    """Assemble one training batch from (SceneSpec, image) pairs."""
    idx = rng.integers(0, len(dataset), size=batch_size)
    z0 = np.stack([dataset[i][1] for i in idx])
    captions = []
    interactions = [] if with_interactions else None
    for i in idx:
        scene = dataset[i][0]
        if caption_dropout > 0 and rng.random() < caption_dropout:
            captions.append([])
        else:
            captions.append(list(scene.caption_ids))
        if with_interactions:
            interactions.append(list(scene.interactions))
    return z0, captions, interactions


def loss_step(model: InteractionDiffusionModel, batch, rng, eta: int = 1) -> Tensor:
    """One objective evaluation: || eps - eps_pred ||^2 averaged over batch
    and pixels, with t and eps sampled from `rng`."""
    z0, captions, interactions = batch
    B = z0.shape[0]
    if B == 0:
        raise ContractError("empty batch")
    t = rng.integers(1, model.config.t_train + 1, size=B)
    eps = rng.standard_normal(z0.shape)
    z_t = model.schedule.q_sample(z0, t, eps)
    pred = model.forward(z_t, t, captions, interactions, eta=eta)
    diff = pred - Tensor(eps)
    return (diff * diff).mean()


def _truncate_metrics(path, last_step: int) -> None:
    """Drop the rows logged after `last_step`, which an interrupted run wrote
    after its last checkpoint, so that resuming does not log them twice."""
    with open(path, "r+b") as fh:
        keep = len(fh.readline())  # header
        for line in fh:
            if int(line.split(b",", 1)[0]) > last_step:
                break
            keep += len(line)
        fh.truncate(keep)


def train_phase(
    model: InteractionDiffusionModel,
    dataset,
    tcfg: TrainConfig,
    phase: int,
    out_dir,
    start_step: int = 0,
) -> str:
    """Run one training phase; returns the final checkpoint path.

    Per-step RNG is derived from (seed, phase, step), so resuming from a
    checkpoint reproduces an uninterrupted run bit-exactly.
    """
    if phase == 1:
        model.store.unfreeze("base.")
        model.store.freeze("inter.")
        steps = tcfg.steps_phase1
        with_inter = False
    elif phase == 2:
        model.store.freeze("base.")
        model.store.unfreeze("inter.")
        steps = tcfg.steps_phase2
        with_inter = True
    else:
        raise ContractError(f"phase must be 1 or 2, got {phase}")
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, f"metrics_phase{phase}.csv")
    write_header = start_step == 0 or not os.path.exists(metrics_path)
    if not write_header:
        _truncate_metrics(metrics_path, start_step)
    metrics = open(metrics_path, "a" if start_step else "w", newline="")
    writer = csv.writer(metrics)
    if write_header:
        writer.writerow(["step", "phase", "loss", "lr"])
    final_path = os.path.join(out_dir, f"phase{phase}_final.ckpt")
    try:
        model.store.zero_grad()
        for step in range(start_step + 1, steps + 1):
            rng = _step_rng(tcfg.seed, phase, step)
            batch = make_batch(
                dataset, rng, tcfg.batch_size, tcfg.caption_dropout, with_inter
            )
            loss = loss_step(model, batch, rng, eta=1)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss at phase {phase} step {step}; "
                    f"batch rng key ({tcfg.seed},{phase},{step})"
                )
            loss.backward()
            warm = min(1.0, step / max(tcfg.warmup_steps, 1))
            if phase == 1:
                prog = min(1.0, max(0.0, (step - tcfg.warmup_steps)
                                    / max(steps - tcfg.warmup_steps, 1)))
                decay = 0.1 + 0.9 * 0.5 * (1.0 + math.cos(math.pi * prog))
            else:
                # the gated interaction branch learns from a weak residual
                # signal; keep the rate constant instead of decaying it
                decay = 1.0
            lr = tcfg.lr * warm * decay
            adam_step(model.store, lr=lr)
            model.store.zero_grad()
            if step % tcfg.log_every == 0 or step == steps:
                writer.writerow([step, phase, f"{loss_val:.6f}", f"{lr:.2e}"])
                metrics.flush()
            if tcfg.save_every and step % tcfg.save_every == 0 and step < steps:
                model.save(
                    os.path.join(out_dir, f"phase{phase}_step{step:06d}.ckpt"),
                    extra_meta={"phase": phase, "step": step, "train": asdict(tcfg)},
                )
        model.save(final_path, extra_meta={"phase": phase, "step": steps, "train": asdict(tcfg)})
    finally:
        metrics.close()
    return final_path


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(
    model: InteractionDiffusionModel,
    caption_ids: list[list[int]],
    interactions=None,
    steps: int = 50,
    omega: float = 0.8,
    seed: int = 0,
    trunk: list | None = None,
) -> np.ndarray:
    """Deterministic (variance-zero) reverse diffusion; returns images
    (B, 3, S, S) in [-1, 1] territory.

    Steps where the schedule gates interaction off run the exact base-model
    computation, so omega = 0 reproduces caption-only sampling bitwise.

    The gate is on for the first n = ceil(omega * steps) steps, so at one
    (model, conditions, steps, seed) every omega branches off the same gated
    trajectory.  `trunk`, a list the caller keeps across such calls, holds
    its states after 0, 1, ... gated steps: a call extends it to n and runs
    its ungated tail from `trunk[n]`, bitwise as if it sampled alone.
    """
    T = model.config.t_train
    if steps > T:
        raise ContractError(f"steps {steps} exceeds T_train {T}")
    sampler_cfg = SamplerConfig(omega=omega, total_steps=steps)
    n = sum(eta_schedule(i, sampler_cfg) for i in range(1, steps + 1))
    B = len(caption_ids)
    S = model.config.image_size
    trunk = [] if trunk is None else trunk
    if not trunk:
        trunk.append(np.random.default_rng(seed).standard_normal((B, 3, S, S)))
    ts = np.rint(np.linspace(T, T / steps, steps)).astype(int)
    prev = np.append(ts[1:], 0)
    ab = model.schedule.alpha_bar

    def step(z, i, eta):  # reverse step i, 0-based
        t, tp = ts[i], prev[i]
        inter = interactions if eta == 1 else None
        eps = model.forward(z, np.full(B, t), caption_ids, inter, eta=eta).data
        x0 = np.clip((z - math.sqrt(1.0 - ab[t]) * eps) / math.sqrt(ab[t]), -1.0, 1.0)
        return math.sqrt(ab[tp]) * x0 + math.sqrt(1.0 - ab[tp]) * eps

    with N.no_grad():
        while len(trunk) <= n:
            trunk.append(step(trunk[-1], len(trunk) - 1, 1))
        z = trunk[n]
        for i in range(n, steps):
            z = step(z, i, 0)
    if not np.all(np.isfinite(z)):
        raise NumericError(f"sampling produced non-finite images (seed {seed}, omega {omega})")
    return z
