"""Named parameter storage, Adam updates and binary checkpoints.

Checkpoint layout (all little-endian):

    magic "IDCK" | u32 version | u32 n_params
    per param: u16 name_len | name utf8 | u8 dtype tag (0=f64, 1=f32)
               | u8 frozen | u8 rank | u32 dims... | raw payload
    u64 adam step count | u32 n_moment_pairs
    per pair:  u16 name_len | name utf8 | u8 dtype tag | m payload | v payload
    u32 meta_len | meta JSON utf8

Round-trips are bit-exact; payloads are always written little-endian so
checkpoints are portable across machine word orders.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from ..errors import CheckpointError, ContractError
from .tensor import Tensor

_MAGIC = b"IDCK"
_VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_TAG_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class ParameterStore:
    """Registry of named, optionally frozen parameter tensors.

    Frozen parameters have requires_grad switched off, so the tape never
    accumulates gradient into them and the optimizer skips them.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._frozen: set[str] = set()
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count: int = 0

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def is_frozen(self, name: str) -> bool:
        return name in self._frozen

    def freeze(self, prefix: str = "") -> None:
        for name, t in self._params.items():
            if name.startswith(prefix):
                self._frozen.add(name)
                t.requires_grad = False
                t.grad = None

    def unfreeze(self, prefix: str = "") -> None:
        for name, t in self._params.items():
            if name.startswith(prefix):
                self._frozen.discard(name)
                t.requires_grad = True

    def load_state(self, other: "ParameterStore") -> None:
        """Take over `other`'s parameter values, Adam moments, frozen set and
        step count, e.g. a store read by load_checkpoint.

        Raises CheckpointError unless both stores hold the same parameter
        names with the same shapes.
        """
        expected = {name: t.shape for name, t in self._params.items()}
        found = {name: t.shape for name, t in other.items()}
        if found != expected:
            names = expected.keys() | found.keys()
            bad = sorted(n for n in names if found.get(n) != expected.get(n))
            raise CheckpointError(
                "parameters differ from the model's (name: shape found, shape expected): "
                + ", ".join(f"{n}: {found.get(n)}, {expected.get(n)}" for n in bad)
            )
        for name, t in self._params.items():
            t.data = other[name].data
            t.requires_grad = not other.is_frozen(name)
            t.grad = None
        self._frozen = set(other._frozen)
        self._m, self._v = other._m, other._v
        self.step_count = other.step_count

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_hash(self, prefix: str = "") -> int:
        """Order-stable hash of raw parameter bytes under `prefix`."""
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self._params):
            if name.startswith(prefix):
                h.update(name.encode())
                h.update(self._params[name].data.tobytes())
        return int.from_bytes(h.digest()[:8], "little")


def adam_step(
    store: ParameterStore,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One Adam update over all non-frozen parameters in `store`.

    Raises ContractError if any trainable parameter is missing its gradient.
    """
    b1, b2 = betas
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in store.items():
        if store.is_frozen(name):
            continue
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient; run backward first")
        g = p.grad
        m = store._m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            store._m[name] = m
            store._v[name] = np.zeros_like(p.data)
        v = store._v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def save_checkpoint(store: ParameterStore, path, meta: dict | None = None) -> None:
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<II", _VERSION, len(store))
    for name in store.names():
        p = store[name]
        tag = _DTYPE_TAGS[np.dtype(p.data.dtype)]
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<BBB", tag, int(store.is_frozen(name)), p.data.ndim)
        out += struct.pack(f"<{p.data.ndim}I", *p.data.shape)
        out += np.ascontiguousarray(p.data, dtype=_TAG_DTYPES[tag]).tobytes()
    moments = sorted(store._m)
    out += struct.pack("<QI", store.step_count, len(moments))
    for name in moments:
        m, v = store._m[name], store._v[name]
        tag = _DTYPE_TAGS[np.dtype(m.dtype)]
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<B", tag)
        out += np.ascontiguousarray(m, dtype=_TAG_DTYPES[tag]).tobytes()
        out += np.ascontiguousarray(v, dtype=_TAG_DTYPES[tag]).tobytes()
    out += struct.pack("<I", len(meta_blob)) + meta_blob
    # write a sibling temp file and rename it over `path`, so that a failed or
    # interrupted write leaves the previous checkpoint intact
    tmp = os.fspath(path) + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(out)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        vals = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += size
        return vals

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        out = self.buf[self.pos : self.pos + size]
        self.pos += size
        return out


def load_checkpoint(path) -> tuple[ParameterStore, dict]:
    """Read a checkpoint; returns (store, meta)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if r.raw(4) != _MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    version, n_params = r.unpack("<II")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    store = ParameterStore()
    frozen_names = []
    for _ in range(n_params):
        (name_len,) = r.unpack("<H")
        name = r.raw(name_len).decode("utf-8")
        tag, frozen, rank = r.unpack("<BBB")
        dims = r.unpack(f"<{rank}I") if rank else ()
        dt = _TAG_DTYPES[tag]
        count = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(r.raw(count * dt.itemsize), dtype=dt).reshape(dims)
        native = np.float64 if tag == 0 else np.float32
        store.add(name, Tensor(arr.astype(native), requires_grad=True, dtype=native))
        if frozen:
            frozen_names.append(name)
    step_count, n_moments = r.unpack("<QI")
    store.step_count = step_count
    for _ in range(n_moments):
        (name_len,) = r.unpack("<H")
        name = r.raw(name_len).decode("utf-8")
        (tag,) = r.unpack("<B")
        dt = _TAG_DTYPES[tag]
        shape = store[name].data.shape
        count = int(np.prod(shape)) if shape else 1
        native = np.float64 if tag == 0 else np.float32
        store._m[name] = np.frombuffer(r.raw(count * dt.itemsize), dtype=dt).reshape(shape).astype(native)
        store._v[name] = np.frombuffer(r.raw(count * dt.itemsize), dtype=dt).reshape(shape).astype(native)
    (meta_len,) = r.unpack("<I")
    meta = json.loads(r.raw(meta_len).decode("utf-8"))
    for name in frozen_names:
        store.freeze(name)
    return store, meta
