"""Named parameter storage, Adam updates and binary checkpoints.

Checkpoint layout:

    magic "IDCK" | u32 version (2) | u32 header length | header JSON (UTF-8)
    | arrays, raw and little-endian, back to back

The header is {"params": [{"name", "dtype", "shape", "frozen"}, ...],
"moments": [name, ...], "step_count": int, "meta": {...}}, with dtype "f4"
or "f8".  The arrays follow in header order: every parameter, then the
Adam m and v of each name in "moments", in its parameter's dtype and shape.
Round trips are bit-exact, and the little-endian payload keeps checkpoints
portable across machine byte orders.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from ..errors import CheckpointError, ContractError
from .tensor import Tensor

_MAGIC = b"IDCK"
_VERSION = 2
_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_CODES = {np.dtype(np.float32): "f4", np.dtype(np.float64): "f8"}


class ParameterStore:
    """Registry of named, optionally frozen parameter tensors.

    A parameter is frozen when its requires_grad is off, so the tape never
    accumulates gradient into it and the optimizer skips it.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
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

    def freeze(self, prefix: str = "") -> None:
        for name, t in self._params.items():
            if name.startswith(prefix):
                t.requires_grad = False
                t.grad = None

    def unfreeze(self, prefix: str = "") -> None:
        for name, t in self._params.items():
            if name.startswith(prefix):
                t.requires_grad = True

    def load_state(self, other: "ParameterStore") -> None:
        """Take over `other`'s parameter values, frozen flags, Adam moments
        and step count, e.g. a store read by load_checkpoint.

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
            t.requires_grad = other[name].requires_grad
            t.grad = None
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


def adam_step(store: ParameterStore, lr: float) -> None:
    """One Adam update (betas 0.9, 0.999; eps 1e-8) over all non-frozen
    parameters in `store`.

    Raises ContractError if any trainable parameter is missing its gradient.
    """
    b1, b2 = 0.9, 0.999
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in store.items():
        if not p.requires_grad:
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
        p.data -= lr * mhat / (np.sqrt(vhat) + 1e-8)


def save_checkpoint(store: ParameterStore, path, meta: dict | None = None) -> None:
    """Write `store` and `meta` to `path` in the layout of the module
    docstring; a failed or interrupted write leaves `path` as it was."""
    codes = {name: _CODES[p.data.dtype] for name, p in store.items()}
    moments = sorted(store._m)
    header = {
        "params": [{"name": name, "dtype": codes[name], "shape": list(p.shape),
                    "frozen": not p.requires_grad} for name, p in store.items()],
        "moments": moments,
        "step_count": store.step_count,
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray(_PREFIX.pack(_MAGIC, _VERSION, len(blob)) + blob)
    arrays = [(name, p.data) for name, p in store.items()]
    arrays += [(name, a) for name in moments for a in (store._m[name], store._v[name])]
    for name, a in arrays:
        out += a.astype("<" + codes[name], copy=False).tobytes()
    # write a sibling temp file and rename it over `path`
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


def load_checkpoint(path) -> tuple[ParameterStore, dict]:
    """Read a checkpoint; returns (store, meta).

    Raises CheckpointError on any file that is not a version-2 checkpoint:
    bad magic or version, a header that is not UTF-8 JSON of the documented
    form, an unknown dtype, moments of an unknown parameter, a short payload
    or trailing bytes.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_checkpoint(buf)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _parse_checkpoint(buf: bytes) -> tuple[ParameterStore, dict]:
    if len(buf) < _PREFIX.size or buf[:4] != _MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    _, version, header_len = _PREFIX.unpack_from(buf)
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    start = _PREFIX.size + header_len
    try:
        h = json.loads(buf[_PREFIX.size : start].decode("utf-8"))
        params = [(p["name"], p["dtype"], tuple(p["shape"]), p["frozen"]) for p in h["params"]]
        moments, step_count, meta = h["moments"], h["step_count"], h["meta"]
        unknown = set(moments) - {p[0] for p in params}
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise CheckpointError(f"malformed header: {exc}") from exc
    layout = {}
    for name, code, shape, frozen in params:
        if code not in _CODES.values():
            raise CheckpointError(f"unknown dtype {code!r} of parameter {name!r}")
        if not (isinstance(name, str) and name not in layout and isinstance(frozen, bool)
                and all(isinstance(d, int) and d >= 0 for d in shape)):
            raise CheckpointError(f"malformed or repeated header entry for parameter {name!r}")
        layout[name] = (np.dtype("<" + code), shape)
    if unknown or len(set(moments)) != len(moments):
        raise CheckpointError(f"Adam moments for unknown or repeated parameters {unknown or moments}")
    if not (isinstance(step_count, int) and step_count >= 0 and isinstance(meta, dict)):
        raise CheckpointError("malformed header: step count or meta")
    order = list(layout.values()) + [layout[name] for name in moments for _ in "mv"]
    size = sum(dt.itemsize * math.prod(shape) for dt, shape in order)
    if len(buf) - start != size:
        raise CheckpointError(f"payload holds {len(buf) - start} bytes, the header describes {size}")
    arrays = []
    for dt, shape in order:
        count = math.prod(shape)
        arrays.append(np.frombuffer(buf, dt, count, start).reshape(shape).astype(dt.newbyteorder("=")))
        start += count * dt.itemsize
    store = ParameterStore()
    for (name, _, _, frozen), arr in zip(params, arrays):
        store.add(name, Tensor(arr, dtype=arr.dtype)).requires_grad = not frozen
    n = len(params)
    for name, m, v in zip(moments, arrays[n::2], arrays[n + 1 :: 2]):
        store._m[name], store._v[name] = m, v
    store.step_count = step_count
    return store, meta
