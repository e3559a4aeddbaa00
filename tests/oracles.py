"""Independent oracles shared by the test suite.

These deliberately avoid the library's own gradient machinery: finite
differences perturb raw numpy buffers and re-run the forward function.  The
exceptions are the bitwise references for two ops: `composed_attention`, the
graph of primitive nodes that the fused attention op replaces, and
`composed_conv2d`, the whole-batch im2col convolution that the chunked
`conv2d` replaces.
"""

import json
import struct

import numpy as np

from interactdiff.geometry import BoundingBox
from interactdiff.numerics import Tensor
from interactdiff.numerics.tensor import _make


def fd_gradient(func, arrays, index, h=1e-5):
    """Central finite-difference gradient of scalar func w.r.t. arrays[index].

    func receives freshly-built Tensors for every array and must return a
    Tensor scalar.  Only raw numpy data flows in, so the check is independent
    of the tape.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[index])
    it = np.nditer(base[index], flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = [b.copy() for b in base]
        minus = [b.copy() for b in base]
        plus[index][idx] += h
        minus[index][idx] -= h
        fp = func(*[Tensor(b) for b in plus]).item()
        fm = func(*[Tensor(b) for b in minus]).item()
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def analytic_gradient(func, arrays, index):
    """Tape gradient of scalar func w.r.t. arrays[index]."""
    ts = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    func(*ts).backward()
    g = ts[index].grad
    return np.zeros_like(ts[index].data) if g is None else g


def check_gradients(func, arrays, rtol=1e-4, h=1e-5):
    """Assert analytic vs FD gradients agree for every input array."""
    for i in range(len(arrays)):
        ana = analytic_gradient(func, arrays, i)
        num = fd_gradient(func, arrays, i, h=h)
        scale = np.maximum(np.abs(num), 1.0)
        err = np.max(np.abs(ana - num) / scale)
        assert err <= rtol, f"gradient mismatch on input {i}: max rel err {err:.3e}"


def softmax(a, axis=-1):
    """Stable softmax as its own graph node, out of place."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (g - dot))

    return _make(data, (a,), backward, "softmax")


def composed_attention(q, k, v, n_heads, bias=None):
    """Multi-head attention composed from primitive graph nodes: scale, head
    split, q k^T, + bias, softmax, @ v, head merge.  The fused
    `numerics.attention` must match it bit for bit, forward and backward."""
    B, Sq, D = q.shape
    Sk = k.shape[1]
    dh = D // n_heads
    q = q * (1.0 / np.sqrt(dh))
    qh = q.reshape(B, Sq, n_heads, dh).transpose(0, 2, 1, 3)  # (B, H, Sq, dh)
    kt = k.reshape(B, Sk, n_heads, dh).transpose(0, 2, 3, 1)  # (B, H, dh, Sk)
    vh = v.reshape(B, Sk, n_heads, dh).transpose(0, 2, 1, 3)  # (B, H, Sk, dh)
    scores = qh @ kt
    if bias is not None:
        scores = scores + bias
    out = softmax(scores) @ vh  # (B, H, Sq, dh)
    return out.transpose(0, 2, 1, 3).reshape(B, Sq, D)


def composed_conv2d(x, w, b, stride=1):
    """conv2d as whole-batch im2col: kh*kw slice copies into one
    (B*Ho*Wo, kh*kw*Cin) column matrix kept for backward, one GEMM each for
    the output and the weight and column gradients, and col2im that adds the
    column gradient's slices back in tap order.  `numerics.conv2d` must
    match it bit for bit, forward and backward, except for the gradients of
    3-wide convs at batches up to 8, whose per-tap GEMMs OpenBLAS may run
    with another kernel
    (test_conv2d_small_batch_three_wide_weight_gradient_within_rounding)."""
    B, H, W, Cin = x.data.shape
    Cout, _, kh, kw = w.data.shape
    Ho = (H + 2 - kh) // stride + 1
    Wo = (W + 2 - kw) // stride + 1
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = [(slice(None), slice(i, i + stride * Ho, stride), slice(j, j + stride * Wo, stride))
               for i in range(kh) for j in range(kw)]
    col = np.empty((B, Ho, Wo, kh * kw, Cin), dtype=xp.dtype)
    for n, win in enumerate(windows):
        col[:, :, :, n] = xp[win]
    col = col.reshape(B * Ho * Wo, kh * kw * Cin)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(Cout, -1)
    out = (col @ wmat.T).reshape(B, Ho, Wo, Cout)
    out += b.data

    def backward(g):
        gmat = g.reshape(B * Ho * Wo, Cout)
        if b.requires_grad:
            b._accumulate(gmat.sum(axis=0))
        if w.requires_grad:
            gw = gmat.T @ col
            w._accumulate(gw.reshape(Cout, kh, kw, Cin).transpose(0, 3, 1, 2))
        if x.requires_grad:
            gcol = (gmat @ wmat).reshape(B, Ho, Wo, kh * kw, Cin)
            gxp = np.zeros(xp.shape, dtype=x.data.dtype)
            for n, win in enumerate(windows):
                gxp[win] += gcol[:, :, :, n]
            x._accumulate(gxp[:, 1:-1, 1:-1])

    return _make(out, (x, w, b), backward, "conv2d")


def between_bruteforce(bs, bo):
    """Sort-and-take-ranks oracle for the action box."""
    xs = sorted([bs[0], bs[2], bo[0], bo[2]])
    ys = sorted([bs[1], bs[3], bo[1], bo[3]])
    return (xs[1], ys[1], xs[2], ys[2])


def bounding_hull(a, b):
    """Smallest BoundingBox covering boxes a and b."""
    return BoundingBox(min(a.x_min, b.x_min), min(a.y_min, b.y_min),
                       max(a.x_max, b.x_max), max(a.y_max, b.y_max))


def box_contains(outer, inner):
    """Whether BoundingBox `inner` lies inside `outer`, edges included."""
    return (outer.x_min <= inner.x_min and outer.y_min <= inner.y_min
            and inner.x_max <= outer.x_max and inner.y_max <= outer.y_max)


def iou_bruteforce(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def mmd2_full_ustat(x, y, kernel):
    """Brute-force unbiased squared-MMD U-statistic (double loops).

    For equal sample counts the cross term skips paired indices, matching
    the convention where identical sets score exactly zero.
    """
    m, n = len(x), len(y)
    xx = sum(kernel(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    yy = sum(kernel(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    if m == n:
        xy = sum(kernel(x[i], y[j]) for i in range(m) for j in range(n) if i != j)
        cross = 2.0 * xy / (m * (m - 1))
    else:
        xy = sum(kernel(x[i], y[j]) for i in range(m) for j in range(n))
        cross = 2.0 * xy / (m * n)
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - cross


# one fault per malformed-checkpoint case, with a pattern its error matches
CHECKPOINT_FAULTS = {
    "magic": "magic",
    "version": "version 1",
    "version-2": "version 2",
    "utf8": "malformed header",
    "json": "malformed header",
    "dtype": "unknown dtype 'f2'",
    "moment": "no.such.param",
    "short": "payload",
    "trailing": "payload",
}


def corrupt_checkpoint(data: bytes, fault: str) -> bytes:
    """Checkpoint bytes with one fault from CHECKPOINT_FAULTS. The layout
    (magic | u32 version | u32 header length | JSON header | arrays) is
    decoded here with struct and json, not with the library's reader. The
    "moment" fault needs a checkpoint with Adam moments."""
    prefix = struct.Struct("<4sII")
    magic, version, n = prefix.unpack_from(data)
    header, payload = data[prefix.size : prefix.size + n], data[prefix.size + n :]
    if fault == "magic":
        return b"XXXX" + data[4:]
    if fault in ("version", "version-2"):
        return prefix.pack(magic, 1 if fault == "version" else 2, n) + data[prefix.size :]
    if fault in ("utf8", "json"):
        return data[: prefix.size] + (b"\xff" if fault == "utf8" else b"x") + data[prefix.size + 1 :]
    if fault == "short":
        return data[:-1]
    if fault == "trailing":
        return data + b"\0"
    h = json.loads(header)
    if fault == "dtype":
        h["params"][0]["dtype"] = "f2"
    elif fault == "moment":
        h["moments"][0] = "no.such.param"
    else:
        raise ValueError(f"unknown fault {fault!r}")
    blob = json.dumps(h).encode("utf-8")
    return prefix.pack(magic, version, len(blob)) + blob + payload


# malformed scene records: each names a change to a well-formed record
SCENE_FAULTS = ("no-interactions", "caption-999", "box-string", "subject-is-action",
                "ba-not-between")


def corrupt_scene_record(obj: dict, fault: str) -> dict:
    """A copy of JSONL scene record `obj` with one fault from SCENE_FAULTS."""
    obj = json.loads(json.dumps(obj))
    if fault == "no-interactions":
        del obj["interactions"]
    elif fault == "caption-999":
        obj["caption_ids"][0] = 999
    elif fault == "box-string":
        obj["interactions"][0]["bs"] = "abcd"
    elif fault == "subject-is-action":
        obj["interactions"][0]["s"] = 9  # "pushing"
    elif fault == "ba-not-between":
        obj["interactions"][0]["ba"] = obj["interactions"][0]["bs"]
    else:
        raise ValueError(f"unknown fault {fault!r}")
    return obj


def live_phase2_checkpoint(path, config):
    """Save a fresh model in its phase-2 state (base frozen, `inter.*`
    trainable) with perturbed interaction weights, open gates and a nonzero
    output conv (it is zero-initialised), so that gated and ungated denoise
    steps differ; returns `path`."""
    from interactdiff.diffusion import InteractionDiffusionModel

    model = InteractionDiffusionModel(config)
    model.store.freeze("base.")
    model.store.unfreeze("inter.")
    rng = np.random.default_rng(5)
    for name, p in model.store.items():
        if name.endswith("gate_gamma"):
            p.data[...] = 1.0
        elif name.startswith(("inter.", "base.conv_out.")):
            p.data += rng.normal(0.0, 0.05, size=p.shape)
    model.save(path)
    return path


def random_tokens(rng, n, d):
    """Stand-in tokenizer output for n instances: (h_s, h_a, h_o), each
    (n, d), drawn instance by instance in that role order."""
    draws = [[rng.normal(size=d) for _ in range(3)] for _ in range(n)]
    return tuple(np.array([row[role] for row in draws]).reshape(n, d) for role in range(3))


def token_block(h_s, h_a, h_o):
    """Those rows in the tokenizer's layout: every subject row, then every
    object row, then every action row."""
    return Tensor(np.concatenate([h_s, h_o, h_a]))
