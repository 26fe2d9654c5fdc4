"""Dense float64 tensors with tape-based reverse-mode autodiff.

Everything is stored row-major contiguous at float64. Reductions delegate to
numpy, whose summation order is fixed for a given shape, so repeated runs on
identical inputs are bitwise identical.

Finite-check contract: every operation that computes new values validates that
its output is finite and raises FloatingPointError naming the op otherwise.
The pure rearrangements (`transpose`, `swapaxes`, `reshape`, `broadcast_to`,
`select_index`) only move values that an earlier check already saw, so they
skip it.

Backward functions compute no gradient for an input with
requires_grad=False; they return None in its place.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "zeros",
    "backward",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "matmul",
    "transpose",
    "swapaxes",
    "reshape",
    "broadcast_to",
    "select_index",
    "tsum",
    "tmean",
    "softmax",
    "silu",
    "layer_norm",
    "embedding",
    "cross_entropy",
    "dropout",
    "lora_delta",
    "l2_normalize_rows",
    "neg_l2_distance",
    "neg_l1_distance",
    "singular_values",
    "numeric_rank",
    "save_tensor",
    "load_tensor",
    "save_named",
    "load_named",
]

NORM_FLOOR = 1e-12


def _as_array(values) -> np.ndarray:
    # np.asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would
    # promote them to shape (1,))
    return np.asarray(values, dtype=np.float64, order="C")


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by '{op}'")


class Tensor:
    """A contiguous float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        _check_finite(self.data, "tensor")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Records operations so `backward` can replay them in reverse.

    The node list is appended in execution order; since every node's inputs
    were created before the node itself, reverse list order is a valid
    reverse topological order.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def clear(self) -> None:
        self.nodes.clear()


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn,
          check: bool = True) -> Tensor:
    out_data = _as_array(out_data)
    if check:
        _check_finite(out_data, op)
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = track
    out.grad = None
    if track:
        tape.nodes.append(_Node(inputs, out, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from `loss`.

    The loss must be a scalar produced on the active tape; the tape is
    cleared afterwards. Gradients accumulate (+=) into existing buffers so
    repeated calls realize gradient accumulation until zero_grad.
    """
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    if loss.data.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not any(node.output is loss for node in tape.nodes):
        raise ValueError("loss is detached from the active tape")

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        out = node.output
        if out.grad is None:
            continue
        grads = node.backward_fn(out.grad)
        for inp, g in zip(node.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.ascontiguousarray(g, dtype=np.float64)
            else:
                inp.grad = inp.grad + g
    tape.clear()


# ---------------------------------------------------------------------------
# elementwise / shape ops
# ---------------------------------------------------------------------------


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def back(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _make("add", out, (a, b), back)


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def back(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _make("mul", out, (a, b), back)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data / b.data

    def back(g):
        return (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None,
        )

    return _make("div", out, (a, b), back)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batching; 2-D operands behave classically."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands of rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out = a.data @ b.data

    def back(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _make("matmul", out, (a, b), back)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _make("transpose", a.data.T, (a,), lambda g: (np.ascontiguousarray(g.T),), check=False)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = _wrap(a)
    out = np.swapaxes(a.data, axis1, axis2)

    def back(g):
        return (np.ascontiguousarray(np.swapaxes(g, axis1, axis2)),)

    return _make("swapaxes", out, (a,), back, check=False)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def back(g):
        return (g.reshape(a.data.shape),)

    return _make("reshape", out, (a,), back, check=False)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape)

    def back(g):
        return (_unbroadcast(g, a.data.shape),)

    return _make("broadcast_to", out, (a,), back, check=False)


def select_index(a, axis: int, index: int) -> Tensor:
    """Take one slice along `axis`, keeping the axis with size 1."""
    a = _wrap(a)
    if not (0 <= index < a.data.shape[axis]):
        raise IndexError(f"index {index} out of range for axis {axis}")
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(index, index + 1)
    sl = tuple(sl)
    out = a.data[sl]

    def back(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        return (full,)

    return _make("select_index", out, (a,), back, check=False)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make("sum", out, (a,), back)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / n)


# ---------------------------------------------------------------------------
# nonlinearities and fused layers
# ---------------------------------------------------------------------------


def _softmax_rows(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically-stabilized softmax along `axis`; rows sum to 1."""
    a = _wrap(a)
    if not (-a.ndim <= axis < a.ndim):
        raise ValueError(f"softmax axis {axis} invalid for rank {a.ndim}")
    y = _softmax_rows(a.data, axis)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make("softmax", y, (a,), back)


def silu(a) -> Tensor:
    a = _wrap(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * sig

    def back(g):
        return (g * sig * (1.0 + a.data * (1.0 - sig)),)

    return _make("silu", out, (a,), back)


def layer_norm(a, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    a = _wrap(a)
    d = a.data.shape[-1]
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def back(g):
        dx = dgamma = dbeta = None
        if a.requires_grad:
            dxhat = g * gamma.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        lead = tuple(range(a.ndim - 1))
        if gamma.requires_grad:
            dgamma = (g * xhat).sum(axis=lead)
        if beta.requires_grad:
            dbeta = g.sum(axis=lead)
        return dx, dgamma, dbeta

    return _make("layer_norm", out, (a, gamma, beta), back)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding ids out of range")
    out = table.data[ids]

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make("embedding", out, (table,), back)


def cross_entropy(logits, targets: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Weighted-mean softmax cross entropy over rows of (N, C) logits.

    `weights` defaults to all-ones; rows with weight 0 contribute nothing to
    the loss or the gradient (used to mask out invalid next-token positions).
    """
    logits = _wrap(logits)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects (N, C) logits")
    n, c = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ValueError("targets must be 1-D, one per logits row")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise ValueError("target class out of range")
    w = np.ones(n, dtype=np.float64) if weights is None else _as_array(weights)
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("cross_entropy weights sum to zero")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), targets]
    out = np.float64((nll * w).sum() / wsum)

    def back(g):
        p = _softmax_rows(logits.data, 1)
        p[np.arange(n), targets] -= 1.0
        return (g * p * (w / wsum)[:, None],)

    return _make("cross_entropy", out, (logits,), back)


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; `rng` supplies the mask so callers control seeding."""
    a = _wrap(a)
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def back(g):
        return (g * mask,)

    return _make("dropout", a.data * mask, (a,), back)


def lora_delta(x, a: Tensor, b: Tensor, scale: float, p: float,
               rng: np.random.Generator | None) -> Tensor:
    """scale * dropout(x) @ a^T @ b^T as one tape node.

    `x` is (..., d_in), `a` is (r, d_in) and `b` is (d_out, r). Dropout runs
    only when `rng` is given and p > 0, drawing its mask from `rng` exactly as
    `dropout` does. Forward and backward replay the numpy calls of the chain
    dropout, transpose, matmul, transpose, matmul, mul in the same order, so
    values and gradients are bitwise equal to it.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    mask = None
    xd = x.data
    if rng is not None and p > 0.0:
        mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
        xd = _as_array(x.data * mask)
    at = _as_array(a.data.T)
    xa = _as_array(xd @ at)
    bt = _as_array(b.data.T)
    xab = _as_array(xa @ bt)
    s = _as_array(scale)

    def back(g):
        g_xab = g * s
        gb = None
        if b.requires_grad:
            g_bt = _unbroadcast(np.swapaxes(xa, -1, -2) @ g_xab, bt.shape)
            gb = np.ascontiguousarray(g_bt.T)
        if not (x.requires_grad or a.requires_grad):
            return None, None, gb
        g_xa = g_xab @ np.swapaxes(bt, -1, -2)
        gx = ga = None
        if x.requires_grad:
            gx = g_xa @ np.swapaxes(at, -1, -2)
            if mask is not None:
                gx = gx * mask
        if a.requires_grad:
            g_at = _unbroadcast(np.swapaxes(xd, -1, -2) @ g_xa, at.shape)
            ga = np.ascontiguousarray(g_at.T)
        return gx, ga, gb

    return _make("lora_delta", xab * s, (x, a, b), back)


def l2_normalize_rows(a, floor: float = NORM_FLOOR) -> Tensor:
    """Scale each row to unit L2 norm; rows below `floor` divide by `floor`.

    A zero row therefore maps to the zero row (similarity 0 to everything)
    instead of raising.
    """
    a = _wrap(a)
    if a.ndim != 2:
        raise ValueError("l2_normalize_rows expects a 2-D tensor")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, floor)
    y = a.data / safe

    def back(g):
        floored = norms <= floor
        dot = (g * y).sum(axis=1, keepdims=True)
        gx = np.where(floored, g / floor, (g - y * dot) / safe)
        return (gx,)

    return _make("l2_normalize_rows", y, (a,), back)


def neg_l2_distance(a, centers: np.ndarray) -> Tensor:
    """out[t, e] = -||a[t] - centers[e]||_2 with centers held constant."""
    a = _wrap(a)
    c = _as_array(centers)
    diff = a.data[:, None, :] - c[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    out = -dist

    def back(g):
        safe = np.maximum(dist, NORM_FLOOR)
        return ((-g / safe)[:, :, None] * diff).sum(axis=1),

    return _make("neg_l2_distance", out, (a,), back)


def neg_l1_distance(a, centers: np.ndarray) -> Tensor:
    """out[t, e] = -||a[t] - centers[e]||_1 with centers held constant."""
    a = _wrap(a)
    c = _as_array(centers)
    diff = a.data[:, None, :] - c[None, :, :]
    out = -np.abs(diff).sum(axis=2)

    def back(g):
        return ((-g)[:, :, None] * np.sign(diff)).sum(axis=1),

    return _make("neg_l1_distance", out, (a,), back)


# ---------------------------------------------------------------------------
# singular values / numeric rank
# ---------------------------------------------------------------------------


def singular_values(a) -> np.ndarray:
    """Singular values, descending (LAPACK via `np.linalg.svd`)."""
    arr = _as_array(a.data if isinstance(a, Tensor) else a)
    if arr.ndim != 2:
        raise ValueError("singular_values expects a matrix")
    return np.linalg.svd(arr, compute_uv=False)


def numeric_rank(a) -> int:
    """Rank = count of singular values above sigma_max * max(dims) * 1e-12."""
    arr = _as_array(a.data if isinstance(a, Tensor) else a)
    sv = singular_values(arr)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    tol = sv[0] * max(arr.shape) * 1e-12
    return int((sv > tol).sum())


# ---------------------------------------------------------------------------
# binary snapshots
# ---------------------------------------------------------------------------


def save_tensor(path, arr) -> None:
    """Write `arr` as: u64 rank, u64 dims..., raw float64 payload (all LE)."""
    arr = _as_array(arr.data if isinstance(arr, Tensor) else arr)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def load_tensor(path, shape: Sequence[int] | None = None) -> np.ndarray:
    """Read a `save_tensor` file; raises ValueError naming `path` on a
    truncated file, trailing bytes, or a shape other than `shape` (if given)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<Q", raw)
    header = 8 * (1 + rank)
    if len(raw) < header:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}Q", raw, 8)
    count = int(np.prod(dims)) if dims else 1
    if len(raw) != header + count * 8:
        raise ValueError(
            f"{path}: payload is {len(raw) - header} bytes, shape {dims} needs {count * 8}"
        )
    if shape is not None and tuple(dims) != tuple(shape):
        raise ValueError(f"{path}: shape {dims} does not match expected {tuple(shape)}")
    arr = np.frombuffer(raw, dtype="<f8", count=count, offset=header).astype(np.float64)
    return _as_array(arr.reshape(dims))


def save_named(directory, arrays: Mapping[str, np.ndarray], manifest: dict) -> None:
    """Write every array as `<name>.bin` and `manifest` as `manifest.json`.

    The manifest is JSON with two-space indent and sorted keys; this is the one
    checkpoint format that backbones, adapter banks and router states share.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in arrays.items():
        save_tensor(directory / f"{name}.bin", arr)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_named(
    directory, shapes: Callable[[dict], Mapping[str, Sequence[int]]]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a `save_named` directory: (manifest, {name: array}).

    `shapes(manifest)` names the files to read and the shape each must have;
    a missing, truncated or wrong-shape file raises naming the file.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    arrays = {name: load_tensor(directory / f"{name}.bin", shape=shape)
              for name, shape in shapes(manifest).items()}
    return manifest, arrays
