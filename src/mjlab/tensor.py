"""Dense float64 tensors with tape-based reverse-mode autodiff.

Everything is stored row-major contiguous at float64. Reductions delegate to
numpy, whose summation order is fixed for a given shape, so repeated runs on
identical inputs are bitwise identical.

Finite-check contract: every operation that computes new values validates that
its output is finite and raises FloatingPointError naming the op otherwise.
The pure rearrangements (`transpose`, `swapaxes`, `reshape`, `broadcast_to`,
`select_index`) only move values that an earlier check already saw, so they
skip it.

Backward contract: the tape holds gradient slots, not tensors. A tracked op
output gets a `_Slot`; its node holds that slot, the slot of each input an op
made, each leaf input (a parameter or user tensor) itself, and None for an
input that needs no gradient. Each node's closure keeps only what its
backward reads: shapes, requires_grad flags and the arrays it uses. So an op
output whose values no backward reads is freed as soon as the caller drops
it. `backward` pops the nodes in reverse order and takes each node's output
gradient off its slot before using it, so an intermediate gradient and the
node's closure are freed as soon as the node has run. Only leaves keep a
`.grad`. Backward functions compute no gradient for an input with
requires_grad=False; they give None in its place. A backward function gives
its gradients as an iterable in `inputs` order, and `backward` adds each to
its input before it asks for the next: the projection node and the LoRA term
are generators, so a node holds one input's gradient at a time and a
stack of E adapters rebuilds one adapter at a time, from its own slices.

Replay contract of the fused ops (`adapted_projections`, `causal_attention`,
`swiglu`, `adapter_delta`, `route_coefficients`): each is one tape node that
runs, in order, the numpy calls of the chain of simpler ops it replaces,
including each contiguous copy those ops make (a copy changes the memory
layout a later matmul reads, and so its result). Values and gradients are
bitwise equal to the chain's; only the op named by a finite check differs.
What each keeps, and what its backward rebuilds with the forward's own
expressions:
- `adapted_projections`: W^T, and x only when a weight trains, plus what
  each adapter term keeps;
- a `LoRA` term, always a stack of E >= 1 adapters: x, the masks packed to
  bits, the stacked A^T and B^T and the gate; it rebuilds, per adapter,
  the float mask, dropout(x), x_d A_e^T, the gate column and the ungated
  delta;
- a `Propulsion` term: its frozen product, the mask packed to bits and the
  gate column; it rebuilds dropout(W x) and the ungated delta;
- `swiglu`: the stacked up|gate; it rebuilds sigmoid(gate) and silu(gate);
- `causal_attention`: the head-split q, k^T and v and the attention weights,
  which would cost a second softmax to rebuild;
- `route_coefficients`: the softmax, the top-k mask and what the
  similarity's backward reads.
`adapted_projections` is every x W^T of the model. A block's projections on
one shared input, each with its adapter term (`LoRA` or `Propulsion`), come
out stacked on a leading axis: `causal_attention` takes the stacked q, k, v
and `swiglu` the stacked up, gate. With one weight and no term it is the
`lm_head` logits, the classifier head and the MoE router.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "matmul",
    "adapted_projections",
    "transpose",
    "swapaxes",
    "reshape",
    "broadcast_to",
    "select_index",
    "tsum",
    "tmean",
    "softmax",
    "silu",
    "swiglu",
    "causal_attention",
    "layer_norm",
    "embedding",
    "cross_entropy",
    "dropout",
    "LoRA",
    "Propulsion",
    "adapter_delta",
    "topk_mask",
    "route_coefficients",
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
LN_EPS = 1e-5


def _as_array(values) -> np.ndarray:
    # np.asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would
    # promote them to shape (1,))
    return np.asarray(values, dtype=np.float64, order="C")


def shown(value) -> str:
    """The repr of a rejected value for an error message, cut to its first
    40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by '{op}'")


class Tensor:
    """A contiguous float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "slot")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        _check_finite(self.data, "tensor")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.slot: _Slot | None = None  # set on an op output the tape tracks

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


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


class _Slot:
    """The gradient of one tracked op output while `backward` runs."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class _Node:
    """`output` is the output's slot; `inputs` holds, per input, its slot,
    the leaf Tensor itself, or None when it needs no gradient."""

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
    out.grad = out.slot = None
    if track:
        out.slot = _Slot()
        inputs = tuple(t.slot or t if t.requires_grad else None for t in inputs)
        tape.nodes.append(_Node(inputs, out.slot, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from `loss`.

    The loss must be a scalar produced on the active tape. Nodes are popped
    in reverse order, and each output's gradient is taken off its slot as its
    node runs, so intermediate gradients and node closures are freed on the
    way and the tape is empty afterwards; only leaves keep their `.grad`.
    A node's gradients are an iterable in `inputs` order, and each is added
    to its input before the next is computed.
    Gradients accumulate (+=) into existing leaf buffers so repeated calls
    realize gradient accumulation until zero_grad.
    """
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    if loss.data.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not any(node.output is loss.slot for node in tape.nodes):
        raise ValueError("loss is detached from the active tape")

    loss.slot.grad = np.ones((), dtype=np.float64)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        out = node.output
        g_out, out.grad = out.grad, None
        if g_out is None:
            continue
        grads = iter(node.backward_fn(g_out))
        for inp in node.inputs:  # not zip: it would hold the last gradient while the next is computed
            g = next(grads)
            if g is not None and inp is not None:
                inp.grad = np.ascontiguousarray(g, dtype=np.float64) if inp.grad is None else inp.grad + g
            del g
        del grads


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
    shapes = [t.shape if t.requires_grad else None for t in (a, b)]
    return _make("add", a.data + b.data, (a, b),
                 lambda g: [None if sh is None else _unbroadcast(g, sh) for sh in shapes])


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    ad, bd = a.data if b.requires_grad else None, b.data if a.requires_grad else None

    def back(g):
        return (
            _unbroadcast(g * bd, a_shape) if bd is not None else None,
            _unbroadcast(g * ad, b_shape) if ad is not None else None,
        )

    return _make("mul", out, (a, b), back)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data / b.data
    a_shape, a_grad, bd = a.shape, a.requires_grad, b.data
    ad = a.data if b.requires_grad else None

    def back(g):
        return (
            _unbroadcast(g / bd, a_shape) if a_grad else None,
            _unbroadcast(-g * ad / (bd * bd), bd.shape) if ad is not None else None,
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
    a_shape, b_shape = a.shape, b.shape
    ad, bd = a.data if b.requires_grad else None, b.data if a.requires_grad else None

    def back(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), a_shape) if bd is not None else None
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b_shape) if ad is not None else None
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
    out, a_shape = a.data.reshape(shape), a.shape

    def back(g):
        return (g.reshape(a_shape),)

    return _make("reshape", out, (a,), back, check=False)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    out, a_shape = np.broadcast_to(a.data, shape), a.shape

    def back(g):
        return (_unbroadcast(g, a_shape),)

    return _make("broadcast_to", out, (a,), back, check=False)


def select_index(a, axis: int, index: int) -> Tensor:
    """Take one slice along `axis`, keeping the axis with size 1."""
    a = _wrap(a)
    if not (0 <= index < a.data.shape[axis]):
        raise IndexError(f"index {index} out of range for axis {axis}")
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(index, index + 1)
    sl = tuple(sl)
    out, a_shape = a.data[sl], a.shape

    def back(g):
        full = np.zeros(a_shape)
        full[sl] = g
        return (full,)

    return _make("select_index", out, (a,), back, check=False)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out, a_shape = a.data.sum(axis=axis, keepdims=keepdims), a.shape

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a_shape).copy(),)

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1.0 / (1.0 + exp(-x)), computed in one buffer."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


def _sigmoid_silu(x: np.ndarray):
    """(sigmoid(x), silu(x)), by the expressions `silu` and `swiglu` share."""
    sig = _sigmoid(x)
    return sig, _as_array(x * sig)


def silu(a) -> Tensor:
    a = _wrap(a)
    x = a.data
    sig, out = _sigmoid_silu(x)

    def back(g):
        return (g * sig * (1.0 + x * (1.0 - sig)),)

    return _make("silu", out, (a,), back)


def swiglu(ug) -> Tensor:
    """silu(gate) * up as one tape node: the chain `mul(silu(gate), up)`.

    `ug` is (2, ..., d_ff): up and gate stacked, as the {up, gate} projection
    node outputs them. The gradient is stacked the same way. The node keeps
    `ug` alone; its backward rebuilds sigmoid(gate) and silu(gate), and
    computes g * silu(gate) and g * up * sigmoid(gate) * (1.0 + gate * (1.0 -
    sigmoid(gate))) in the gradient's own halves and the sigmoid's buffer
    (IEEE * and + commute, so the operand order within a product is free).
    """
    ug = _wrap(ug)
    stacked = ug.data
    _, act = _sigmoid_silu(stacked[1])

    def back(g):
        up, gate = stacked
        sig = _sigmoid(gate)
        g_ug = np.empty_like(stacked)
        g_up, g_gate = g_ug
        np.multiply(gate, sig, out=g_up)  # silu(gate), as `_sigmoid_silu` computes it
        g_up *= g
        np.multiply(g, up, out=g_gate)
        g_gate *= sig
        np.subtract(1.0, sig, out=sig)
        sig *= gate
        sig += 1.0
        g_gate *= sig
        return (g_ug,)

    return _make("swiglu", act * stacked[0], (ug,), back)


def causal_attention(qkv, n_heads: int) -> Tensor:
    """Causal multi-head scaled dot-product attention as one tape node.

    `qkv` is (3, B, T, d): q, k and v stacked, as the {q, k, v} projection
    node outputs them, with d divisible by `n_heads`. It replays the chain:
    split heads (reshape, swapaxes), q k^T, scale by 1/sqrt(d/h), add the
    -1e9 causal mask, softmax, attend to v, merge heads. The node keeps only
    the head-split q, k^T and v and the attention weights, not the score
    arrays. It checks the masked scores and the output. The gradient is
    stacked as `qkv` is.
    """
    qkv = _wrap(qkv)
    shape = qkv.shape
    _, b, t, d = shape
    hd = d // n_heads
    heads = (b, t, n_heads, hd)
    qh, kh, vh = (_as_array(np.swapaxes(a.reshape(heads), 1, 2)) for a in qkv.data)
    kt = _as_array(np.swapaxes(kh, -1, -2))
    s = _as_array(1.0 / np.sqrt(hd))
    mask = np.where(np.arange(t)[:, None] < np.arange(t)[None, :], -1e9, 0.0)
    scores = _as_array(_as_array(qh @ kt) * s) + mask[None, None, :, :]
    _check_finite(scores, "causal_attention")
    att = _softmax_rows(scores, -1)
    out = _as_array(np.swapaxes(_as_array(att @ vh), 1, 2)).reshape(b, t, d)

    def back(g):
        g_ctx = np.ascontiguousarray(np.swapaxes(np.ascontiguousarray(g.reshape(heads)), 1, 2))
        g_qkv = np.empty(shape)
        gq, gk, gv = (part.reshape(heads) for part in g_qkv)
        gv[...] = np.swapaxes(np.swapaxes(att, -1, -2) @ g_ctx, 1, 2)
        g_scores = g_ctx @ np.swapaxes(vh, -1, -2)  # g_att, then att * (g_att - dot) * s in place
        dot = (g_scores * att).sum(axis=-1, keepdims=True)
        g_scores -= dot
        np.multiply(att, g_scores, out=g_scores)
        g_scores *= s
        gq[...] = np.swapaxes(g_scores @ np.swapaxes(kt, -1, -2), 1, 2)
        gk[...] = np.swapaxes(np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2), 1, 2)
        return (g_qkv,)

    return _make("causal_attention", out, (qkv,), back)


def layer_norm(a, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    a = _wrap(a)
    d = a.data.shape[-1]
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data
    gd, lead = gamma.data, tuple(range(a.ndim - 1))
    a_grad, gamma_grad, beta_grad = a.requires_grad, gamma.requires_grad, beta.requires_grad

    def back(g):
        dx = dgamma = dbeta = None
        if a_grad:
            dxhat = g * gd
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        if gamma_grad:
            dgamma = (g * xhat).sum(axis=lead)
        if beta_grad:
            dbeta = g.sum(axis=lead)
        return dx, dgamma, dbeta

    return _make("layer_norm", out, (a, gamma, beta), back)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding ids out of range")
    out, table_shape = table.data[ids], table.shape

    def back(g):
        gt = np.zeros(table_shape)
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
    z = logits.data

    def back(g):
        p = _softmax_rows(z, 1)
        p[np.arange(n), targets] -= 1.0
        return (g * p * (w / wsum)[:, None],)

    return _make("cross_entropy", out, (logits,), back)


def _mask(keep: np.ndarray, p: float) -> np.ndarray:
    """The float dropout mask from the boolean `keep`, by the one expression
    every forward and every backward uses.

    Bitwise equal to `keep / (1.0 - p)`: a kept element is the one correctly
    rounded quotient 1.0 / (1.0 - p) either way, a dropped one +0.0. numpy
    multiplies a boolean array by a scalar in about half the time it takes
    to divide it.
    """
    return keep * (1.0 / (1.0 - p))


def _drop(x: np.ndarray, p: float, rng: np.random.Generator | None, n: int | None = None):
    """(dropout(x), keep) as `dropout` draws it; no `keep` unless `rng` is
    given and p > 0. With `n`, n masks come from one (n,) + x.shape draw,
    the stream of n draws of x.shape, and `keep[e]` holds draw e.

    `keep` is the boolean mask packed to bits with `np.packbits`, so a node
    holds one bit per element for it instead of eight bytes; a backward
    unpacks it with `_unpack` and rebuilds the float mask with `_mask`, as
    the forward did.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rng is None or p == 0.0:
        return x, None
    keep = rng.random(x.shape if n is None else (n,) + x.shape) >= p
    return _as_array(x * _mask(keep, p)), np.packbits(keep.reshape(-1 if n is None else (n, -1)), axis=-1)


def _unpack(keep: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The boolean mask of one draw, in `shape`, from its bits `keep`."""
    return np.unpackbits(keep, count=math.prod(shape)).reshape(shape).view(np.bool_)


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; `rng` supplies the mask so callers control seeding."""
    a = _wrap(a)
    out, keep = _drop(a.data, p, rng)
    if keep is None:
        return a
    shape = a.shape
    return _make("dropout", out, (a,), lambda g: (g * _mask(_unpack(keep, shape), p),))


class LoRA(NamedTuple):
    """E >= 1 LoRA adapters on one projection's input x: the sum over e of
    scale * dropout(x) @ a_e^T @ b_e^T, each times gate[..., column_e] when
    `gate` is given.

    `a`, `b` and `column` are sequences of E (r, d_in) factors, E (d_out, r)
    factors and E columns: one adapter for mj and peft, a projection's
    experts for the MoE baseline; unequal lengths raise ValueError (`column`
    counts only when gated). `gate` is a (..., E') coefficient tensor.
    Dropout runs only when `rng` is given and p > 0.
    """

    a: Sequence[Tensor]
    b: Sequence[Tensor]
    scale: float
    p: float
    rng: np.random.Generator | None
    gate: Tensor | None = None
    column: Sequence[int] = (0,)


class Propulsion(NamedTuple):
    """A Propulsion adapter on one projection: dropout(W x) * s, times
    gate[..., column] when `gate` is given; `s` is (d_out,). It reads the
    frozen product W x, not the projection input."""

    s: Tensor
    p: float
    rng: np.random.Generator | None
    gate: Tensor | None = None
    column: int = 0


def _lora(x: Tensor, term: LoRA):
    """`term` on `x` as the body of a tape node: (delta, inputs, back), where
    `back(g)` gives the gradients of `inputs`.

    Replays the numpy calls of the chain dropout, transpose, matmul,
    transpose, matmul, mul (and select_index, mul for the gate) of each
    adapter, and `add` over adapters in order. The E masks are one (E,) +
    x.shape draw, the stream of E draws, and the matmuls run stacked on a
    leading adapter axis, which numpy computes slice by slice as separate
    calls do. `inputs` are (x, a, b, gate) once per adapter, in reverse order,
    so `backward` accumulates the gradients of x and the gate in the chain's
    order. Keeps x, the masks packed to one bit per element, A^T, B^T and
    the gate. `back(g)` is a generator: one adapter at a time, in `inputs`
    order, it rebuilds that adapter's float mask, dropout(x), x_d @ A_e^T,
    gate column and ungated delta from its own slices with the forward's
    expressions, and yields its gradients before the next adapter's are
    computed.
    """
    a, b, column, gate, p = term.a, term.b, term.column, term.gate, term.p
    n = len(a)
    if len(b) != n or (gate is not None and len(column) != n):
        raise ValueError(f"a LoRA term needs one b and, when gated, one column per a: "
                         f"got {n} a, {len(b)} b, {len(column)} column")
    s = _as_array(term.scale)
    x_data, x_shape, x_grad = x.data, x.shape, x.requires_grad
    a_grad, b_grad = [t.requires_grad for t in a], [t.requires_grad for t in b]
    gate_data = None if gate is None else gate.data
    gated = gate is not None and gate.requires_grad
    xd, keep = _drop(x_data, p, term.rng, n)
    at, bt = np.array([t.data.T for t in a]), np.array([t.data.T for t in b])  # C-contiguous, as `transpose` copies
    lead = (n,) + (1,) * (x.ndim - 2)  # one adapter slice per batch of x
    at_mm, bt_mm = at.reshape(lead + at.shape[1:]), bt.reshape(lead + bt.shape[1:])

    out = _as_array(_as_array(_as_array(xd @ at_mm) @ bt_mm) * s)  # the ungated deltas
    if gate is not None:
        out = out * np.array([gate_data[..., c:c + 1] for c in column])  # the gate columns, stacked as the deltas
    terms, out = out, out[0]
    for t in terms[1:]:
        out = out + t
    inputs = ()
    for e in reversed(range(n)):
        inputs += (x, a[e], b[e]) if gate is None else (x, a[e], b[e], gate)

    def back(g):
        for e in reversed(range(n)):
            col = None if gate_data is None else gate_data[..., column[e]:column[e] + 1]
            mask = None if keep is None else _mask(_unpack(keep[e], x_shape), p)
            xd = x_data if mask is None else _as_array(x_data * mask)
            xa = _as_array(xd @ at_mm[e]) if b_grad[e] or gated else None
            g_xab = g_xa = gx = None
            if x_grad or a_grad[e] or b_grad[e]:
                g_xab = (g if col is None else g * col) * s
            if x_grad or a_grad[e]:
                g_xa = g_xab @ np.swapaxes(bt[e], -1, -2)
            if x_grad:
                gx = g_xa @ np.swapaxes(at[e], -1, -2)
                if mask is not None:
                    gx *= mask
            del mask
            yield gx
            del gx
            yield np.ascontiguousarray(_unbroadcast(np.swapaxes(xd, -1, -2) @ g_xa, at[e].shape).T) \
                if a_grad[e] else None
            del xd, g_xa
            yield np.ascontiguousarray(_unbroadcast(np.swapaxes(xa, -1, -2) @ g_xab, bt[e].shape).T) \
                if b_grad[e] else None
            del g_xab
            if gate_data is not None:
                g_gate = None
                if gated:
                    g_gate = np.zeros_like(gate_data)
                    delta = _as_array(_as_array(xa @ bt_mm[e]) * s)  # the ungated delta
                    g_gate[..., column[e]:column[e] + 1] = _unbroadcast(g * delta, col.shape)
                    del delta
                yield g_gate

    return out, inputs, back


def _propulsion(base: np.ndarray, base_grad: bool, term: Propulsion):
    """`term` on the frozen product `base` as the body of a tape node:
    (delta, inputs, back). `inputs` are (s, gate) or (s,); `back(g)` gives
    the gradient into `base` (None unless `base_grad`), then theirs.

    Replays the chain dropout, mul (and select_index, mul for the gate).
    Keeps `base`, the mask packed to bits and the gate column; the backward
    rebuilds dropout(base) and the ungated delta from them, as `_lora` does.
    """
    s, p, gate = term.s, term.p, term.gate
    sd, s_grad = s.data, s.requires_grad
    gate_shape = None if gate is None else gate.shape
    gated = gate is not None and gate.requires_grad
    xd, keep = _drop(base, p, term.rng)
    out = xd * sd
    if gate is not None:
        sl = (Ellipsis, slice(term.column, term.column + 1))
        col = _as_array(gate.data[sl])
        out = _as_array(out) * col

    def dropped():
        return base if keep is None else _as_array(base * _mask(_unpack(keep, base.shape), p))

    def back(g):
        g_delta = g if gate_shape is None else g * col
        g_base = gs = None
        if base_grad:
            g_base = _unbroadcast(g_delta * sd, base.shape)
            if keep is not None:
                g_base = g_base * _mask(_unpack(keep, base.shape), p)
        if s_grad:
            gs = _unbroadcast(g_delta * dropped(), sd.shape)
        if gate_shape is None:
            return g_base, gs
        g_gate = None
        if gated:
            g_gate = np.zeros(gate_shape)
            g_gate[sl] = _unbroadcast(g * _as_array(dropped() * sd), col.shape)
        return g_base, gs, g_gate

    return out, (s,) if gate is None else (s, gate), back


def adapter_delta(x, term: LoRA | Propulsion) -> Tensor:
    """The delta of an adapter term on its own, as one tape node named
    'lora_delta' or 'propulsion_delta': a `LoRA` on the projection input `x`,
    a `Propulsion` on the frozen projection output `x` (..., d_out).

    Values and gradients are bitwise equal to the chain of single ops, and a
    LoRA of E adapters to the chain of E one-adapter nodes joined by `add`.
    """
    x = _wrap(x)
    if isinstance(term, Propulsion):
        out, inputs, back = _propulsion(x.data, x.requires_grad, term)
        return _make("propulsion_delta", out, (x, *inputs), back)
    out, inputs, back = _lora(x, term)
    return _make("lora_delta", out, inputs, back)


def adapted_projections(x, weights: Sequence[Tensor], terms: Sequence[LoRA | Propulsion | None],
                        labels: Sequence[str]) -> Tensor:
    """The P projections that read one input `x` (..., d_in), each its frozen
    product x W^T plus its adapter term, stacked on a new leading axis
    (P, ..., d_out), as one tape node; for P = 1 the one sum (..., d_out).
    Every x W^T of the model runs here: with one weight and no term it is
    the product alone (`lm_head`, the classifier head, the MoE router).

    `weights` are P (d_out, d_in) weights, `terms[i]` is projection i's
    `LoRA` or `Propulsion` term or None, and `labels[i]` names it in a
    diagnostic. The node replays, per projection in order, the chain
    `matmul(x, transpose(w))` (named 'linear' in a diagnostic), the term's
    `adapter_delta` node and `add`, so dropout masks are drawn in projection
    order. The frozen products are one matmul by the P W^T, stacked by one
    copy per call (a weight written after `freeze()` is read as it is now),
    which numpy computes projection by projection as the separate products,
    for P = 1 too. The input gradient is one matmul per projection, and `x`
    is an input once per node of the chain, so `backward` adds its terms in
    the chain's order.

    The node keeps the W^T, x only when a weight trains, what each term
    keeps (a Propulsion term also keeps its projection's frozen product) and
    nothing else: not the frozen products, not the deltas. It checks its
    output once; only when that fails does it find the first non-finite
    array in the chain's order, and raises naming the chain's op ('linear',
    the term's op or 'add') and the projection's label.
    """
    x = _wrap(x)
    n = len(weights)
    wt = np.array([w.data.T for w in weights])  # each W^T C-contiguous, as `transpose` copies it
    if wt.ndim != 3 or x.ndim < 2 or x.data.shape[-1] != wt.shape[1]:
        raise ValueError(f"projection shape mismatch: {x.data.shape} @ {[w.data.shape for w in weights]}^T")

    def products():
        return x.data @ wt.reshape((n,) + (1,) * (x.ndim - 2) + wt.shape[1:])  # one W^T per batch of x

    out = products()
    deltas, backs, inputs = [None] * n, [None] * n, ()
    for i, (w, term) in enumerate(zip(weights, terms)):
        term_inputs = ()
        if term is not None:
            if isinstance(term, Propulsion):
                deltas[i], term_inputs, backs[i] = _propulsion(out[i].copy(), x.requires_grad or w.requires_grad, term)
            else:
                deltas[i], term_inputs, backs[i] = _lora(x, term)
            out[i] += deltas[i]
        inputs = term_inputs + (x, w) + inputs
    if not np.isfinite(out).all():
        _name_non_finite(products(), deltas, out, terms, labels)
    x_shape, x_grad, w_grad = x.shape, x.requires_grad, [w.requires_grad for w in weights]
    xd = x.data if any(w_grad) else None
    propulsion = [isinstance(term, Propulsion) for term in terms]

    def back(g):  # in `inputs` order: projections reversed, each its term's gradients, then x's and w's
        for i in reversed(range(n)):
            g_i = g[i] if n > 1 else g
            if backs[i] is not None:
                t_grads = iter(backs[i](g_i))
                if propulsion[i]:
                    g_base = next(t_grads)
                    if g_base is not None:
                        g_i = g_i + g_base
                    del g_base
                yield from t_grads
            yield _unbroadcast(g_i @ np.swapaxes(wt[i], -1, -2), x_shape) if x_grad else None
            yield np.ascontiguousarray(_unbroadcast(np.swapaxes(xd, -1, -2) @ g_i, wt[i].shape).T) \
                if w_grad[i] else None

    return _make("adapted_projections", out if n > 1 else out[0], inputs, back, check=False)


def _name_non_finite(base, deltas, out, terms, labels) -> None:
    """Raises for the first non-finite array of the chain `adapted_projections`
    replays: per projection its frozen product, its term's delta, their sum."""
    for i, (delta, term, label) in enumerate(zip(deltas, terms, labels)):
        for op, arr in (("linear", base[i]),
                        ("propulsion_delta" if isinstance(term, Propulsion) else "lora_delta", delta),
                        ("add", out[i])):
            if arr is not None and not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite values produced by '{op}' at {label}")


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
#
# Each similarity is written once, as a numpy kernel returning its output and
# the backward map of the output gradient to the rows' gradient; the public
# ops and the fused `route_coefficients` node both run it.


def _normalize_rows(x: np.ndarray):
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, NORM_FLOOR)
    y = _as_array(x / safe)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return np.where(norms <= NORM_FLOOR, g / NORM_FLOOR, (g - y * dot) / safe)

    return y, back


def _neg_l2(x: np.ndarray, c: np.ndarray):
    diff = x[:, None, :] - c[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    def back(g):
        safe = np.maximum(dist, NORM_FLOOR)
        return ((-g / safe)[:, :, None] * diff).sum(axis=1)

    return -dist, back


def _neg_l1(x: np.ndarray, c: np.ndarray):
    diff = x[:, None, :] - c[None, :, :]
    return -np.abs(diff).sum(axis=2), lambda g: ((-g)[:, :, None] * np.sign(diff)).sum(axis=1)


def _similarity(rows: np.ndarray, c: np.ndarray, similarity: str):
    """The routing similarity of `rows` (N, d) to the constant centers `c`
    (E, d), with its backward: the chain `matmul(x, transpose(w))` of the
    normalized rows x and centers w for "cosine", `matmul` by a copy of c^T
    for "dot", and `neg_l2_distance` or `neg_l1_distance`."""
    if similarity == "cosine":
        xn, back = _normalize_rows(rows)
        wt = _as_array(_normalize_rows(c)[0].T)
        return xn @ wt, lambda g: back(g @ np.swapaxes(wt, -1, -2))
    if similarity == "dot":
        ct = _as_array(c.T)
        return rows @ ct, lambda g: g @ np.swapaxes(ct, -1, -2)
    if similarity == "euclidean":
        return _neg_l2(rows, c)
    if similarity == "l1":
        return _neg_l1(rows, c)
    raise ValueError(f"unknown similarity {shown(similarity)}")


def l2_normalize_rows(a) -> Tensor:
    """Scale each row to unit L2 norm; rows below `NORM_FLOOR` divide by it.

    A zero row therefore maps to the zero row (similarity 0 to everything)
    instead of raising.
    """
    a = _wrap(a)
    if a.ndim != 2:
        raise ValueError("l2_normalize_rows expects a 2-D tensor")
    y, back = _normalize_rows(a.data)
    return _make("l2_normalize_rows", y, (a,), lambda g: (back(g),))


def neg_l2_distance(a, centers: np.ndarray) -> Tensor:
    """out[t, e] = -||a[t] - centers[e]||_2 with centers held constant."""
    a = _wrap(a)
    out, back = _neg_l2(a.data, _as_array(centers))
    return _make("neg_l2_distance", out, (a,), lambda g: (back(g),))


def neg_l1_distance(a, centers: np.ndarray) -> Tensor:
    """out[t, e] = -||a[t] - centers[e]||_1 with centers held constant."""
    a = _wrap(a)
    out, back = _neg_l1(a.data, _as_array(centers))
    return _make("neg_l1_distance", out, (a,), lambda g: (back(g),))


def topk_mask(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k columns per row; ties break toward the lowest expert index.

    Returns the 0/1 mask and the (rows, k) selected columns, ascending per row.
    """
    order = np.argsort(-p, axis=1, kind="stable")
    selected = np.sort(order[:, :k], axis=1)
    mask = np.zeros_like(p)
    np.put_along_axis(mask, selected, 1.0, axis=1)
    return mask, selected


def route_coefficients(h: Tensor, centers: np.ndarray, similarity: str, tau: float, top_k: int,
                       granularity: str, pinned: np.ndarray | None = None):
    """Routing coefficients of the tokens of `h` (B, T, d) as one tape node.

    Returns (coefficients, z, p, m, selected): the (B, T, E) coefficient
    tensor and, with one row per scored token, the similarity logits, the
    softmax, the sparse coefficients and the (rows, k) top-k columns.

    It replays the chain: the scored rows (every token; for "sequence" each
    sequence's last token, whose row is broadcast over the sequence), the
    similarity to the constant `centers` (E, d), times 1/tau, `softmax` over
    experts and the multiply by the `topk_mask`. Its backward gives the
    gradient into `h` only. For "task" granularity `pinned` holds one expert
    per token, which gets coefficient 1 off the tape; z and p are then
    informational. Checks the scaled logits, which are non-finite whenever
    the rows are or the similarity overflows.
    """
    b, t, d = h.shape
    e = centers.shape[0]
    if granularity == "sequence":
        rows = _as_array(h.data[:, t - 1:t, :]).reshape(b, d)
    else:
        rows = h.data.reshape(b * t, d)
    z, back_similarity = _similarity(rows, _as_array(centers), similarity)
    s = _as_array(1.0 / tau)
    z = _as_array(_as_array(z) * s)
    _check_finite(z, "route_coefficients")
    p = _softmax_rows(z, -1)
    if granularity == "task":
        selected = np.asarray(pinned)[:, None]
        m = np.zeros((b * t, e))
        m[np.arange(b * t), selected[:, 0]] = 1.0
        return Tensor(m.reshape(b, t, e)), z, p, m, selected
    mask, selected = topk_mask(p, top_k)
    m, h_shape = _as_array(p * mask), h.shape
    if granularity == "sequence":
        coefficients = np.broadcast_to(m.reshape(b, 1, e), (b, t, e))
    else:
        coefficients = m.reshape(b, t, e)

    def back(g):
        if granularity == "sequence":
            g_m = _unbroadcast(g, (b, 1, e)).reshape(b, e)
        else:
            g_m = g.reshape(b * t, e)
        g_p = g_m * mask
        g_z = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
        g_rows = back_similarity(g_z * s)
        if granularity != "sequence":
            return (g_rows.reshape(h_shape),)
        g_h = np.zeros(h_shape)
        g_h[:, t - 1:t, :] = g_rows.reshape(b, 1, d)
        return (g_h,)

    return _make("route_coefficients", coefficients, (h,), back, check=False), z, p, m, selected


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
