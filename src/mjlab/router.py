"""Gradient-free token routing among per-projection adapters.

Per block, an (E, d) buffer of routing centers scores every token by
similarity; softmax over experts plus top-k masking yields the sparse
coefficients that gate each routed adapter's term inside its projection
node. Centers are k-means-initialized and tracked by EMA entirely outside the
gradient tape: they never own a gradient buffer and backward passes leave
them bitwise untouched.

`route` is the one implementation of that mechanism, for training and for
inspection alike. Membership rule: a token is routed to expert e exactly when
e is in its row of `selected`, the top-k mask. Usage fractions and EMA
updates count membership by this rule, never by m > 0: at small tau the
softmax can underflow so that a selected expert gets m == 0, and it is still
a member. Each token therefore counts for exactly k experts (1 for task
granularity), and usage fractions sum to k.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as tz
from .tensor import NORM_FLOOR, Tensor, shown
from .model import ProjectionId
from .adapters import AdapterBank

SIMILARITIES = ("cosine", "dot", "euclidean", "l1")
GRANULARITIES = ("token", "sequence", "task")

DEFAULT_ROUTED = (ProjectionId.q, ProjectionId.k, ProjectionId.v)
DEFAULT_SHARED = (ProjectionId.o, ProjectionId.gate)
EMBEDDING_ROWS = 2000  # rows per layer that export_embeddings writes


@dataclass(kw_only=True)
class RoutingRules:
    """The routing settings and their defaults, declared once for the
    config's router section and for every RouterState.

    `permutation[e]` is the center index scored for routed slot e, so
    shuffling it re-assigns centers to projections without touching either.
    """

    tau: float = 1.0
    top_k: int = 2
    beta: float = 0.5
    update_every: int = 2
    similarity: str = "cosine"
    granularity: str = "token"
    permutation: tuple[int, ...] | None = None  # None: the identity


@dataclass
class RouterState(RoutingRules):
    """Routing state of a single block: its rules, centers and EMA stop step."""

    centers: np.ndarray
    stop_step: int = 0
    routed: tuple[ProjectionId, ...] = DEFAULT_ROUTED
    shared: tuple[ProjectionId, ...] = DEFAULT_SHARED

    def __post_init__(self):
        self.centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        self.routed = tuple(self.routed)
        self.shared = tuple(self.shared)
        n = len(self.routed)
        if self.permutation is None:
            self.permutation = tuple(range(n))
        self.permutation = tuple(int(i) for i in self.permutation)
        if self.centers.ndim != 2 or self.centers.shape[0] != n:
            raise ValueError("centers must be (n_routed, d)")
        if set(self.routed) & set(self.shared):
            raise ValueError("routed and shared projection sets overlap")
        if not 1 <= self.top_k <= n:
            raise ValueError("top_k must satisfy 1 <= top_k <= n_routed")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.update_every < 1:
            raise ValueError("update_every must be >= 1")
        if self.stop_step < 0:
            raise ValueError("stop_step must be >= 0")
        if self.similarity not in SIMILARITIES:
            raise ValueError(f"unknown similarity {shown(self.similarity)}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {shown(self.granularity)}")
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation must be a bijection over routed slots")
        if np.any(np.sqrt((self.centers * self.centers).sum(axis=1)) == 0.0):
            raise ValueError("centers must have nonzero norm")

    @property
    def n_experts(self) -> int:
        return len(self.routed)

    def permuted_centers(self) -> np.ndarray:
        return self.centers[np.asarray(self.permutation)]


@dataclass
class RoutingDecision:
    z: np.ndarray  # (N, E) similarity logits
    p: np.ndarray  # (N, E) softmax probabilities
    m: np.ndarray  # (N, E) sparse coefficients
    selected: np.ndarray  # (N, k) expert indices, ascending per row
    # m as a (B, T, E) Tensor, tracked when the routed hidden states are
    coefficients: Tensor | None = field(default=None, repr=False, compare=False)


def route(state: RouterState, h, task_expert=None) -> RoutingDecision:
    """Routing decision for the tokens of `h`: one (T, d) sequence or a (B, T, d) batch.

    Similarity, softmax and top-k run as one tape node,
    `tz.route_coefficients`. Given a tracked Tensor under an active Tape,
    `decision.coefficients` is therefore differentiable with respect to the
    hidden states while the centers enter as constants; given an array, or
    outside a Tape, the same computation runs untracked. The array fields
    hold one row per token (B * T rows).

    Sequence granularity scores only the last token of each sequence and
    broadcasts its decision over the sequence; task granularity pins
    `task_expert` (one index, or one per sequence) with coefficient 1,
    keeping z and p informational. Pure and read-only: safe to call
    concurrently against one state.
    """
    if not isinstance(h, Tensor):
        h = np.asarray(h, dtype=np.float64)
        if not np.all(np.isfinite(h)):
            raise FloatingPointError("non-finite hidden states")
        h = Tensor(h)
    if h.ndim == 2:
        h = tz.reshape(h, (1,) + h.shape)
    if h.ndim != 3:
        raise ValueError("h must be (tokens, d) or (batch, tokens, d)")
    b, t, d = h.shape
    if d != state.centers.shape[1]:
        raise ValueError("token width does not match center width")

    pinned = None
    if state.granularity == "task":
        if task_expert is None:
            raise ValueError("task granularity requires a task expert index")
        experts = np.broadcast_to(np.asarray(task_expert, dtype=np.int64), (b,))
        if experts.min() < 0 or experts.max() >= state.n_experts:
            raise ValueError("task expert index out of range")
        pinned = np.repeat(experts, t)
    coefficients, z, p, m, selected = tz.route_coefficients(
        h, state.permuted_centers(), state.similarity, state.tau, state.top_k, state.granularity, pinned)
    if state.granularity == "sequence":
        z, p, m, selected = (np.repeat(a, t, axis=0) for a in (z, p, m, selected))
    return RoutingDecision(z=z, p=p, m=m, selected=selected, coefficients=coefficients)


# ---------------------------------------------------------------------------
# k-means initialization
# ---------------------------------------------------------------------------


@dataclass
class KMeansResult:
    centers: np.ndarray
    objective_trace: list[float]


def kmeans_init(samples: np.ndarray, n_centers: int, iters: int = 50, seed: int = 0) -> KMeansResult:
    """Spherical k-means (cosine assignment on L2-normalized samples).

    k-means++ seeding; each iteration's objective sum(1 - cos) is recorded
    before the center update, so the trace is non-increasing. Returns unit
    norm centers. Degenerate all-identical inputs fall back to jittered
    re-seeding so n_centers distinct (if nearly parallel) centers exist.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be (n, d)")
    n = samples.shape[0]
    if n < n_centers:
        raise ValueError(f"need at least {n_centers} samples, got {n}")
    if not np.all(np.isfinite(samples)):
        raise FloatingPointError("non-finite samples")
    rng = np.random.default_rng(seed)
    x = tz.l2_normalize_rows(samples).data

    centers = _plus_plus_seeds(x, n_centers, rng)
    trace: list[float] = []
    prev_assign = None
    for _ in range(max(iters, 1)):
        sims = x @ centers.T
        assign = np.argmax(sims, axis=1)
        cost = float((1.0 - sims[np.arange(n), assign]).sum())
        trace.append(cost)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign.copy()
        for e in range(n_centers):
            members = assign == e
            if not members.any():
                worst = int(np.argmin(sims[np.arange(n), assign]))
                centers[e] = x[worst]
                continue
            mean = x[members].mean(axis=0)
            norm = np.sqrt((mean * mean).sum())
            if norm > NORM_FLOOR:
                centers[e] = mean / norm
    return KMeansResult(centers=centers, objective_trace=trace)


def _plus_plus_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    cost = 1.0 - x @ centers[0]
    for e in range(1, k):
        weights = np.maximum(cost, 0.0) ** 2
        total = weights.sum()
        if total <= 1e-24:
            # all remaining points coincide with chosen centers: jitter
            jitter = rng.normal(0.0, 1e-6, size=x.shape[1])
            centers[e] = tz.l2_normalize_rows((centers[0] + jitter)[None, :]).data[0]
            continue
        idx = int(rng.choice(n, p=weights / total))
        centers[e] = x[idx]
        cost = np.minimum(cost, 1.0 - x @ centers[e])
    return centers


# ---------------------------------------------------------------------------
# EMA updates
# ---------------------------------------------------------------------------


def ema_update(state: RouterState, selected: np.ndarray, H: np.ndarray, step: int) -> bool:
    """c_e <- beta * c_e + (1 - beta) * mean(tokens routed to e).

    Fires only when step % update_every == 0 and step < stop_step. A token
    is routed to e when e is in its row of `selected`, the (N, k) expert
    indices of a decision (the membership rule of this module). Experts with
    no routed tokens keep a bitwise-identical center; beta = 1 is an exact
    no-op. Means use the raw (unnormalized) hidden states. Returns whether an update fired. Single
    writer per state: order after the step's route() reads.
    """
    if step % state.update_every != 0 or step >= state.stop_step:
        return False
    if state.beta == 1.0:
        return True
    H = np.asarray(H, dtype=np.float64)
    perm = np.asarray(state.permutation)
    for e in range(state.n_experts):
        members = (selected == e).any(axis=1)
        if not members.any():
            continue
        mean = H[members].mean(axis=0)
        cidx = perm[e]
        state.centers[cidx] = state.beta * state.centers[cidx] + (1.0 - state.beta) * mean
    return True


# ---------------------------------------------------------------------------
# usage statistics
# ---------------------------------------------------------------------------


class UsageRecorder:
    """Accumulates routed-token fractions per (layer, expert), counting a
    token for the experts in its row of `selected`."""

    def __init__(self):
        self.counts: dict[int, np.ndarray] = {}
        self.tokens: dict[int, int] = {}

    def add(self, layer: int, decision: RoutingDecision) -> None:
        sel = np.bincount(decision.selected.ravel(), minlength=decision.m.shape[1]).astype(np.float64)
        if layer not in self.counts:
            self.counts[layer] = np.zeros_like(sel)
            self.tokens[layer] = 0
        self.counts[layer] += sel
        self.tokens[layer] += decision.selected.shape[0]

    def fractions(self) -> dict[int, np.ndarray]:
        return {layer: self.counts[layer] / self.tokens[layer] for layer in sorted(self.counts)}


@dataclass
class UsageStats:
    layers: list[int]
    init_fractions: np.ndarray  # (L, E)
    final_fractions: np.ndarray  # (L, E)
    rho: np.ndarray  # (E,) init-vs-final correlation per expert across layers


def usage_report(init_usage: UsageRecorder, final_usage: UsageRecorder) -> UsageStats:
    if not init_usage.counts or not final_usage.counts:
        raise ValueError("usage_report needs at least one recorded decision per phase")
    layers = sorted(init_usage.counts)
    init = np.stack([init_usage.fractions()[l] for l in layers])
    final = np.stack([final_usage.fractions()[l] for l in layers])
    n_exp = init.shape[1]
    rho = np.empty(n_exp)
    for e in range(n_exp):
        rho[e] = _pearson(init[:, e], final[:, e])
    return UsageStats(layers=layers, init_fractions=init, final_fractions=final, rho=rho)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if np.array_equal(a, b):
        return 1.0
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


def write_usage_csv(stats: UsageStats, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "expert", "phase", "fraction", "rho"])
        for phase, fracs in (("init", stats.init_fractions), ("final", stats.final_fractions)):
            for li, layer in enumerate(stats.layers):
                for e in range(fracs.shape[1]):
                    writer.writerow([layer, e, phase, repr(float(fracs[li, e])), repr(float(stats.rho[e]))])


def export_embeddings(path, per_layer: dict[int, tuple[np.ndarray, RoutingDecision]]) -> None:
    """Token embeddings with their top-1 expert, for external visualization."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for layer in sorted(per_layer):
            H, decision = per_layer[layer]
            top1 = decision.selected[:, 0]
            for t in range(min(H.shape[0], EMBEDDING_ROWS)):
                writer.writerow([layer, t, int(top1[t])] + [repr(float(v)) for v in H[t]])


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_router(directory, states: dict[int, RouterState]) -> None:
    """Centers as `centers_layer<l>.bin`; every other RouterState field in the manifest."""
    manifest = {}
    for layer, state in states.items():
        meta = {f.name: getattr(state, f.name) for f in fields(RouterState) if f.name != "centers"}
        meta.update(routed=[p.name for p in state.routed], shared=[p.name for p in state.shared],
                    permutation=list(state.permutation))
        manifest[str(layer)] = meta
    tz.save_named(directory, {f"centers_layer{layer}": state.centers for layer, state in states.items()}, manifest)


def load_router(directory, d_model: int) -> dict[int, RouterState]:
    """Router states of a `save_router` directory; each layer's centers must
    be (n_routed, d_model)."""
    manifest, arrays = tz.load_named(directory, lambda manifest: {
        f"centers_layer{key}": (len(meta["routed"]), d_model) for key, meta in manifest.items()
    })
    states = {}
    for key, meta in manifest.items():
        meta = dict(meta, routed=tuple(ProjectionId[n] for n in meta["routed"]),
                    shared=tuple(ProjectionId[n] for n in meta["shared"]))
        states[int(key)] = RouterState(centers=arrays[f"centers_layer{key}"], **meta)
    return states


# ---------------------------------------------------------------------------
# forward hooks
# ---------------------------------------------------------------------------


class MonkeyJumpHooks:
    """Forward hooks that route each block's tokens once and gate the
    block's adapters with the coefficients.

    A routed projection's adapter is gated by its column of the block's
    coefficients, which are differentiable with respect to the hidden
    states (the similarity and softmax run on the tape), while the centers
    enter as constants, so backward passes can never touch them. A shared
    projection, and every adapter of a block without a RouterState, applies
    uniformly, so `MonkeyJumpHooks(bank, {})` is standard PEFT; on the
    frozen method's bank, which has no adapters, it returns no terms. Every
    term draws its dropout masks from the generator of the last `set_batch`.
    """

    def __init__(self, bank: AdapterBank, states: dict[int, RouterState]):
        self.bank = bank
        self.states = states
        self.collected: list[tuple[int, RoutingDecision, np.ndarray]] = []
        self._task_experts: np.ndarray | None = None
        self._drop_rng: np.random.Generator | None = None

    def set_batch(self, task_experts: np.ndarray | None = None, drop_rng: np.random.Generator | None = None) -> None:
        """The next pass's inputs: per-sequence expert indices, required for
        task granularity, and the dropout stream, None for no dropout."""
        self._task_experts = task_experts
        self._drop_rng = drop_rng
        self.collected = []

    def begin_block(self, layer: int, h: Tensor) -> dict[ProjectionId, tz.LoRA | tz.Propulsion]:
        state = self.states.get(layer)
        coefficients = None
        if state is not None:
            decision = route(state, h, self._task_experts)
            coefficients = decision.coefficients
            self.collected.append((layer, decision, h.data.reshape(-1, h.shape[-1]).copy()))
        terms = {}
        for proj in self.bank.projections:
            adapter = self.bank.adapters[(layer, proj)]
            if state is not None and proj in state.routed:
                terms[proj] = adapter.term(coefficients, self._drop_rng, column=state.routed.index(proj))
            else:
                terms[proj] = adapter.term(1.0, self._drop_rng)
        return terms
