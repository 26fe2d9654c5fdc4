"""Property guard for the replay contract: each fused tape node against the
chain of tape ops it replays, byte for byte in values and in gradients, over
shapes that Hypothesis draws.

The chains are the bitwise references the hand-picked cases already use
(`test_tensor.py`'s unfused ops, `test_router.py`'s `unfused_route`); here
the shapes, ranks, gates, dropout and trainable inputs are drawn. Every test
runs derandomized, so each run draws the same cases. The projection node's
draws always include d_in = 16 with rank 2, where x A^T depends in its last
bits on the layout of A^T.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import mjlab.tensor as tz
from mjlab.router import GRANULARITIES, SIMILARITIES
from mjlab.tensor import Tensor

from .test_router import assert_route_matches_unfused, make_state, same_bytes
from .test_tensor import (stacked, unfused_causal_attention, unfused_gate, unfused_linear, unfused_lora_delta,
                          unfused_propulsion_delta, unfused_swiglu)

GUARD = settings(max_examples=100, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
LEADS = st.sampled_from([(5,), (2, 3), (1, 4), (3, 1)])  # the input's shape before its last axis


def values_and_grads(fn, values: dict, trainable) -> tuple:
    """(output, {name: gradient}) of `fn(**tensors)` under a weighted sum,
    with the inputs named in `trainable` requiring grad."""
    ts = {k: Tensor(v.copy(), requires_grad=k in trainable) for k, v in values.items()}
    with tz.Tape():
        out = fn(**ts)
        w = np.random.default_rng(1).normal(size=out.shape)
        loss = tz.tsum(tz.mul(out, w))
        if loss.requires_grad:
            tz.backward(loss)
    return out.data, {k: t.grad for k, t in ts.items()}


def assert_replays(fused, chain, values: dict, trainable) -> None:
    out, grads = values_and_grads(fused, values, trainable)
    ref, ref_grads = values_and_grads(chain, values, trainable)
    assert same_bytes(out, ref)
    for k in values:
        if ref_grads[k] is None:
            assert grads[k] is None, k
        else:
            assert grads[k] is not None and same_bytes(grads[k], ref_grads[k]), k


ROLES = ("x", "w", "a", "b", "s", "gate")  # what each input of a projection node is


@st.composite
def projection_cases(draw) -> dict:
    """One projection node's draw: P projections of one input, each bare,
    with a LoRA term (E = len(columns[i]) adapters) or with a Propulsion term
    (gate column columns[i][0]); gated or not, with dropout or not, with the
    inputs of the `trainable` roles requiring grad."""
    n_proj = draw(st.integers(1, 3))
    return {"d_in": draw(st.sampled_from([3, 6, 16])), "r": draw(st.integers(1, 3)), "d_out": draw(st.integers(1, 6)),
            "lead": draw(LEADS),
            "kinds": draw(st.lists(st.sampled_from([None, "lora", "propulsion"]), min_size=n_proj, max_size=n_proj)),
            "columns": draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                                     min_size=n_proj, max_size=n_proj)),
            "gated": draw(st.booleans()), "p": draw(st.sampled_from([0.0, 0.3])),
            "trainable": draw(st.sets(st.sampled_from(ROLES))), "seed": draw(SEEDS)}


def assert_projection_node_replays(case: dict, norm_trainable=None) -> None:
    """The node of `case` against its chain. With `norm_trainable` (the
    trainable subset of {"gamma", "beta"}) the node folds in a LayerNorm of
    x, and the chain is `tz.layer_norm` followed by the unfolded node. The
    bank's adapters share one dropout stream, so the terms of a node draw
    from one generator."""
    kinds, columns, n_proj = case["kinds"], case["columns"], len(case["kinds"])
    d_in, d_out, lead = case["d_in"], case["d_out"], case["lead"]
    rng = np.random.default_rng(case["seed"])
    values = {"x": rng.normal(size=lead + (d_in,)), "gate": rng.random(size=lead + (3,))}
    for i, kind in enumerate(kinds):
        values[f"w{i}"] = rng.normal(size=(d_out, d_in))
        if kind == "lora":
            for e in range(len(columns[i])):
                values[f"a{i}_{e}"] = rng.normal(size=(case["r"], d_in))
                values[f"b{i}_{e}"] = rng.normal(size=(d_out, case["r"]))
        elif kind == "propulsion":
            values[f"s{i}"] = rng.normal(size=d_out)
    trainable = {k for k in values if k.rstrip("0123456789_") in case["trainable"]}
    if norm_trainable is not None:
        values.update(gamma=rng.normal(size=d_in), beta=rng.normal(size=d_in))
        trainable |= set(norm_trainable)

    def terms(ts):
        drop = np.random.default_rng(case["seed"] + 1)
        gate = ts["gate"] if case["gated"] else None
        out = []
        for i, kind in enumerate(kinds):
            if kind == "lora":
                n = len(columns[i])
                out.append(tz.LoRA([ts[f"a{i}_{e}"] for e in range(n)], [ts[f"b{i}_{e}"] for e in range(n)],
                                   2.5, case["p"], drop, gate, columns[i]))
            elif kind == "propulsion":
                out.append(tz.Propulsion(ts[f"s{i}"], case["p"], drop, gate, columns[i][0]))
            else:
                out.append(None)
        return out

    def node(x, ts, **norm):
        weights = [ts[f"w{i}"] for i in range(n_proj)]
        return tz.adapted_projections(x, weights, terms(ts), [f"p{i}" for i in range(n_proj)], **norm)

    if norm_trainable is None:
        def fused(**ts):
            return node(ts["x"], ts)

        def chain(**ts):
            outs = []
            for i, term in enumerate(terms(ts)):
                base = unfused_linear(ts["x"], ts[f"w{i}"])
                outs.append(base if term is None else tz.add(base, chain_delta(ts["x"], base, term)))
            return outs[0] if n_proj == 1 else stacked(*outs)
    else:
        def fused(**ts):
            return node(ts["x"], ts, norm=(ts["gamma"], ts["beta"]))

        def chain(**ts):
            return node(tz.layer_norm(ts["x"], ts["gamma"], ts["beta"]), ts)

    assert_replays(fused, chain, values, trainable)


class TestAdaptedProjections:
    @GUARD
    @given(case=projection_cases())
    @example(case={"d_in": 16, "r": 2, "d_out": 4, "lead": (2, 3), "kinds": ["lora", "lora", "propulsion"],
                   "columns": [[0], [1, 2], [2]], "gated": True, "p": 0.3, "trainable": set(ROLES), "seed": 0})
    @example(case={"d_in": 16, "r": 2, "d_out": 7, "lead": (2, 4), "kinds": ["lora"], "columns": [[0]],
                   "gated": False, "p": 0.3, "trainable": {"x", "a", "b"}, "seed": 1})
    def test_replays_the_chain(self, case):
        assert_projection_node_replays(case)

    @GUARD
    @given(case=projection_cases(), norm_trainable=st.sets(st.sampled_from(("gamma", "beta"))))
    @example(case={"d_in": 16, "r": 2, "d_out": 4, "lead": (2, 3), "kinds": ["lora", "lora", "propulsion"],
                   "columns": [[0], [1, 2], [2]], "gated": True, "p": 0.3, "trainable": set(ROLES), "seed": 0},
             norm_trainable={"gamma", "beta"})
    @example(case={"d_in": 16, "r": 2, "d_out": 7, "lead": (2, 4), "kinds": ["lora", None], "columns": [[0], [1]],
                   "gated": True, "p": 0.3, "trainable": {"x", "a", "b", "gate"}, "seed": 1}, norm_trainable=set())
    def test_folded_layer_norm_replays_layer_norm_then_the_node(self, case, norm_trainable):
        """`norm=(gamma, beta)` against `tz.layer_norm` followed by the
        node: the values and the gradients of x (the LayerNorm's input),
        gamma, beta, the weights, the LoRA factors, the Propulsion scales
        and the gate."""
        assert_projection_node_replays(case, norm_trainable)


def chain_delta(x, base, term):
    """An adapter term as the chain of single ops: per adapter dropout,
    transpose, matmul, transpose, matmul, mul (a Propulsion term: dropout,
    mul on the frozen product), then select_index, mul for its gate column,
    and `add` over adapters in order."""
    if isinstance(term, tz.Propulsion):
        delta = unfused_propulsion_delta(base, term.s, term.p, term.rng)
        return delta if term.gate is None else unfused_gate(delta, term.gate, term.column)
    total = None
    for a, b, column in zip(term.a, term.b, term.column if term.gate is not None else [None] * len(term.a)):
        delta = unfused_lora_delta(x, a, b, term.scale, term.p, term.rng)
        if term.gate is not None:
            delta = unfused_gate(delta, term.gate, column)
        total = delta if total is None else tz.add(total, delta)
    return total


class TestSwiGLU:
    @GUARD
    @given(lead=LEADS, d=st.integers(1, 7), trainable=st.sets(st.sampled_from(("gate", "up"))), seed=SEEDS)
    def test_replays_the_chain(self, lead, d, trainable, seed):
        rng = np.random.default_rng(seed)
        values = {"gate": rng.normal(size=lead + (d,)), "up": rng.normal(size=lead + (d,))}
        assert_replays(lambda gate, up: tz.swiglu(stacked(up, gate)), unfused_swiglu, values, trainable)


class TestCausalAttention:
    @GUARD
    @given(b=st.integers(1, 3), t=st.integers(1, 6), n_heads=st.integers(1, 3), head_dim=st.integers(1, 4),
           trainable=st.sets(st.sampled_from(("q", "k", "v"))), seed=SEEDS)
    def test_replays_the_chain(self, b, t, n_heads, head_dim, trainable, seed):
        rng = np.random.default_rng(seed)
        values = {k: rng.normal(size=(b, t, n_heads * head_dim)) for k in ("q", "k", "v")}
        assert_replays(lambda q, k, v: tz.causal_attention(stacked(q, k, v), n_heads),
                       lambda q, k, v: unfused_causal_attention(q, k, v, n_heads), values, trainable)


class TestRouteCoefficients:
    @GUARD
    @given(data=st.data(), n_experts=st.integers(1, 5), b=st.integers(1, 3), t=st.integers(1, 6),
           d=st.integers(1, 6), log_tau=st.floats(-4.0, 2.0), similarity=st.sampled_from(SIMILARITIES),
           granularity=st.sampled_from(GRANULARITIES), tracked=st.booleans(), seed=SEEDS)
    def test_replays_the_chain(self, data, n_experts, b, t, d, log_tau, similarity, granularity, tracked, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(n_experts, d))
        permutation = tuple(int(i) for i in rng.permutation(n_experts))
        state = make_state(centers, top_k=data.draw(st.integers(1, n_experts)), tau=10.0 ** log_tau,
                           similarity=similarity, granularity=granularity, permutation=permutation)
        task_expert = rng.integers(0, n_experts, size=b) if granularity == "task" else None
        assert_route_matches_unfused(state, rng.normal(size=(b, t, d)), tracked, task_expert)
