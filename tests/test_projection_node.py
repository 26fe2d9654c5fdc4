"""`tz.adapted_projections`, one node per block input for the projections that
read it, against the chain of one `linear`, adapter node and `add` per
projection (`unfused_model`), byte for byte; and the tape it saves."""

import tracemalloc

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.adapters import AdapterBank, AdapterConfig
from mjlab.config import ExperimentConfig
from mjlab.model import Backbone, ProjectionId, next_token_loss
from mjlab.moe_baseline import MoEAdapterBank, MoEConfig, MoEHooks
from mjlab.router import MonkeyJumpHooks, RouterState
from mjlab.tensor import Tensor
from mjlab.train import ClassifierHead, build_method

from conftest import finite_difference_check
from unfused_model import DeltaHooks, unfused_final_states, unfused_next_token_loss

Q, K, V, O, UP, GATE, DOWN = tuple(ProjectionId)


def same_bytes(a, b) -> bool:
    """Equal shape and raw bytes (so -0.0 and +0.0 differ), or both None."""
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def fused_final_states(model, tokens, hooks):
    return model.final_states(tokens, hooks)


def chain_final_states(model, tokens, hooks):
    return unfused_final_states(model, tokens, DeltaHooks(hooks))


def adapter_hooks(cfg, variant, routed, shared):
    """(bank, hooks) with random adapter weights; no router states for an
    empty `routed` (peft)."""
    rng = np.random.default_rng(70)
    bank = AdapterBank(cfg, AdapterConfig(variant=variant, dropout=0.3), routed + shared, seed=5)
    for t in bank.named_tensors().values():
        t.data = rng.normal(size=t.shape) * 0.3
    states = {} if not routed else {
        layer: RouterState(centers=rng.normal(size=(len(routed), cfg.d_model)), routed=routed, shared=shared,
                           top_k=min(2, len(routed)), stop_step=10)
        for layer in range(cfg.n_layers)}
    return bank, MonkeyJumpHooks(bank, states)


def moe_hooks(cfg, n_experts):
    rng = np.random.default_rng(71)
    bank = MoEAdapterBank(cfg, MoEConfig(n_experts=n_experts, top_k=1, dropout=0.3), (Q, V, O, UP, GATE), seed=6)
    for t in bank.named_tensors().values():
        t.data = rng.normal(size=t.shape) * 0.3
    return bank, MoEHooks(bank)


def rounds(model, make_hooks, final_states, dropout, n_rounds=2):
    """(output, tape nodes, every bank gradient) after each of `n_rounds`
    forward/backward passes that accumulate into the same `.grad`."""
    bank, hooks = make_hooks()
    rng = np.random.default_rng(72)
    tokens = rng.integers(0, model.cfg.vocab_size, size=(3, 6))
    w = rng.normal(size=(3, 6, model.cfg.d_model))
    out = []
    for r in range(n_rounds):
        hooks.set_batch(np.array([0, 1, 0]), np.random.default_rng(50 + r) if dropout else None)
        with tz.Tape() as tape:
            y = final_states(model, tokens, hooks)
            n_nodes = len(tape.nodes)
            tz.backward(tz.tsum(tz.mul(y, w)))
        out.append((y.data.copy(), n_nodes,
                    {k: None if t.grad is None else t.grad.copy() for k, t in bank.named_tensors().items()}))
    return out


def assert_rounds_match(got, ref):
    for (y, nodes, grads), (ref_y, ref_nodes, ref_grads) in zip(got, ref, strict=True):
        assert same_bytes(y, ref_y)
        assert nodes < ref_nodes
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert same_bytes(grads[k], ref_grads[k]), k
    first, second = got[0][2], got[1][2]
    assert any(g is not None and not np.array_equal(g, second[k]) for k, g in first.items())  # accumulated


class TestAgainstTheChain:
    """A step through the frozen tiny model (layer 0's input has no grad,
    layer 1's has) and a pretraining step, byte for byte."""

    @pytest.mark.parametrize("dropout", [True, False], ids=["dropout", "no_dropout"])
    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    @pytest.mark.parametrize("method,routed,shared", [
        ("mj", (Q, K, V), (O, GATE)),
        ("mj_q_only", (Q,), (O,)),  # k and v have no adapter: qkv holds bare products
        ("peft", (), (Q, V, O, UP, GATE, DOWN)),
    ])
    def test_adapted_step(self, tiny_cfg, tiny_frozen, method, routed, shared, variant, dropout):
        def make_hooks():
            return adapter_hooks(tiny_cfg, variant, routed, shared)

        got = rounds(tiny_frozen, make_hooks, fused_final_states, dropout)
        ref = rounds(tiny_frozen, make_hooks, chain_final_states, dropout)
        assert_rounds_match(got, ref)

    @pytest.mark.parametrize("dropout", [True, False], ids=["dropout", "no_dropout"])
    @pytest.mark.parametrize("n_experts", [1, 4])
    def test_moe_step(self, tiny_cfg, tiny_frozen, n_experts, dropout):
        def make_hooks():
            return moe_hooks(tiny_cfg, n_experts)

        got = rounds(tiny_frozen, make_hooks, fused_final_states, dropout)
        ref = rounds(tiny_frozen, make_hooks, chain_final_states, dropout)
        assert_rounds_match(got, ref)

    def test_pretraining_step(self, tiny_cfg):
        """Trainable weights, so the node's weight gradients are compared."""
        tokens = np.random.default_rng(73).integers(0, tiny_cfg.vocab_size, size=(3, 7))

        def run(loss_fn):
            model = Backbone(tiny_cfg, seed=8)
            out = []
            for _ in range(2):
                with tz.Tape() as tape:
                    loss = loss_fn(model, tokens)
                    n_nodes = len(tape.nodes)
                    tz.backward(loss)
                out.append((loss.data.copy(), n_nodes,
                            {k: t.grad.copy() for k, t in model.named_parameters().items()}))
            return out

        assert_rounds_match(run(next_token_loss), run(unfused_next_token_loss))


def node_inputs(seed=74, shape=(2, 5, 6), d_out=4):
    """x, three weights, a gate, two LoRA experts' factors and a Propulsion
    scale, all trainable."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    ws = [Tensor(rng.normal(size=(d_out, shape[-1])), requires_grad=True) for _ in range(3)]
    gate = Tensor(rng.random(size=shape[:-1] + (3,)), requires_grad=True)
    a = [Tensor(rng.normal(size=(2, shape[-1])), requires_grad=True) for _ in range(2)]
    b = [Tensor(rng.normal(size=(d_out, 2)), requires_grad=True) for _ in range(2)]
    s = Tensor(rng.normal(size=d_out), requires_grad=True)
    return x, ws, gate, a, b, s


class TestNode:
    def test_finite_difference(self):
        """x, the weights, two gated LoRA experts, a gated Propulsion scale
        and a bare projection, through one node."""
        x, ws, gate, a, b, s = node_inputs()
        w_out = np.random.default_rng(75).normal(size=(3, 2, 5, 4))

        def build():
            terms = [tz.LoRA(a, b, 1.5, 0.3, np.random.default_rng(5), gate, (0, 2)),
                     tz.Propulsion(s, 0.3, np.random.default_rng(6), gate, 1), None]
            y = tz.adapted_projections(x, ws, terms, ["p0", "p1", "p2"])
            return tz.tsum(tz.mul(y, w_out))

        finite_difference_check(build, [x, *ws, gate, *a, *b, s])

    def test_stacked_matmul_is_pinned(self):
        """The frozen products of the stacked W^T, and the weight gradients
        as the node takes them, equal the separate products bitwise."""
        rng = np.random.default_rng(76)
        for b in (1, 7, 16):
            for t in (4, 5, 13, 24, 31, 64):
                for d_in, d_out in ((32, 32), (32, 64), (64, 32), (16, 16)):
                    x = rng.normal(size=(b, t, d_in))
                    ws = [Tensor(rng.normal(size=(d_out, d_in)), requires_grad=True) for _ in range(3)]
                    g = rng.normal(size=(3, b, t, d_out))
                    with tz.Tape():
                        out = tz.adapted_projections(Tensor(x), ws, [None] * 3, ["q", "k", "v"])
                        tz.backward(tz.tsum(tz.mul(out, g)))
                    for i, w in enumerate(ws):
                        wt = np.ascontiguousarray(w.data.T)
                        assert same_bytes(out.data[i], x @ wt), (b, t, d_in, d_out)
                        gw = (np.swapaxes(x, -1, -2) @ np.ascontiguousarray(g[i])).sum(axis=0)
                        assert same_bytes(w.grad, np.ascontiguousarray(gw.T)), (b, t, d_in, d_out)

    def test_keeps_no_product_and_no_delta(self):
        """At (16, 24, 32), a frozen product or a delta is 96 KiB: the node
        holds its output, x and what its backward reads, and none of them."""
        rng = np.random.default_rng(77)
        shape, d = (16, 24, 32), 32
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        ws = [Tensor(rng.normal(size=(d, d))) for _ in range(3)]
        gate = Tensor(rng.random(size=shape[:-1] + (3,)))
        adapters = [(Tensor(rng.normal(size=(2, d)), requires_grad=True), Tensor(rng.normal(size=(d, 2)),
                                                                                requires_grad=True))
                    for _ in range(3)]
        terms = [tz.LoRA((a,), (b,), 2.5, 0.3, np.random.default_rng(8), gate, (c,))
                 for c, (a, b) in enumerate(adapters)]
        tracemalloc.start()
        try:
            with tz.Tape():
                before = tracemalloc.get_traced_memory()[0]
                out = tz.adapted_projections(x, ws, terms, ["q", "k", "v"])
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tokens = shape[0] * shape[1]
        # per adapter: a bool mask, x_d A^T, the gate column, A^T and B^T
        kept = 3 * (tokens * d + 8 * tokens * 2 + 8 * tokens + 2 * 8 * 2 * d)
        assert held <= out.data.nbytes + 8 * d * 3 * d + kept + 16384, held

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("poison,name", [
        ("w1", "'linear' at p1"),
        ("a0", "'lora_delta' at p0"),  # before p1's linear, as the chain ran
        ("s1", "'propulsion_delta' at p1"),
        ("sum0", "'add' at p0"),
    ])
    def test_non_finite_names_the_chain_op_and_the_projection(self, poison, name):
        x, ws, gate, a, b, s = node_inputs(seed=78)
        if poison == "w1":
            ws[1].data[0, 0] = np.inf
        elif poison == "a0":
            a[0].data[0, 0] = np.inf
            ws[1].data[0, 0] = np.inf  # a later op of the chain: not the one named
        elif poison == "s1":
            s.data[0] = np.inf
        else:  # p0's frozen product and delta are 1e308 each, their sum is not finite
            x.data[...], gate.data[...] = 1.0, 1.0
            ws[0].data[...] = 1e308 / 6
            for t in a:
                t.data[...] = 1.0  # x_d A^T = 6 per rank
            for t in b:
                t.data[...] = 1e308 / 24  # 2 experts x 2 ranks x 6
        terms = [tz.LoRA(a, b, 1.0, 0.0, None, gate, (0, 1)), tz.Propulsion(s, 0.0, None), None]
        with pytest.raises(FloatingPointError, match=f"non-finite values produced by {name}$"):
            tz.adapted_projections(x, ws, terms, ["p0", "p1", "p2"])


class TestTapeGuard:
    """One step at the default config, B = 16, T = 24."""

    @staticmethod
    def mj_step(final_states) -> tuple[int, int]:
        """(tape nodes, tape bytes) at backward entry of an mj fine-tune step."""
        cfg = ExperimentConfig(method="mj")
        backbone = Backbone(cfg.model, seed=0)
        backbone.freeze()
        rng = np.random.default_rng(79)
        states = {layer: cfg.router.router_state(rng.normal(size=(len(cfg.router.routed), cfg.model.d_model)), 10)
                  for layer in range(cfg.model.n_layers)}
        bank, hooks = build_method(cfg, 0, states)
        head = ClassifierHead(cfg.model.d_model, 3)
        tokens = rng.integers(0, cfg.model.vocab_size, size=(16, 24))
        labels = rng.integers(0, 3, size=16)
        hooks.set_batch(None, np.random.default_rng(1))
        tracemalloc.start()
        try:
            with tz.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                loss = tz.cross_entropy(head.logits(final_states(backbone, tokens, hooks)), labels)
                at_entry = tracemalloc.get_traced_memory()[0] - before
                n_nodes = len(tape.nodes)
                tz.backward(loss)
        finally:
            tracemalloc.stop()
        return n_nodes, at_entry

    def test_mj_step_holds_one_node_per_block_input(self):
        nodes, tape_bytes = self.mj_step(fused_final_states)
        chain_nodes, chain_bytes = self.mj_step(chain_final_states)
        assert nodes <= 60, nodes
        assert tape_bytes <= 0.8 * chain_bytes, (tape_bytes, chain_bytes, chain_nodes)

    def test_pretraining_step_holds_at_most_50_nodes(self):
        cfg = ExperimentConfig()
        model = Backbone(cfg.model, seed=0)
        tokens = np.random.default_rng(80).integers(0, cfg.model.vocab_size, size=(16, 24))
        with tz.Tape() as tape:
            next_token_loss(model, tokens)
            assert len(tape.nodes) <= 50, len(tape.nodes)
