import json
import tracemalloc

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.tensor import Tensor
from mjlab.adapters import Adapter, AdapterBank, AdapterConfig, count_trainable
from mjlab.config import ExperimentConfig
from mjlab.model import Backbone, ModelConfig, ProjectionId
from mjlab.moe_baseline import MoEAdapterBank, MoEConfig, MoEHooks, moe_gates, moe_mix

from mjlab.train import ClassifierHead, build_method

from conftest import finite_difference_check

QV = (ProjectionId.q, ProjectionId.v)


def moe_forward(bank: MoEAdapterBank, layer: int, proj: ProjectionId, h: Tensor) -> Tensor:
    """Single-site MoE contribution with gates computed from the same input."""
    return moe_mix(bank, layer, proj, h, moe_gates(bank, layer, h))


def unfused_moe_mix(bank: MoEAdapterBank, layer: int, proj: ProjectionId, x: Tensor, gates: Tensor,
                    drop_rng: np.random.Generator | None = None) -> Tensor:
    """The chain `moe_mix` fuses: one `Adapter.apply` per expert, joined by
    `add`; the bitwise reference. Each `Adapter.apply` is a one-adapter
    `tz.LoRA` node, which runs the same stacked code as `moe_mix`; the
    one-adapter node is tied to the chain of single ops by
    `test_tensor.py`'s `TestLoraDelta.test_bitwise_equal_to_unfused_chain`."""
    out = None
    for n, expert in enumerate(bank.experts[(layer, proj)]):
        term = expert.apply(x, gates, rng=drop_rng, column=n)
        out = term if out is None else tz.add(out, term)
    return out


def square_cfg(d=8, layers=1):
    return ModelConfig(d_model=d, d_ff=d, n_layers=layers, n_heads=1, vocab_size=8, max_seq_len=8)


class TestMoEForward:
    def test_single_expert_reduces_to_lora(self):
        cfg = square_cfg()
        rng = np.random.default_rng(0)
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=1, top_k=1, r=2, dropout=0.0), QV, seed=1)
        expert = bank.experts[(0, ProjectionId.q)][0]
        a, b = expert.a, expert.b
        a.data = rng.normal(size=a.data.shape)
        b.data = rng.normal(size=b.data.shape)
        h = Tensor(rng.normal(size=(4, 8)))
        out = moe_forward(bank, 0, ProjectionId.q, h)
        expected = (2.5) * h.data @ a.data.T @ b.data.T  # alpha/r = 5/2
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_zero_b_gives_zero_contribution(self):
        cfg = square_cfg()
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=4, top_k=2, dropout=0.0), QV, seed=2)
        h = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
        out = moe_forward(bank, 0, ProjectionId.q, h)
        assert np.array_equal(out.data, np.zeros((5, 8)))

    def test_dense_top_k_matches_loop_oracle(self):
        cfg = square_cfg()
        rng = np.random.default_rng(4)
        n = 4
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=n, top_k=n, r=2, dropout=0.0), QV, seed=5)
        for a, b in ((e.a, e.b) for e in bank.experts[(0, ProjectionId.q)]):
            a.data = rng.normal(size=a.data.shape)
            b.data = rng.normal(size=b.data.shape)
        h = rng.normal(size=(6, 8))
        out = moe_forward(bank, 0, ProjectionId.q, Tensor(h))

        r_mat = bank.routers[0].data
        logits = h @ r_mat.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)  # k = N: renormalization is identity
        expected = np.zeros((6, 8))
        for t in range(6):
            for i, (a, b) in enumerate((e.a, e.b) for e in bank.experts[(0, ProjectionId.q)]):
                expected[t] += g[t, i] * 2.5 * (b.data @ (a.data @ h[t]))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_kept_gates_renormalized_to_one(self):
        cfg = square_cfg()
        rng = np.random.default_rng(6)
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=4, top_k=2, dropout=0.0), QV, seed=7)
        gates = moe_gates(bank, 0, Tensor(rng.normal(size=(10, 8))))
        sums = gates.data.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert ((gates.data > 0).sum(axis=1) == 2).all()

    def test_top_k_bounds(self):
        with pytest.raises(ValueError, match="top_k"):
            MoEConfig(n_experts=2, top_k=3)


class TestExperts:
    def test_experts_are_lora_adapters_drawn_in_bank_order(self):
        cfg = square_cfg(d=8, layers=1)
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=2, top_k=1, r=3, alpha=4.0, dropout=0.1), QV, seed=21)
        rng = np.random.default_rng(21)  # router, then each projection's experts: A drawn, B zero
        assert np.array_equal(bank.routers[0].data, rng.normal(0.0, 1.0 / np.sqrt(8), size=(2, 8)))
        for proj in QV:
            for expert in bank.experts[(0, proj)]:
                assert isinstance(expert, Adapter)
                assert expert.cfg == AdapterConfig("lora", r=3, alpha=4.0, dropout=0.1)
                assert np.array_equal(expert.a.data, rng.normal(0.0, 1.0 / np.sqrt(8), size=(3, 8)))
                assert np.array_equal(expert.b.data, np.zeros((8, 3)))

    @pytest.mark.parametrize("bad", [{"r": 0}, {"alpha": 0.0}, {"dropout": 1.0}])
    def test_rank_alpha_dropout_errors_are_the_adapter_errors(self, bad):
        with pytest.raises(ValueError) as adapter_err:
            AdapterConfig(**bad)
        with pytest.raises(ValueError) as moe_err:
            MoEConfig(**bad)
        assert str(moe_err.value) == str(adapter_err.value)

    def test_manifest_tensor_names(self, tmp_path):
        bank = MoEAdapterBank(square_cfg(d=8), MoEConfig(n_experts=2, top_k=1), QV, seed=0)
        bank.save(tmp_path / "adapters")
        manifest = json.loads((tmp_path / "adapters" / "manifest.json").read_text())
        assert manifest["tensors"] == [
            "layer0.q.e0.a", "layer0.q.e0.b", "layer0.q.e1.a", "layer0.q.e1.b",
            "layer0.router",
            "layer0.v.e0.a", "layer0.v.e0.b", "layer0.v.e1.a", "layer0.v.e1.b",
        ]
        assert manifest["moe"] == {"n_experts": 2, "top_k": 1, "r": 2, "alpha": 5.0, "dropout": 0.05}
        assert sorted(p.name for p in (tmp_path / "adapters").glob("*.bin")) == \
            sorted(f"{name}.bin" for name in manifest["tensors"])


class TestCounts:
    def test_closed_form_per_block(self):
        d, r, n, e = 8, 2, 4, 2
        bank = MoEAdapterBank(square_cfg(d), MoEConfig(n_experts=n, top_k=2, r=r), QV, seed=0)
        assert count_trainable(bank) == 2 * e * n * d * r + n * d
        assert bank.router_param_count() == n * d

    def test_parameter_multiplication_vs_plain_lora(self):
        cfg = square_cfg()
        for n in (1, 2, 4, 6):
            moe = MoEAdapterBank(cfg, MoEConfig(n_experts=n, top_k=1, r=2), QV, seed=0)
            lora = AdapterBank(cfg, AdapterConfig(variant="lora", r=2), QV, seed=0)
            assert count_trainable(moe) / count_trainable(lora) >= n


class TestGradients:
    def test_router_receives_gradients(self, tiny_cfg, tiny_frozen):
        bank = MoEAdapterBank(tiny_cfg, MoEConfig(n_experts=3, top_k=2, dropout=0.0), QV, seed=8)
        rng = np.random.default_rng(9)
        for pairs in bank.experts.values():
            for b in (e.b for e in pairs):
                b.data = rng.normal(size=b.data.shape) * 0.2
        hooks = MoEHooks(bank)
        hooks.set_batch()
        toks = np.array([[1, 2, 3, 4]])
        with tz.Tape():
            out = tiny_frozen.final_states(toks, hooks)
            tz.backward(tz.tsum(tz.mul(out, out)))
        for layer in bank.routers:
            grad = bank.routers[layer].grad
            assert grad is not None
            assert np.abs(grad).max() > 0

    def test_moe_parameters_match_finite_difference(self, tiny_cfg, tiny_frozen):
        bank = MoEAdapterBank(tiny_cfg, MoEConfig(n_experts=2, top_k=1, r=1, dropout=0.0), (ProjectionId.q,), seed=10)
        rng = np.random.default_rng(11)
        for pairs in bank.experts.values():
            for b in (e.b for e in pairs):
                b.data = rng.normal(size=b.data.shape) * 0.2
        hooks = MoEHooks(bank)
        toks = np.array([[1, 5, 3]])
        labels = np.array([1])
        head = Tensor(rng.normal(size=(3, tiny_cfg.d_model)), requires_grad=True)

        def build():
            hooks.set_batch()
            final = tiny_frozen.final_states(toks, hooks)
            b_, t_, d_ = final.shape
            last = tz.reshape(tz.select_index(final, 1, t_ - 1), (b_, d_))
            return tz.cross_entropy(tz.matmul(last, tz.transpose(head)), labels)

        finite_difference_check(build, bank.trainable_tensors(), rel_tol=1e-6)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = square_cfg(d=8, layers=2)
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=2, top_k=1), QV, seed=12)
        rng = np.random.default_rng(13)
        for t in bank.trainable_tensors():
            t.data = rng.normal(size=t.data.shape)
        bank.save(tmp_path / "moe")
        clone = MoEAdapterBank(cfg, MoEConfig(n_experts=2, top_k=1), QV, seed=99)
        clone.load_weights(tmp_path / "moe")
        for name, t in bank.named_tensors().items():
            assert np.array_equal(t.data, clone.named_tensors()[name].data)

    def test_truncated_or_wrong_shape_rejected(self, tmp_path):
        bank = MoEAdapterBank(square_cfg(d=8), MoEConfig(n_experts=2, top_k=1), QV, seed=12)
        bank.save(tmp_path / "moe")
        target = tmp_path / "moe" / "layer0.router.bin"
        target.write_bytes(target.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="layer0.router.bin"):
            bank.load_weights(tmp_path / "moe")
        tz.save_tensor(target, np.zeros((3, 8)))  # router is (n_experts, d)
        with pytest.raises(ValueError, match="layer0.router.bin"):
            bank.load_weights(tmp_path / "moe")


def grouped_bank(n_experts: int, d_out: int = 5, dropout: float = 0.3, frozen_a: bool = False,
                 d_in: int = 6, r: int = 3) -> MoEAdapterBank:
    """One layer, one projection (d_in by default 6) of `n_experts` experts
    with drawn, non-zero factors; `frozen_a` freezes every A, as LoRA-FA does."""
    cfg = ModelConfig(d_model=d_in, d_ff=d_out, n_layers=1, n_heads=1, vocab_size=8, max_seq_len=8)
    bank = MoEAdapterBank(cfg, MoEConfig(n_experts=n_experts, top_k=1, r=r, dropout=dropout),
                          (ProjectionId.up,), seed=31)
    rng = np.random.default_rng(32)
    for expert in bank.experts[(0, ProjectionId.up)]:
        expert.b.data = rng.normal(size=expert.b.shape)
        expert.a.requires_grad = not frozen_a
    return bank


class TestGroupedNode:
    """`moe_mix`, one `lora_delta` node for all of a projection's experts,
    against `unfused_moe_mix` byte for byte."""

    @staticmethod
    def run(mix, n_experts, x_shape, dropout=True, x_grad=True, gate_grad=True, frozen_a=False, rounds=2,
            d_in=6, r=3):
        """Values, node count and every gradient after each of `rounds`
        forward/backward passes that accumulate into the same `.grad`."""
        bank = grouped_bank(n_experts, frozen_a=frozen_a, d_in=d_in, r=r)
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=x_shape + (d_in,)), requires_grad=x_grad)
        gate_values = rng.random(size=x_shape + (n_experts,))
        gate_values[..., 0, -1] = 0.0  # an unselected expert
        gates = Tensor(gate_values, requires_grad=gate_grad)
        w = rng.normal(size=x_shape + (5,))
        experts = bank.experts[(0, ProjectionId.up)]
        leaves = {"x": x, "gates": gates, **{f"e{n}.{k}": t for n, e in enumerate(experts)
                                             for k, t in e.named_tensors().items()}}
        out = []
        for step in range(rounds):
            drop_rng = np.random.default_rng(40 + step) if dropout else None
            with tz.Tape() as tape:
                y = mix(bank, 0, ProjectionId.up, x, gates, drop_rng)
                n_nodes = len(tape.nodes)
                loss = tz.tsum(tz.mul(y, w))
                if loss.requires_grad:
                    tz.backward(loss)
            grads = {k: None if t.grad is None else t.grad.copy() for k, t in leaves.items()}
            out.append((y.data, n_nodes, grads))
        return out

    @pytest.mark.parametrize("n_experts", [1, 2, 4])
    @pytest.mark.parametrize("x_shape", [(4,), (2, 4)])
    @pytest.mark.parametrize("dropout", [True, False])
    @pytest.mark.parametrize("trainable", [
        "all", "layer0",  # layer 0's x has no grad
        "no_gate_grad", "frozen_a", "gate_only"])
    def test_bitwise_equal_to_unfused_chain(self, n_experts, x_shape, dropout, trainable):
        kwargs = {"all": {}, "layer0": {"x_grad": False}, "no_gate_grad": {"gate_grad": False},
                  "frozen_a": {"frozen_a": True}, "gate_only": {"x_grad": False, "frozen_a": True}}[trainable]
        got = self.assert_equal_to_unfused_chain(n_experts, x_shape, dropout, **kwargs)
        if trainable == "gate_only":
            assert got[0][2]["e0.b"] is not None and got[0][2]["e0.a"] is None

    @pytest.mark.parametrize("n_experts", [2, 4])
    def test_stacked_factors_are_contiguous_per_expert(self, n_experts):
        """At d_in = 16, r = 2 the product x A^T depends in its last bits on
        the layout of A^T: each expert's stacked A^T and B^T must be the
        C-contiguous copy the chain's `transpose` makes."""
        self.assert_equal_to_unfused_chain(n_experts, (2, 4), True, d_in=16, r=2)

    def assert_equal_to_unfused_chain(self, n_experts, x_shape, dropout, **kwargs):
        got = self.run(moe_mix, n_experts, x_shape, dropout, **kwargs)
        ref = self.run(unfused_moe_mix, n_experts, x_shape, dropout, **kwargs)
        for (y, nodes, grads), (ref_y, ref_nodes, ref_grads) in zip(got, ref):
            assert nodes == 1 and ref_nodes == 2 * n_experts - 1
            assert y.tobytes() == ref_y.tobytes()
            for k, g in grads.items():
                if g is None or ref_grads[k] is None:
                    assert g is None and ref_grads[k] is None, k
                else:
                    assert g.tobytes() == ref_grads[k].tobytes(), k
        return got

    def test_second_backward_accumulates(self):
        (_, _, first), (_, _, second) = self.run(moe_mix, 4, (2, 4))
        for k, g in first.items():
            assert not np.array_equal(second[k], g), k

    @pytest.mark.parametrize("n_experts", [1, 2, 4])
    def test_gate_gradient_keeps_the_sign_of_zero(self, n_experts):
        """Fresh experts (B = 0) with d_out = 1 send -0.0 into every gate
        column; adding another expert's +0.0 columns clears the sign, so only
        E = 1 keeps one, and the node must keep it there too."""
        bank = grouped_bank(n_experts, d_out=1, dropout=0.0)
        for expert in bank.experts[(0, ProjectionId.up)]:
            expert.b.data[:] = 0.0
        rng = np.random.default_rng(34)
        x_values = rng.normal(size=(2, 4, 6))
        delta = unfused_moe_mix(bank, 0, ProjectionId.up, Tensor(x_values), Tensor(np.ones((2, 4, n_experts)))).data
        w = np.where(np.signbit(delta), 1.0, -1.0)  # every g * delta is -0.0

        def gate_grad(mix):
            gates = Tensor(np.full((2, 4, n_experts), 0.5), requires_grad=True)
            with tz.Tape():
                tz.backward(tz.tsum(tz.mul(mix(bank, 0, ProjectionId.up, Tensor(x_values), gates), w)))
            return gates.grad

        got, ref = gate_grad(moe_mix), gate_grad(unfused_moe_mix)
        assert (np.signbit(ref) & (ref == 0.0)).any() == (n_experts == 1)
        assert got.tobytes() == ref.tobytes()

    def test_finite_difference(self):
        bank = grouped_bank(3)
        rng = np.random.default_rng(35)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        gates = Tensor(rng.random(size=(2, 3, 3)), requires_grad=True)
        w = rng.normal(size=(2, 3, 5))

        def build():
            drop_rng = np.random.default_rng(7)  # identical masks on every eval
            return tz.tsum(tz.mul(moe_mix(bank, 0, ProjectionId.up, x, gates, drop_rng), w))

        experts = bank.experts[(0, ProjectionId.up)]
        finite_difference_check(build, [x, gates] + [t for e in experts for t in (e.a, e.b)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_names_the_op(self):
        bank = grouped_bank(2)
        x = Tensor(np.random.default_rng(36).normal(size=(2, 3, 6)))
        x.data[1, 2, 0] = np.inf
        with pytest.raises(FloatingPointError, match="'lora_delta'"):
            moe_mix(bank, 0, ProjectionId.up, x, Tensor(np.zeros((2, 3, 2))))  # inf * 0 is nan

    def test_one_stacked_draw_is_the_stream_of_separate_draws(self):
        shape = (2, 3, 6)
        one = np.random.default_rng(37).random((4,) + shape)
        rng = np.random.default_rng(37)
        assert one.tobytes() == np.stack([rng.random(shape) for _ in range(4)]).tobytes()


class TestTapeFootprint:
    """A MoE fine-tune step keeps about a peft step's tape: each projection's
    experts are one node, and its dropout masks are bits. Its backward
    rebuilds one expert at a time, so it peaks little above that tape."""

    @staticmethod
    def step(method: str) -> tuple[int, int, int]:
        """(tape nodes, tape bytes at backward entry, peak bytes during
        backward) of one step at the default config, B = 16, T = 24; the same
        batch for every method. Bytes count from the tape's entry."""
        cfg = ExperimentConfig(method=method)
        backbone = Backbone(cfg.model, seed=0)
        backbone.freeze()
        bank, hooks = build_method(cfg, 0)
        head = ClassifierHead(cfg.model.d_model, 3)
        rng = np.random.default_rng(38)
        tokens = rng.integers(0, cfg.model.vocab_size, size=(16, 24))
        labels = rng.integers(0, 3, size=16)
        hooks.set_batch(None, np.random.default_rng(1))
        tracemalloc.start()
        try:
            with tz.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                loss = tz.cross_entropy(head.logits(backbone.final_states(tokens, hooks)), labels)
                at_entry = tracemalloc.get_traced_memory()[0] - before
                n_nodes = len(tape.nodes)
                tracemalloc.reset_peak()
                tz.backward(loss)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return n_nodes, at_entry, peak

    def test_moe_step_holds_about_a_peft_tape(self):
        moe_nodes, moe_bytes, _ = self.step("moe")
        _, peft_bytes, _ = self.step("peft")
        assert moe_nodes <= 120, moe_nodes
        assert moe_bytes <= 1.15 * peft_bytes, (moe_bytes, peft_bytes)

    def test_moe_backward_peaks_little_above_its_tape(self):
        _, moe_bytes, moe_peak = self.step("moe")
        assert moe_peak <= 1.20 * moe_bytes, (moe_peak, moe_bytes)
