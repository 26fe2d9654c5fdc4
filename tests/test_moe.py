import json

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.tensor import Tensor
from mjlab.adapters import Adapter, AdapterBank, AdapterConfig, count_trainable
from mjlab.model import ModelConfig, ProjectionId
from mjlab.moe_baseline import MoEAdapterBank, MoEConfig, MoEHooks, moe_gates, moe_mix

from conftest import finite_difference_check

QV = (ProjectionId.q, ProjectionId.v)


def moe_forward(bank: MoEAdapterBank, layer: int, proj: ProjectionId, h: Tensor) -> Tensor:
    """Single-site MoE contribution with gates computed from the same input."""
    return moe_mix(bank, layer, proj, h, moe_gates(bank, layer, h))


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
