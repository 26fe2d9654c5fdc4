import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.tensor import Tensor
from mjlab.adapters import Adapter, AdapterBank, AdapterConfig, count_trainable
from mjlab.model import Backbone, ModelConfig, ProjectionId
from mjlab.moe_baseline import MoEAdapterBank, MoEConfig, MoEHooks
from mjlab.router import MonkeyJumpHooks, RouterState

from conftest import finite_difference_check

QKVOG = (ProjectionId.q, ProjectionId.k, ProjectionId.v, ProjectionId.o, ProjectionId.gate)


class TestApply:
    def test_m_zero_short_circuits_off_tape(self):
        rng = np.random.default_rng(0)
        adapter = Adapter(AdapterConfig(variant="lora", r=2), d_out=4, d_in=4, rng=rng)
        adapter.b.data = rng.normal(size=adapter.b.data.shape)
        h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with tz.Tape():
            out = adapter.apply(h, 0)
            assert np.array_equal(out.data, np.zeros((3, 4)))
            loss = tz.tsum(tz.mul(out, out))
            with pytest.raises(ValueError, match="detached"):
                tz.backward(loss)
        assert adapter.a.grad is None and adapter.b.grad is None

    def test_fresh_lora_contributes_zero(self):
        rng = np.random.default_rng(1)
        adapter = Adapter(AdapterConfig(variant="lora", r=2), d_out=5, d_in=3, rng=rng)
        h = Tensor(rng.normal(size=(4, 3)))
        assert np.array_equal(adapter.apply(h, 1.0).data, np.zeros((4, 5)))

    def test_unit_rank_one_delta_maps_e1_to_e1(self):
        # delta = B @ A = [[1, 0], [0, 0]] via r=1 factors, alpha/r = 1
        rng = np.random.default_rng(2)
        adapter = Adapter(AdapterConfig(variant="lora", r=1, alpha=1.0), d_out=2, d_in=2, rng=rng)
        adapter.a.data = np.array([[1.0, 0.0]])
        adapter.b.data = np.array([[1.0], [0.0]])
        out = adapter.apply(Tensor([[1.0, 0.0]]), 1.0)
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_per_token_coefficients_scale_rows(self):
        rng = np.random.default_rng(3)
        adapter = Adapter(AdapterConfig(variant="lora", r=2, alpha=2.0), d_out=4, d_in=4, rng=rng)
        adapter.b.data = rng.normal(size=adapter.b.data.shape)
        h = Tensor(rng.normal(size=(3, 4)))
        full = adapter.apply(h, 1.0)
        m = Tensor(np.array([[1.0], [0.0], [0.5]]))
        gated = adapter.apply(h, m)
        assert np.array_equal(gated.data[0], full.data[0])
        assert np.array_equal(gated.data[1], np.zeros(4))
        assert np.allclose(gated.data[2], 0.5 * full.data[2], atol=1e-15)

    def test_propulsion_rescales_base(self):
        rng = np.random.default_rng(4)
        adapter = Adapter(AdapterConfig(variant="propulsion"), d_out=3, d_in=3, rng=rng)
        adapter.s.data = np.array([0.5, -1.0, 0.0])
        base = Tensor(np.array([[2.0, 2.0, 2.0]]))
        out = adapter.apply(Tensor(np.zeros((1, 3))), 1.0, base=base)
        assert np.allclose(out.data, [[1.0, -2.0, 0.0]], atol=1e-15)

    def test_propulsion_requires_base(self):
        adapter = Adapter(AdapterConfig(variant="propulsion"), 3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="projection output"):
            adapter.apply(Tensor(np.zeros((1, 3))), 1.0)


class TestCounts:
    def test_lora_closed_form(self):
        cfg = ModelConfig(d_model=8, d_ff=8, n_layers=1, n_heads=1, vocab_size=8, max_seq_len=8)
        bank = AdapterBank(cfg, AdapterConfig(variant="lora", r=2), PROJ4 := tuple(ProjectionId)[:4])
        assert count_trainable(bank) == 2 * len(PROJ4) * 8 * 2 == 128

    def test_propulsion_closed_form(self):
        cfg = ModelConfig(d_model=32, d_ff=32, n_layers=4, n_heads=1, vocab_size=8, max_seq_len=8)
        bank = AdapterBank(cfg, AdapterConfig(variant="propulsion"), tuple(ProjectionId)[:5])
        assert count_trainable(bank) == 5 * 32 * 4 == 640

    def test_lorafa_counts_only_b(self):
        cfg = ModelConfig(d_model=8, d_ff=8, n_layers=2, n_heads=1, vocab_size=8, max_seq_len=8)
        bank = AdapterBank(cfg, AdapterConfig(variant="lorafa", r=3), (ProjectionId.q,))
        assert count_trainable(bank) == 8 * 3 * 2
        for adapter in bank.adapters.values():
            assert not adapter.a.requires_grad
            assert adapter.b.requires_grad

    def test_empty_bank(self):
        cfg = ModelConfig(d_model=8, d_ff=8, n_layers=1, n_heads=1, vocab_size=8, max_seq_len=8)
        assert count_trainable(AdapterBank(cfg, AdapterConfig(), ())) == 0

    def test_rectangular_projections_counted_exactly(self):
        cfg = ModelConfig(d_model=8, d_ff=16, n_layers=1, n_heads=1, vocab_size=8, max_seq_len=8)
        bank = AdapterBank(cfg, AdapterConfig(variant="lora", r=2), (ProjectionId.up, ProjectionId.down))
        # up: A 2x8 + B 16x2, down: A 2x16 + B 8x2
        assert count_trainable(bank) == (16 + 32) + (32 + 16)

    def test_routing_adds_no_trainables(self, tiny_cfg):
        with_routing = AdapterBank(tiny_cfg, AdapterConfig(), QKVOG, seed=0)
        without_routing = AdapterBank(tiny_cfg, AdapterConfig(), QKVOG, seed=0)
        assert count_trainable(with_routing) == count_trainable(without_routing)


class TestZeroInit:
    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    def test_forward_equals_frozen_bitwise(self, variant, tiny_cfg, tiny_frozen):
        bank = AdapterBank(tiny_cfg, AdapterConfig(variant=variant), QKVOG, seed=9)
        toks = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        hooks = MonkeyJumpHooks(bank, {})
        assert np.array_equal(tiny_frozen.final_states(toks).data, tiny_frozen.final_states(toks, hooks).data)
        for a, b in zip(tiny_frozen.hidden_states(toks), tiny_frozen._run_blocks(toks, hooks), strict=True):
            assert np.array_equal(a.data, b.data)


class TestGradients:
    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    def test_adapter_gradients_match_finite_difference(self, variant, tiny_cfg, tiny_frozen):
        bank = AdapterBank(
            tiny_cfg, AdapterConfig(variant=variant, dropout=0.0), (ProjectionId.q, ProjectionId.gate), seed=10
        )
        rng = np.random.default_rng(11)
        for t in bank.trainable_tensors():
            t.data = rng.normal(size=t.data.shape) * 0.2
        toks = np.array([[1, 5, 3]])
        hooks = MonkeyJumpHooks(bank, {})
        head = Tensor(rng.normal(size=(3, tiny_cfg.d_model)), requires_grad=True)
        labels = np.array([1])

        def build():
            final = tiny_frozen.final_states(toks, hooks)
            b, t, d = final.shape
            last = tz.reshape(tz.select_index(final, 1, t - 1), (b, d))
            return tz.cross_entropy(tz.matmul(last, tz.transpose(head)), labels)

        finite_difference_check(build, bank.trainable_tensors(), rel_tol=1e-6)

    def test_backbone_stays_gradient_free(self, tiny_cfg, tiny_frozen):
        bank = AdapterBank(tiny_cfg, AdapterConfig(dropout=0.0), QKVOG, seed=12)
        hooks = MonkeyJumpHooks(bank, {})
        toks = np.array([[1, 2, 3]])
        with tz.Tape():
            final = tiny_frozen.final_states(toks, hooks)
            tz.backward(tz.tsum(final))
        for t in tiny_frozen.parameters():
            assert t.grad is None


class TestDropout:
    def test_seeded_and_disabled_in_eval(self, tiny_cfg, tiny_frozen):
        bank = AdapterBank(tiny_cfg, AdapterConfig(variant="lora", dropout=0.3), (ProjectionId.q,), seed=1)
        rng = np.random.default_rng(2)
        for t in bank.trainable_tensors():
            t.data = rng.normal(size=t.data.shape) * 0.3
        toks = np.array([[1, 2, 3, 4]])
        hooks = MonkeyJumpHooks(bank, {})
        hooks.set_batch(None, np.random.default_rng(77))
        out1 = tiny_frozen.final_states(toks, hooks).data
        hooks.set_batch(None, np.random.default_rng(77))
        out2 = tiny_frozen.final_states(toks, hooks).data
        hooks.set_batch(None, np.random.default_rng(78))
        out3 = tiny_frozen.final_states(toks, hooks).data
        assert np.array_equal(out1, out2)
        assert not np.array_equal(out1, out3)
        hooks.set_batch(None)
        eval1 = tiny_frozen.final_states(toks, hooks).data
        eval2 = tiny_frozen.final_states(toks, hooks).data
        assert np.array_equal(eval1, eval2)

    @pytest.mark.parametrize("method", ["mj", "moe"])
    def test_batch_without_stream_equals_fresh_hooks(self, method, tiny_cfg, tiny_frozen):
        """`set_batch(experts)` right after a dropout batch runs the pass of a
        fresh hooks object: no dropout outlives the batch it came with."""

        def make_hooks():
            if method == "moe":
                bank = MoEAdapterBank(tiny_cfg, MoEConfig(dropout=0.3), QKVOG, seed=5)
                hooks = MoEHooks(bank)
            else:
                bank = AdapterBank(tiny_cfg, AdapterConfig(dropout=0.3), QKVOG, seed=5)
                states = {layer: RouterState(centers=np.random.default_rng(6 + layer).normal(size=(3, tiny_cfg.d_model)))
                          for layer in bank.layers}
                hooks = MonkeyJumpHooks(bank, states)
            rng = np.random.default_rng(7)
            for t in bank.trainable_tensors():
                t.data = rng.normal(size=t.shape) * 0.3
            return hooks

        toks = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        experts = np.array([0, 2])
        hooks = make_hooks()
        hooks.set_batch(experts, np.random.default_rng(8))
        dropped = tiny_frozen.final_states(toks, hooks).data
        hooks.set_batch(experts)
        after = tiny_frozen.final_states(toks, hooks).data
        fresh = make_hooks()
        fresh.set_batch(experts)
        assert after.tobytes() == tiny_frozen.final_states(toks, fresh).data.tobytes()
        assert not np.array_equal(dropped, after)  # the dropout batch did drop


class TestCheckpoint:
    def test_round_trip(self, tiny_cfg, tmp_path):
        bank = AdapterBank(tiny_cfg, AdapterConfig(variant="lora"), QKVOG, seed=3)
        rng = np.random.default_rng(4)
        for t in bank.trainable_tensors():
            t.data = rng.normal(size=t.data.shape)
        bank.save(tmp_path / "adapters")
        clone = AdapterBank(tiny_cfg, AdapterConfig(variant="lora"), QKVOG, seed=99)
        clone.load_weights(tmp_path / "adapters")
        for name, t in bank.named_tensors().items():
            assert np.array_equal(t.data, clone.named_tensors()[name].data)

    def test_truncated_or_wrong_shape_rejected(self, tiny_cfg, tmp_path):
        bank = AdapterBank(tiny_cfg, AdapterConfig(variant="lora"), QKVOG, seed=3)
        bank.save(tmp_path / "adapters")
        target = tmp_path / "adapters" / "layer0.q.b.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(ValueError, match="layer0.q.b.bin"):
            bank.load_weights(tmp_path / "adapters")
        tz.save_tensor(target, np.zeros((2, tiny_cfg.d_model)))  # b is (d_model, r)
        with pytest.raises(ValueError, match="layer0.q.b.bin"):
            bank.load_weights(tmp_path / "adapters")


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            AdapterConfig(variant="adalora")

    def test_bad_rank_alpha_dropout(self):
        with pytest.raises(ValueError):
            AdapterConfig(r=0)
        with pytest.raises(ValueError):
            AdapterConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AdapterConfig(dropout=1.0)
