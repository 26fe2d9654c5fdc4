import tracemalloc
import weakref

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.model import (
    Backbone,
    ModelConfig,
    ProjectionId,
    PROJECTIONS,
    next_token_loss,
    pretrain_backbone,
)

from mjlab.train import ClassifierHead, build_method

from .conftest import finite_difference_check, small_config, snapshot
from .unfused_model import DeltaHooks, unfused_final_states


class TestProjectionId:
    def test_exactly_seven_ordered(self):
        assert [p.name for p in PROJECTIONS] == ["q", "k", "v", "o", "up", "gate", "down"]
        assert sorted(PROJECTIONS) == list(PROJECTIONS)

    def test_dims(self):
        cfg = ModelConfig(d_model=8, d_ff=16, n_layers=1, n_heads=2, vocab_size=16, max_seq_len=8)
        assert cfg.proj_dims(ProjectionId.q) == (8, 8)
        assert cfg.proj_dims(ProjectionId.up) == (16, 8)
        assert cfg.proj_dims(ProjectionId.gate) == (16, 8)
        assert cfg.proj_dims(ProjectionId.down) == (8, 16)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=10, d_ff=16, n_layers=1, n_heads=4, vocab_size=8, max_seq_len=8)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=0, d_ff=16, n_layers=1, n_heads=1, vocab_size=8, max_seq_len=8)


class TestForward:
    def test_no_hooks_matches_backbone(self, tiny_frozen):
        toks = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])

        class NullHooks:
            def begin_block(self, layer, h):
                return {}

        plain = tiny_frozen.final_states(toks)
        hooked = tiny_frozen.final_states(toks, NullHooks())
        assert plain.data.tobytes() == hooked.data.tobytes()

    def test_hooks_are_asked_once_per_block(self, tiny_cfg):
        """A hooks object is `begin_block` alone, asked once per block and
        pass; the one term it returns is the chain's term, byte for byte."""

        class HalfQ:
            def __init__(self):
                self.calls = []

            def begin_block(self, layer, h):  # base + base * -0.5: half of q
                self.calls.append(layer)
                return {ProjectionId.q: tz.Propulsion(tz.Tensor(np.full(tiny_cfg.d_model, -0.5)), 0.0, None)}

        model = Backbone(tiny_cfg, seed=6)
        toks = np.random.default_rng(1).integers(0, 16, size=(3, 7))
        hooks = HalfQ()
        got = model.final_states(toks, hooks)
        assert hooks.calls == list(range(tiny_cfg.n_layers))
        assert not np.array_equal(got.data, model.final_states(toks).data)
        ref = unfused_final_states(model, toks, DeltaHooks(HalfQ()))
        assert got.data.tobytes() == ref.data.tobytes()

    def test_causality_bitwise(self, tiny_frozen):
        rng = np.random.default_rng(0)
        toks = rng.integers(0, 16, size=(3, 8))
        base = tiny_frozen.hidden_states(toks)
        for t in range(1, 8):
            mutated = toks.copy()
            mutated[:, t] = (mutated[:, t] + 3) % 16
            out = tiny_frozen.hidden_states(mutated)
            for layer_states_a, layer_states_b in zip(base, out):
                assert np.array_equal(layer_states_a.data[:, :t], layer_states_b.data[:, :t])

    def test_hidden_count_and_shapes(self, tiny_frozen, tiny_cfg):
        toks = np.array([[0, 1, 2]])
        hidden = tiny_frozen.hidden_states(toks)
        assert len(hidden) == tiny_cfg.n_layers + 1
        for h in hidden:
            assert h.shape == (1, 3, tiny_cfg.d_model)
        assert tiny_frozen.forward(toks).shape == (1, 3, tiny_cfg.vocab_size)

    def test_input_validation(self, tiny_frozen):
        with pytest.raises(ValueError, match="vocab"):
            tiny_frozen.forward(np.array([[99]]))
        with pytest.raises(ValueError, match="max_seq_len"):
            tiny_frozen.forward(np.zeros((1, 50), dtype=np.int64))

    def test_micro_model_oracle(self):
        """1-layer d=4 forward against an independent plain-numpy reference."""
        cfg = ModelConfig(d_model=4, d_ff=8, n_layers=1, n_heads=1, vocab_size=6, max_seq_len=4)
        model = Backbone(cfg, seed=3)
        toks = np.array([[2]])  # single token: attention is the v-o path
        got = model.forward(toks).data[0, 0]

        def ln(x, g, b, eps=1e-5):
            mu = x.mean()
            var = ((x - mu) ** 2).mean()
            return (x - mu) / np.sqrt(var + eps) * g + b

        blk = model.blocks[0]
        x = model.tok_emb.data[2] + model.pos_emb.data[0]
        a = ln(x, blk.ln1_g.data, blk.ln1_b.data)
        v = blk.w[ProjectionId.v].data @ a
        # softmax over a single causal position is exactly 1
        x = x + blk.w[ProjectionId.o].data @ v
        f = ln(x, blk.ln2_g.data, blk.ln2_b.data)
        gate = blk.w[ProjectionId.gate].data @ f
        up = blk.w[ProjectionId.up].data @ f
        silu = gate / (1.0 + np.exp(-gate))
        x = x + blk.w[ProjectionId.down].data @ (silu * up)
        ref = model.lm_head.data @ ln(x, model.ln_f_g.data, model.ln_f_b.data)
        assert np.abs(got - ref).max() < 1e-12

    def test_backbone_gradients_match_finite_difference(self):
        cfg = ModelConfig(d_model=4, d_ff=8, n_layers=1, n_heads=2, vocab_size=6, max_seq_len=4)
        model = Backbone(cfg, seed=4)
        toks = np.array([[0, 3, 1]])
        probe = [model.blocks[0].w[ProjectionId.q], model.blocks[0].ln1_g, model.tok_emb]

        def build():
            return next_token_loss(model, toks)

        finite_difference_check(build, probe, rel_tol=1e-6)

    def test_final_states_is_forward_final(self, tiny_cfg):
        model = Backbone(tiny_cfg, seed=6)  # trainable, so every op is on the tape
        toks = np.random.default_rng(1).integers(0, 16, size=(3, 7))
        with tz.Tape() as tape:
            logits = model.forward(toks)
            forward_nodes = len(tape.nodes)
            tape.nodes.clear()
            final = model.final_states(toks)
            assert len(tape.nodes) == forward_nodes - 1  # no lm_head logits
        assert np.array_equal(lm_head_logits(model, final).data, logits.data)


    @pytest.mark.parametrize("n_blocks", [None, 0, 1])
    def test_hidden_states_is_forward_hidden(self, tiny_cfg, tiny_frozen, n_blocks):
        toks = np.random.default_rng(2).integers(0, 16, size=(3, 7))
        full = tiny_frozen.hidden_states(toks)
        hidden = tiny_frozen.hidden_states(toks, n_blocks)
        assert len(hidden) == (tiny_cfg.n_layers if n_blocks is None else n_blocks) + 1
        for got, ref in zip(hidden, full):
            assert got.data.tobytes() == ref.data.tobytes()


def lm_head_logits(model, final):
    return tz.adapted_projections(final, [model.lm_head], [None], ["lm_head"])


def forward_parts(model, toks):
    """`Backbone.forward` as its parts: (hidden states, final, logits)."""
    hidden = model._run_blocks(toks, None)
    final = tz.layer_norm(hidden[-1], model.ln_f_g, model.ln_f_b)
    return hidden, final, lm_head_logits(model, final)


def retained_backward(loss, tape):
    """Backward that keeps every intermediate `.grad` and node until the tape
    is cleared: the reference for the leaf gradients of `tz.backward`."""
    loss.slot.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        for inp, g in zip(node.inputs, node.backward_fn(node.output.grad)):
            if g is None or inp is None:
                continue
            inp.grad = np.ascontiguousarray(g, dtype=np.float64) if inp.grad is None else inp.grad + g
    tape.nodes.clear()


class TestBackwardMemory:
    def _step(self, model, toks, backward):
        for t in model.parameters():
            t.grad = None
        weights = np.random.default_rng(2).normal(size=(*toks.shape, model.cfg.vocab_size))
        with tz.Tape() as tape:
            hidden, final, logits = forward_parts(model, toks)
            loss = tz.tsum(tz.mul(logits, weights))
            backward(loss, tape)
            assert tape.nodes == []
        return [*hidden, final, logits], loss, {name: t.grad for name, t in model.named_parameters().items()}

    def test_backward_frees_intermediates_and_keeps_leaf_gradients(self, tiny_cfg):
        model = Backbone(tiny_cfg, seed=8)
        toks = np.random.default_rng(3).integers(0, 16, size=(2, 6))
        _, _, ref = self._step(model, toks, retained_backward)
        states, loss, grads = self._step(model, toks, lambda loss, tape: tz.backward(loss))
        for t in [*states, loss]:
            assert t.grad is None
        assert set(grads) == set(ref)
        for name in ref:
            assert np.array_equal(grads[name], ref[name]), name

    def test_backward_peak_is_bounded_by_the_tape(self):
        cfg = ModelConfig()
        model = Backbone(cfg, seed=0)
        toks = np.random.default_rng(4).integers(0, cfg.vocab_size, size=(16, 24))
        tracemalloc.start()
        try:
            with tz.Tape():
                loss = next_token_loss(model, toks)
                at_entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tz.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.12 * at_entry, (peak, at_entry)

    @staticmethod
    def residual_refs(monkeypatch) -> list:
        """Weak references to the `.data` of every residual state of the
        latest `Backbone._run_blocks` call."""
        refs = []
        run_blocks = Backbone._run_blocks

        def recording(self, *args, **kwargs):
            hidden = run_blocks(self, *args, **kwargs)
            refs[:] = [weakref.ref(h.data) for h in hidden]
            return hidden

        monkeypatch.setattr(Backbone, "_run_blocks", recording)
        return refs

    def test_pretraining_step_frees_the_residual_states(self, tiny_cfg, monkeypatch):
        refs, alive = self.residual_refs(monkeypatch), []
        backward = tz.backward

        def checking(loss):
            alive.append(sum(ref() is not None for ref in refs))
            backward(loss)

        monkeypatch.setattr(tz, "backward", checking)
        corpus = [np.random.default_rng(i).integers(0, 16, size=9) for i in range(8)]
        pretrain_backbone(Backbone(tiny_cfg, seed=9), corpus, steps=2, lr=1e-3, batch_size=4, seed=0)
        assert alive == [0, 0]

    @staticmethod
    def mj_step(refs, backward):
        """(residual states alive at backward entry, final states, loss and
        every trainable gradient) of one mj fine-tune step with dropout."""
        cfg = small_config()
        backbone = Backbone(cfg.model, seed=0)
        backbone.freeze()
        rng = np.random.default_rng(5)
        states = {layer: cfg.router.router_state(rng.normal(size=(len(cfg.router.routed), cfg.model.d_model)), 10)
                  for layer in range(cfg.model.n_layers)}
        bank, hooks = build_method(cfg, 0, states)
        head = ClassifierHead(cfg.model.d_model, 3)
        tokens = rng.integers(0, cfg.model.vocab_size, size=(4, 10))
        hooks.set_batch(None, np.random.default_rng(1))
        with tz.Tape() as tape:
            final = backbone.final_states(tokens, hooks)
            loss = tz.cross_entropy(head.logits(final), rng.integers(0, 3, size=4))
            alive = sum(ref() is not None for ref in refs)
            backward(loss, tape)
        params = {**{k: t for k, t in bank.named_tensors().items() if t.requires_grad},
                  "head.w": head.w, "head.b": head.b}
        return alive, final, loss, {name: t.grad for name, t in params.items()}

    def test_mj_step_frees_the_residual_states(self, monkeypatch):
        refs = self.residual_refs(monkeypatch)
        alive, final, loss, grads = self.mj_step(refs, lambda loss, tape: tz.backward(loss))
        assert len(refs) == 3 and alive == 0
        assert final.grad is None and loss.grad is None
        _, _, _, ref = self.mj_step(refs, retained_backward)
        assert set(grads) == set(ref)
        for name in ref:
            assert ref[name] is not None and grads[name].tobytes() == ref[name].tobytes(), name
        with tz.Tape(), pytest.raises(ValueError, match="detached"):
            tz.backward(loss)  # the loss of a finished tape


class TestFreezeAndPretrain:
    def test_zero_steps_keeps_random_init(self, tiny_cfg):
        model = Backbone(tiny_cfg, seed=11)
        before = snapshot(model)
        corpus = [np.array([1, 2, 3, 4, 5]), np.array([2, 3, 4, 5, 6])]
        pretrain_backbone(model, corpus, steps=0, lr=1e-2, seed=0)
        after = snapshot(model)
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert model.frozen

    def test_two_symbol_corpus_perplexity_improves(self, tiny_cfg):
        model = Backbone(tiny_cfg, seed=12)
        rng = np.random.default_rng(0)
        corpus = []
        for _ in range(40):
            start = int(rng.integers(0, 2))
            corpus.append(np.array([(start + i) % 2 + 1 for i in range(10)]))
        stats = pretrain_backbone(model, corpus, steps=200, lr=3e-3, seed=0)
        assert stats["holdout_ce_after"] < stats["holdout_ce_before"]

    def test_freeze_blocks_gradients(self, tiny_frozen):
        toks = np.array([[1, 2, 3]])
        with tz.Tape():
            loss = next_token_loss(tiny_frozen, toks)
            # loss has no trainable inputs: it is detached from the tape
            assert not loss.requires_grad
        for t in tiny_frozen.parameters():
            assert t.grad is None
            assert not t.requires_grad

    def test_empty_corpus_rejected(self, tiny_cfg):
        with pytest.raises(ValueError, match="empty"):
            pretrain_backbone(Backbone(tiny_cfg, seed=1), [], steps=1, lr=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, tiny_cfg):
        model = Backbone(tiny_cfg, seed=2)
        model.tok_emb.data[:] = 1e308  # overflows inside the first layer norm
        corpus = [np.array([1, 2, 3, 4, 5])] * 8
        with pytest.raises(RuntimeError, match="diverged"):
            pretrain_backbone(model, corpus, steps=3, lr=1e-3, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_lm_head(self, tiny_cfg):
        model = Backbone(tiny_cfg, seed=2)
        model.lm_head.data[:] = 1e308  # the blocks stay finite; the logits overflow
        corpus = [np.array([1, 2, 3, 4, 5])] * 8
        with pytest.raises(RuntimeError, match=r"diverged at holdout evaluation: "
                                               r"non-finite values produced by 'linear' at lm_head$"):
            pretrain_backbone(model, corpus, steps=3, lr=1e-3, seed=0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_cfg, tmp_path):
        model = Backbone(tiny_cfg, seed=13)
        model.freeze()
        model.save(tmp_path / "ckpt")
        loaded = Backbone.load(tmp_path / "ckpt")
        assert loaded.frozen
        orig, back = snapshot(model), snapshot(loaded)
        assert set(orig) == set(back)
        assert all(np.array_equal(orig[k], back[k]) for k in orig)
        toks = np.array([[3, 1, 4]])
        assert np.array_equal(model.forward(toks).data, loaded.forward(toks).data)

    def test_truncated_or_wrong_shape_rejected(self, tiny_cfg, tmp_path):
        model = Backbone(tiny_cfg, seed=13)
        model.save(tmp_path / "ckpt")
        target = tmp_path / "ckpt" / "block1.up.bin"
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(ValueError, match="block1.up.bin"):
            Backbone.load(tmp_path / "ckpt")
        tz.save_tensor(target, np.zeros((tiny_cfg.d_model, tiny_cfg.d_ff)))  # up is (d_ff, d_model)
        with pytest.raises(ValueError, match="block1.up.bin"):
            Backbone.load(tmp_path / "ckpt")
