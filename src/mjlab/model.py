"""Small causal Transformer backbone with named per-block projections.

Blocks are pre-LN with multi-head causal attention and a gated FFN, so each
block exposes exactly the seven projection sites {q, k, v, o, up, gate, down}.
Adapters and routing attach through hooks: once per block, the hooks map the
block's input to the adapter terms its projection nodes add. After `freeze()`
the backbone participates in forward passes only; no gradient buffers remain.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from typing import Mapping, Protocol

import numpy as np

from . import tensor as tz
from .data import bucket_by_length
from .tensor import Tensor


class ProjectionId(enum.IntEnum):
    """The seven adapter sites of a block, in stable ordinal order."""

    q = 0
    k = 1
    v = 2
    o = 3
    up = 4
    gate = 5
    down = 6


PROJECTIONS: tuple[ProjectionId, ...] = tuple(ProjectionId)
# The projections of a block grouped by the input they read, in call order:
# q, k and v read the LN1 output, up and gate the LN2 output.
QKV = (ProjectionId.q, ProjectionId.k, ProjectionId.v)
UP_GATE = (ProjectionId.up, ProjectionId.gate)


@dataclass
class ModelConfig:
    d_model: int = 32
    d_ff: int = 64
    n_layers: int = 4
    n_heads: int = 4
    vocab_size: int = 64
    max_seq_len: int = 64

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"ModelConfig.{name} must be a positive integer")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    def proj_dims(self, proj: ProjectionId) -> tuple[int, int]:
        """(d_out, d_in) of a projection's weight matrix."""
        if proj in (ProjectionId.up, ProjectionId.gate):
            return self.d_ff, self.d_model
        if proj is ProjectionId.down:
            return self.d_model, self.d_ff
        return self.d_model, self.d_model


class ForwardHooks(Protocol):
    """The adapters and routing of a hooked pass, consulted once per block."""

    def begin_block(self, layer: int, h: Tensor) -> Mapping[ProjectionId, tz.LoRA | tz.Propulsion]:
        """The adapter terms of block `layer` from its residual-stream input
        `h` (B, T, d): for each projection with an adapter, the term its
        projection node adds to the frozen product W x. A term is the LoRA
        factors of E >= 1 adapters or the Propulsion scale `s`, with the
        scale, the dropout rate and stream, and the gate with its columns.
        A projection missing from the mapping runs frozen.

        Called once per block and pass, before the block's projections.
        """


class BlockWeights:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.w: dict[ProjectionId, Tensor] = {}
        for proj in PROJECTIONS:
            d_out, d_in = cfg.proj_dims(proj)
            self.w[proj] = Tensor(
                rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in)),
                requires_grad=True,
            )
        d = cfg.d_model
        self.ln1_g = Tensor(np.ones(d), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(d), requires_grad=True)
        self.ln2_g = Tensor(np.ones(d), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(d), requires_grad=True)

    def tensors(self) -> dict[str, Tensor]:
        out = {proj.name: self.w[proj] for proj in PROJECTIONS}
        out.update(ln1_g=self.ln1_g, ln1_b=self.ln1_b, ln2_g=self.ln2_g, ln2_b=self.ln2_b)
        return out


class Backbone:
    """Decoder-only transformer with learned absolute position embeddings."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.frozen = False
        rng = np.random.default_rng(seed)
        self.tok_emb = Tensor(
            rng.normal(0.0, 0.1, size=(cfg.vocab_size, cfg.d_model)), requires_grad=True
        )
        self.pos_emb = Tensor(
            rng.normal(0.0, 0.1, size=(cfg.max_seq_len, cfg.d_model)), requires_grad=True
        )
        self.blocks = [BlockWeights(cfg, rng) for _ in range(cfg.n_layers)]
        self.ln_f_g = Tensor(np.ones(cfg.d_model), requires_grad=True)
        self.ln_f_b = Tensor(np.zeros(cfg.d_model), requires_grad=True)
        self.lm_head = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(cfg.d_model), size=(cfg.vocab_size, cfg.d_model)),
            requires_grad=True,
        )

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {
            "tok_emb": self.tok_emb,
            "pos_emb": self.pos_emb,
            "ln_f_g": self.ln_f_g,
            "ln_f_b": self.ln_f_b,
            "lm_head": self.lm_head,
        }
        for i, blk in enumerate(self.blocks):
            for name, t in blk.tensors().items():
                out[f"block{i}.{name}"] = t
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def freeze(self) -> None:
        for t in self.parameters():
            t.requires_grad = False
            t.grad = None
        self.frozen = True

    def snapshot(self) -> dict[str, np.ndarray]:
        """Bitwise copies of every parameter, for freeze-contract checks."""
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    # -- forward ----------------------------------------------------------------

    def _project(self, layer: int, projs: tuple[ProjectionId, ...], x: Tensor, terms) -> Tensor:
        """The projections `projs` of block `layer` on their shared input
        `x`, each with its term in `terms`, as one node: stacked on a leading
        axis, or the one output of a single projection."""
        w = self.blocks[layer].w
        return tz.adapted_projections(x, [w[proj] for proj in projs], [terms.get(proj) for proj in projs],
                                      [f"layer {layer}, projection {proj.name}" for proj in projs])

    def _run_blocks(self, tokens: np.ndarray, hooks: ForwardHooks | None,
                    n_blocks: int | None = None) -> list[Tensor]:
        """Residual-stream states of a causal pass through the first
        `n_blocks` blocks (all by default): hidden[l] is the input of block l."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError("tokens must be (batch, time)")
        b, t = tokens.shape
        if t > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {t} exceeds max_seq_len {self.cfg.max_seq_len}")
        if tokens.min() < 0 or tokens.max() >= self.cfg.vocab_size:
            raise ValueError("token id out of vocabulary range")

        x = tz.add(tz.embedding(self.tok_emb, tokens), tz.embedding(self.pos_emb, np.arange(t)))
        hidden = [x]
        for layer in range(self.cfg.n_layers if n_blocks is None else n_blocks):
            blk = self.blocks[layer]
            terms = {} if hooks is None else hooks.begin_block(layer, x)
            qkv = self._project(layer, QKV, tz.layer_norm(x, blk.ln1_g, blk.ln1_b), terms)
            attn = tz.causal_attention(qkv, self.cfg.n_heads)
            x = tz.add(x, self._project(layer, (ProjectionId.o,), attn, terms))
            up_gate = self._project(layer, UP_GATE, tz.layer_norm(x, blk.ln2_g, blk.ln2_b), terms)
            x = tz.add(x, self._project(layer, (ProjectionId.down,), tz.swiglu(up_gate), terms))
            hidden.append(x)
        return hidden

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Next-token logits (B, T, vocab) of a causal pass without hooks,
        the pretraining objective's input."""
        final = tz.layer_norm(self._run_blocks(tokens, None)[-1], self.ln_f_g, self.ln_f_b)
        return tz.adapted_projections(final, [self.lm_head], [None], ["lm_head"])

    def final_states(self, tokens: np.ndarray, hooks: ForwardHooks | None = None) -> Tensor:
        """LayerNormed last-block output (B, T, d), the classifier-head input,
        of a pass with the `hooks`' adapter terms (none by default)."""
        return tz.layer_norm(self._run_blocks(tokens, hooks)[-1], self.ln_f_g, self.ln_f_b)

    def hidden_states(self, tokens: np.ndarray, n_blocks: int | None = None) -> list[Tensor]:
        """Residual-stream states of a pass without hooks through the first
        `n_blocks` blocks (all by default): hidden[l] is the input of block l,
        hidden[0] the embedding output. k-means samples and probes read them."""
        return self._run_blocks(tokens, None, n_blocks)

    # -- checkpointing ------------------------------------------------------------

    def save(self, directory) -> None:
        named = self.named_parameters()
        tz.save_named(directory, {name: t.data for name, t in named.items()}, {
            "config": asdict(self.cfg),
            "projections": [p.name for p in PROJECTIONS],
            "frozen": self.frozen,
            "tensors": sorted(named),
        })

    @classmethod
    def load(cls, directory) -> "Backbone":
        model = None

        def shapes(manifest):
            nonlocal model
            model = cls(ModelConfig(**manifest["config"]))
            return {name: t.shape for name, t in model.named_parameters().items()}

        manifest, arrays = tz.load_named(directory, shapes)
        for name, t in model.named_parameters().items():
            t.data = arrays[name]
        if manifest["frozen"]:
            model.freeze()
        return model


def next_token_loss(model: Backbone, tokens: np.ndarray) -> Tensor:
    """Mean cross entropy of predicting token t+1 from the prefix."""
    b, t = tokens.shape
    logits = model.forward(tokens)
    flat = tz.reshape(logits, (b * t, model.cfg.vocab_size))
    targets = np.zeros((b, t), dtype=np.int64)
    targets[:, :-1] = tokens[:, 1:]
    weights = np.ones((b, t), dtype=np.float64)
    weights[:, -1] = 0.0
    return tz.cross_entropy(flat, targets.reshape(-1), weights.reshape(-1))


@contextmanager
def diverged(phase: str, stage: str):
    """Re-raises a non-finite value in `stage` of `phase` as a RuntimeError naming both."""
    try:
        yield
    except FloatingPointError as err:
        raise RuntimeError(f"{phase} diverged at {stage}: {err}") from err


def pretrain_backbone(
    model: Backbone,
    corpus: list[np.ndarray],
    steps: int,
    lr: float,
    batch_size: int = 16,
    holdout_fraction: float = 0.1,
    seed: int = 0,
) -> dict:
    """Brief self-supervised next-token phase, then freeze.

    The corpus is split into train/holdout; returns the holdout cross entropy
    before and after training. Aborts with a diagnostic on a non-finite loss.
    """
    from .optim import AdamW

    if not corpus:
        raise ValueError("pretraining corpus is empty")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    n_hold = max(1, int(round(len(corpus) * holdout_fraction))) if len(corpus) > 1 else 0
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:] if n_hold else order

    lengths = [len(seq) for seq in corpus]

    def batches(idx_pool):
        return [np.stack([corpus[i] for i in chunk]) for chunk in bucket_by_length(idx_pool, lengths, batch_size)]

    def holdout_ce() -> float:
        if not len(hold_idx):
            return float("nan")
        total, count = 0.0, 0
        for batch in batches(hold_idx):
            b, t = batch.shape
            n_pred = b * (t - 1)
            with diverged("pretraining", "holdout evaluation"):
                total += float(next_token_loss(model, batch).data) * n_pred
            count += n_pred
        return total / count

    ce_before = holdout_ce()
    opt = AdamW(model.parameters(), lr=lr, weight_decay=0.0)
    train_batches = batches(train_idx)
    step = 0
    while step < steps:
        epoch_order = rng.permutation(len(train_batches))
        for bi in epoch_order:
            if step >= steps:
                break
            with tz.Tape():
                with diverged("pretraining", f"step {step}"):
                    loss = next_token_loss(model, train_batches[bi])
                tz.backward(loss)
            opt.step()
            opt.zero_grad()
            step += 1
    ce_after = holdout_ce()
    model.freeze()
    return {"holdout_ce_before": ce_before, "holdout_ce_after": ce_after, "steps": step}
