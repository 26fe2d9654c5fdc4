"""Minimal learned-router MoE-LoRA baseline.

Per targeted projection each block holds N expert LoRA adapters; one trainable
router matrix per block gates them from the block input. Unlike the
clustering router, the gate lives on the gradient tape, so router weights
receive gradients. Trainable count per block: 2*E*N*d*r adapters + N*d router.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor, topk_mask
from .model import ModelConfig, ProjectionId
from .adapters import Adapter, AdapterConfig, BankCore


@dataclass
class MoEConfig:
    n_experts: int = 4
    top_k: int = 2
    r: int = 2
    alpha: float = 5.0
    dropout: float = 0.05

    def __post_init__(self):
        if self.n_experts < 1:
            raise ValueError("n_experts must be >= 1")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError("top_k must satisfy 1 <= top_k <= n_experts")
        self.expert_config()  # checks r, alpha and dropout

    def expert_config(self) -> AdapterConfig:
        """The LoRA adapter every expert is."""
        return AdapterConfig("lora", r=self.r, alpha=self.alpha, dropout=self.dropout)


class MoEAdapterBank(BankCore):
    """N expert LoRA pairs per targeted projection plus one router per block."""

    manifest_key = "moe"

    def __init__(
        self,
        model_cfg: ModelConfig,
        cfg: MoEConfig,
        projections: tuple[ProjectionId, ...],
        seed: int = 0,
    ):
        super().__init__(model_cfg, cfg, projections)
        rng = np.random.default_rng(seed)
        expert_cfg = cfg.expert_config()
        self.experts: dict[tuple[int, ProjectionId], list[Adapter]] = {}
        self.routers: dict[int, Tensor] = {}
        for layer in self.layers:
            self.routers[layer] = Tensor(
                rng.normal(0.0, 1.0 / np.sqrt(model_cfg.d_model), size=(cfg.n_experts, model_cfg.d_model)),
                requires_grad=True,
            )
            for proj in self.projections:
                d_out, d_in = model_cfg.proj_dims(proj)
                self.experts[(layer, proj)] = [Adapter(expert_cfg, d_out, d_in, rng) for _ in range(cfg.n_experts)]

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for layer in self.layers:
            out[f"layer{layer}.router"] = self.routers[layer]
            for proj in self.projections:
                for n, expert in enumerate(self.experts[(layer, proj)]):
                    for name, t in expert.named_tensors().items():
                        out[f"layer{layer}.{proj.name}.e{n}.{name}"] = t
        return out

    def router_param_count(self) -> int:
        return sum(self.routers[layer].data.size for layer in self.layers)


def moe_gates(bank: MoEAdapterBank, layer: int, h: Tensor) -> Tensor:
    """softmax(R h) with top-k masking, kept weights renormalized to sum 1.

    `h` may be (T, d) or (B, T, d); gates stay on the tape so the router
    trains by gradient descent.
    """
    r = bank.routers[layer]
    g = tz.softmax(tz.adapted_projections(h, [r], [None], [f"layer {layer}, router"]), axis=-1)
    mask, _ = topk_mask(g.data.reshape(-1, bank.cfg.n_experts), bank.cfg.top_k)
    kept = tz.mul(g, Tensor(mask.reshape(g.shape)))
    denom = tz.tsum(kept, axis=-1, keepdims=True)
    return tz.div(kept, denom)


def moe_term(bank: MoEAdapterBank, layer: int, proj: ProjectionId, gates: Tensor, drop_rng=None) -> tz.LoRA:
    """A projection's experts as one LoRA term, expert n gated by column n
    of `gates`, drawing dropout masks from `drop_rng` (None: no dropout)."""
    experts = bank.experts[(layer, proj)]
    cfg = experts[0].cfg
    return tz.LoRA([e.a for e in experts], [e.b for e in experts], cfg.alpha / cfg.r, cfg.dropout,
                   drop_rng, gates, range(len(experts)))


def moe_mix(bank: MoEAdapterBank, layer: int, proj: ProjectionId, x: Tensor, gates: Tensor, drop_rng=None) -> Tensor:
    """Gate-weighted sum of expert LoRA outputs on input x, as one tape node (`moe_term`)."""
    return tz.adapter_delta(x, moe_term(bank, layer, proj, gates, drop_rng))


class MoEHooks:
    """Forward hooks: per-block gates from the block input, each projection's
    experts as one gated term."""

    def __init__(self, bank: MoEAdapterBank):
        self.bank = bank
        self._drop_rng: np.random.Generator | None = None

    def set_batch(self, task_experts=None, drop_rng: np.random.Generator | None = None) -> None:
        """The next pass's dropout stream (None: no dropout); the learned router needs no experts."""
        self._drop_rng = drop_rng

    def begin_block(self, layer: int, h: Tensor) -> dict[ProjectionId, tz.LoRA]:
        gates = moe_gates(self.bank, layer, h)
        return {proj: moe_term(self.bank, layer, proj, gates, self._drop_rng) for proj in self.bank.projections}
