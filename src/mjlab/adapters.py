"""Trainable PEFT adapters attached per projection.

Three variants share one contract: contribution(h) = m * delta(h), where
delta is zero at initialization so a fresh adapter never perturbs the frozen
forward pass. Trainable sizes per projection (square d x d case):
LoRA 2dr, LoRA-FA dr, Propulsion d.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tz
from .tensor import Tensor
from .model import ModelConfig, ProjectionId

VARIANTS = ("lora", "lorafa", "propulsion")


@dataclass
class AdapterConfig:
    variant: str = "lora"
    r: int = 2
    alpha: float = 5.0
    dropout: float = 0.05

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown adapter variant {self.variant!r}")
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


class Adapter:
    """One adapter on one projection of one block."""

    def __init__(self, cfg: AdapterConfig, d_out: int, d_in: int, rng: np.random.Generator):
        self.cfg = cfg
        self.d_out = d_out
        if cfg.variant in ("lora", "lorafa"):
            self.a = Tensor(
                rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(cfg.r, d_in)),
                requires_grad=cfg.variant == "lora",
            )
            self.b = Tensor(np.zeros((d_out, cfg.r)), requires_grad=True)
        else:  # propulsion: per-output-dimension scale, zero so fresh delta is 0
            self.s = Tensor(np.zeros(d_out), requires_grad=True)

    def named_tensors(self) -> dict[str, Tensor]:
        if self.cfg.variant in ("lora", "lorafa"):
            return {"a": self.a, "b": self.b}
        return {"s": self.s}

    def term(self, m, drop_rng: np.random.Generator | None = None,
             column: int = 0) -> tz.LoRA | tz.Propulsion | None:
        """This adapter times `m`, as the term a projection node adds.

        `m` is 1, 0 or a (..., E) coefficient tensor whose last-axis `column`
        gates this adapter; m == 0 gives None, no term at all.
        """
        if isinstance(m, (int, float)):
            if m == 0:
                return None
            if m != 1:
                raise ValueError(f"a scalar coefficient must be 0 or 1, got {m}")
            m = None
        if self.cfg.variant in ("lora", "lorafa"):
            return tz.LoRA(self.a, self.b, self.cfg.alpha / self.cfg.r, self.cfg.dropout, drop_rng, m, column)
        return tz.Propulsion(self.s, self.cfg.dropout, drop_rng, m, column)

    def apply(self, h: Tensor, m, base: Tensor | None = None,
              drop_rng: np.random.Generator | None = None, column: int = 0) -> Tensor:
        """m * delta(h) on its own, as one tape node; `base` is the frozen
        projection output Propulsion reads. m == 0 short-circuits off the
        tape entirely."""
        term = self.term(m, drop_rng, column)
        if term is None:
            return tz.zeros(h.shape[:-1] + (self.d_out,))
        if isinstance(term, tz.LoRA):
            return tz.lora_delta(h, *term)
        if base is None:
            raise ValueError("propulsion needs the frozen projection output")
        return tz.propulsion_delta(base, *term)


class BankCore:
    """What every adapter bank shares: its targets, train/eval mode, the
    per-step dropout stream and a checkpoint of `named_tensors()`.

    A subclass builds its tensors, implements `named_tensors` and names the
    manifest entry that holds its config in `manifest_key`.
    """

    manifest_key = ""

    def __init__(self, model_cfg: ModelConfig, cfg, projections: tuple[ProjectionId, ...]):
        self.model_cfg = model_cfg
        self.cfg = cfg
        self.projections = tuple(projections)
        self.layers = list(range(model_cfg.n_layers))
        self.training = True
        self._drop_rng: np.random.Generator | None = None

    def trainable_tensors(self) -> list[Tensor]:
        return [t for t in self.named_tensors().values() if t.requires_grad]

    def begin_step(self, seed: int) -> None:
        """Re-seed the dropout stream; one seed per optimizer step."""
        self._drop_rng = np.random.default_rng(seed)

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False
        self._drop_rng = None

    @property
    def drop_rng(self) -> np.random.Generator | None:
        return self._drop_rng if self.training else None

    def save(self, directory) -> None:
        named = self.named_tensors()
        tz.save_named(directory, {name: t.data for name, t in named.items()}, {
            self.manifest_key: asdict(self.cfg),
            "projections": [p.name for p in self.projections],
            "layers": self.layers,
            "tensors": sorted(named),
        })

    def load_weights(self, directory) -> None:
        named = self.named_tensors()
        _, arrays = tz.load_named(directory, lambda _manifest: {name: t.shape for name, t in named.items()})
        for name, t in named.items():
            t.data = arrays[name]


class AdapterBank(BankCore):
    """One adapter per targeted (layer, projection) site."""

    manifest_key = "adapter"

    def __init__(
        self,
        model_cfg: ModelConfig,
        adapter_cfg: AdapterConfig,
        projections: tuple[ProjectionId, ...],
        seed: int = 0,
    ):
        super().__init__(model_cfg, adapter_cfg, projections)
        if len(set(self.projections)) != len(self.projections):
            raise ValueError("duplicate projection in target set")
        rng = np.random.default_rng(seed)
        self.adapters: dict[tuple[int, ProjectionId], Adapter] = {}
        for layer in self.layers:
            for proj in self.projections:
                d_out, d_in = model_cfg.proj_dims(proj)
                self.adapters[(layer, proj)] = Adapter(adapter_cfg, d_out, d_in, rng)

    def get(self, layer: int, proj: ProjectionId) -> Adapter | None:
        return self.adapters.get((layer, proj))

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for (layer, proj), adapter in sorted(self.adapters.items()):
            for name, t in adapter.named_tensors().items():
                out[f"layer{layer}.{proj.name}.{name}"] = t
        return out


def count_trainable(bank) -> int:
    """Exact number of trainable scalars in a bank (adapter or MoE)."""
    return sum(t.data.size for t in bank.trainable_tensors())
