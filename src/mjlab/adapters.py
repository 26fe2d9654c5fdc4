"""Trainable PEFT adapters attached per projection.

Three variants share one contract: contribution(h) = m * delta(h), where
delta is zero at initialization so a fresh adapter never perturbs the frozen
forward pass. Trainable sizes per projection (square d x d case):
LoRA 2dr, LoRA-FA dr, Propulsion d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

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
        self.d_in = d_in
        if cfg.variant in ("lora", "lorafa"):
            self.a = Tensor(
                rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(cfg.r, d_in)),
                requires_grad=cfg.variant == "lora",
            )
            self.b = Tensor(np.zeros((d_out, cfg.r)), requires_grad=True)
        else:  # propulsion: per-output-dimension scale, zero so fresh delta is 0
            self.s = Tensor(np.zeros(d_out), requires_grad=True)

    def trainable_tensors(self) -> list[Tensor]:
        if self.cfg.variant == "lora":
            return [self.a, self.b]
        if self.cfg.variant == "lorafa":
            return [self.b]
        return [self.s]

    def named_tensors(self) -> dict[str, Tensor]:
        if self.cfg.variant in ("lora", "lorafa"):
            return {"a": self.a, "b": self.b}
        return {"s": self.s}

    def trainable_count(self) -> int:
        return sum(t.data.size for t in self.trainable_tensors())

    def apply(self, h: Tensor, m, base: Tensor | None = None,
              drop_rng: np.random.Generator | None = None) -> Tensor:
        """m * delta(h). A scalar m == 0 short-circuits off the tape entirely."""
        if isinstance(m, (int, float)) and m == 0:
            shape = h.shape[:-1] + (self.d_out,)
            return tz.zeros(shape)
        if self.cfg.variant in ("lora", "lorafa"):
            delta = tz.lora_delta(h, self.a, self.b, self.cfg.alpha / self.cfg.r, self.cfg.dropout, drop_rng)
        else:
            if base is None:
                raise ValueError("propulsion needs the frozen projection output")
            x = base
            if drop_rng is not None and self.cfg.dropout > 0.0:
                x = tz.dropout(x, self.cfg.dropout, drop_rng)
            delta = tz.mul(x, self.s)
        if isinstance(m, (int, float)) and m == 1:
            return delta
        return tz.mul(delta, m)


class AdapterBank:
    """One adapter per targeted (layer, projection) site."""

    def __init__(
        self,
        model_cfg: ModelConfig,
        adapter_cfg: AdapterConfig,
        projections: tuple[ProjectionId, ...],
        layers: list[int] | None = None,
        seed: int = 0,
    ):
        self.model_cfg = model_cfg
        self.cfg = adapter_cfg
        self.projections = tuple(projections)
        self.layers = list(range(model_cfg.n_layers)) if layers is None else sorted(layers)
        if len(set(self.projections)) != len(self.projections):
            raise ValueError("duplicate projection in target set")
        rng = np.random.default_rng(seed)
        self.adapters: dict[tuple[int, ProjectionId], Adapter] = {}
        for layer in self.layers:
            for proj in self.projections:
                d_out, d_in = model_cfg.proj_dims(proj)
                self.adapters[(layer, proj)] = Adapter(adapter_cfg, d_out, d_in, rng)
        self.training = True
        self._drop_rng: np.random.Generator | None = None

    def get(self, layer: int, proj: ProjectionId) -> Adapter | None:
        return self.adapters.get((layer, proj))

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

    def trainable_tensors(self) -> list[Tensor]:
        out = []
        for key in sorted(self.adapters):
            out.extend(self.adapters[key].trainable_tensors())
        return out

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for (layer, proj), adapter in sorted(self.adapters.items()):
            for name, t in adapter.named_tensors().items():
                out[f"layer{layer}.{proj.name}.{name}"] = t
        return out

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        named = self.named_tensors()
        for name, t in named.items():
            tz.save_tensor(directory / f"{name}.bin", t.data)
        manifest = {
            "adapter": asdict(self.cfg),
            "projections": [p.name for p in self.projections],
            "layers": self.layers,
            "tensors": sorted(named),
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    def load_weights(self, directory) -> None:
        directory = Path(directory)
        for name, t in self.named_tensors().items():
            t.data = tz.load_tensor(directory / f"{name}.bin", shape=t.shape)


def count_trainable(bank) -> int:
    """Exact number of trainable scalars in a bank (adapter or MoE)."""
    return sum(t.data.size for t in bank.trainable_tensors())


class UniformAdapterHooks:
    """Standard PEFT: every targeted adapter applies to every token (m = 1)."""

    def __init__(self, bank: AdapterBank):
        self.bank = bank

    def set_batch(self, task_experts=None) -> None:
        pass

    def begin_block(self, layer: int, h: Tensor) -> None:
        pass

    def contribution(self, layer: int, proj: ProjectionId, x: Tensor, base: Tensor):
        adapter = self.bank.get(layer, proj)
        if adapter is None:
            return None
        return adapter.apply(x, 1.0, base=base, drop_rng=self.bank.drop_rng)
