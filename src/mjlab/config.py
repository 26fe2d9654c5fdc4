"""Declarative experiment configuration: strict parsing, canonical dumps.

Unknown keys are rejected everywhere so a config file cannot silently
misspell a knob, and `to_dict` emits the fully-defaulted effective config so
a dumped file reproduces the run exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ProjectionId
from .adapters import AdapterConfig
from .moe_baseline import MoEConfig
from .data import TaskSpec, default_task_specs
from .router import RouterState

METHODS = ("mj", "peft", "moe", "frozen")


class ConfigError(ValueError):
    pass


@dataclass
class RouterSection:
    tau: float = 1.0
    top_k: int = 2
    beta: float = 0.5
    update_every: int = 2
    stop_frac: float = 0.6
    similarity: str = "cosine"
    granularity: str = "token"
    routed: list[str] = field(default_factory=lambda: ["q", "k", "v"])
    shared: list[str] = field(default_factory=lambda: ["o", "gate"])
    permutation: list[int] | None = None
    routed_layers: list[int] | None = None
    kmeans_samples: int = 5000
    kmeans_iters: int = 50
    task_experts: list[int] | None = None

    def __post_init__(self):
        if not 0.0 <= self.stop_frac <= 1.0:
            raise ConfigError("router.stop_frac must be in [0, 1]")
        names = {p.name for p in ProjectionId}
        for group in (self.routed, self.shared):
            for p in group:
                if p not in names:
                    raise ConfigError(f"unknown projection {p!r}")
        if not self.routed:
            raise ConfigError("router.routed must not be empty")
        if self.kmeans_samples < 1 or self.kmeans_iters < 1:
            raise ConfigError("router.kmeans_* must be >= 1")
        try:  # RouterState holds the routing rules (tau, top_k, beta, ...)
            self.router_state(np.ones((len(self.routed_projections()), 1)), stop_step=0)
        except ValueError as err:
            raise ConfigError(f"router: {err}") from err

    def router_state(self, centers: np.ndarray, stop_step: int) -> RouterState:
        """The RouterState these settings describe, on the given centers."""
        return RouterState(
            centers=centers,
            tau=self.tau,
            top_k=self.top_k,
            beta=self.beta,
            update_every=self.update_every,
            stop_step=stop_step,
            similarity=self.similarity,
            granularity=self.granularity,
            routed=self.routed_projections(),
            shared=self.shared_projections(),
            permutation=self.permutation,
        )

    def routed_projections(self) -> tuple[ProjectionId, ...]:
        return tuple(sorted((ProjectionId[n] for n in self.routed)))

    def shared_projections(self) -> tuple[ProjectionId, ...]:
        return tuple(sorted((ProjectionId[n] for n in self.shared)))

    def targeted_projections(self) -> tuple[ProjectionId, ...]:
        return tuple(sorted(set(self.routed_projections()) | set(self.shared_projections())))


@dataclass
class TrainSection:
    lr: float = 1e-2
    weight_decay: float = 0.1
    warmup_ratio: float = 0.1
    epochs: int = 2
    batch_size: int = 16
    grad_accum: int = 1

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("train.lr must be >= 0")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError("train.warmup_ratio must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1 or self.grad_accum < 1:
            raise ConfigError("train.{epochs,batch_size,grad_accum} must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError("train.weight_decay must be >= 0")


@dataclass
class PretrainSection:
    steps: int = 500
    lr: float = 3e-3
    batch_size: int = 16
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("pretrain.steps must be >= 0")
        if self.lr <= 0:
            raise ConfigError("pretrain.lr must be positive")


@dataclass
class DataSection:
    tasks: list[dict] | None = None  # None = the default three tasks
    n_per_task: int = 800
    n_val_per_task: int = 200
    seed: int = 1234

    def __post_init__(self):
        if self.n_per_task < 1 or self.n_val_per_task < 1:
            raise ConfigError("data.n_*_per_task must be >= 1")

    def task_specs(self) -> list[TaskSpec]:
        if self.tasks is None:
            return default_task_specs()
        specs = []
        for raw in self.tasks:
            _reject_unknown(TaskSpec, raw, "data.tasks[]")
            spec = dict(raw)
            spec["markers"] = tuple(spec["markers"])
            specs.append(TaskSpec(**spec))
        ids = [spec.task_id for spec in specs]
        duplicates = sorted({t for t in ids if ids.count(t) > 1})
        if duplicates:
            raise ConfigError(f"data.tasks has duplicate task_id {duplicates}")
        return specs


@dataclass
class ExperimentConfig:
    method: str = "mj"
    model: ModelConfig = field(default_factory=ModelConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    moe: MoEConfig = field(default_factory=MoEConfig)
    router: RouterSection = field(default_factory=RouterSection)
    train: TrainSection = field(default_factory=TrainSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    data: DataSection = field(default_factory=DataSection)
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str = "runs"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        task_ids = [spec.task_id for spec in self.data.task_specs()]  # validates task definitions
        n_layers = self.model.n_layers
        routed_layers = self.router.routed_layers
        if routed_layers is not None:
            outside = [layer for layer in routed_layers if not 0 <= layer < n_layers]
            if outside:
                raise ConfigError(f"router.routed_layers {outside} outside [0, {n_layers})")
            if self.method == "mj" and not routed_layers:
                raise ConfigError("router.routed_layers is empty: method mj must route at least one layer")
        experts = self.router.task_experts
        if experts is not None:
            missing = [t for t in task_ids if not 0 <= t < len(experts)]
            if missing:
                raise ConfigError(f"router.task_experts has no entry for task ids {missing}")
            n_routed = len(self.router.routed)
            outside = [e for e in experts if not 0 <= e < n_routed]
            if outside:
                raise ConfigError(f"router.task_experts entries {outside} outside [0, {n_routed})")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _reject_unknown(cls, raw, "config")
        sections = {
            "model": ModelConfig,
            "adapter": AdapterConfig,
            "moe": MoEConfig,
            "router": RouterSection,
            "train": TrainSection,
            "pretrain": PretrainSection,
            "data": DataSection,
        }
        kwargs = {}
        for key, value in raw.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"config.{key} must be an object")
                _reject_unknown(sections[key], value, f"config.{key}")
                try:
                    kwargs[key] = sections[key](**value)
                except ValueError as err:
                    raise ConfigError(str(err)) from err
            else:
                kwargs[key] = value
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from err

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)


def _reject_unknown(cls, raw: dict, path: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {unknown}")


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
