"""Declarative experiment configuration: strict parsing, canonical dumps.

Unknown keys are rejected everywhere so a config file cannot silently
misspell a knob, and `to_dict` emits the fully-defaulted effective config so
a dumped file reproduces the run exactly. `ExperimentConfig` runs one check
(`_check_fields`) however it is built: from JSON, by its constructor or by
`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ProjectionId
from .adapters import AdapterConfig
from .moe_baseline import MoEConfig
from .data import TaskSpec, check_disjoint_markers, default_task_specs
from .router import DEFAULT_ROUTED, DEFAULT_SHARED, RouterState, RoutingRules
from .tensor import shown

METHODS = ("mj", "peft", "moe", "frozen")


class ConfigError(ValueError):
    pass


@dataclass
class RouterSection(RoutingRules):
    stop_frac: float = 0.6
    routed: list[str] = field(default_factory=lambda: [p.name for p in DEFAULT_ROUTED])
    shared: list[str] = field(default_factory=lambda: [p.name for p in DEFAULT_SHARED])
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
                    raise ConfigError(f"unknown projection {shown(p)}")
        if not self.routed:
            raise ConfigError("router.routed must not be empty")
        if self.kmeans_samples < 1 or self.kmeans_iters < 1:
            raise ConfigError("router.kmeans_* must be >= 1")
        try:  # RouterState validates the routing rules (tau, top_k, beta, ...)
            self.router_state(np.ones((len(self.routed_projections()), 1)), stop_step=0)
        except ValueError as err:
            raise ConfigError(f"router: {err}") from err

    def router_state(self, centers: np.ndarray, stop_step: int) -> RouterState:
        """The RouterState these settings describe, on the given centers."""
        rules = {f.name: getattr(self, f.name) for f in dataclasses.fields(RoutingRules)}
        return RouterState(centers=centers, stop_step=stop_step, routed=self.routed_projections(),
                           shared=self.shared_projections(), **rules)

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
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("pretrain.holdout_fraction must be in [0, 1)")


@dataclass
class DataSection:
    tasks: list[dict] | None = None  # None = the default three tasks
    n_per_task: int = 800
    n_val_per_task: int = 200
    seed: int = 1234

    def __post_init__(self):
        if self.n_per_task < 1 or self.n_val_per_task < 1:
            raise ConfigError("data.n_*_per_task must be >= 1")
        if self.tasks == []:
            raise ConfigError("data.tasks must not be empty")
        if self.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, not {shown(self.seed)}")

    def task_specs(self) -> list[TaskSpec]:
        if self.tasks is None:
            return default_task_specs()
        specs = []
        for raw in self.tasks:
            _check_fields(TaskSpec, raw, "data.tasks[]")
            specs.append(TaskSpec(**raw))
        ids = [spec.task_id for spec in specs]
        duplicates = sorted({t for t in ids if ids.count(t) > 1})
        if duplicates:
            raise ConfigError(f"data.tasks has duplicate task_id {duplicates}")
        check_disjoint_markers(specs)
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
        for key, section in _sections(type(self)).items():
            value = getattr(self, key)
            if not isinstance(value, section):  # a dict is a section's JSON form: from_dict builds it
                raise ConfigError(f"config.{key} must be a {section.__name__}, not {type(value).__name__}")
        _check_fields(type(self), dataclasses.asdict(self), "config")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, not {shown(self.seeds)}")
        specs = self.data.task_specs()  # validates task definitions
        task_ids = [spec.task_id for spec in specs]
        top_symbol = max(max(spec.markers + (spec.filler_hi,)) for spec in specs)
        if top_symbol >= self.model.vocab_size:
            raise ConfigError(f"data.tasks use symbol {top_symbol}, outside model.vocab_size {self.model.vocab_size}")
        too_long = [spec.task_id for spec in specs if spec.max_len > self.model.max_seq_len]
        if too_long:
            raise ConfigError(f"data.tasks {too_long} have max_len above model.max_seq_len {self.model.max_seq_len}")
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
        _check_fields(cls, raw, "config")  # names a mistyped field before a range check trips on it
        sections = _sections(cls)
        try:
            return cls(**{key: sections[key](**value) if key in sections else value for key, value in raw.items()})
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from err

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)


def _sections(cls) -> dict[str, type]:
    """{field name: section class} of the fields of `cls` that are sections."""
    return {f.name: f.default_factory for f in dataclasses.fields(cls)
            if dataclasses.is_dataclass(f.default_factory)}


def _check_fields(cls, raw: dict, path: str) -> None:
    """Reject keys `cls` does not declare, and values that do not fit their
    field's annotation, in `raw` and in each section dict it holds."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {unknown}")
    for key, value in raw.items():
        hint = hints[key]
        if not _fits(value, hint):
            raise ConfigError(f"{path}.{key} must be {hint.__name__ if isinstance(hint, type) else hint}, "
                              f"not {shown(value)}")
        if dataclasses.is_dataclass(hint):
            _check_fields(hint, value, f"{path}.{key}")


def _fits(value, hint) -> bool:
    """Whether a config value fits an annotation: a list or tuple for either, an
    object for a section, an int or float within float range for a float, never a bool for a number."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in args)
    if typing.get_origin(hint) in (list, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    if hint in (int, float):
        return (isinstance(value, (int, float) if hint is float else int) and not isinstance(value, bool)
                and (hint is int or abs(value) <= sys.float_info.max))  # False for NaN
    return isinstance(value, hint)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
