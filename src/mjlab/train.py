"""Fine-tuning pipeline wiring backbone + adapters + routing.

Three stages: (i) k-means initialization of routing centers from sampled
frozen representations, (ii) adapter/head training with per-step routing and
scheduled EMA center updates, (iii) evaluation with frozen centers. Also
hosts the shared-vs-task-specific comparison and the ablation sweep driver.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as tz
from .tensor import Tensor, shown
from .model import Backbone, diverged, pretrain_backbone
from .adapters import AdapterBank, count_trainable
from .moe_baseline import MoEAdapterBank, MoEHooks
from .router import (
    MonkeyJumpHooks,
    RouterState,
    RoutingDecision,
    UsageRecorder,
    ema_update,
    export_embeddings,
    kmeans_init,
    route,
    save_router,
    usage_report,
    write_usage_csv,
)
from .optim import AdamW, lr_at_step
from .config import ConfigError, ExperimentConfig, RouterSection, _check_fields, config_hash
from .data import Dataset, generate, length_buckets, batch_arrays, pretraining_corpus, sample_init_tokens

# ablation axes that set one scalar: axis -> (config section, key)
SCALAR_AXES = {
    "similarity": ("router", "similarity"),
    "tau": ("router", "tau"),
    "beta": ("router", "beta"),
    "topk": ("router", "top_k"),
    "update_every": ("router", "update_every"),
    "stop_frac": ("router", "stop_frac"),
    "kmeans_samples": ("router", "kmeans_samples"),
    "rank": ("adapter", "r"),
}
ABLATION_AXES = (*SCALAR_AXES, "shared", "routed", "permutation", "routed_layers")


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("MJLAB_THREADS", "1")))
    except ValueError:
        return 1


def make_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    specs = cfg.data.task_specs()
    train_ds = generate(specs, cfg.data.n_per_task, cfg.data.seed, vocab=cfg.model.vocab_size)
    val_ds = generate(specs, cfg.data.n_val_per_task, cfg.data.seed + 1, vocab=cfg.model.vocab_size)
    return train_ds, val_ds


def prepare_backbone(cfg: ExperimentConfig, seed: int, corpus: list[np.ndarray]) -> Backbone:
    """Init + brief next-token pretraining on `corpus` + freeze, fully seeded."""
    model = Backbone(cfg.model, seed=_derive(seed, 1))
    pretrain_backbone(
        model,
        corpus,
        steps=cfg.pretrain.steps,
        lr=cfg.pretrain.lr,
        batch_size=cfg.pretrain.batch_size,
        holdout_fraction=cfg.pretrain.holdout_fraction,
        seed=_derive(seed, 2),
    )
    return model


def prepare_world(cfg: ExperimentConfig, seed: int) -> tuple[Backbone, Dataset, Dataset]:
    """(frozen backbone, train set, val set) of a run: the configured datasets
    and a backbone pretrained on the train set's sequences."""
    train_ds, val_ds = make_datasets(cfg)
    return prepare_backbone(cfg, seed, corpus=pretraining_corpus(train_ds)), train_ds, val_ds


def optimizer_steps(cfg: ExperimentConfig, train_ds: Dataset) -> int:
    """Optimizer steps of a run on `train_ds`: every `grad_accum` length
    buckets make one step, and an epoch's last step may take fewer."""
    n_batches = len(length_buckets(train_ds, cfg.train.batch_size))
    return cfg.train.epochs * math.ceil(n_batches / cfg.train.grad_accum)


def _derive(seed: int, stream: int, extra: int = 0) -> int:
    return int(np.random.SeedSequence([seed, stream, extra]).generate_state(1)[0])


class ClassifierHead:
    """Trainable linear head on the last-token representation."""

    def __init__(self, d_model: int, n_classes: int):
        self.w = Tensor(np.zeros((n_classes, d_model)), requires_grad=True)
        self.b = Tensor(np.zeros(n_classes), requires_grad=True)

    def logits(self, final_states: Tensor) -> Tensor:
        b, t, d = final_states.shape
        last = tz.reshape(tz.select_index(final_states, 1, t - 1), (b, d))
        return tz.add(tz.adapted_projections(last, [self.w], [None], ["head"]), self.b)

    def trainable_tensors(self) -> list[Tensor]:
        return [self.w, self.b]


def build_method(
    cfg: ExperimentConfig,
    seed: int,
    states: dict[int, RouterState] | None = None,
):
    """(bank, hooks) for the configured method.

    `states` are the router states of an mj run; without them the adapters
    apply uniformly (m = 1), which is standard PEFT. `frozen` gets a bank
    that targets no projection: no tensors, no terms, the hook-free pass.
    """
    targeted = () if cfg.method == "frozen" else cfg.router.targeted_projections()
    if cfg.method == "moe":
        bank = MoEAdapterBank(cfg.model, cfg.moe, targeted, seed=_derive(seed, 3))
        return bank, MoEHooks(bank)
    bank = AdapterBank(cfg.model, cfg.adapter, targeted, seed=_derive(seed, 3))
    return bank, MonkeyJumpHooks(bank, states or {})


def init_router_states(
    cfg: ExperimentConfig,
    model: Backbone,
    train_ds: Dataset,
    seed: int,
    total_steps: int,
) -> dict[int, RouterState]:
    routed = cfg.router.routed_projections()
    routed_layers = cfg.router.routed_layers
    layer_pool = range(cfg.model.n_layers) if routed_layers is None else sorted(set(routed_layers))
    budget = min(cfg.router.kmeans_samples, train_ds.total_tokens())
    sample = sample_init_tokens(train_ds, budget, _derive(seed, 4), model)
    stop_step = int(round(cfg.router.stop_frac * total_steps))
    states = {}
    for layer in layer_pool:
        result = kmeans_init(
            sample["features"][layer], len(routed), iters=cfg.router.kmeans_iters, seed=_derive(seed, 5, layer)
        )
        states[layer] = cfg.router.router_state(result.centers, stop_step)
    return states


def _task_expert_row(cfg: ExperimentConfig, tasks: np.ndarray) -> np.ndarray:
    n_slots = len(cfg.router.routed)
    if cfg.router.task_experts is not None:
        table = np.asarray(cfg.router.task_experts, dtype=np.int64)
        return table[tasks]
    return tasks % n_slots


def evaluate(
    cfg: ExperimentConfig,
    model: Backbone,
    hooks,
    head: ClassifierHead,
    dataset: Dataset,
    usage: UsageRecorder | None = None,
) -> dict:
    """Per-task accuracy on length-bucketed batches. With `usage`, also
    records routing usage and each routed layer's first batch of hidden
    states with its decision (under "embeddings")."""
    correct: dict[int, int] = {}
    totals: dict[int, int] = {}
    captured: dict[int, tuple[np.ndarray, RoutingDecision]] = {}
    for idx in length_buckets(dataset, cfg.train.batch_size):
        tokens, labels, tasks = batch_arrays(dataset, idx)
        hooks.set_batch(_task_expert_row(cfg, tasks))
        final = model.final_states(tokens, hooks)
        pred = np.argmax(head.logits(final).data, axis=1)
        for task, y, yhat in zip(tasks, labels, pred):
            totals[int(task)] = totals.get(int(task), 0) + 1
            correct[int(task)] = correct.get(int(task), 0) + int(yhat == y)
        if usage is not None:
            for layer, decision, flat in hooks.collected:
                usage.add(layer, decision)
                captured.setdefault(layer, (flat, decision))
    per_task = {task: correct[task] / totals[task] for task in sorted(totals)}
    overall = sum(correct.values()) / sum(totals.values())
    out = {"per_task_accuracy": per_task, "overall_accuracy": overall}
    if usage is not None:
        out["embeddings"] = captured
    return out


def init_usage(cfg: ExperimentConfig, model: Backbone, states: dict[int, RouterState], dataset: Dataset,
               usage: UsageRecorder) -> None:
    """Records the routing usage of fresh adapters on `dataset`, from the
    frozen backbone alone.

    Every LoRA `B` and Propulsion `s` is zero at init, so each adapter delta
    is exactly 0 and the adapted pass's hidden states are the frozen ones:
    `route` runs on them per routed block and no adapter op runs.
    """
    last = max(states)
    for idx in length_buckets(dataset, cfg.train.batch_size):
        tokens, _, tasks = batch_arrays(dataset, idx)
        hidden = model.hidden_states(tokens, n_blocks=last)
        experts = _task_expert_row(cfg, tasks)
        for layer, state in states.items():
            usage.add(layer, route(state, hidden[layer], experts))


def run_pipeline(cfg: ExperimentConfig, seed: int, out_dir=None, *,
                 backbone: Backbone, train_ds: Dataset, val_ds: Dataset) -> dict:
    """Full fine-tuning run on a world from `prepare_world`; deterministic
    given (cfg, seed) and the world. With `out_dir` the artifacts go to a
    hidden sibling directory, renamed to `out_dir` once complete."""
    if not backbone.frozen:
        raise ValueError("run_pipeline requires a frozen backbone")
    if backbone.cfg != cfg.model:
        raise ValueError(f"run_pipeline got a backbone for {backbone.cfg}, not for the config's {cfg.model}")

    batches = length_buckets(train_ds, cfg.train.batch_size)
    total_steps = optimizer_steps(cfg, train_ds)

    states = {}
    if cfg.method == "mj":
        with diverged("training", "router initialization (k-means token sample)"):
            states = init_router_states(cfg, backbone, train_ds, seed, total_steps)
    bank, hooks = build_method(cfg, seed, states)

    head = ClassifierHead(cfg.model.d_model, train_ds.n_global_classes)
    params = head.trainable_tensors() + bank.trainable_tensors()
    opt = AdamW(params, lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)

    usage_init, usage_final = UsageRecorder(), UsageRecorder()
    if states:
        with diverged("training", "the initial usage pass"):
            init_usage(cfg, backbone, states, val_ds, usage_init)

    metrics: list[dict] = []
    order_rng = np.random.default_rng(_derive(seed, 6))
    accum = cfg.train.grad_accum
    step = 0
    for _epoch in range(cfg.train.epochs):
        epoch_order = order_rng.permutation(len(batches))
        for start in range(0, len(epoch_order), accum):  # one optimizer step per chunk
            step_loss = 0.0
            step_decisions: list[tuple[int, RoutingDecision, np.ndarray]] = []
            for micro, bi in enumerate(epoch_order[start:start + accum]):
                tokens, labels, tasks = batch_arrays(train_ds, batches[bi])
                drop_rng = np.random.default_rng(_derive(seed, 7, step * 10000 + micro))
                hooks.set_batch(_task_expert_row(cfg, tasks), drop_rng)
                with tz.Tape(), diverged("training", f"step {step}"):
                    final = backbone.final_states(tokens, hooks)
                    loss = tz.cross_entropy(head.logits(final), labels)
                    scaled = tz.mul(loss, 1.0 / accum)
                    tz.backward(scaled)
                step_loss += float(scaled.data)
                if states:
                    step_decisions.extend(hooks.collected)
            opt.lr = lr_at_step(step, total_steps, cfg.train.lr, cfg.train.warmup_ratio)
            opt.step()
            opt.zero_grad()
            fired = _apply_ema(states, step_decisions, step)
            row = {"step": step, "loss": step_loss, "lr": opt.lr, "ema_fired": fired}
            if step_decisions:
                row["usage"] = _step_usage(step_decisions)
            metrics.append(row)
            step += 1

    with diverged("training", "the final evaluation"):
        result = evaluate(cfg, backbone, hooks, head, val_ds, usage=usage_final if states else None)

    report = {
        "config_hash": config_hash(cfg),
        "method": cfg.method,
        "seed": seed,
        "steps": step,
        "final_loss": metrics[-1]["loss"] if metrics else None,
        "per_task_accuracy": {str(k): v for k, v in result["per_task_accuracy"].items()},
        "overall_accuracy": result["overall_accuracy"],
        "trainable_params": int(sum(p.data.size for p in params)),
    }
    if states:
        stats = usage_report(usage_init, usage_final)
        report["usage_rho"] = [float(r) for r in stats.rho]

    if out_dir is not None:
        with _staged(Path(out_dir)) as staged:
            staged.mkdir()
            (staged / "config.json").write_text(cfg.to_json())
            with open(staged / "metrics.jsonl", "w") as fh:
                for row in metrics:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            (staged / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
            backbone.save(staged / "backbone")
            bank.save(staged / "adapters")
            tz.save_tensor(staged / "head_w.bin", head.w.data)
            tz.save_tensor(staged / "head_b.bin", head.b.data)
            if states:
                save_router(staged / "router", states)
                write_usage_csv(stats, staged / "usage.csv")
                export_embeddings(staged / "embeddings.csv", result["embeddings"])

    report["metrics"] = metrics
    report["router_states"] = states
    report["bank"] = bank
    report["head"] = head
    return report


@contextmanager
def _staged(target: Path):
    """A hidden sibling path of `target` to write a file or a directory to,
    moved onto `target` (replacing it) on success and removed on failure; its
    leading '.' keeps `run-*` globs and the target's own name from matching it."""
    target.parent.mkdir(parents=True, exist_ok=True)
    staged = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    _remove(staged)
    try:
        yield staged
    except BaseException:
        _remove(staged)
        raise
    if staged.is_dir():
        shutil.rmtree(target, ignore_errors=True)
    os.replace(staged, target)


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def _step_usage(decisions) -> dict:
    """Per-layer routed-token fractions over one optimizer step's batches."""
    rec = UsageRecorder()
    for layer, decision, _flat in decisions:
        rec.add(layer, decision)
    return {str(layer): [float(f) for f in fracs] for layer, fracs in rec.fractions().items()}


def _apply_ema(states: dict[int, RouterState], decisions, step: int) -> bool:
    """One EMA update per routed layer from all of the step's decisions
    (every pass routes every layer with a state), stacked to one row per token."""
    fired = False
    for layer, state in states.items():
        selected, flats = zip(*[(decision.selected, flat) for seen, decision, flat in decisions if seen == layer])
        fired = ema_update(state, np.vstack(selected), np.vstack(flats), step) or fired
    return fired


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def shared_vs_specific(cfg: ExperimentConfig, worlds) -> dict:
    """One bank on the task mixture vs per-task banks at the same total budget.

    One row per `(seed, (backbone, train_ds, val_ds))` of `worlds`, taken only
    after the config checks, so a lazy `worlds` builds none for a bad config.

    The adapter rank is partitioned: the shared arm trains one bank at the
    configured rank on the mixture; the specific arm gives each task its own
    bank at rank r / n_tasks, trained only on that task, so the total
    trainable count is exactly equal. Each specific run gets n_tasks times
    the epochs so every bank sees the same optimizer budget as the shared
    one (comparisons are at parameter parity, not compute parity).
    """
    specs = cfg.data.task_specs()
    n_tasks = len(specs)
    if cfg.adapter.variant not in ("lora", "lorafa"):
        raise ConfigError("shared_vs_specific partitions rank; use a LoRA-family adapter")
    if cfg.adapter.r % n_tasks != 0:
        raise ConfigError(
            f"adapter budget not divisible across tasks: rank {cfg.adapter.r}, {n_tasks} tasks"
        )
    shared_cfg = replace(cfg, method="peft")
    specific_cfg = replace(shared_cfg, adapter=replace(cfg.adapter, r=cfg.adapter.r // n_tasks),
                           train=replace(cfg.train, epochs=cfg.train.epochs * n_tasks))
    rows = []
    for seed, (backbone, train_ds, val_ds) in worlds:
        shared_run = run_pipeline(shared_cfg, seed, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        shared_count = count_trainable(shared_run["bank"])
        specific_accs = {}
        specific_count = 0
        for spec in specs:
            sub_train = train_ds.subset(spec.task_id)
            sub_val = val_ds.subset(spec.task_id)
            run = run_pipeline(specific_cfg, seed, backbone=backbone, train_ds=sub_train, val_ds=sub_val)
            specific_count += count_trainable(run["bank"])
            specific_accs[spec.task_id] = run["per_task_accuracy"][str(spec.task_id)]
        rows.append(
            {
                "seed": seed,
                "shared": {int(k): v for k, v in shared_run["per_task_accuracy"].items()},
                "specific": specific_accs,
                "parity": shared_count == specific_count,
                "shared_params": shared_count,
                "specific_params": specific_count,
            }
        )
    table = {"rows": rows, "median_shared": {}, "median_specific": {}}
    for spec in specs:
        tid = spec.task_id
        table["median_shared"][tid] = float(np.median([r["shared"][tid] for r in rows]))
        table["median_specific"][tid] = float(np.median([r["specific"][tid] for r in rows]))
    table["parity"] = all(r["parity"] for r in rows)
    return table


def apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """New config with one ablation knob set to `value` as given, judged by
    the config's own checks."""
    if axis not in ABLATION_AXES:
        raise ConfigError(f"unknown ablation axis {shown(axis)}; known: {ABLATION_AXES}")
    raw = cfg.to_dict()
    router = raw["router"]
    try:
        if axis in SCALAR_AXES:
            section, key = SCALAR_AXES[axis]
            raw[section][key] = value
        elif axis == "routed_layers" and isinstance(value, int) and not isinstance(value, bool):
            if value > cfg.model.n_layers:  # before range() builds a list of that size
                raise ConfigError(f"count {value} exceeds model.n_layers {cfg.model.n_layers}")
            router["routed_layers"] = list(range(value))  # a count: the first `value` layers
        elif axis in ("permutation", "routed_layers"):
            router[axis] = value
        else:  # "shared" or "routed": move the named projections to that group
            names = [v for v in value.split(",") if v] if isinstance(value, str) else value
            _check_fields(RouterSection, {axis: names}, "config.router")  # before the names are used
            if axis == "shared":
                router["routed"] = sorted((set(router["routed"]) | set(router["shared"])) - set(names))
            else:
                router["shared"] = sorted(set(router["shared"]) - set(names))
            router[axis] = names
            router["top_k"] = min(router["top_k"], len(router["routed"]))
            router["permutation"] = None
        return ExperimentConfig.from_dict(raw)
    except ConfigError as err:
        raise ConfigError(f"ablation axis {axis!r}: {err}") from err


def _ablate_one(payload: tuple) -> dict:
    cfg, axis, value, seed, (backbone, train_ds, val_ds) = payload
    run = run_pipeline(cfg, seed, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
    rho = run.get("usage_rho")
    return {
        "axis": axis,
        "value": json.dumps(value) if not isinstance(value, (int, float, str)) else value,
        "seed": seed,
        "per_task_accuracy": run["per_task_accuracy"],
        "overall_accuracy": run["overall_accuracy"],
        "usage_rho_mean": float(np.mean(rho)) if rho else float("nan"),
    }


def ablate(cfg: ExperimentConfig, axis: str, values: list) -> list[dict]:
    """Sweep one knob over `values` x `cfg.seeds`; MJLAB_THREADS>1 parallelizes
    over at most one worker process per run.

    No axis touches the model, pretrain or data sections, so every run of a
    seed shares that seed's world: one pretrained backbone and one pair of
    datasets, built once per seed, not once per value.
    """
    seeds = cfg.seeds
    runs = [(apply_axis(cfg, axis, value), value) for value in values]
    unique_seeds = list(dict.fromkeys(seeds))
    workers = min(worker_count(), len(runs) * len(seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so only for a pool
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run_all = map if pool is None else pool.map
        worlds = dict(zip(unique_seeds, run_all(prepare_world, [cfg] * len(unique_seeds), unique_seeds)))
        return list(run_all(_ablate_one, [(c, axis, v, s, worlds[s]) for c, v in runs for s in seeds]))


def write_ablation_csv(rows: list[dict], path) -> None:
    tasks = sorted({t for row in rows for t in row["per_task_accuracy"]})
    with _staged(Path(path)) as staged, open(staged, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "seed", "task", "accuracy", "usage_rho_mean"])
        for row in rows:
            for task in tasks:
                writer.writerow([row["axis"], row["value"], row["seed"], task, repr(row["per_task_accuracy"][task]),
                                 repr(row["usage_rho_mean"])])
