"""Single executable exposing the whole lab.

Subcommands: gen-data, pretrain, init-centers, train, eval, ablate, oracle,
probe, report, compare. Everything reads one JSON config (--config), honors
--seed and --out, and is idempotent with respect to the output directory.
Exit codes: 0 success, 1 validation or usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import oracle, probe, tensor as tz
from .config import ConfigError, ExperimentConfig, config_hash
from .data import generate, pretraining_corpus
from .model import Backbone
from .router import load_router, save_router
from .train import (
    ClassifierHead,
    _staged,
    ablate,
    build_method,
    evaluate,
    init_router_states,
    make_datasets,
    optimizer_steps,
    prepare_backbone,
    prepare_world,
    run_pipeline,
    shared_vs_specific,
    write_ablation_csv,
)


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = ExperimentConfig.from_json(path.read_text())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=[args.seed])
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=str(args.out))
    return cfg


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not args.quiet:
        print(text)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)  # --out is already folded into cfg.out
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    train_ds, val_ds = make_datasets(cfg)
    train_ds.save_jsonl(out / "train.jsonl")
    val_ds.save_jsonl(out / "val.jsonl")
    _emit(args, {"train": len(train_ds), "val": len(val_ds),
                 "train_path": str(out / "train.jsonl"), "val_path": str(out / "val.jsonl")})
    return 0


def cmd_pretrain(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    seed = cfg.seeds[0]
    model = prepare_world(cfg, seed)[0]
    model.save(out / "backbone")
    _emit(args, {"backbone": str(out / "backbone"), "frozen": model.frozen, "seed": seed})
    return 0


def cmd_init_centers(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    seed = cfg.seeds[0]
    backbone_dir = out / "backbone"
    if backbone_dir.exists():
        model = Backbone.load(backbone_dir)
        if model.cfg != cfg.model:  # the manifest records only the model section
            raise ConfigError(f"{backbone_dir} holds a backbone for {model.cfg}, not for the config's {cfg.model}")
        train_ds, _ = make_datasets(cfg)
    else:
        model, train_ds, _ = prepare_world(cfg, seed)
        model.save(backbone_dir)
    states = init_router_states(cfg, model, train_ds, seed, optimizer_steps(cfg, train_ds))
    save_router(out / "router", states)
    _emit(args, {"router": str(out / "router"), "layers": sorted(states)})
    return 0


def cmd_train(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg)
    results = {}
    for seed in cfg.seeds:
        run_dir = out / f"run-{config_hash(cfg)}-s{seed}"
        backbone, train_ds, val_ds = prepare_world(cfg, seed)
        report = run_pipeline(cfg, seed, out_dir=run_dir, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
        results[str(seed)] = {
            "run_dir": str(run_dir),
            "overall_accuracy": report["overall_accuracy"],
            "per_task_accuracy": report["per_task_accuracy"],
        }
    _emit(args, results)
    return 0


def cmd_eval(cfg: ExperimentConfig, args) -> int:
    if args.run_dir is None:
        raise ConfigError("eval requires --run-dir")
    run_dir = Path(args.run_dir)
    if not run_dir.exists():
        raise ConfigError(f"run directory not found: {run_dir}")
    cfg = ExperimentConfig.from_json((run_dir / "config.json").read_text())
    report = json.loads((run_dir / "report.json").read_text())
    seed = report["seed"]
    model = Backbone.load(run_dir / "backbone")  # a missing backbone/ exits 1 naming it
    _, val_ds = make_datasets(cfg)
    states = load_router(run_dir / "router", cfg.model.d_model) if cfg.method == "mj" else {}
    bank, hooks = build_method(cfg, seed, states)
    bank.load_weights(run_dir / "adapters")
    head = ClassifierHead(cfg.model.d_model, val_ds.n_global_classes)
    head.w.data = tz.load_tensor(run_dir / "head_w.bin", shape=head.w.shape)
    head.b.data = tz.load_tensor(run_dir / "head_b.bin", shape=head.b.shape)
    result = evaluate(cfg, model, hooks, head, val_ds)
    _emit(args, {"per_task_accuracy": {str(k): v for k, v in result["per_task_accuracy"].items()},
                 "overall_accuracy": result["overall_accuracy"]})
    return 0


def cmd_ablate(cfg: ExperimentConfig, args) -> int:
    values = _parse_values(args.values)
    if not values:
        raise ConfigError("ablate requires --values")
    rows = ablate(cfg, args.axis, values, cfg.seeds)
    path = _out_dir(cfg) / f"ablation_{args.axis}.csv"
    write_ablation_csv(rows, path)
    _emit(args, {"axis": args.axis, "values": values, "rows": len(rows), "csv": str(path)})
    return 0


def _parse_values(raw: str | None) -> list:
    """Scalars separated by ',', or, if `raw` holds a ';', lists separated
    by ';' whose items are separated by ','."""
    if raw is None:
        return []
    if ";" in raw:
        return [_parse_items(chunk) for chunk in raw.split(";") if chunk.strip()]
    return _parse_items(raw)


def _parse_items(raw: str) -> list:
    return [_parse_scalar(item.strip()) for item in raw.split(",") if item.strip()]


def _parse_scalar(item: str):
    for kind in (int, float):
        try:
            return kind(item)
        except ValueError:
            pass
    return item


def cmd_oracle(cfg: ExperimentConfig, args) -> int:
    if args.check == "rank":
        report = oracle.rank_report(seed=cfg.seeds[0])
        ex = report["example"]
        print(f"rank_mj={ex['rank_mj']} rank_peft={ex['rank_peft']} dim_c_all={ex['dim_c_all']}")
    elif args.check == "soft":
        report = oracle.soft_report(seed=cfg.seeds[0])
    elif args.check == "params":
        report = oracle.params_report()
    else:
        raise ConfigError(f"unknown oracle check {args.check!r}")
    if args.out is not None:
        (_out_dir(cfg) / f"oracle_{args.check}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    _emit(args, report)
    return 0 if report["ok"] else 2


def cmd_probe(cfg: ExperimentConfig, args) -> int:
    layer = cfg.model.n_layers if args.layer is None else args.layer
    if not 0 <= layer <= cfg.model.n_layers:
        raise ConfigError(f"--layer {layer} outside [0, {cfg.model.n_layers}]")
    out = _out_dir(cfg)
    specs = cfg.data.task_specs()[:1]  # single-task probe dataset
    dataset = generate(specs, cfg.data.n_per_task, cfg.data.seed, vocab=cfg.model.vocab_size)
    model = prepare_backbone(cfg, cfg.seeds[0], corpus=pretraining_corpus(dataset))
    min_len = min(len(ex.tokens) for ex in dataset.examples)
    offsets = sorted({int(round(f * (min_len - 1))) for f in (0.75, 0.5, 0.25, 0.1, 0.0)}, reverse=True)
    probe_specs = [probe.ProbeSpec(layer=layer, mode="offset", value=o) for o in offsets]
    probe_specs += [probe.ProbeSpec(layer=layer, mode=m) for m in ("mean", "max", "last")]
    rows = probe.position_sweep(model, dataset, layer, probe_specs, seeds=cfg.seeds)
    path = out / "probe.csv"
    probe.write_probe_csv(rows, path)
    _emit(args, {"rows": len(rows), "csv": str(path), "layer": layer})
    return 0


def cmd_report(cfg: ExperimentConfig, args) -> int:
    if args.run_dir is None:
        raise ConfigError("report requires --run-dir")
    run_dir = Path(args.run_dir)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no report.json under {run_dir}")
    report = json.loads(report_path.read_text())
    metrics = []
    metrics_path = run_dir / "metrics.jsonl"
    if metrics_path.exists():
        metrics = [json.loads(line) for line in metrics_path.read_text().splitlines()]
    summary = {
        "config_hash": report["config_hash"],
        "method": report["method"],
        "seed": report["seed"],
        "per_task_accuracy": report["per_task_accuracy"],
        "overall_accuracy": report["overall_accuracy"],
        "final_loss": report["final_loss"],
        "n_steps": len(metrics),
        "loss_first": metrics[0]["loss"] if metrics else None,
        "loss_last": metrics[-1]["loss"] if metrics else None,
    }
    if args.out is not None:
        (_out_dir(cfg) / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    _emit(args, summary)
    return 0


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    table = shared_vs_specific(cfg, ((seed, prepare_world(cfg, seed)) for seed in cfg.seeds))
    with _staged(_out_dir(cfg) / "shared_vs_specific.json") as staged:
        staged.write_text(json.dumps(table, indent=2, sort_keys=True))
    _emit(args, table)
    return 0


class _Parser(argparse.ArgumentParser):  # subparsers share the class
    def error(self, message):  # a usage error exits 1, as a validation error, not argparse's 2
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mjlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config path")
    common.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--dump-config", action="store_true", help="print the effective config and exit")
    common.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[common]) for name in COMMANDS}
    for name in ("eval", "report"):
        commands[name].add_argument("--run-dir", type=str, default=None)
    commands["ablate"].add_argument("axis", type=str)
    commands["ablate"].add_argument("--values", type=str, default=None,
                                    help="comma-separated values; ';' separates list values")
    commands["oracle"].add_argument("check", type=str, choices=["rank", "soft", "params"])
    commands["probe"].add_argument("--layer", type=int, default=None)
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "init-centers": cmd_init_centers,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "oracle": cmd_oracle,
    "probe": cmd_probe,
    "report": cmd_report,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        if args.dump_config:
            print(cfg.to_json())
            return 0
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
