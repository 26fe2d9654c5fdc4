"""The benchmark's four workloads: generated configs, one timed pass each, output checks.

Every workload drives mjlab only through its public entry points
(``mjlab.cli.main``, ``mjlab.train.*``, ``mjlab.probe.*``). The workload seed
sets ``--seed`` and ``data.seed``; mjlab sees only the generated config file.
Each pass writes into a fresh, empty directory.
"""

from __future__ import annotations

import contextlib
import csv
import copy
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mjlab.cli
import mjlab.probe
import mjlab.train

# Default config (4 layers, d=32, 3 tasks, fine-tune lr 0.01) with the data,
# pretraining and k-means sample sizes cut so that one pipeline takes about ten
# seconds on one core. These sizes keep validation accuracy steady from seed to
# seed: at lr 0.03, 100 pretraining steps and 200 examples per task, the MoE
# baseline's accuracy ran from 0.44 to 0.72 across seeds.
BENCH_SCALE = {
    "pretrain": {"steps": 200},
    "data": {"n_per_task": 300, "n_val_per_task": 300},
    "router": {"kmeans_samples": 1000},
}

# Smallest sizes that still run every stage; used by the smoke tests.
TINY_SCALE = {
    "pretrain": {"steps": 2},
    "data": {"n_per_task": 6, "n_val_per_task": 4},
    "router": {"kmeans_samples": 48, "kmeans_iters": 3},
    "train": {"epochs": 1},
}

ABLATE_AXIS = "beta"
ABLATE_VALUES = (0.2, 0.9)

TRAIN_ARTIFACTS = ("metrics.jsonl", "report.json", "head_w.bin", "head_b.bin", "adapters/*.bin", "router/*.bin")


@dataclass
class PassResult:
    """What a pass produced: failed checks, artifact digest and validation accuracy."""

    failures: list[str] = field(default_factory=list)
    digest: str = ""
    val_accuracy: float = float("nan")


def make_config(method: str, seed: int, scale: dict) -> dict:
    cfg = copy.deepcopy(scale)
    cfg["method"] = method
    cfg.setdefault("data", {})["seed"] = seed
    cfg["seeds"] = [seed]
    return cfg


def cli(*argv) -> tuple[int, str]:
    """Run `mjlab <argv>` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mjlab.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def digest_files(root: Path, patterns) -> str:
    h = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def check_train_run(out_dir: Path, seed: int, method: str, code: int) -> tuple[PassResult, Path | None]:
    """Checks on one `mjlab train` output directory; returns the run dir found."""
    result = PassResult()
    if code != 0:
        result.failures.append(f"mjlab train exited {code}")
        return result, None
    run_dirs = sorted(out_dir.glob(f"run-*-s{seed}"))
    if len(run_dirs) != 1:
        result.failures.append(f"expected one run directory, found {len(run_dirs)}")
        return result, None
    run_dir = run_dirs[0]
    try:
        report = json.loads((run_dir / "report.json").read_text())
        losses = [json.loads(line)["loss"] for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    except (OSError, ValueError, KeyError) as err:
        result.failures.append(f"unreadable run output: {err}")
        return result, None
    if not losses or not all(math.isfinite(x) for x in losses + [report["final_loss"]]):
        result.failures.append("losses missing or not finite")
    if report["method"] != method:
        result.failures.append(f"report says method {report['method']!r}, config says {method!r}")
    result.val_accuracy = report["overall_accuracy"]
    if not 0.0 <= result.val_accuracy <= 1.0:
        result.failures.append(f"accuracy {result.val_accuracy} outside [0, 1]")
    result.digest = digest_files(run_dir, TRAIN_ARTIFACTS)
    return result, run_dir


@dataclass
class Context:
    """What setup hands to every pass."""

    seed: int
    config: Path
    n_tasks: int
    run_dir: Path | None = None
    report: dict | None = None
    digest: str = ""


def _prepare(workload: "Workload", seed: int, workdir: Path, scale: dict) -> Context:
    """Write the generated config, have mjlab validate it and generate the data."""
    workdir.mkdir(parents=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(make_config(workload.method, seed, scale), indent=2))
    code, text = cli("train", "--config", config, "--seed", seed, "--dump-config")
    if code != 0 or json.loads(text)["method"] != workload.method:
        raise RuntimeError(f"mjlab rejected the generated config (exit {code})")
    code, text = cli("gen-data", "--config", config, "--seed", seed, "--out", workdir / "data")
    if code != 0:
        raise RuntimeError(f"mjlab gen-data exited {code}")
    with open(workdir / "data" / "val.jsonl") as fh:
        tasks = {json.loads(line)["task"] for line in fh}
    return Context(seed=seed, config=config, n_tasks=len(tasks))


class Workload:
    name = ""
    method = "mj"

    def setup(self, seed: int, workdir: Path, scale: dict) -> Context:
        return _prepare(self, seed, workdir, scale)

    def run_pass(self, ctx: Context, out_dir: Path):
        """The timed part of one pass; returns what `check` needs."""
        raise NotImplementedError

    def check(self, ctx: Context, out_dir: Path, outcome) -> PassResult:
        raise NotImplementedError


class TrainWorkload(Workload):
    def __init__(self, name: str, method: str):
        self.name, self.method = name, method

    def run_pass(self, ctx: Context, out_dir: Path):
        return cli("train", "--config", ctx.config, "--seed", ctx.seed, "--out", out_dir, "--quiet")[0]

    def check(self, ctx: Context, out_dir: Path, outcome) -> PassResult:
        return check_train_run(out_dir, ctx.seed, self.method, outcome)[0]


class AblateWorkload(Workload):
    name = "ablate_beta"

    def run_pass(self, ctx: Context, out_dir: Path):
        values = ",".join(str(v) for v in ABLATE_VALUES)
        return cli("ablate", ABLATE_AXIS, "--values", values, "--config", ctx.config,
                   "--seed", ctx.seed, "--out", out_dir, "--quiet")[0]

    def check(self, ctx: Context, out_dir: Path, outcome) -> PassResult:
        result = PassResult()
        if outcome != 0:
            result.failures.append(f"mjlab ablate exited {outcome}")
            return result
        path = out_dir / f"ablation_{ABLATE_AXIS}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = len(ABLATE_VALUES) * ctx.n_tasks
        if len(rows) != expected:
            result.failures.append(f"ablation CSV has {len(rows)} rows, expected {expected}")
        accs = [float(row["accuracy"]) for row in rows]
        if not accs or not all(0.0 <= a <= 1.0 for a in accs):
            result.failures.append("ablation accuracies missing or outside [0, 1]")
        else:
            # tasks have equal validation sizes, so the row mean is the mean
            # over values of each run's overall accuracy
            result.val_accuracy = sum(accs) / len(accs)
        result.digest = digest_files(out_dir, [path.name])
        return result


class AnalyzeWorkload(Workload):
    name = "analyze"

    def setup(self, seed: int, workdir: Path, scale: dict) -> Context:
        ctx = _prepare(self, seed, workdir, scale)
        code = cli("train", "--config", ctx.config, "--seed", seed, "--out", workdir / "runs", "--quiet")[0]
        result, run_dir = check_train_run(workdir / "runs", seed, self.method, code)
        if result.failures:
            raise RuntimeError("training the analyzed run failed: " + "; ".join(result.failures))
        ctx.run_dir, ctx.digest = run_dir, result.digest
        ctx.report = json.loads((run_dir / "report.json").read_text())
        return ctx

    def run_pass(self, ctx: Context, out_dir: Path):
        out_dir.mkdir(parents=True)
        evaluated = cli("eval", "--run-dir", ctx.run_dir)
        oracles = {check: cli("oracle", check, "--seed", ctx.seed, "--out", out_dir, "--quiet")[0]
                   for check in ("rank", "soft", "params")}
        cfg = mjlab.train.ExperimentConfig.from_json((ctx.run_dir / "config.json").read_text())
        model = mjlab.probe.Backbone.load(ctx.run_dir / "backbone")
        # the single-task probe set and selectors of `mjlab probe`
        dataset = mjlab.train.generate(cfg.data.task_specs()[:1], cfg.data.n_per_task, cfg.data.seed,
                                       vocab=cfg.model.vocab_size)
        layer = cfg.model.n_layers
        min_len = min(len(ex.tokens) for ex in dataset.examples)
        offsets = sorted({int(round(f * (min_len - 1))) for f in (0.75, 0.5, 0.25, 0.1, 0.0)}, reverse=True)
        selectors = [mjlab.probe.ProbeSpec(layer=layer, mode="offset", value=o) for o in offsets]
        selectors += [mjlab.probe.ProbeSpec(layer=layer, mode=m) for m in ("mean", "max", "last")]
        rows = mjlab.probe.position_sweep(model, dataset, layer, selectors, seeds=[ctx.seed])
        mjlab.probe.write_probe_csv(rows, out_dir / "probe.csv")
        return evaluated, oracles, len(selectors)

    def check(self, ctx: Context, out_dir: Path, outcome) -> PassResult:
        (code, text), oracles, n_selectors = outcome
        result = PassResult()
        if code != 0:
            result.failures.append(f"mjlab eval exited {code}")
        else:
            result.val_accuracy = json.loads(text)["overall_accuracy"]
            if result.val_accuracy != ctx.report["overall_accuracy"]:
                result.failures.append(
                    f"eval accuracy {result.val_accuracy!r} != trained {ctx.report['overall_accuracy']!r}")
        for check, code in oracles.items():
            path = out_dir / f"oracle_{check}.json"
            if code != 0 or not path.exists() or json.loads(path.read_text())["ok"] is not True:
                result.failures.append(f"oracle {check} not ok (exit {code})")
        with open(out_dir / "probe.csv", newline="") as fh:
            n_rows = sum(1 for _ in csv.DictReader(fh))
        if n_rows != n_selectors:
            result.failures.append(f"probe CSV has {n_rows} rows, expected {n_selectors}")
        h = hashlib.sha256(text.encode())
        h.update(digest_files(out_dir, ["oracle_*.json", "probe.csv"]).encode())
        result.digest = h.hexdigest()
        return result


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        TrainWorkload("train_mj", "mj"),
        TrainWorkload("train_moe", "moe"),
        AblateWorkload(),
        AnalyzeWorkload(),
    )
}
