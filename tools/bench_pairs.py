"""Paired parent/change runs of the perfbench workloads, written as one BENCH file.

    python3 tools/bench_pairs.py --parent /path/to/parent-checkout --label route_node --claim wall_s:ablate_beta

Run it from the root of the change's checkout; `--parent` is a checkout of the
parent commit (for example `git archive <rev> | tar -x -C <dir>`). It runs, one
after another and nothing else alongside:

- `perfbench/run.py --workload W --seed N --seconds 10 --trace 0` once in each
  checkout for every (W, N) of `PAIRS`, the parent first on odd N and the
  change first on even N;
- one traced pass (`--trace 1`) per side at seed 1 of each workload in
  `TRACED`, keeping the counts of `TRACE_KEYS`;
- `--seconds 1 --trace 0` of every scheduled workload at seeds 1-10 in the
  change, whose digests must equal `perfbench/baseline.json`;
- `tools/route_overhead.py` (mj, peft and moe `run_pipeline` on one world,
  the first and the largest step tape bytes of each method and of
  pretraining, and the backward peak of that largest step) at seeds 1-3,
  on the parent's sources and on the change's, in the same alternating
  order.

Its ledger summary (the printed line per seed and the medians) keeps the
deterministic node counts and tape bytes and `mj_speedup_over_moe`, a ratio
of two times taken in one process. It leaves out the absolute times
(`overhead_s`, `mj_s`, `peft_s`, `moe_s`): each side and seed runs in its
own process, and a time compared across processes reads the drift between
them as a code effect: for code that built the same terms, `peft_s` once
read slower at all three seeds (median 2.38 -> 3.08 s) and faster on a
rerun. The per-seed rows keep every value the tool printed.

It also records `src_lines`, the total of `wc -l src/mjlab/*.py`, of each
checkout.

Then it writes `BENCH_<label>.json`: every run, each side's median and
quartiles (`statistics.quantiles(values, n=4)`, as `perfbench/baseline.py`),
the wins per metric, the routing overhead and MoE ledger per seed, and
whether the change lowered the `--claim` metric on its workload
(`peak_rss_mb:ablate_beta` by default) by the pairing rule: at least 9 wins
in 10 and a median difference larger than the parent's interquartile range.
A claim is never met while any pair of any workload reported `correct:
false` or differed in its artifact digest. `--claim none` claims no gain and
writes `"claim": null`.

Either way it writes the `no_regression` table: per workload and per
end-to-end metric of `BENCHMARK.json`, both sides' medians, the relative
change, the metric's bound and a verdict. `worse` when the change's median
is worse than the parent's by more than the bound; else `unresolved` when
the parent's spread, (Q3 - Q1) / median, exceeds the bound and not every
change run is better than every parent run; else `ok`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = {workload: range(11, 21) for workload in ("ablate_beta", "train_moe", "analyze")}
TRACED = ("ablate_beta", "train_moe")
TRACE_KEYS = (
    "tensor.tape_nodes_per_backward", "tensor.backward.calls", "tensor.backward.s",
    "tensor.op.reshape.calls", "tensor.op.mul.calls", "tensor.op.add.calls",
    "tensor.op.softmax.calls", "model.forward.calls", "router.route.s", "tensor.op.select_index.calls",
    "tensor.op.l2_normalize_rows.calls", "train.evaluate.s", "train.init_router_states.s",
    "data.sample_init_tokens.s", "moe_baseline.gates.s", "optim.step.s",
)
LEDGER_KEYS = ("mj_speedup_over_moe", "mj_nodes_per_backward", "peft_nodes_per_backward", "moe_nodes_per_backward",
               "mj_step_tape_bytes", "peft_step_tape_bytes", "moe_step_tape_bytes", "pretrain_nodes_per_backward",
               "pretrain_step_tape_bytes", "mj_peak_step_tape_bytes", "peft_peak_step_tape_bytes",
               "moe_peak_step_tape_bytes", "pretrain_peak_step_tape_bytes", "mj_peak_backward_bytes",
               "peft_peak_backward_bytes", "moe_peak_backward_bytes", "pretrain_peak_backward_bytes")
OVERHEAD_SEEDS = (1, 2, 3)
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "val_accuracy")
LOWER_IS_BETTER = ("wall_s", "setup_s", "peak_rss_mb")


def src_lines(root: Path) -> int:
    """The total of `wc -l src/mjlab/*.py` in the checkout at `root`: the
    newlines of its sources."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "mjlab").glob("*.py"))


def run(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split(": ")[1] for line in lines if line.startswith("digest "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "digest": digest, "metrics": values}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def paired(parent: Path, workload: str, seeds) -> dict:
    pairs = []
    for seed in seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        got = {side: run(parent if side == "parent" else ROOT, workload, seed, 10) for side in sides}
        row = {"seed": seed, "first": sides[0], "digest_equal": got["parent"]["digest"] == got["change"]["digest"],
               "both_correct": got["parent"]["correct"] and got["change"]["correct"]}
        for side in sides:
            row.update({f"{side}_{name}": got[side]["metrics"][name] for name in METRICS})
        pairs.append(row)
        print(f"{workload} seed={seed} " + " ".join(
            f"{name}={row[f'parent_{name}']:.4f}->{row[f'change_{name}']:.4f}" for name in METRICS), flush=True)
    summary = {side: {name: quartiles([p[f"{side}_{name}"] for p in pairs]) for name in METRICS}
               for side in ("parent", "change")}
    summary["change_wins"] = {name: sum(p[f"change_{name}"] < p[f"parent_{name}"] for p in pairs)
                              for name in LOWER_IS_BETTER}
    summary["val_accuracy_bitwise_equal"] = all(p["parent_val_accuracy"] == p["change_val_accuracy"] for p in pairs)
    return {"pairs": pairs, "summary": summary}


def route_overhead(parent: Path, seed: int) -> dict:
    """`tools/route_overhead.py` at `seed` on each side's sources, the parent
    first on odd seeds."""
    sides = ("parent", "change") if seed % 2 else ("change", "parent")
    row = {"seed": seed, "first": sides[0]}
    for side in sides:
        src = (parent if side == "parent" else ROOT) / "src"
        cmd = [sys.executable, "tools/route_overhead.py", "--seed", str(seed), "--src", str(src)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        row[side] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"route overhead seed={seed} " + " ".join(
        f"{key}={row['parent'][key]:.4g}->{row['change'][key]:.4g}" for key in LEDGER_KEYS), flush=True)
    return row


def claim_of(paired_runs: dict, metric: str, workload: str) -> dict:
    """Whether the change lowered `metric` on `workload`: at least 9 wins in
    10 and a median difference larger than the parent's interquartile range,
    with every pair of every workload correct on both sides and digest-equal."""
    s = paired_runs[workload]["summary"]
    parent, change = s["parent"][metric], s["change"][metric]
    iqr = parent["q3"] - parent["q1"]
    diff = parent["median"] - change["median"]
    n = len(paired_runs[workload]["pairs"])
    wins = s["change_wins"][metric]
    faulty = sum(not (p["both_correct"] and p["digest_equal"]) for runs in paired_runs.values()
                 for p in runs["pairs"])
    return {"workload": workload, "metric": metric, "pairs": n, "change_wins": wins, "median_diff": diff,
            "parent_iqr": iqr, "relative_change": -diff / parent["median"],
            "pairs_incorrect_or_digest_differs": faulty,
            "met": faulty == 0 and wins * 10 >= 9 * n and diff > iqr}


def no_regression(paired_runs: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric (`BENCHMARK.json`'s
    `end_to_end` entries): the medians, the relative change, the bound and
    the verdict of the module docstring."""
    rows = []
    for workload, runs in paired_runs.items():
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1  # sign * value: lower is better
            parent, change = runs["summary"]["parent"][name], runs["summary"]["change"][name]
            relative = (change["median"] - parent["median"]) / parent["median"]
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            change_beats_all = (max(sign * p[f"change_{name}"] for p in runs["pairs"])
                                < min(sign * p[f"parent_{name}"] for p in runs["pairs"]))
            if sign * relative > bound:
                verdict = "worse"
            elif spread > bound and not change_beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "parent_median": parent["median"],
                         "change_median": change["median"], "relative_change": relative, "bound": bound,
                         "parent_spread": spread, "verdict": verdict})
    return rows


def parse_claim(text: str) -> tuple[str, str] | None:
    if text == "none":
        return None
    metric, _, workload = text.partition(":")
    if metric not in LOWER_IS_BETTER or workload not in PAIRS:
        raise argparse.ArgumentTypeError(f"expected METRIC:WORKLOAD with METRIC in {LOWER_IS_BETTER} "
                                         f"and WORKLOAD in {tuple(PAIRS)}, got {text!r}")
    return metric, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repository root")
    parser.add_argument("--claim", type=parse_claim, default=("peak_rss_mb", "ablate_beta"),
                        metavar="METRIC:WORKLOAD",
                        help="the metric the change claims to lower, or none to claim no gain")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    claim = "none" if args.claim is None else ":".join(args.claim)
    out = {"label": args.label, "command": "python3 tools/bench_pairs.py --parent <parent checkout> "
                                           f"--label {args.label} --claim {claim}",
           "env": {"OPENBLAS_NUM_THREADS": "1 (set by perfbench/run.py)", "cpus": len(os.sched_getaffinity(0))},
           "src_lines": {"parent": src_lines(parent), "change": src_lines(ROOT)}}
    out["paired"] = {name: paired(parent, name, seeds) for name, seeds in PAIRS.items()}
    out["claim"] = None if args.claim is None else claim_of(out["paired"], *args.claim)
    out["no_regression"] = no_regression(out["paired"], benchmark["end_to_end"])

    out["trace_counts_seed1"] = {}
    for name in TRACED:
        traced = {side: run(root, name, 1, 10, trace=1)["metrics"] for side, root in
                  (("parent", parent), ("change", ROOT))}
        out["trace_counts_seed1"][name] = {key: [traced["parent"][key], traced["change"][key]] for key in TRACE_KEYS}
        print(f"{name} traced: {out['trace_counts_seed1'][name]}", flush=True)
    out["trace_counts_seed1"]["note"] = "[parent, change] from one --trace 1 run each at seed 1"

    out["digests"] = {}
    for name, recorded in baseline["workloads"].items():
        per_seed = {}
        for seed in range(1, 11):
            got = run(ROOT, name, seed, 1)
            per_seed[str(seed)] = got["digest"]
            print(f"{name} seed={seed} digest match={got['digest'] == recorded['digests'][str(seed)]}", flush=True)
        out["digests"][name] = {"per_seed": per_seed,
                                    "all_match_baseline": all(per_seed[k] == recorded["digests"][k] for k in per_seed)}

    rows = [route_overhead(parent, seed) for seed in OVERHEAD_SEEDS]
    out["route_overhead"] = {"rows": rows, "median": {
        side: {key: statistics.median(row[side][key] for row in rows) for key in LEDGER_KEYS}
        for side in ("parent", "change")}}

    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"claim": out["claim"], "verdicts": [
        f"{row['workload']} {row['metric']} {row['verdict']}" for row in out["no_regression"]]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
