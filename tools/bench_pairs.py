"""Paired parent/change runs of the perfbench workloads, written as one BENCH file.

    python3 tools/bench_pairs.py --parent /path/to/parent-checkout --label leaner_tape

Run it from the root of the change's checkout; `--parent` is a checkout of the
parent commit (for example `git archive <rev> | tar -x -C <dir>`). It runs, one
after another and nothing else alongside:

- `perfbench/run.py --workload W --seed N --seconds 10 --trace 0` once in each
  checkout for every (W, N) of `PAIRS`, the parent first on odd N and the
  change first on even N;
- one traced pass (`--trace 1`) per side at seed 1 of each workload in
  `TRACED`, keeping the counts of `TRACE_KEYS`;
- `--seconds 1 --trace 0` of every scheduled workload at seeds 1-10 in the
  change, whose digests must equal `perfbench/baseline.json`.

Then it writes `BENCH_<label>.json`: every run, each side's median and
quartiles (`statistics.quantiles(values, n=4)`, as `perfbench/baseline.py`),
the wins per metric, and whether the change lowered `peak_rss_mb` on
`ablate_beta` by the pairing rule: at least 9 wins in 10 and a median
difference larger than the parent's interquartile range.
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
    "tensor.op.matmul.calls", "tensor.op.transpose.calls", "tensor.op.swapaxes.calls",
    "tensor.op.reshape.calls", "tensor.op.silu.calls", "tensor.op.mul.calls", "tensor.op.add.calls",
    "tensor.op.softmax.calls", "model.forward.calls",
)
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "val_accuracy")
LOWER_IS_BETTER = ("wall_s", "setup_s", "peak_rss_mb")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repository root")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())

    out = {"label": args.label, "command": "python3 tools/bench_pairs.py --parent <parent checkout> "
                                           f"--label {args.label}",
           "env": {"OPENBLAS_NUM_THREADS": "1 (set by perfbench/run.py)", "cpus": len(os.sched_getaffinity(0))}}
    out["paired"] = {workload: paired(parent, workload, seeds) for workload, seeds in PAIRS.items()}

    s = out["paired"]["ablate_beta"]["summary"]
    parent_rss, change_rss = s["parent"]["peak_rss_mb"], s["change"]["peak_rss_mb"]
    iqr = parent_rss["q3"] - parent_rss["q1"]
    diff = parent_rss["median"] - change_rss["median"]
    n = len(out["paired"]["ablate_beta"]["pairs"])
    out["claim"] = {"workload": "ablate_beta", "metric": "peak_rss_mb", "pairs": n,
                    "change_wins": s["change_wins"]["peak_rss_mb"], "median_diff_mb": diff, "parent_iqr_mb": iqr,
                    "relative_change": -diff / parent_rss["median"],
                    "met": s["change_wins"]["peak_rss_mb"] * 10 >= 9 * n and diff > iqr}

    out["trace_counts_seed1"] = {}
    for workload in TRACED:
        traced = {side: run(root, workload, 1, 10, trace=1)["metrics"] for side, root in
                  (("parent", parent), ("change", ROOT))}
        out["trace_counts_seed1"][workload] = {key: [traced["parent"][key], traced["change"][key]]
                                               for key in TRACE_KEYS}
        print(f"{workload} traced: {out['trace_counts_seed1'][workload]}", flush=True)
    out["trace_counts_seed1"]["note"] = "[parent, change] from one --trace 1 run each at seed 1"

    out["digests"] = {}
    for workload, recorded in baseline["workloads"].items():
        per_seed = {}
        for seed in range(1, 11):
            got = run(ROOT, workload, seed, 1)
            per_seed[str(seed)] = got["digest"]
            print(f"{workload} seed={seed} digest match={got['digest'] == recorded['digests'][str(seed)]}", flush=True)
        out["digests"][workload] = {"per_seed": per_seed,
                                    "all_match_baseline": all(per_seed[k] == recorded["digests"][k] for k in per_seed)}

    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps(out["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
