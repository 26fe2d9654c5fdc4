"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload, runs ``perfbench/run.py`` once per seed (one after another,
each in its own process, tracing off) and reports per metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: (Q3 - Q1) / median, to set against the metric's bound in BENCHMARK.json.
It then makes one traced run at the first seed and keeps its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split(": ")[1] for line in lines if line.startswith("digest "))
    result["env"] = json.loads(next(line[len("env: "):] for line in lines if line.startswith("env: ")))
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            m = runs[-1]["metrics"]
            print(f"{workload} seed={seed} correct={runs[-1]['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items()), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["bound"] = bound
            print(f"  {name}: median={metrics[name]['median']:.4f} spread={metrics[name]['spread']:.4f} "
                  f"(bound {bound}, a third {bound / 3:.4f})", flush=True)
        traced = run_once(workload, seeds[0], spec["run_seconds"], trace=1)
        print(f"  traced seed={seeds[0]} correct={traced['correct']} "
              f"trace.overhead_s={traced['metrics']['trace.overhead_s']['value']:.4f}", flush=True)
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "metrics": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        summary["env"] = {k: v for k, v in runs[-1]["env"].items() if k != "workload_seed"}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
