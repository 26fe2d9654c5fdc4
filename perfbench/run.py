"""Benchmark entry point: run one mjlab workload and print its metrics.

    python3 perfbench/run.py --workload train_mj --seed 1 --seconds 10 --trace 0

Run from the repository root. With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics. Lines before it give a readable summary, the
artifact digest and the environment. The full record, and with tracing the
spans, go to ``.perfbench/<workload>-s<seed>-trace<t>/``.
"""

import os

# Pin BLAS threads before numpy loads; sweeps stay sequential (MJLAB_THREADS unset).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("MJLAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mjlab" / "__init__.py").is_file():
        print(f"error: no mjlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # relative paths keep mjlab's config hash, and so the digest, the same in every checkout
    os.chdir(ROOT)
    workdir = Path(".perfbench") / f"{args.workload}-s{args.seed}-trace{args.trace}"
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    (workdir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    m = record["metrics"]
    missing = [w["name"] for w in wanted if w["name"] not in m or not math.isfinite(m[w["name"]])]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for failure in record["failures"] + record["errors"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={record['attempted']} "
          f"wall_s={m['wall_s']:.4f} setup_s={m['setup_s']:.4f} peak_rss_mb={m['peak_rss_mb']:.1f} "
          f"error_rate={m['error_rate']:.4f} ({record['failed']}/{record['attempted']}) "
          f"val_accuracy={m['val_accuracy']:.6f}")
    print(f"digest {args.workload} seed={args.seed}: {record['digest']}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {w["name"]: {"value": m[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
