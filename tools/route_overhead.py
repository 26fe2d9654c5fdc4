"""Routing overhead: mj against peft `run_pipeline` on one shared world.

    python3 tools/route_overhead.py --seed 1
    python3 tools/route_overhead.py --seed 1 --src /path/to/other-checkout/src

Builds the `BENCH_SCALE` config of `perfbench/workloads.py` at `--seed` (as
the benchmark does: `data.seed` and the run seed), runs `prepare_world` once
and then `run_pipeline` for method mj and for method peft on that world,
timing each, with one BLAS thread. `--src` picks the mjlab sources to time, so
one copy of this script measures a parent checkout and a change alike. Prints
one JSON line: the world time, each method's fine-tune plus eval time, the
mj - peft overhead, each method's tape nodes per backward and both
accuracies.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="mjlab sources to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import mjlab.tensor as tz
    from mjlab.config import ExperimentConfig
    from mjlab.train import prepare_world, run_pipeline
    from workloads import BENCH_SCALE, make_config

    nodes: list[int] = []
    backward = tz.backward

    def counting_backward(loss):
        nodes.append(len(tz._active_tape().nodes))
        return backward(loss)

    tz.backward = counting_backward
    out = {"seed": args.seed, "src": str(args.src.resolve())}
    cfgs = {method: ExperimentConfig.from_dict(make_config(method, args.seed, BENCH_SCALE))
            for method in ("mj", "peft")}
    start = time.perf_counter()
    world = prepare_world(cfgs["mj"], args.seed)
    out["prepare_world_s"] = time.perf_counter() - start
    for method, cfg in cfgs.items():
        nodes.clear()
        start = time.perf_counter()
        run = run_pipeline(cfg, args.seed, backbone=world[0], train_ds=world[1], val_ds=world[2])
        out[f"{method}_s"] = time.perf_counter() - start
        out[f"{method}_nodes_per_backward"] = sum(nodes) / len(nodes)
        out[f"{method}_accuracy"] = run["overall_accuracy"]
    out["overhead_s"] = out["mj_s"] - out["peft_s"]
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
