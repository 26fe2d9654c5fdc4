"""Routing overhead and the MoE ledger: mj, peft and moe `run_pipeline` on one shared world.

    python3 tools/route_overhead.py --seed 1
    python3 tools/route_overhead.py --seed 1 --src /path/to/other-checkout/src

Builds the `BENCH_SCALE` config of `perfbench/workloads.py` at `--seed` (as
the benchmark does: `data.seed` and the run seed), runs `prepare_world` once
and then `run_pipeline` for methods mj, peft and moe on that world, timing
each, with one BLAS thread. `--src` picks the mjlab sources to time, so one
copy of this script measures a parent checkout and a change alike. After the
timed runs, one more `run_pipeline` per method runs up to its first
fine-tune step under tracemalloc and stops at that step's `backward` entry,
to read the bytes its tape holds there; one more `prepare_backbone` does the
same at its first pretraining step. Prints one JSON line: the world time,
each method's fine-tune plus eval time, the mj - peft overhead, how many
times faster mj is than moe, the tape nodes per backward and step tape bytes
of each method and of pretraining, and the accuracies.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("mj", "peft", "moe")


class _AtBackward(Exception):
    """Stops a measuring run at its first `backward` entry."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="mjlab sources to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import mjlab.tensor as tz
    from mjlab.config import ExperimentConfig
    from mjlab.data import pretraining_corpus
    from mjlab.train import prepare_backbone, prepare_world, run_pipeline
    from workloads import BENCH_SCALE, make_config

    nodes: list[int] = []
    backward = tz.backward
    measuring = False

    def counting_backward(loss):
        nodes.append(len(tz._active_tape().nodes))
        if measuring:
            raise _AtBackward(tracemalloc.get_traced_memory()[0])
        return backward(loss)

    class StepTape(tz.Tape):
        """Traces allocations from the first tape on, when measuring."""

        def __enter__(self):
            if measuring and not tracemalloc.is_tracing():
                tracemalloc.start()
            return super().__enter__()

    tz.backward = counting_backward
    tz.Tape = StepTape
    out = {"seed": args.seed, "src": str(args.src.resolve())}
    cfgs = {method: ExperimentConfig.from_dict(make_config(method, args.seed, BENCH_SCALE)) for method in METHODS}
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
    measuring = True
    for method, cfg in cfgs.items():
        try:
            run_pipeline(cfg, args.seed, backbone=world[0], train_ds=world[1], val_ds=world[2])
        except _AtBackward as stop:
            out[f"{method}_step_tape_bytes"] = stop.args[0]
        finally:
            tracemalloc.stop()
    nodes.clear()
    try:
        prepare_backbone(cfgs["mj"], args.seed, corpus=pretraining_corpus(world[1]))
    except _AtBackward as stop:
        out["pretrain_step_tape_bytes"] = stop.args[0]
    finally:
        tracemalloc.stop()
    out["pretrain_nodes_per_backward"] = nodes[0]
    out["overhead_s"] = out["mj_s"] - out["peft_s"]
    out["mj_speedup_over_moe"] = out["moe_s"] / out["mj_s"]
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
