"""Routing overhead and the MoE ledger: mj, peft and moe `run_pipeline` on one shared world.

    python3 tools/route_overhead.py --seed 1
    python3 tools/route_overhead.py --seed 1 --src /path/to/other-checkout/src

Builds the `BENCH_SCALE` config of `perfbench/workloads.py` at `--seed` (as
the benchmark does: `data.seed` and the run seed), runs `prepare_world` once
and then times `run_pipeline` for methods mj, peft and moe on that world, with
one BLAS thread, in `ROUNDS` interleaved rounds that rotate which method runs
first. `<method>_s` is the median of a method's rounds and
`<method>_rounds_s` keeps every round's time. `--src` picks the mjlab sources
to time, so one copy of this script measures a parent checkout and a change
alike. After the timed runs, one more `run_pipeline` per method traces
allocations with tracemalloc from each fine-tune step's tape entry to its
`backward` entry, to read the bytes the step's tape holds there; one more
`prepare_backbone` does the same for each pretraining step. Prints one JSON
line: the world time, each method's fine-tune plus eval times, the mj - peft
overhead, how many times faster mj is than moe, the tape nodes per backward,
the step tape bytes (`*_step_tape_bytes`: the first step's;
`*_peak_step_tape_bytes`: the largest step's, which is the one peak RSS
follows) of each method and of pretraining, and the accuracies.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("mj", "peft", "moe")
ROUNDS = 3  # timed rounds per method; round r starts with METHODS[r]


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
    tape_bytes: list[int] = []  # traced at each `backward` entry of a measuring run
    backward = tz.backward
    measuring = False

    def counting_backward(loss):
        nodes.append(len(tz._active_tape().nodes))
        if measuring:
            tape_bytes.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
        return backward(loss)

    class StepTape(tz.Tape):
        """Traces allocations from each tape's entry on, when measuring."""

        def __enter__(self):
            if measuring:
                tracemalloc.stop()
                tracemalloc.start()
            return super().__enter__()

    def measure(name, build):
        """`build()` with each step's tape traced: its first and largest step tape bytes."""
        tape_bytes.clear()
        try:
            build()
        finally:
            tracemalloc.stop()
        out[f"{name}_step_tape_bytes"] = tape_bytes[0]
        out[f"{name}_peak_step_tape_bytes"] = max(tape_bytes)

    tz.backward = counting_backward
    tz.Tape = StepTape
    out = {"seed": args.seed, "src": str(args.src.resolve())}
    cfgs = {method: ExperimentConfig.from_dict(make_config(method, args.seed, BENCH_SCALE)) for method in METHODS}
    start = time.perf_counter()
    world = prepare_world(cfgs["mj"], args.seed)
    out["prepare_world_s"] = time.perf_counter() - start
    rounds = {method: [] for method in METHODS}
    for r in range(ROUNDS):
        for method in METHODS[r:] + METHODS[:r]:
            nodes.clear()
            start = time.perf_counter()
            run = run_pipeline(cfgs[method], args.seed, backbone=world[0], train_ds=world[1], val_ds=world[2])
            rounds[method].append(time.perf_counter() - start)
            out[f"{method}_nodes_per_backward"] = sum(nodes) / len(nodes)
            out[f"{method}_accuracy"] = run["overall_accuracy"]
    for method, times in rounds.items():
        out[f"{method}_s"] = statistics.median(times)
        out[f"{method}_rounds_s"] = times
    measuring = True
    for method, cfg in cfgs.items():
        measure(method, lambda: run_pipeline(cfg, args.seed, backbone=world[0], train_ds=world[1], val_ds=world[2]))
    nodes.clear()
    measure("pretrain", lambda: prepare_backbone(cfgs["mj"], args.seed, corpus=pretraining_corpus(world[1])))
    out["pretrain_nodes_per_backward"] = nodes[0]
    out["overhead_s"] = out["mj_s"] - out["peft_s"]
    out["mj_speedup_over_moe"] = out["moe_s"] / out["mj_s"]
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
