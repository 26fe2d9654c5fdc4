"""The tape bounds of the tests, each measured value next to its bound.

    python3 tools/tape_margins.py
    python3 tools/tape_margins.py --src /path/to/other-checkout/src

Runs the tests' own step helpers (`tests/test_moe.py::TestTapeFootprint.step`,
`tests/test_projection_node.py::TestTapeGuard`,
`tests/test_model.py::TestBackwardMemory.pretraining_peak`) with one BLAS
thread, so each number is the one its test asserts on. `--src` picks the
mjlab sources to measure, so one copy of the tests measures a parent
checkout and a change alike. Prints one line per bound and then the rows as
one JSON line: the measured value, the bound, the margin left (bound -
value) and whether the bound holds. Compute these before a change that
moves the tape, since a ratio bound moves when bytes leave both of its
sides.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TOKENS = 16 * 24  # B * T of every step the bounds measure


def measure() -> dict:
    """The numbers the tape bounds read, from the tests' step helpers."""
    from mjlab.config import ExperimentConfig
    from mjlab.model import next_token_loss
    from tests.test_model import TestBackwardMemory
    from tests.test_moe import TestTapeFootprint
    from tests.test_projection_node import TestTapeGuard, fused_final_states

    model = ExperimentConfig().model
    moe_nodes, moe_tape, moe_peak = TestTapeFootprint.step("moe")
    _, peft_tape, _ = TestTapeFootprint.step("peft")
    _, mj_tape, _ = TestTapeFootprint.step("mj", routed=True)
    pretrain_entry, pretrain_peak = TestBackwardMemory.pretraining_peak()
    mj_nodes, _ = TestTapeGuard.mj_step(fused_final_states)
    pretrain_nodes, _ = TestTapeGuard.pretraining_step(next_token_loss)
    return {"moe_nodes": moe_nodes, "moe_tape": moe_tape, "moe_peak": moe_peak, "peft_tape": peft_tape,
            "mj_tape": mj_tape, "pretrain_entry": pretrain_entry, "pretrain_peak": pretrain_peak,
            "mj_nodes": mj_nodes, "pretrain_nodes": pretrain_nodes, "routed_layers": model.n_layers,
            "stream_bytes": TOKENS * model.d_model * 8}


def summary(m: dict) -> list[dict]:
    """One row per tape bound of the tests, from the measurements `m`."""

    def row(name: str, value: float, bound: float) -> dict:
        return {"bound_of": name, "value": value, "bound": bound, "margin": bound - value, "holds": value <= bound}

    return [
        row("moe tape / peft tape", m["moe_tape"] / m["peft_tape"], 1.15),
        row("moe backward peak / moe tape", m["moe_peak"] / m["moe_tape"], 1.20),
        row("pretraining backward peak / tape at entry", m["pretrain_peak"] / m["pretrain_entry"], 1.12),
        row("(mj tape - peft tape) / routed layers x B*T*d*8",
            (m["mj_tape"] - m["peft_tape"]) / (m["routed_layers"] * m["stream_bytes"]), 2.5),
        row("moe step nodes", m["moe_nodes"], 120),
        row("mj step nodes", m["mj_nodes"], 60),
        row("pretraining step nodes", m["pretrain_nodes"], 40),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="mjlab sources to measure")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    rows = summary(measure())
    for r in rows:
        print(f"{r['bound_of']}: {r['value']:.4g} (bound {r['bound']:.4g}, margin {r['margin']:.4g})"
              + ("" if r["holds"] else " BROKEN"))
    print(json.dumps({"src": str(args.src.resolve()), "rows": rows}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
