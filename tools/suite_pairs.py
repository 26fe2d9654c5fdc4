"""Paired parent/change runs of the three tests that dominate tier-1, written as one SUITE file.

    python3 tools/suite_pairs.py --parent /path/to/parent-checkout --label one_hooks_call

Run it from the root of the change's checkout; `--parent` is a checkout of the
parent commit (for example `git archive <rev> | tar -x -C <dir>`). For each of
`PAIRS` pairs it runs every test of `TESTS` in each checkout, one after
another and nothing else alongside, as its own `python -m pytest -q` process
with `PYTHONPATH=src` and `OPENBLAS_NUM_THREADS=1`; the parent goes first on
odd pairs and the change on even pairs. Each process's wall time is the
test's time, and the three add up to the pair's `total`.

Then it writes `SUITE_<label>.json` at the root of the change's checkout:
every pair, and per test and for the total each side's median, the change's
wins (pairs where it was faster) and the relative change of the medians.
A failed test is recorded with `passed: false`; its time still counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = (
    "tests/test_acceptance.py::test_criterion_09_training_direction",
    "tests/test_acceptance.py::test_criterion_10_determinism",
    "tests/test_train.py::TestSharedVsSpecific::test_identical_tasks_make_arms_indistinguishable",
)
PAIRS = 3


def run_test(root: Path, test: str) -> dict:
    """Wall seconds and outcome of `test` run alone in the checkout at `root`."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=1800)
    return {"s": time.perf_counter() - start, "passed": proc.returncode == 0}


def summary(pairs: list[dict]) -> dict:
    """Per test and for `total`: each side's median seconds, the change's
    wins and the relative change of the medians."""
    out = {}
    for name in (*TESTS, "total"):
        parent = [p["parent"][name]["s"] for p in pairs]
        change = [p["change"][name]["s"] for p in pairs]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        out[name] = {"parent_median_s": parent_median, "change_median_s": change_median,
                     "change_wins": sum(c < p for p, c in zip(parent, change)),
                     "relative_change": (change_median - parent_median) / parent_median}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="writes SUITE_<label>.json at the repository root")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for n in range(1, PAIRS + 1):
        sides = ("parent", "change") if n % 2 else ("change", "parent")
        row = {"pair": n, "first": sides[0]}
        for side in sides:
            row[side] = {test: run_test(roots[side], test) for test in TESTS}
            row[side]["total"] = {"s": sum(row[side][test]["s"] for test in TESTS),
                                  "passed": all(row[side][test]["passed"] for test in TESTS)}
        pairs.append(row)
        print(f"pair {n} total {row['parent']['total']['s']:.1f} -> {row['change']['total']['s']:.1f} s", flush=True)
    out = {"label": args.label,
           "command": f"python3 tools/suite_pairs.py --parent <parent checkout> --label {args.label}",
           "tests": list(TESTS), "pairs": pairs, "summary": summary(pairs)}
    path = ROOT / f"SUITE_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
