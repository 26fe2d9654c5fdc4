"""In-memory span tracer and the table of mjlab functions it wraps.

A span is one call of a wrapped function: its name, start and end
(``perf_counter_ns``), the span that was open when it began (its parent) and
the pass it belongs to. Spans are appended to flat integer arrays while a pass
runs and are only turned into totals when the run ends, so recording costs a
few list appends per call.

mjlab is wrapped from outside: each entry of ``mjlab_probes`` names the object
whose attribute the caller looks the function up on. ``mjlab.train`` imports
``kmeans_init`` by name, so the probe sits on ``mjlab.train.kmeans_init``;
``model``, ``adapters``, ``router`` and ``moe_baseline`` call ``tz.<op>``
through the module, so a probe on ``mjlab.tensor.<op>`` reaches every op.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Counts the probes below add; a pass that never reaches them reads 0.
COUNTERS = (
    "model.forward.tokens", "tensor.tape_nodes", "tensor.load_tensor.bytes", "tensor.save_tensor.bytes",
    "router.kmeans_init.iters", "router.ema_update.fired",
)

# Every public tape op of mjlab.tensor; each gets the span "tensor.op.<op>".
TENSOR_OPS = (
    "add", "sub", "neg", "mul", "div", "matmul", "transpose", "swapaxes", "reshape",
    "broadcast_to", "select_index", "tsum", "tmean", "softmax", "silu", "layer_norm",
    "embedding", "cross_entropy", "dropout", "l2_normalize_rows", "neg_l2_distance",
    "neg_l1_distance",
)


class Tracer:
    """Records nested spans of wrapped calls, grouped by pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.pass_of = array("q")
        self._open: list[int] = []
        self.pass_no = -1
        self.counters: list[dict[str, float]] = []
        self.tapes: list = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_no += 1
        self.counters.append(defaultdict(float))

    def count(self, key: str, value: float) -> None:
        self.counters[self.pass_no][key] += value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` recording one span per call.

        `before(tracer, args)` and `after(tracer, args, result)` add counts;
        they run outside the span.
        """
        nid = self._name_id(name)
        start, end, parent, names, pass_of, open_ = (
            self.start, self.end, self.parent, self.name, self.pass_of, self._open
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(start)
            parent.append(open_[-1] if open_ else -1)
            names.append(nid)
            pass_of.append(self.pass_no)
            end.append(0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, probes) -> None:
        """Replace each probed attribute by its traced version (see `uninstall`)."""
        for owner, attr, name, before, after in probes:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name, before, after))
            else:
                replacement = self.wrap(original, name, before, after)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            for key in ("start", "end", "parent", "name", "pass_of")
        }

    def save(self, path) -> None:
        np.savez_compressed(Path(path), names=np.asarray(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span, in ns.

    Self time is the duration minus the time covered by direct children. In one
    thread, children of a span run one after another inside it, so the result
    lies in [0, duration].
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - child.astype(np.int64)


def pass_totals(tracer: Tracer) -> tuple[list[dict[str, float]], list[str]]:
    """Per pass: `<span>.calls`, `<span>.s`, `<span>.self_s` and the pass's counters.

    Also returns the span-consistency errors found (negative durations, self
    time outside [0, duration], spans left open).
    """
    a = tracer.arrays()
    dur, own = self_times(a["start"], a["end"], a["parent"])
    errors = []
    if tracer._open:
        errors.append(f"{len(tracer._open)} spans still open")
    if (dur < 0).any():
        errors.append(f"{int((dur < 0).sum())} spans end before they start")
    if ((own < 0) | (own > dur)).any():
        errors.append(f"{int(((own < 0) | (own > dur)).sum())} spans have self time outside [0, duration]")
    n_names = max(len(tracer.names), 1)
    n_passes = tracer.pass_no + 1
    key = a["pass_of"] * n_names + a["name"]
    size = n_passes * n_names
    calls = np.bincount(key, minlength=size).reshape(n_passes, n_names)
    total = np.bincount(key, weights=dur, minlength=size).reshape(n_passes, n_names)
    self_total = np.bincount(key, weights=own, minlength=size).reshape(n_passes, n_names)
    out = []
    for p in range(n_passes):
        row = dict.fromkeys(COUNTERS, 0)
        row.update(tracer.counters[p])
        for i, name in enumerate(tracer.names):
            row[f"{name}.calls"] = int(calls[p, i])
            row[f"{name}.s"] = float(total[p, i]) / 1e9
            row[f"{name}.self_s"] = float(self_total[p, i]) / 1e9
        out.append(row)
    return out, errors


# ---------------------------------------------------------------------------
# what to wrap in mjlab
# ---------------------------------------------------------------------------


def _count_tokens(tracer: Tracer, args) -> None:
    tracer.count("model.forward.tokens", np.asarray(args[1]).size)


def _count_tape_nodes(tracer: Tracer, args) -> None:
    # backward clears the tape, so read Tape.nodes on the way in
    if tracer.tapes:
        tracer.count("tensor.tape_nodes", len(tracer.tapes[-1].nodes))


def _count_loaded_bytes(tracer: Tracer, args) -> None:
    tracer.count("tensor.load_tensor.bytes", Path(args[0]).stat().st_size)


def _count_saved_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("tensor.save_tensor.bytes", Path(args[0]).stat().st_size)


def _count_kmeans_iters(tracer: Tracer, args, result) -> None:
    tracer.count("router.kmeans_init.iters", len(result.objective_trace))


def _count_ema_fired(tracer: Tracer, args, result) -> None:
    tracer.count("router.ema_update.fired", int(bool(result)))


def _tape_entered(tracer: Tracer, args, result) -> None:
    tracer.tapes.append(args[0])


def _tape_exited(tracer: Tracer, args, result) -> None:
    tracer.tapes.pop()


def _probe(owner, attr: str, name: str, before=None, after=None) -> tuple:
    return owner, attr, name, before, after


def mjlab_probes() -> list[tuple]:
    """(owner, attribute, span name, before, after) for every traced mjlab function."""
    import mjlab.adapters
    import mjlab.cli
    import mjlab.model
    import mjlab.moe_baseline
    import mjlab.optim
    import mjlab.oracle
    import mjlab.probe
    import mjlab.router
    import mjlab.tensor
    import mjlab.train

    tz, train, cli, model = mjlab.tensor, mjlab.train, mjlab.cli, mjlab.model
    probes = [_probe(tz, op, f"tensor.op.{op}") for op in TENSOR_OPS]
    probes += [
        _probe(tz, "backward", "tensor.backward", before=_count_tape_nodes),
        _probe(tz, "singular_values", "tensor.singular_values"),
        _probe(tz, "save_tensor", "tensor.save_tensor", after=_count_saved_bytes),
        _probe(tz, "load_tensor", "tensor.load_tensor", before=_count_loaded_bytes),
        _probe(tz.Tape, "__enter__", "tensor.tape_enter", after=_tape_entered),
        _probe(tz.Tape, "__exit__", "tensor.tape_exit", after=_tape_exited),
        _probe(model.Backbone, "forward", "model.forward", before=_count_tokens),
        _probe(model.Backbone, "save", "model.save"),
        _probe(model.Backbone, "load", "model.load"),
        _probe(train, "pretrain_backbone", "model.pretrain"),
        _probe(mjlab.adapters.Adapter, "apply", "adapters.apply"),
        _probe(mjlab.router.MonkeyJumpHooks, "begin_block", "router.begin_block"),
        _probe(mjlab.router, "route", "router.route"),
        _probe(train, "kmeans_init", "router.kmeans_init", after=_count_kmeans_iters),
        _probe(train, "ema_update", "router.ema_update", after=_count_ema_fired),
        _probe(mjlab.moe_baseline, "moe_gates", "moe_baseline.gates"),
        _probe(mjlab.moe_baseline, "moe_mix", "moe_baseline.mix"),
        _probe(train, "generate", "data.generate"),
        _probe(cli, "generate", "data.generate"),
        _probe(train, "sample_init_tokens", "data.sample_init_tokens"),
        _probe(train, "batch_arrays", "data.batch_arrays"),
        _probe(mjlab.probe, "batch_arrays", "data.batch_arrays"),
        _probe(mjlab.optim.AdamW, "step", "optim.step"),
        _probe(mjlab.oracle, "rank_report", "oracle.rank_report"),
        _probe(mjlab.oracle, "soft_report", "oracle.soft_report"),
        _probe(mjlab.oracle, "params_report", "oracle.params_report"),
        _probe(mjlab.oracle, "rank_compare", "oracle.rank_compare"),
        _probe(mjlab.probe, "collect_states", "probe.collect_states"),
        _probe(mjlab.probe, "train_linear_probe", "probe.train_linear_probe"),
    ]
    # cli imports these by name from train; train calls its own globals
    for owner in (train, cli):
        probes += [
            _probe(owner, "prepare_backbone", "train.prepare_backbone"),
            _probe(owner, "run_pipeline", "train.run_pipeline"),
            _probe(owner, "init_router_states", "train.init_router_states"),
            _probe(owner, "evaluate", "train.evaluate"),
        ]
    return probes
