"""Linear probes on frozen hidden states at different positions and poolings.

A probe is a plain softmax classifier trained by full-batch gradient descent
on representations extracted once from the frozen backbone, used to compare
how much task information different token positions carry.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, length_buckets, batch_arrays
from .model import Backbone

SELECTOR_MODES = ("index", "offset", "mean", "max", "last")


@dataclass
class ProbeSpec:
    layer: int
    mode: str = "last"
    value: int = 0  # position for "index", distance from the end for "offset"

    def __post_init__(self):
        if self.mode not in SELECTOR_MODES:
            raise ValueError(f"unknown selector mode {self.mode!r}")
        if self.value < 0:
            raise ValueError("selector value must be >= 0")

    def describe(self) -> str:
        if self.mode in ("index", "offset"):
            return f"{self.mode}:{self.value}"
        return self.mode


def collect_states(model: Backbone, dataset: Dataset, layer: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-example (T, d) hidden arrays at one layer, plus global labels."""
    if not 0 <= layer <= model.cfg.n_layers:
        raise ValueError(f"layer {layer} out of range")
    states: list[np.ndarray | None] = [None] * len(dataset)
    labels = np.empty(len(dataset), dtype=np.int64)
    for idx in length_buckets(dataset, batch_size=32):
        tokens, glabels, _ = batch_arrays(dataset, idx)
        hidden = model.hidden_states(tokens, n_blocks=layer)[layer]
        for bi, ex_i in enumerate(idx):
            states[ex_i] = hidden.data[bi].copy()
            labels[ex_i] = glabels[bi]
    return states, labels  # type: ignore[return-value]


def select_features(states: list[np.ndarray], spec: ProbeSpec) -> np.ndarray:
    min_len = min(s.shape[0] for s in states)
    if spec.mode == "index" and spec.value >= min_len:
        raise ValueError(f"index {spec.value} invalid for shortest sequence ({min_len})")
    if spec.mode == "offset" and spec.value >= min_len:
        raise ValueError(f"offset {spec.value} invalid for shortest sequence ({min_len})")
    rows = []
    for s in states:
        if spec.mode == "index":
            rows.append(s[spec.value])
        elif spec.mode == "offset":
            rows.append(s[s.shape[0] - 1 - spec.value])
        elif spec.mode == "last":
            rows.append(s[-1])
        elif spec.mode == "mean":
            rows.append(s.mean(axis=0))
        else:
            rows.append(s.max(axis=0))
    return np.stack(rows)


def train_linear_probe(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    epochs: int = 100,
    lr: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch GD on softmax cross entropy; zero init keeps it deterministic."""
    n, d = x.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        logits = x @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (g.T @ x)
        b -= lr * g.sum(axis=0)
    return w, b


def _accuracy(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray) -> float:
    pred = np.argmax(x @ w.T + b, axis=1)
    return float((pred == y).mean())


def run_probe(
    model: Backbone,
    spec: ProbeSpec,
    dataset: Dataset,
    epochs: int = 100,
    lr: float = 0.5,
    seed: int = 0,
    val_fraction: float = 0.3,
    cache: tuple[list[np.ndarray], np.ndarray] | None = None,
) -> dict:
    """Train the probe on frozen representations; returns train/val accuracy.

    `cache` short-circuits feature extraction when sweeping selectors/seeds
    over the same layer.
    """
    states, labels = cache if cache is not None else collect_states(model, dataset, spec.layer)
    x = select_features(states, spec)
    y = labels
    n = len(y)
    n_val = int(round(n * val_fraction))
    if n_val == 0 or n - n_val == 0:
        raise ValueError("empty split")
    order = np.random.default_rng(seed).permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    n_classes = int(labels.max()) + 1
    w, b = train_linear_probe(x[train_idx], y[train_idx], n_classes, epochs=epochs, lr=lr)
    return {
        "train_acc": _accuracy(x[train_idx], y[train_idx], w, b),
        "val_acc": _accuracy(x[val_idx], y[val_idx], w, b),
    }


def position_sweep(
    model: Backbone,
    dataset: Dataset,
    layer: int,
    specs: list[ProbeSpec],
    seeds: list[int],
    epochs: int = 100,
    lr: float = 0.5,
) -> list[dict]:
    cache = collect_states(model, dataset, layer)
    rows = []
    for spec in specs:
        for seed in seeds:
            res = run_probe(model, spec, dataset, epochs=epochs, lr=lr, seed=seed, cache=cache)
            rows.append(
                {"layer": layer, "selector": spec.describe(), "seed": seed,
                 "train_acc": res["train_acc"], "val_acc": res["val_acc"]}
            )
    return rows


def write_probe_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["layer", "selector", "seed", "train_acc", "val_acc"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
