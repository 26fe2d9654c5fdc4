"""Decoupled-weight-decay adaptive optimizer and LR schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamW:
    """AdamW with bias correction; weight decay is decoupled from the moments."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        if lr < 0:
            raise ValueError("lr must be non-negative")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def lr_at_step(step: int, total_steps: int, base_lr: float, warmup_ratio: float) -> float:
    """Linear warmup over warmup_ratio * total_steps, then cosine decay to 0."""
    if total_steps <= 0:
        return base_lr
    warmup = int(round(warmup_ratio * total_steps))
    if warmup > 0 and step < warmup:
        return base_lr * (step + 1) / warmup
    if total_steps == warmup:
        return base_lr
    progress = (step - warmup) / (total_steps - warmup)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * min(progress, 1.0)))
