"""Numerical checks of the routing expressivity results and parameter formulas.

rank_compare contrasts the output rank of routed adapter application
(per-token assignment, no cancellation) against uniform application of the
summed adapters; soft_rank_bound checks the column-space upper bound under
soft top-k coefficients; complexity_table cross-checks closed-form parameter
counts against enumeration over actually constructed banks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import numeric_rank, softmax, topk_mask
from .model import ModelConfig, PROJECTIONS
from .adapters import AdapterBank, AdapterConfig, count_trainable
from .moe_baseline import MoEAdapterBank, MoEConfig

# random instances: 2 to MAX_EXPERTS adapters, each D x D of rank 1 to MAX_RANK
MAX_EXPERTS, MAX_RANK, D = 4, 2, 8


@dataclass
class RankInstance:
    """Adapters, their shared input matrix, and a token->expert routing."""

    deltas: list[np.ndarray]  # E matrices, each (d_out, d_in)
    H: np.ndarray  # (d_in, T)
    assign: np.ndarray | None = None  # (T,) hard assignment
    m: np.ndarray | None = None  # (T, E) soft coefficients

    def __post_init__(self):
        self.deltas = [np.ascontiguousarray(d, dtype=np.float64) for d in self.deltas]
        self.H = np.ascontiguousarray(self.H, dtype=np.float64)
        if (self.assign is None) == (self.m is None):
            raise ValueError("provide exactly one of assign / m")
        t = self.H.shape[1]
        if self.assign is not None:
            self.assign = np.asarray(self.assign, dtype=np.int64)
            if self.assign.shape != (t,):
                raise ValueError("assign must have one entry per token")
        else:
            self.m = np.ascontiguousarray(self.m, dtype=np.float64)
            if self.m.shape != (t, len(self.deltas)):
                raise ValueError("m must be (tokens, experts)")

    def coefficients(self) -> np.ndarray:
        if self.m is not None:
            return self.m
        m = np.zeros((self.H.shape[1], len(self.deltas)))
        m[np.arange(self.H.shape[1]), self.assign] = 1.0
        return m


def routed_output(inst: RankInstance) -> np.ndarray:
    """U with columns u_t = sum_e m[t, e] * delta_e @ h_t."""
    m = inst.coefficients()
    t = inst.H.shape[1]
    d_out = inst.deltas[0].shape[0]
    u = np.zeros((d_out, t))
    for e, delta in enumerate(inst.deltas):
        cols = m[:, e] > 0.0
        if cols.any():
            u[:, cols] += (delta @ inst.H[:, cols]) * m[cols, e]
    return u


def uniform_output(inst: RankInstance) -> np.ndarray:
    return sum(inst.deltas) @ inst.H


def rank_compare(inst: RankInstance) -> dict:
    """Ranks of routed vs uniform outputs plus the diverse-input hypothesis.

    hypothesis_holds means every expert's routed inputs span its row space,
    i.e. rank(delta_e @ H_e) == rank(delta_e) for all e.
    """
    m = inst.coefficients()
    rank_peft = numeric_rank(uniform_output(inst))
    rank_mj = numeric_rank(routed_output(inst))
    dim_c_all = numeric_rank(np.hstack(inst.deltas))
    hypothesis = True
    for e, delta in enumerate(inst.deltas):
        cols = m[:, e] > 0.0
        he = inst.H[:, cols]
        if numeric_rank(delta @ he) != numeric_rank(delta):
            hypothesis = False
            break
    return {
        "rank_mj": rank_mj,
        "rank_peft": rank_peft,
        "dim_c_all": dim_c_all,
        "hypothesis_holds": hypothesis,
    }


def soft_rank_bound(inst: RankInstance) -> dict:
    """rank(U) <= dim(sum of activated column spaces)."""
    m = inst.coefficients()
    active = [e for e in range(len(inst.deltas)) if (m[:, e] > 0.0).any()]
    bound = numeric_rank(np.hstack([inst.deltas[e] for e in active])) if active else 0
    rank_mj = numeric_rank(routed_output(inst))
    return {"rank_mj": rank_mj, "bound": bound, "holds": rank_mj <= bound}


def cancellation_example() -> RankInstance:
    """Two rank-1 adapters whose sum collapses to one output direction."""
    d1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    d2 = np.array([[0.0, 0.0], [-1.0, 0.0]])
    h = np.array([[1.0, 1.0], [0.0, 0.0]])  # both tokens are e1
    return RankInstance(deltas=[d1, d2], H=h, assign=np.array([0, 1]))


def random_instance(seed: int) -> RankInstance:
    """Random full-activation instance with the diverse-input hypothesis verified.

    Adapters are explicit low-rank products B @ A; each expert receives
    rank + 2 generic tokens so the hypothesis holds generically (regenerate
    on the rare degenerate draw).
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n_exp = int(rng.integers(2, MAX_EXPERTS + 1))
        deltas, h_cols, assign = [], [], []
        for e in range(n_exp):
            r = int(rng.integers(1, MAX_RANK + 1))
            b = rng.normal(size=(D, r))
            a = rng.normal(size=(r, D))
            deltas.append(b @ a)
            n_tok = r + 2
            h_cols.append(rng.normal(size=(D, n_tok)))
            assign.extend([e] * n_tok)
        inst = RankInstance(deltas=deltas, H=np.hstack(h_cols), assign=np.array(assign))
        if rank_compare(inst)["hypothesis_holds"]:
            return inst
    raise RuntimeError("failed to draw a hypothesis-satisfying instance")


def random_soft_instance(seed: int) -> RankInstance:
    """Random instance with routing-style soft top-k coefficients."""
    rng = np.random.default_rng(seed)
    n_exp = int(rng.integers(2, MAX_EXPERTS + 1))
    deltas = []
    for _ in range(n_exp):
        r = int(rng.integers(1, MAX_RANK + 1))
        deltas.append(rng.normal(size=(D, r)) @ rng.normal(size=(r, D)))
    t = int(rng.integers(n_exp, 3 * n_exp + 1))
    h = rng.normal(size=(D, t))
    k = int(rng.integers(1, n_exp + 1))
    p = softmax(rng.normal(size=(t, n_exp))).data
    mask, _ = topk_mask(p, k)
    return RankInstance(deltas=deltas, H=h, m=p * mask)


# ---------------------------------------------------------------------------
# parameter-count formulas
# ---------------------------------------------------------------------------

COMPLEXITY_VARIANTS = (
    "lora",
    "lorafa",
    "propulsion",
    "mj-lora",
    "mj-lorafa",
    "mj-propulsion",
    "moe-lora",
)
REPORT_EXPERTS = 4  # N, the MoE variant's experts per projection, in params_report


def complexity_table(variant: str, E: int, N: int, d: int, r: int) -> dict:
    """Closed-form per-block trainable and router parameter counts."""
    if min(E, N, d, r) < 1:
        raise ValueError("complexity arguments must be positive")
    base = variant[3:] if variant.startswith("mj-") else variant
    if variant not in COMPLEXITY_VARIANTS:
        raise ValueError(f"unsupported variant {variant!r}")
    if variant == "moe-lora":
        return {"trainable": 2 * E * N * d * r, "router_params": N * d}
    if base == "lora":
        return {"trainable": 2 * E * d * r, "router_params": 0}
    if base == "lorafa":
        return {"trainable": E * d * r, "router_params": 0}
    return {"trainable": E * d, "router_params": 0}


def enumerate_block_params(variant: str, E: int, N: int, d: int, r: int) -> dict:
    """Same counts obtained by constructing a real one-block bank and counting.

    Uses d_ff = d so that all seven projection sites are square, matching the
    closed forms' single-width assumption.
    """
    if not 1 <= E <= len(PROJECTIONS):
        raise ValueError(f"E must be in 1..{len(PROJECTIONS)}")
    cfg = ModelConfig(d_model=d, d_ff=d, n_layers=1, n_heads=1, vocab_size=4, max_seq_len=4)
    projections = PROJECTIONS[:E]
    if variant == "moe-lora":
        bank = MoEAdapterBank(cfg, MoEConfig(n_experts=N, top_k=min(2, N), r=r), projections)
        total = count_trainable(bank)
        routers = bank.router_param_count()
        return {"trainable": total - routers, "router_params": routers}
    base = variant[3:] if variant.startswith("mj-") else variant
    if base not in ("lora", "lorafa", "propulsion"):
        raise ValueError(f"unsupported variant {variant!r}")
    bank = AdapterBank(cfg, AdapterConfig(variant=base, r=r), projections)
    # clustering-routed variants add center buffers only, never trainables
    return {"trainable": count_trainable(bank), "router_params": 0}


# ---------------------------------------------------------------------------
# report drivers (CLI)
# ---------------------------------------------------------------------------


def rank_report(n_instances: int = 100, seed: int = 0) -> dict:
    example = rank_compare(cancellation_example())
    violations = 0
    for i in range(n_instances):
        res = rank_compare(random_instance(seed + i))
        if res["hypothesis_holds"] and res["rank_mj"] < res["rank_peft"]:
            violations += 1
    return {
        "example": example,
        "instances": n_instances,
        "violations": violations,
        "ok": violations == 0 and example["rank_mj"] == 2 and example["rank_peft"] == 1,
    }


def soft_report(n_instances: int = 100, seed: int = 0) -> dict:
    violations = sum(
        0 if soft_rank_bound(random_soft_instance(seed + i))["holds"] else 1
        for i in range(n_instances)
    )
    return {"instances": n_instances, "violations": violations, "ok": violations == 0}


def params_report(E_values=(3, 5), d_values=(8, 32), r_values=(1, 2, 4)) -> dict:
    rows = []
    ok = True
    for variant in COMPLEXITY_VARIANTS:
        for E in E_values:
            for d in d_values:
                for r in r_values:
                    formula = complexity_table(variant, E, REPORT_EXPERTS, d, r)
                    counted = enumerate_block_params(variant, E, REPORT_EXPERTS, d, r)
                    match = formula == counted
                    ok = ok and match
                    rows.append(
                        {"variant": variant, "E": E, "N": REPORT_EXPERTS, "d": d, "r": r,
                         "formula": formula, "enumerated": counted, "match": match}
                    )
    return {"rows": rows, "ok": ok}
