"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
every check also enforces its stated runtime budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.adapters import AdapterBank, AdapterConfig, count_trainable
from mjlab.config import ExperimentConfig
from mjlab.data import default_task_specs, generate, pretraining_corpus
from mjlab.model import Backbone, ModelConfig, ProjectionId, PROJECTIONS
from mjlab.moe_baseline import MoEAdapterBank, MoEConfig, MoEHooks
from mjlab.oracle import (
    cancellation_example,
    complexity_table,
    enumerate_block_params,
    rank_compare,
    random_instance,
    random_soft_instance,
    soft_rank_bound,
)
from mjlab.probe import ProbeSpec, position_sweep
from mjlab.router import (
    MonkeyJumpHooks,
    RouterState,
    RoutingDecision,
    UsageRecorder,
    ema_update,
    kmeans_init,
    route,
)
from mjlab.tensor import topk_mask
from mjlab.train import ClassifierHead, make_datasets, prepare_backbone, run_pipeline, shared_vs_specific

_BACKBONES: dict[int, Backbone] = {}


def desk_backbone(seed: int) -> Backbone:
    """Default-config pretrained+frozen backbone, cached per seed."""
    if seed not in _BACKBONES:
        cfg = ExperimentConfig()
        train_ds, _ = make_datasets(cfg)
        _BACKBONES[seed] = prepare_backbone(cfg, seed, corpus=pretraining_corpus(train_ds))
    return _BACKBONES[seed]


class _Budget:
    def __init__(self, criterion: int, seconds: float, description: str):
        self.criterion = criterion
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion:2d}] {status} ({elapsed:6.1f}s / {self.seconds:.0f}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} exceeded {self.seconds}s ({elapsed:.1f}s)"


def test_criterion_01_parameter_parity():
    with _Budget(1, 1.0, "exact trainable-parameter parity and zero router params"):
        n = 4
        for variant in ("lora", "lorafa", "propulsion"):
            for E in (3, 5):
                for d in (8, 32):
                    for r in (1, 2, 4):
                        plain = complexity_table(variant, E, n, d, r)
                        routed = complexity_table(f"mj-{variant}", E, n, d, r)
                        assert routed["trainable"] == plain["trainable"]
                        assert routed["router_params"] == 0
                        assert enumerate_block_params(f"mj-{variant}", E, n, d, r) == routed
                        moe = complexity_table("moe-lora", E, n, d, r)
                        assert moe == {"trainable": 2 * E * n * d * r, "router_params": n * d}
                        assert enumerate_block_params("moe-lora", E, n, d, r) == moe


def test_criterion_02_rank_oracle():
    with _Budget(2, 10.0, "cancellation example exact; 100 hard + 100 soft instances, zero rank violations"):
        example = rank_compare(cancellation_example())
        assert example["rank_mj"] == 2
        assert example["rank_peft"] == 1
        assert example["dim_c_all"] == 2
        for seed in range(100):
            res = rank_compare(random_instance(seed))
            assert res["hypothesis_holds"] and res["rank_mj"] >= res["rank_peft"], f"seed {seed}"
        for seed in range(100):
            assert soft_rank_bound(random_soft_instance(seed))["holds"], f"soft seed {seed}"


def test_criterion_03_routing_invariants():
    with _Budget(3, 10.0, "simplex/sparsity/scale/permutation/tie-break over 1000 tokens x 4 sims x k in 1..3"):
        rng = np.random.default_rng(33)
        routed = tuple(PROJECTIONS[:5])
        centers = rng.normal(size=(5, 16))
        h = rng.normal(size=(1000, 16)) * 2.0
        perm = (4, 2, 0, 3, 1)
        inverse = np.argsort(np.asarray(perm))
        for similarity in ("cosine", "dot", "euclidean", "l1"):
            for k in (1, 2, 3):
                state = RouterState(centers=centers.copy(), routed=routed, shared=(), top_k=k,
                                    similarity=similarity, stop_step=1)
                dec = route(state, h)
                assert np.abs(dec.p.sum(axis=1) - 1.0).max() < 1e-9
                assert (dec.p > 0).all()
                assert ((dec.m > 0).sum(axis=1) == k).all()
                pos = dec.m > 0
                assert np.array_equal(dec.m[pos], dec.p[pos]) and (dec.m[~pos] == 0).all()
                # deterministic tie-break: rerun is identical
                again = route(state, h)
                assert np.array_equal(dec.selected, again.selected)
                # permutation equivariance
                shuffled = route(replace(state, permutation=perm), h)
                assert np.array_equal(shuffled.z, dec.z[:, np.asarray(perm)])
                assert np.array_equal(shuffled.selected, np.sort(inverse[dec.selected], axis=1))
                if similarity == "cosine":
                    for alpha in (0.01, 3.0, 250.0):
                        scaled = route(state, alpha * h)
                        assert np.array_equal(scaled.selected, dec.selected)
                        assert np.abs(scaled.p - dec.p).max() < 1e-9
        # explicit tie-break: identical centers, lowest expert indices win
        tie_state = RouterState(centers=np.ones((5, 16)), routed=routed, shared=(), top_k=2, stop_step=1)
        tie = route(tie_state, rng.normal(size=(50, 16)))
        assert np.array_equal(tie.selected, np.tile([0, 1], (50, 1)))


def _fd_check_all(build_loss, params, tol):
    with tz.Tape():
        loss = build_loss()
        tz.backward(loss)
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    eps = 1e-5
    for p, g in zip(params, grads):
        fd = np.zeros_like(p.data)
        it = np.nditer(fd, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + eps
            up = float(build_loss().data)
            p.data[idx] = orig - eps
            down = float(build_loss().data)
            p.data[idx] = orig
            fd[idx] = (up - down) / (2 * eps)
        scale = max(np.abs(fd).max(), np.abs(g).max(), 1e-10)
        assert np.abs(g - fd).max() / scale < tol


def test_criterion_04_gradient_isolation_and_correctness():
    with _Budget(4, 60.0, "centers bitwise frozen after a step; adapter and MoE params pass FD at 1e-4"):
        cfg = ModelConfig(d_model=8, d_ff=16, n_layers=2, n_heads=2, vocab_size=16, max_seq_len=8)
        model = Backbone(cfg, seed=40)
        model.freeze()
        rng = np.random.default_rng(41)
        toks = rng.integers(0, 16, size=(2, 6))
        labels = np.array([0, 2])
        routed = (ProjectionId.q, ProjectionId.k, ProjectionId.v)
        targeted = routed + (ProjectionId.o, ProjectionId.gate)

        for variant in ("lora", "lorafa", "propulsion"):
            bank = AdapterBank(cfg, AdapterConfig(variant=variant, dropout=0.0), targeted, seed=42)
            for t in bank.trainable_tensors():
                t.data = rng.normal(size=t.data.shape) * 0.2
            states = {
                layer: RouterState(centers=rng.normal(size=(3, 8)), routed=routed,
                                   shared=(ProjectionId.o, ProjectionId.gate), stop_step=1000)
                for layer in range(2)
            }
            hooks = MonkeyJumpHooks(bank, states)
            head = ClassifierHead(8, 3)
            head.w.data = rng.normal(size=head.w.data.shape) * 0.3
            params = bank.trainable_tensors() + head.trainable_tensors()

            def build_loss():
                hooks.set_batch(None)
                final = model.final_states(toks, hooks)
                return tz.cross_entropy(head.logits(final), labels)

            # one full training step, then verify the centers never moved
            snapshots = {layer: states[layer].centers.copy() for layer in states}
            from mjlab.optim import AdamW

            opt = AdamW(params, lr=1e-2)
            with tz.Tape():
                loss = build_loss()
                tz.backward(loss)
            opt.step()
            for layer, dec, flat in hooks.collected:
                ema_update(states[layer], dec, flat, step=0)
            for layer in states:
                assert not isinstance(states[layer].centers, tz.Tensor)
            opt.zero_grad()
            # fresh isolated check at the post-step weights
            frozen_states = {
                layer: RouterState(centers=snapshots[layer], routed=routed,
                                   shared=(ProjectionId.o, ProjectionId.gate), stop_step=1000)
                for layer in range(2)
            }
            hooks = MonkeyJumpHooks(bank, frozen_states)
            before = {layer: frozen_states[layer].centers.copy() for layer in frozen_states}
            with tz.Tape():
                loss = build_loss()
                tz.backward(loss)
            for layer in frozen_states:
                assert np.array_equal(frozen_states[layer].centers, before[layer])
            for p in params:
                p.grad = None
            _fd_check_all(build_loss, params, tol=1e-4)

        moe = MoEAdapterBank(cfg, MoEConfig(n_experts=2, top_k=1, r=1, dropout=0.0),
                             (ProjectionId.q, ProjectionId.v), seed=43)
        for pairs in moe.experts.values():
            for b in (e.b for e in pairs):
                b.data = rng.normal(size=b.data.shape) * 0.2
        moe_hooks = MoEHooks(moe)
        moe_head = ClassifierHead(8, 3)
        moe_head.w.data = rng.normal(size=moe_head.w.data.shape) * 0.3
        moe_params = moe.trainable_tensors() + moe_head.trainable_tensors()

        def moe_loss():
            moe_hooks.set_batch()
            final = model.final_states(toks, moe_hooks)
            return tz.cross_entropy(moe_head.logits(final), labels)

        _fd_check_all(moe_loss, moe_params, tol=1e-4)


def test_criterion_05_ema_contract():
    with _Budget(5, 1.0, "beta limits exact, empty cluster bitwise no-op, schedule fires exactly"):
        rng = np.random.default_rng(50)
        routed = tuple(PROJECTIONS[:2])

        def decision(m):
            m = np.asarray(m, dtype=np.float64)
            return RoutingDecision(z=np.zeros_like(m), p=np.zeros_like(m), m=m,
                                   selected=np.argwhere(m > 0)[:, 1].reshape(m.shape[0], -1))

        c0 = rng.normal(size=(2, 4))
        h = rng.normal(size=(3, 4))
        full = decision([[0.9, 0.0], [0.0, 0.8], [0.7, 0.0]])

        s = RouterState(centers=c0.copy(), routed=routed, shared=(), top_k=1, beta=1.0,
                        update_every=1, stop_step=10)
        assert ema_update(s, full, h, 0)
        assert np.array_equal(s.centers, c0)

        s = RouterState(centers=c0.copy(), routed=routed, shared=(), top_k=1, beta=0.0,
                        update_every=1, stop_step=10)
        ema_update(s, full, h, 0)
        assert np.allclose(s.centers[0], h[[0, 2]].mean(axis=0), atol=1e-15)
        assert np.allclose(s.centers[1], h[1], atol=1e-15)

        s = RouterState(centers=c0.copy(), routed=routed, shared=(), top_k=1, beta=0.5,
                        update_every=1, stop_step=10)
        ema_update(s, decision([[0.9, 0.0]]), h[:1], 0)
        assert np.array_equal(s.centers[1], c0[1])  # empty cluster untouched, bitwise

        s = RouterState(centers=c0.copy(), routed=routed, shared=(), top_k=1, beta=0.5,
                        update_every=2, stop_step=5)
        fired = [ema_update(s, full, h, step) for step in range(12)]
        assert fired == [True, False, True, False, True] + [False] * 7


def test_criterion_06_kmeans():
    with _Budget(6, 30.0, "objective monotone on 10 datasets; antipodal recovery; balanced usage"):
        for seed in range(10):
            samples = np.random.default_rng(seed).normal(size=(300, 8))
            trace = kmeans_init(samples, 4, iters=25, seed=seed).objective_trace
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

        rng = np.random.default_rng(60)
        v = rng.normal(size=10)
        v /= np.linalg.norm(v)
        a = v + rng.normal(scale=1e-3, size=(40, 10))
        b = -v + rng.normal(scale=1e-3, size=(40, 10))
        res = kmeans_init(np.vstack([a, b]), 2, iters=50, seed=61)

        def unit(x):
            return x / np.linalg.norm(x)

        for cluster in (a, b):
            normed = cluster / np.linalg.norm(cluster, axis=1, keepdims=True)
            mean = unit(normed.mean(axis=0))
            angles = [np.arccos(np.clip(abs(c @ mean), -1, 1)) for c in res.centers]
            assert min(angles) < 1e-6

        n_exp, per = 5, 300
        basis = np.linalg.qr(rng.normal(size=(12, 12)))[0][:n_exp]
        samples = np.vstack([d + rng.normal(scale=0.05, size=(per, 12)) for d in basis])
        centers = kmeans_init(samples, n_exp, seed=62).centers
        state = RouterState(centers=centers, routed=tuple(PROJECTIONS[:n_exp]), shared=(),
                            top_k=1, stop_step=1)
        rec = UsageRecorder()
        rec.add(0, route(state, samples))
        fracs = rec.fractions()[0]
        assert ((fracs >= 1 / n_exp - 0.1) & (fracs <= 1 / n_exp + 0.1)).all()


def test_criterion_07_zero_init_equivalence():
    with _Budget(7, 5.0, "fresh adapters leave the frozen forward bitwise unchanged, all variants/granularities"):
        cfg = ModelConfig(d_model=8, d_ff=16, n_layers=2, n_heads=2, vocab_size=16, max_seq_len=12)
        model = Backbone(cfg, seed=70)
        model.freeze()
        rng = np.random.default_rng(71)
        toks = rng.integers(0, 16, size=(3, 9))
        plain = model.forward(toks)
        routed = (ProjectionId.q, ProjectionId.k, ProjectionId.v)
        targeted = routed + (ProjectionId.o, ProjectionId.gate)
        centers = kmeans_init(rng.normal(size=(60, 8)), 3, seed=72).centers
        for variant in ("lora", "lorafa", "propulsion"):
            for granularity in ("token", "sequence", "task"):
                bank = AdapterBank(cfg, AdapterConfig(variant=variant), targeted, seed=73)
                bank.eval()
                states = {
                    layer: RouterState(centers=centers.copy(), routed=routed,
                                       shared=(ProjectionId.o, ProjectionId.gate),
                                       granularity=granularity, stop_step=10)
                    for layer in range(2)
                }
                hooks = MonkeyJumpHooks(bank, states)
                hooks.set_batch(np.array([0, 1, 2]))
                adapted = model.forward(toks, hooks)
                assert np.array_equal(adapted.logits.data, plain.logits.data), (variant, granularity)
                for x, y in zip(adapted.hidden, plain.hidden):
                    assert np.array_equal(x.data, y.data)


def test_criterion_08_probe_ordering():
    with _Budget(8, 300.0, "last-token probe beats earliest by >= 5 points; trend non-decreasing in >= 3 of 4"):
        cfg = ExperimentConfig()
        majority = default_task_specs()[0]
        ds = generate([majority], 600, seed=777)
        model = prepare_backbone(cfg, 0, corpus=pretraining_corpus(ds))
        min_len = min(len(ex.tokens) for ex in ds.examples)
        offsets = [min_len - 1, 8, 5, 2, 0]  # earliest -> last
        layer = 3
        specs = [ProbeSpec(layer=layer, mode="offset", value=o) for o in offsets]
        rows = position_sweep(model, ds, layer, specs, seeds=[0, 1, 2])
        medians = []
        for o in offsets:
            accs = [r["val_acc"] for r in rows if r["selector"] == f"offset:{o}"]
            medians.append(float(np.median(accs)))
        assert medians[-1] - medians[0] >= 0.05, f"last vs earliest margin {medians[-1] - medians[0]:.3f}"
        pairs_up = sum(b >= a for a, b in zip(medians, medians[1:]))
        assert pairs_up >= 3, f"monotone pairs {pairs_up}/4 (medians {medians})"


def test_criterion_09_training_direction():
    with _Budget(9, 900.0, "MJ-LoRA beats frozen head on all tasks; task-specific >= shared on >= 2 of 3"):
        cfg = ExperimentConfig()
        train_ds, val_ds = make_datasets(cfg)
        mj_acc: dict[int, list[float]] = {0: [], 1: [], 2: []}
        frozen_acc: dict[int, list[float]] = {0: [], 1: [], 2: []}
        first_losses, last_losses = [], []
        frozen_cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "method": "frozen"})
        for seed in (0, 1, 2):
            backbone = desk_backbone(seed)
            mj_run = run_pipeline(cfg, seed, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
            frozen_run = run_pipeline(frozen_cfg, seed, backbone=backbone, train_ds=train_ds, val_ds=val_ds)
            first_losses.append(mj_run["metrics"][0]["loss"])
            last_losses.append(mj_run["metrics"][-1]["loss"])
            for task in (0, 1, 2):
                mj_acc[task].append(mj_run["per_task_accuracy"][str(task)])
                frozen_acc[task].append(frozen_run["per_task_accuracy"][str(task)])
        assert float(np.median(last_losses)) < float(np.median(first_losses))
        for task in (0, 1, 2):
            margin = float(np.median(mj_acc[task])) - float(np.median(frozen_acc[task]))
            assert margin > 0, f"task {task}: MJ-LoRA margin over frozen head {margin:+.3f}"

        # motivation experiment: one rank-3 bank on the mixture vs rank-1 per task
        compare_cfg = ExperimentConfig.from_dict({
            **cfg.to_dict(),
            "adapter": {"variant": "lora", "r": 3, "alpha": 5.0, "dropout": 0.05},
            "router": {"routed": ["q", "k", "v"], "shared": []},
        })
        table = shared_vs_specific(compare_cfg, seeds=[0, 1, 2])
        assert table["parity"]
        wins = sum(
            table["median_specific"][task] >= table["median_shared"][task] for task in (0, 1, 2)
        )
        assert wins >= 2, f"task-specific >= shared on only {wins} of 3 tasks"


def test_criterion_10_determinism(tmp_path):
    with _Budget(10, 300.0, "identical config+seed reproduces checkpoints and metrics bitwise"):
        cfg = ExperimentConfig()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(cfg, 0, out_dir=out_a)
        run_pipeline(cfg, 0, out_dir=out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
