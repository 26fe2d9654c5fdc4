from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mjlab.tensor as tz
from mjlab.adapters import AdapterBank, AdapterConfig
from mjlab.model import Backbone, ProjectionId
from mjlab.router import (
    GRANULARITIES,
    SIMILARITIES,
    MonkeyJumpHooks,
    RouterState,
    RoutingDecision,
    UsageRecorder,
    ema_update,
    kmeans_init,
    load_router,
    route,
    save_router,
    usage_report,
    write_usage_csv,
)
from mjlab.tensor import topk_mask

from .conftest import finite_difference_check
from .unfused_model import DeltaHooks, unfused_final_states

R5 = tuple(ProjectionId)[:5]  # q k v o up as routed slots


def make_state(centers, **kw):
    centers = np.asarray(centers, dtype=np.float64)
    defaults = dict(routed=R5[: centers.shape[0]], shared=(), top_k=min(2, centers.shape[0]), stop_step=10)
    defaults.update(kw)
    return RouterState(centers=centers, **defaults)


def support(m):
    """`selected` for hand-written coefficients: the experts with m > 0, per row."""
    m = np.asarray(m)
    return np.argwhere(m > 0)[:, 1].reshape(m.shape[0], -1)


class TestRoute:
    def test_self_similarity_selects_matching_center(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(4, 6))
        state = make_state(centers, top_k=1, tau=1.0)
        h = centers[2][None, :] * 3.0  # same direction, different norm
        dec = route(state, h)
        assert dec.z[0, 2] == dec.z[0].max()
        assert dec.selected[0].tolist() == [2]

    def test_identical_centers_uniform_with_low_index_tiebreak(self):
        state = make_state(np.ones((5, 3)), top_k=2)
        dec = route(state, np.random.default_rng(1).normal(size=(4, 3)))
        assert np.abs(dec.p - 0.2).max() < 1e-12
        assert np.array_equal(dec.selected, np.tile([0, 1], (4, 1)))

    def test_topk_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        state = make_state(rng.normal(size=(5, 8)), top_k=2)
        h = rng.normal(size=(40, 8))
        dec = route(state, h)
        for t in range(40):
            order = sorted(range(5), key=lambda e: (-dec.p[t, e], e))
            assert sorted(order[:2]) == dec.selected[t].tolist()

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(3)
        state = make_state(rng.normal(size=(5, 8)), top_k=2)
        h = rng.normal(size=(20, 8))
        base = route(state, h)
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            scaled = route(state, alpha * h)
            assert np.array_equal(base.selected, scaled.selected)
            assert np.abs(base.p - scaled.p).max() < 1e-9

    def test_zero_norm_token_gets_uniform_probabilities(self):
        rng = np.random.default_rng(4)
        state = make_state(rng.normal(size=(4, 6)), top_k=1)
        h = np.zeros((1, 6))
        dec = route(state, h)
        assert np.array_equal(dec.z[0], np.zeros(4))
        assert np.abs(dec.p[0] - 0.25).max() < 1e-12
        assert dec.selected[0].tolist() == [0]

    @pytest.mark.parametrize("similarity", ["cosine", "dot", "euclidean", "l1"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_decision_invariants(self, similarity, k):
        rng = np.random.default_rng(5)
        state = make_state(rng.normal(size=(5, 8)), top_k=k, similarity=similarity)
        dec = route(state, rng.normal(size=(50, 8)) * 3)
        assert np.abs(dec.p.sum(axis=1) - 1.0).max() < 1e-9
        assert (dec.p > 0).all()
        assert ((dec.m > 0).sum(axis=1) == k).all()
        positive = dec.m > 0
        assert np.array_equal(dec.m[positive], dec.p[positive])
        assert (dec.m[~positive] == 0).all()

    def test_sequence_granularity_broadcasts_last_token(self):
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(4, 8))
        seq_state = make_state(centers, granularity="sequence")
        tok_state = make_state(centers, granularity="token")
        h = rng.normal(size=(9, 8))
        dec = route(seq_state, h)
        last_only = route(tok_state, h[-1:, :])
        assert all(np.array_equal(dec.m[t], dec.m[0]) for t in range(9))
        assert np.array_equal(dec.m[0], last_only.m[0])

    def test_task_granularity_pins_expert(self):
        rng = np.random.default_rng(7)
        state = make_state(rng.normal(size=(4, 8)), granularity="task")
        dec = route(state, rng.normal(size=(6, 8)), task_expert=3)
        assert (dec.m[:, 3] == 1.0).all()
        assert (dec.m[:, :3] == 0.0).all()
        with pytest.raises(ValueError, match="task expert"):
            route(state, rng.normal(size=(6, 8)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        state = make_state(rng.normal(size=(5, 8)), top_k=2)
        perm = (3, 0, 4, 1, 2)
        permuted = replace(state, permutation=perm)
        h = rng.normal(size=(30, 8))
        base = route(state, h)
        shuffled = route(permuted, h)
        cols = np.asarray(perm)
        # logits permute bitwise; softmax re-sums in permuted order, so p and m
        # agree to float tolerance while selections map exactly
        assert np.array_equal(shuffled.z, base.z[:, cols])
        assert np.abs(shuffled.p - base.p[:, cols]).max() < 1e-12
        assert np.abs(shuffled.m - base.m[:, cols]).max() < 1e-12
        inverse = np.argsort(cols)
        expected_sel = np.sort(inverse[base.selected], axis=1)
        assert np.array_equal(shuffled.selected, expected_sel)

    def test_width_mismatch(self):
        state = make_state(np.eye(3))
        with pytest.raises(ValueError, match="width"):
            route(state, np.zeros((2, 5)))

    def test_topk_bounds_enforced(self):
        with pytest.raises(ValueError, match="top_k"):
            make_state(np.eye(3), top_k=4)

    def test_overlapping_routed_shared_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            make_state(np.eye(2), routed=(ProjectionId.q, ProjectionId.k), shared=(ProjectionId.q,))


class TestKMeans:
    def test_single_cluster_single_center(self):
        point = np.array([3.0, 4.0])
        samples = np.tile(point, (10, 1))
        result = kmeans_init(samples, 1, seed=0)
        assert np.allclose(result.centers[0], point / 5.0, atol=1e-12)

    def test_antipodal_clusters_recovered(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=8)
        v /= np.linalg.norm(v)
        a = v + rng.normal(scale=1e-3, size=(30, 8))
        b = -v + rng.normal(scale=1e-3, size=(30, 8))
        samples = np.vstack([a, b])
        result = kmeans_init(samples, 2, iters=50, seed=2)

        def unit(x):
            return x / np.linalg.norm(x)

        means = [unit(unit_rows(a).mean(axis=0)), unit(unit_rows(b).mean(axis=0))]
        for mean in means:
            angles = [np.arccos(np.clip(abs(c @ mean), -1, 1)) for c in result.centers]
            assert min(angles) < 1e-6

    def test_objective_non_increasing(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            samples = rng.normal(size=(200, 6))
            trace = kmeans_init(samples, 4, iters=20, seed=seed).objective_trace
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_degenerate_identical_samples(self):
        samples = np.tile(np.array([1.0, 2.0, 2.0]), (12, 1))
        result = kmeans_init(samples, 3, seed=3)
        assert result.centers.shape == (3, 3)
        assert np.all(np.isfinite(result.centers))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_init(np.ones((2, 3)), 5, seed=0)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestEMA:
    def _selected(self, m):
        return support(np.asarray(m, dtype=np.float64))

    def test_beta_one_is_noop(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(2, 3))
        state = make_state(centers.copy(), beta=1.0, update_every=1, stop_step=10)
        fired = ema_update(state, self._selected([[1.0, 0.0], [0.0, 1.0]]), rng.normal(size=(2, 3)), step=0)
        assert fired
        assert np.array_equal(state.centers, centers)

    def test_beta_zero_takes_batch_mean(self):
        rng = np.random.default_rng(1)
        state = make_state(rng.normal(size=(2, 3)), beta=0.0, update_every=1, stop_step=10)
        h = rng.normal(size=(4, 3))
        m = np.array([[0.7, 0.0], [0.6, 0.0], [0.0, 0.9], [0.5, 0.0]])
        ema_update(state, self._selected(m), h, step=0)
        assert np.allclose(state.centers[0], h[[0, 1, 3]].mean(axis=0), atol=1e-15)
        assert np.allclose(state.centers[1], h[2], atol=1e-15)

    def test_half_beta_hand_example(self):
        state = make_state(np.array([[1.0, 0.0]]), routed=(ProjectionId.q,), top_k=1,
                           beta=0.5, update_every=1, stop_step=10)
        ema_update(state, self._selected([[1.0]]), np.array([[0.0, 1.0]]), step=0)
        assert np.array_equal(state.centers[0], [0.5, 0.5])

    def test_empty_cluster_bitwise_unchanged(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(2, 3))
        state = make_state(centers.copy(), beta=0.25, update_every=1, stop_step=10)
        m = np.array([[0.8, 0.0], [0.6, 0.0]])  # nothing routed to expert 1
        ema_update(state, self._selected(m), rng.normal(size=(2, 3)), step=0)
        assert np.array_equal(state.centers[1], centers[1])
        assert not np.array_equal(state.centers[0], centers[0])

    def test_schedule_fires_even_steps_below_stop(self):
        rng = np.random.default_rng(3)
        state = make_state(rng.normal(size=(2, 3)), beta=0.5, update_every=2, stop_step=5)
        h = rng.normal(size=(2, 3))
        selected = self._selected([[1.0, 0.0], [0.0, 1.0]])
        fired = [ema_update(state, selected, h, step=s) for s in range(10)]
        assert fired == [True, False, True, False, True, False, False, False, False, False]

    def test_never_fires_at_or_after_stop(self):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(2, 3))
        state = make_state(centers.copy(), beta=0.0, update_every=1, stop_step=3)
        selected = self._selected([[1.0, 1.0]])
        for s in range(3, 20):
            assert not ema_update(state, selected, rng.normal(size=(1, 3)), step=s)
        assert np.array_equal(state.centers, centers)

    def test_permutation_respected_in_updates(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(2, 3))
        state = make_state(centers.copy(), routed=(ProjectionId.q, ProjectionId.k), top_k=1,
                           beta=0.0, update_every=1, stop_step=10, permutation=(1, 0))
        h = rng.normal(size=(1, 3))
        ema_update(state, self._selected([[1.0, 0.0]]), h, step=0)  # slot 0 -> center 1
        assert np.array_equal(state.centers[1], h[0])
        assert np.array_equal(state.centers[0], centers[0])


class TestUsage:
    def test_single_decision_all_to_expert_zero(self):
        rec = UsageRecorder()
        m = np.zeros((10, 2))
        m[:, 0] = 0.9
        rec.add(0, RoutingDecision(z=m, p=m, m=m, selected=support(m)))
        assert np.array_equal(rec.fractions()[0], [1.0, 0.0])

    def test_identical_phases_give_rho_one(self):
        init, final = UsageRecorder(), UsageRecorder()
        m = np.array([[0.6, 0.0], [0.0, 0.7], [0.8, 0.0]])
        dec = RoutingDecision(z=m, p=m, m=m, selected=support(m))
        for layer in range(3):
            init.add(layer, dec)
            final.add(layer, dec)
        stats = usage_report(init, final)
        assert np.array_equal(stats.rho, [1.0, 1.0])

    def test_fractions_sum_to_top_k(self):
        rng = np.random.default_rng(6)
        state = make_state(rng.normal(size=(5, 8)), top_k=2)
        rec = UsageRecorder()
        rec.add(0, route(state, rng.normal(size=(100, 8))))
        assert rec.fractions()[0].sum() == pytest.approx(2.0, abs=1e-12)

    def test_balanced_clusters_give_balanced_usage(self):
        rng = np.random.default_rng(7)
        n_exp, per = 4, 200
        dirs = np.linalg.qr(rng.normal(size=(8, 8)))[0][:n_exp]  # orthogonal: well separated
        samples = np.vstack([d + rng.normal(scale=0.05, size=(per, 8)) for d in dirs])
        centers = kmeans_init(samples, n_exp, seed=8).centers
        state = make_state(centers, top_k=1)
        rec = UsageRecorder()
        rec.add(0, route(state, samples))
        fracs = rec.fractions()[0]
        assert ((fracs >= 1 / n_exp - 0.1) & (fracs <= 1 / n_exp + 0.1)).all()

    def test_requires_recorded_decisions(self):
        with pytest.raises(ValueError, match="recorded"):
            usage_report(UsageRecorder(), UsageRecorder())

    def test_csv_export(self, tmp_path):
        init, final = UsageRecorder(), UsageRecorder()
        m = np.array([[0.6, 0.0], [0.0, 0.7]])
        dec = RoutingDecision(z=m, p=m, m=m, selected=support(m))
        init.add(0, dec)
        final.add(0, dec)
        stats = usage_report(init, final)
        write_usage_csv(stats, tmp_path / "usage.csv")
        lines = (tmp_path / "usage.csv").read_text().splitlines()
        assert lines[0] == "layer,expert,phase,fraction,rho"
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert float(first[3]) == 0.5 and float(first[4]) == 1.0


class TestGradientIsolation:
    def test_centers_untouched_and_gradient_free_after_step(self, tiny_cfg, tiny_frozen):
        rng = np.random.default_rng(9)
        bank = AdapterBank(tiny_cfg, AdapterConfig(dropout=0.0),
                           (ProjectionId.q, ProjectionId.k, ProjectionId.v), seed=1)
        for t in bank.trainable_tensors():
            t.data = rng.normal(size=t.data.shape) * 0.2
        states = {
            l: RouterState(centers=rng.normal(size=(3, tiny_cfg.d_model)),
                           routed=(ProjectionId.q, ProjectionId.k, ProjectionId.v),
                           shared=(), stop_step=100)
            for l in range(tiny_cfg.n_layers)
        }
        snapshots = {l: states[l].centers.copy() for l in states}
        hooks = MonkeyJumpHooks(bank, states)
        hooks.set_batch(None)
        toks = np.array([[1, 2, 3, 4]])
        with tz.Tape():
            out = tiny_frozen.final_states(toks, hooks)
            tz.backward(tz.tsum(tz.mul(out, out)))
        for l in states:
            assert np.array_equal(states[l].centers, snapshots[l])
            assert not isinstance(states[l].centers, tz.Tensor)  # plain buffer, no grad slot
        assert any(t.grad is not None for t in bank.trainable_tensors())

    def test_hook_coefficients_match_route(self, tiny_cfg, tiny_frozen):
        rng = np.random.default_rng(10)
        bank = AdapterBank(tiny_cfg, AdapterConfig(dropout=0.0),
                           (ProjectionId.q, ProjectionId.k, ProjectionId.v), seed=2)
        routed = (ProjectionId.q, ProjectionId.k, ProjectionId.v)
        states = {0: RouterState(centers=rng.normal(size=(3, tiny_cfg.d_model)),
                                 routed=routed, shared=(), stop_step=100)}
        hooks = MonkeyJumpHooks(bank, states)
        hooks.set_batch(None)
        toks = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        tiny_frozen.final_states(toks, hooks)
        (layer, decision, flat) = hooks.collected[0]
        oracle = route(states[0], flat)
        assert np.array_equal(decision.m, oracle.m)
        assert np.array_equal(decision.selected, oracle.selected)


class TestShared:
    def test_shared_projection_always_fully_on(self, tiny_cfg, tiny_frozen):
        rng = np.random.default_rng(11)
        targeted = (ProjectionId.q, ProjectionId.k, ProjectionId.o)
        bank = AdapterBank(tiny_cfg, AdapterConfig(dropout=0.0), targeted, seed=3)
        for t in bank.trainable_tensors():
            t.data = rng.normal(size=t.data.shape) * 0.2
        routed = (ProjectionId.q, ProjectionId.k)
        states = {l: RouterState(centers=rng.normal(size=(2, tiny_cfg.d_model)), routed=routed,
                                 shared=(ProjectionId.o,), top_k=1, stop_step=100)
                  for l in range(tiny_cfg.n_layers)}
        hooks = MonkeyJumpHooks(bank, states)

        calls = []
        orig_term = bank.adapters[(0, ProjectionId.o)].term

        def spy(m, rng=None):
            calls.append(m)
            return orig_term(m, rng)

        bank.adapters[(0, ProjectionId.o)].term = spy
        hooks.set_batch(None)
        tiny_frozen.final_states(np.array([[1, 2, 3]]), hooks)
        assert calls and all(m == 1.0 for m in calls)


class TestEmbeddingExport:
    def test_csv_rows_carry_layer_token_expert_and_vector(self, tmp_path):
        from mjlab.router import export_embeddings

        rng = np.random.default_rng(13)
        state = make_state(rng.normal(size=(3, 4)), top_k=1)
        h = rng.normal(size=(6, 4))
        dec = route(state, h)
        export_embeddings(tmp_path / "emb.csv", {0: (h, dec), 2: (h, dec)})
        lines = (tmp_path / "emb.csv").read_text().splitlines()
        assert len(lines) == 12
        first = lines[0].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert int(first[2]) == dec.selected[0, 0]
        assert np.allclose([float(v) for v in first[3:]], h[0], atol=0)


class TestCheckpoint:
    def test_router_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        states = {
            0: make_state(rng.normal(size=(3, 6)), top_k=2, similarity="euclidean", permutation=(2, 0, 1)),
            2: make_state(rng.normal(size=(3, 6)), granularity="sequence", beta=0.7),
        }
        save_router(tmp_path / "router", states)
        back = load_router(tmp_path / "router", 6)
        assert sorted(back) == [0, 2]
        for layer, state in states.items():
            got = back[layer]
            assert np.array_equal(got.centers, state.centers)
            assert got.similarity == state.similarity
            assert got.permutation == state.permutation
            assert got.routed == state.routed
            assert got.beta == state.beta

    def test_wrong_shape_centers_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        save_router(tmp_path / "router", {1: make_state(rng.normal(size=(3, 8)))})
        tz.save_tensor(tmp_path / "router" / "centers_layer1.bin", rng.normal(size=(3, 5)))
        with pytest.raises(ValueError, match="centers_layer1.bin"):
            load_router(tmp_path / "router", 8)


class TestMembershipRule:
    """`selected` alone decides membership: p, usage and EMA agree with it."""

    def test_underflowed_selection_still_counts(self):
        rng = np.random.default_rng(15)
        state = make_state(rng.normal(size=(3, 8)), top_k=2, tau=1e-3)
        dec = route(state, rng.normal(size=(50, 8)))
        mask = np.zeros_like(dec.m)
        np.put_along_axis(mask, dec.selected, 1.0, axis=1)
        assert ((mask == 1.0) & (dec.m == 0.0)).any()  # the softmax underflowed
        rec = UsageRecorder()
        rec.add(0, dec)
        assert rec.fractions()[0].sum() == 2.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n_experts=st.integers(2, 5),
        d=st.integers(2, 6),
        n_tokens=st.integers(1, 30),
        log_tau=st.floats(-4.0, 2.0),  # tau in [1e-4, 1e2], log-uniform so underflow is common
        similarity=st.sampled_from(SIMILARITIES),
        granularity=st.sampled_from(("token", "sequence")),
    )
    def test_random_routing_is_consistent(self, data, n_experts, d, n_tokens, log_tau, similarity, granularity):
        values = st.floats(-3.0, 3.0, allow_subnormal=False)
        centers = data.draw(arrays(np.float64, (n_experts, d), elements=values).filter(
            lambda c: ((c * c).sum(axis=1) > 0).all()))  # RouterState rejects zero-norm centers
        h = data.draw(arrays(np.float64, (n_tokens, d), elements=values))
        k = data.draw(st.integers(1, n_experts))
        state = make_state(centers, top_k=k, tau=10.0 ** log_tau, similarity=similarity, granularity=granularity,
                           beta=0.5, update_every=1, stop_step=1)
        dec = route(state, h)

        assert np.abs(dec.p.sum(axis=1) - 1.0).max() < 1e-9
        assert dec.selected.shape == (n_tokens, k)
        assert all(len(set(row)) == k for row in dec.selected.tolist())
        mask = np.zeros_like(dec.m)
        np.put_along_axis(mask, dec.selected, 1.0, axis=1)
        assert (dec.m[mask == 0.0] == 0.0).all()

        rec = UsageRecorder()
        rec.add(0, dec)
        assert rec.fractions()[0].sum() == pytest.approx(k, abs=1e-12)

        before = state.centers.copy()
        assert ema_update(state, dec.selected, h, step=0)
        for e in range(n_experts):
            members = (dec.selected == e).any(axis=1)
            if members.any():
                expected = 0.5 * before[e] + 0.5 * h[members].mean(axis=0)
                assert np.allclose(state.centers[e], expected, rtol=0.0, atol=1e-12)
            else:
                assert np.array_equal(state.centers[e], before[e])


# ---------------------------------------------------------------------------
# the fused route node against the chain it replaces
# ---------------------------------------------------------------------------


def unfused_route(state: RouterState, h, task_expert=None) -> RoutingDecision:
    """`route` as a chain of tape ops, before `tz.route_coefficients` fused
    it into one node; the bitwise reference."""
    if not isinstance(h, tz.Tensor):
        h = tz.Tensor(np.asarray(h, dtype=np.float64))
    if h.ndim == 2:
        h = tz.reshape(h, (1,) + h.shape)
    b, t, d = h.shape
    e = state.n_experts
    if state.granularity == "task":
        experts = np.broadcast_to(np.asarray(task_expert, dtype=np.int64), (b,))
        rows = tz.Tensor(h.data.reshape(b * t, d))  # informational only: off the tape
    elif state.granularity == "sequence":
        rows = tz.reshape(tz.select_index(h, 1, t - 1), (b, d))
    else:
        rows = tz.reshape(h, (b * t, d))

    c = state.permuted_centers()
    if state.similarity == "cosine":
        z = tz.adapted_projections(tz.l2_normalize_rows(rows), [tz.l2_normalize_rows(c)], [None], ["centers"])
    elif state.similarity == "dot":
        z = tz.matmul(rows, tz.Tensor(c.T))
    elif state.similarity == "euclidean":
        z = tz.neg_l2_distance(rows, c)
    else:
        z = tz.neg_l1_distance(rows, c)
    z = tz.mul(z, 1.0 / state.tau)
    p = tz.softmax(z, axis=-1)

    if state.granularity == "task":
        selected = np.repeat(experts, t)[:, None]
        pinned = np.zeros((b * t, e))
        pinned[np.arange(b * t), selected[:, 0]] = 1.0
        m = tz.Tensor(pinned)
    else:
        mask, selected = topk_mask(p.data, state.top_k)
        m = tz.mul(p, tz.Tensor(mask))
    if state.granularity == "sequence":
        coefficients = tz.broadcast_to(tz.reshape(m, (b, 1, e)), (b, t, e))
        return RoutingDecision(z=np.repeat(z.data, t, axis=0), p=np.repeat(p.data, t, axis=0),
                               m=np.repeat(m.data, t, axis=0), selected=np.repeat(selected, t, axis=0),
                               coefficients=coefficients)
    return RoutingDecision(z=z.data, p=p.data, m=m.data, selected=selected,
                           coefficients=tz.reshape(m, (b, t, e)))


class UnfusedHooks(MonkeyJumpHooks):
    """The hooks before the fusion: `unfused_route`, then one `select_index`
    and one `mul` per routed projection on top of the ungated adapter op.
    They answer the chain's `contribution(layer, proj, x, base)`, so they run
    with `unfused_final_states`; an ungated adapter's term comes from the
    real hooks without routers."""

    def __init__(self, bank, states):
        super().__init__(bank, states)
        self.coefficients = {}
        self.uniform = DeltaHooks(MonkeyJumpHooks(bank, {}))

    def set_batch(self, task_experts=None, drop_rng=None):
        """Both hooks draw from the one stream, as the fused hooks' terms do."""
        super().set_batch(task_experts, drop_rng)
        self.uniform.hooks.set_batch(None, drop_rng)

    def begin_block(self, layer, h):
        self.uniform.begin_block(layer, h)
        state = self.states.get(layer)
        if state is None:
            return
        decision = unfused_route(state, h, self._task_experts)
        self.coefficients[layer] = decision.coefficients
        self.collected.append((layer, decision, h.data.reshape(-1, h.shape[-1]).copy()))

    def contribution(self, layer, proj, x, base):
        adapter = self.bank.adapters.get((layer, proj))
        state = self.states.get(layer)
        if adapter is None or state is None or proj not in state.routed:
            return self.uniform.contribution(layer, proj, x, base)
        delta = adapter.apply(x, 1.0, base=base, rng=self._drop_rng)
        return tz.mul(delta, tz.select_index(self.coefficients[layer], 2, state.routed.index(proj)))


def same_bytes(a, b) -> bool:
    """Equal dtype, shape and raw bytes, so that -0.0 and +0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def route_and_backward(fn, state, values, tracked, task_expert=None):
    """(decision, gradient into h, tape nodes of the routing) of one call."""
    h = tz.Tensor(values.copy(), requires_grad=tracked)
    with tz.Tape() as tape:
        decision = fn(state, h, task_expert)
        n_nodes = len(tape.nodes)
        if decision.coefficients.requires_grad:
            w = np.random.default_rng(60).normal(size=decision.coefficients.shape)
            tz.backward(tz.tsum(tz.mul(decision.coefficients, w)))
    return decision, h.grad, n_nodes


def assert_route_matches_unfused(state, values, tracked, task_expert=None):
    fused, g_fused, n_fused = route_and_backward(route, state, values, tracked, task_expert)
    ref, g_ref, n_ref = route_and_backward(unfused_route, state, values, tracked, task_expert)
    for name in ("z", "p", "m", "selected"):
        assert same_bytes(getattr(fused, name), getattr(ref, name)), name
    assert same_bytes(fused.coefficients.data, ref.coefficients.data)
    assert fused.coefficients.requires_grad == ref.coefficients.requires_grad
    if g_ref is None:
        assert g_fused is None
    else:
        assert same_bytes(g_fused, g_ref)
    assert n_fused == (1 if n_ref else 0)
    return fused


def assert_hooks_match_unfused(cfg, frozen, similarity, granularity, variant, routed, fresh):
    """One forward and backward through `frozen` with `MonkeyJumpHooks` and
    with `UnfusedHooks`: outputs, adapter gradients and decisions byte for
    byte, and fewer tape nodes."""
    rng = np.random.default_rng(65)
    targeted = routed + (ProjectionId.o,)
    states = {l: RouterState(centers=rng.normal(size=(len(routed), cfg.d_model)), routed=routed,
                             shared=(ProjectionId.o,), top_k=min(2, len(routed)), similarity=similarity,
                             granularity=granularity, stop_step=10)
              for l in range(cfg.n_layers)}
    weights = {name: rng.normal(size=t.shape) * 0.3 for name, t in
               AdapterBank(cfg, AdapterConfig(variant=variant), targeted).named_tensors().items()}
    toks = rng.integers(0, cfg.vocab_size, size=(3, 6))

    def step(hooks_cls, final_states):
        bank = AdapterBank(cfg, AdapterConfig(variant=variant, dropout=0.2), targeted, seed=5)
        if not fresh:
            for name, t in bank.named_tensors().items():
                t.data = weights[name].copy()
        hooks = hooks_cls(bank, states)
        hooks.set_batch(np.array([0, len(routed) - 1, 0]), np.random.default_rng(7))
        with tz.Tape() as tape:
            out = final_states(frozen, toks, hooks)
            n_nodes = len(tape.nodes)
            tz.backward(tz.tsum(tz.mul(out, out)))
        return out.data, {n: t.grad for n, t in bank.named_tensors().items()}, hooks.collected, n_nodes

    out, grads, collected, n_nodes = step(MonkeyJumpHooks, Backbone.final_states)
    ref, ref_grads, ref_collected, ref_nodes = step(UnfusedHooks, unfused_final_states)
    assert same_bytes(out, ref)
    for name in grads:
        assert (grads[name] is None) == (ref_grads[name] is None), name
        if grads[name] is not None:
            assert same_bytes(grads[name], ref_grads[name]), name
    for (layer, dec, flat), (ref_layer, ref_dec, ref_flat) in zip(collected, ref_collected, strict=True):
        assert layer == ref_layer and same_bytes(flat, ref_flat)
        assert all(same_bytes(getattr(dec, k), getattr(ref_dec, k)) for k in ("z", "p", "m", "selected"))
    assert n_nodes < ref_nodes


class TestFusedRoute:
    """`route` (one `tz.route_coefficients` node) against `unfused_route`,
    in values and in the gradient into h, compared byte for byte."""

    @pytest.mark.parametrize("tracked", [True, False])
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_bitwise_equal_to_unfused_route(self, similarity, granularity, tracked):
        rng = np.random.default_rng(61)
        state = make_state(rng.normal(size=(3, 6)), top_k=2, tau=0.7, similarity=similarity,
                           granularity=granularity, permutation=(1, 2, 0))
        task_expert = np.array([2, 0]) if granularity == "task" else None
        assert_route_matches_unfused(state, rng.normal(size=(2, 5, 6)), tracked, task_expert)

    @pytest.mark.parametrize("granularity", ("token", "sequence"))
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_selected_expert_underflows_to_zero(self, similarity, granularity):
        rng = np.random.default_rng(62)
        state = make_state(rng.normal(size=(3, 8)), top_k=2, tau=1e-4, similarity=similarity,
                           granularity=granularity)
        dec = assert_route_matches_unfused(state, rng.normal(size=(10, 6, 8)), True)
        mask = np.zeros_like(dec.m)
        np.put_along_axis(mask, dec.selected, 1.0, axis=1)
        assert ((mask == 1.0) & (dec.m == 0.0)).any()  # the edge case is really hit

    @pytest.mark.parametrize("granularity", ("token", "sequence"))
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_tied_centers_break_toward_low_index(self, similarity, granularity):
        rng = np.random.default_rng(63)
        state = make_state(np.tile(rng.normal(size=(1, 6)), (3, 1)), top_k=2, similarity=similarity,
                           granularity=granularity)
        dec = assert_route_matches_unfused(state, rng.normal(size=(2, 4, 6)), True)
        assert (dec.selected == [0, 1]).all()

    @pytest.mark.parametrize("granularity", ("token", "sequence"))
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_zero_norm_token_row(self, similarity, granularity):
        rng = np.random.default_rng(64)
        state = make_state(rng.normal(size=(3, 6)), top_k=2, similarity=similarity, granularity=granularity)
        h = rng.normal(size=(2, 4, 6))
        h[:, -1] = 0.0  # the last token, the scored one for sequence granularity
        h[0, 1] = 0.0
        assert_route_matches_unfused(state, h, True)

    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_block_gradients_match_unfused_hooks(self, tiny_cfg, tiny_frozen, similarity, granularity, variant):
        """A forward and backward through the model: layer 0's input has no
        grad and layer 1's has, the three routed columns of one coefficient
        tensor accumulate their gradients, and the shared `o` stays ungated."""
        assert_hooks_match_unfused(tiny_cfg, tiny_frozen, similarity, granularity, variant,
                                   routed=(ProjectionId.q, ProjectionId.k, ProjectionId.v), fresh=False)

    @pytest.mark.parametrize("variant", ["lora", "lorafa", "propulsion"])
    @pytest.mark.parametrize("granularity", ("token", "sequence"))
    def test_fresh_single_column_matches_unfused_hooks(self, tiny_cfg, tiny_frozen, granularity, variant):
        """Fresh adapters (every delta is +-0.0, as at the first step) on one
        routed column, so no other column's +0.0 is added to its gradient
        and the sign of each zero shows."""
        assert_hooks_match_unfused(tiny_cfg, tiny_frozen, "cosine", granularity, variant,
                                   routed=(ProjectionId.v,), fresh=True)

    @pytest.mark.parametrize("granularity", ("token", "sequence"))
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_finite_difference(self, similarity, granularity):
        rng = np.random.default_rng(66)
        state = make_state(rng.normal(size=(3, 5)), top_k=2, tau=0.8, similarity=similarity,
                           granularity=granularity)
        h = tz.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        w = rng.normal(size=(2, 3, 3))

        def build():
            return tz.tsum(tz.mul(route(state, h).coefficients, w))

        finite_difference_check(build, [h])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("similarity", SIMILARITIES)
    def test_non_finite_input_names_the_op(self, similarity):
        rng = np.random.default_rng(67)
        state = make_state(rng.normal(size=(3, 4)), similarity=similarity)
        h = tz.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        h.data[1, 2, 0] = np.inf
        with tz.Tape(), pytest.raises(FloatingPointError, match="'route_coefficients'"):
            route(state, h)

    def test_one_node_per_routed_block(self):
        rng = np.random.default_rng(68)
        state = make_state(rng.normal(size=(3, 4)))
        h = tz.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with tz.Tape() as tape:
            route(state, h)
            assert len(tape.nodes) == 1
            tape.nodes.clear()
            unfused_route(state, h)
            assert len(tape.nodes) == 7  # reshape, normalize, x W^T, mul, softmax, mask mul, reshape
