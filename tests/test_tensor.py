import json
import tracemalloc

import numpy as np
import pytest

import mjlab.tensor as tz
from mjlab.tensor import Tensor

from conftest import finite_difference_check


class TestMatmul:
    def test_identity(self):
        out = tz.matmul(Tensor(np.eye(2)), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_cancellation_adapter_times_repeated_basis(self):
        # rank-1 adapter applied to two copies of e1
        delta = Tensor([[1.0, 0.0], [0.0, 0.0]])
        h = Tensor([[1.0, 1.0], [0.0, 0.0]])
        out = tz.matmul(delta, h)
        assert np.array_equal(out.data, [[1.0, 1.0], [0.0, 0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                acc = 0.0
                for k in range(4):
                    acc += a[i, k] * b[k, j]
                ref[i, j] = acc
        out = tz.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, ref, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = tz.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_analytic(self):
        out = tz.softmax(Tensor([np.log(2.0), 0.0]), axis=0)
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(1)
        x = rng.normal(size=5) * 10
        exps = [mpmath.exp(mpmath.mpf(v)) for v in x]
        total = sum(exps)
        ref = np.array([float(e / total) for e in exps])
        out = tz.softmax(Tensor(x), axis=0)
        assert np.abs(out.data - ref).max() < 1e-14

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 5)) * 30
        out = tz.softmax(Tensor(x), axis=1)
        assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-9
        shifted = tz.softmax(Tensor(x + 123.456), axis=1)
        assert np.abs(out.data - shifted.data).max() < 1e-12

    def test_positive(self):
        out = tz.softmax(Tensor([-800.0, 0.0, 800.0]), axis=0)
        assert (out.data >= 0).all() and out.data.sum() == pytest.approx(1.0)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with tz.Tape():
            tz.backward(tz.tsum(w))
        assert np.array_equal(w.grad, np.ones((2, 2)))

    def test_linear_gives_replicated_rows(self):
        w = Tensor(np.zeros((2, 3)), requires_grad=True)
        x = Tensor(np.array([[1.0, -2.0], [0.5, 4.0], [3.0, 0.0]]))
        with tz.Tape():
            tz.backward(tz.tsum(tz.matmul(w, x)))
        expected = np.repeat(x.data.sum(axis=1)[None, :], 2, axis=0)
        assert np.allclose(w.grad, expected, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with tz.Tape():
            y = tz.mul(w, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                tz.backward(y)

    def test_detached_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = tz.tsum(w)  # no tape active: not recorded
        with tz.Tape():
            with pytest.raises(ValueError, match="detached"):
                tz.backward(loss)

    def test_no_grad_without_requires_grad(self):
        w = Tensor(np.ones(3), requires_grad=True)
        x = Tensor(np.ones(3), requires_grad=False)
        with tz.Tape():
            tz.backward(tz.tsum(tz.mul(w, x)))
        assert x.grad is None and w.grad is not None

    def test_accumulates_until_zeroed(self):
        w = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            with tz.Tape():
                tz.backward(tz.tsum(w))
        assert np.array_equal(w.grad, 2.0 * np.ones(3))
        w.zero_grad()
        assert w.grad is None


class TestFiniteDifference:
    """Every differentiable op against the central-difference oracle."""

    def test_composite_graph(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)))

        def build():
            y = tz.matmul(tz.matmul(x, w), v)
            s = tz.softmax(y, axis=1)
            return tz.tsum(tz.mul(s, tz.silu(y)))

        finite_difference_check(build, [w, v])

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("add_broadcast", lambda w, x: tz.tsum(tz.mul(tz.add(x, w), tz.add(x, w)))),
            ("mul_broadcast", lambda w, x: tz.tsum(tz.mul(tz.mul(x, w), x))),
            ("div", lambda w, x: tz.tsum(tz.div(x, tz.add(tz.mul(w, w), 2.0)))),
            ("neg_sub", lambda w, x: tz.tsum(tz.mul(tz.sub(x, w), tz.sub(x, w)))),
        ],
    )
    def test_elementwise(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)))
        finite_difference_check(lambda: builder(w, x), [w])

    def test_batched_matmul(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def build():
            return tz.tsum(tz.silu(tz.matmul(a, b)))

        finite_difference_check(build, [a, b])

    def test_shape_ops(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(2, 6)), requires_grad=True)

        def build():
            y = tz.reshape(w, (2, 3, 2))
            y = tz.swapaxes(y, 0, 2)
            y = tz.broadcast_to(tz.select_index(y, 1, 1), (2, 3, 2))
            return tz.tsum(tz.mul(y, y))

        finite_difference_check(build, [w])

    def test_reductions(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            a = tz.tsum(tz.mul(w, w), axis=1)
            b = tz.tmean(w, axis=0, keepdims=True)
            return tz.add(tz.tsum(a), tz.tsum(tz.mul(b, b)))

        finite_difference_check(build, [w])

    def test_layer_norm(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        g = Tensor(rng.normal(size=5) + 1.0, requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)

        def build():
            return tz.tsum(tz.silu(tz.layer_norm(x, g, b)))

        finite_difference_check(build, [x, g, b])

    def test_embedding(self):
        rng = np.random.default_rng(9)
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.array([[0, 2, 2], [5, 1, 0]])

        def build():
            e = tz.embedding(table, ids)
            return tz.tsum(tz.mul(e, e))

        finite_difference_check(build, [table])

    def test_cross_entropy(self):
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 1, 0])
        weights = np.array([1.0, 0.0, 1.0, 2.0, 1.0])

        def build():
            return tz.cross_entropy(logits, targets, weights)

        finite_difference_check(build, [logits])

    def test_routing_similarities(self):
        rng = np.random.default_rng(11)
        h = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        centers = rng.normal(size=(3, 5))

        def build_cos():
            z = tz.matmul(tz.l2_normalize_rows(h), Tensor(centers.T))
            return tz.tsum(tz.mul(tz.softmax(z, axis=1), z))

        def build_l2():
            z = tz.neg_l2_distance(h, centers)
            return tz.tsum(tz.mul(tz.softmax(z, axis=1), z))

        def build_l1():
            z = tz.neg_l1_distance(h, centers)
            return tz.tsum(tz.mul(z, z))

        finite_difference_check(build_cos, [h])
        finite_difference_check(build_l2, [h])
        finite_difference_check(build_l1, [h])

    def test_dropout(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            drop = np.random.default_rng(99)  # identical mask on every eval
            y = tz.dropout(w, 0.25, drop)
            return tz.tsum(tz.mul(y, y))

        finite_difference_check(build, [w])


@pytest.mark.parametrize("p", [0.05, 0.1, 1 / 3, 0.5, 0.7, 0.999])
def test_float_dropout_mask_is_the_quotient(p):
    keep = np.random.default_rng(24).random((5, 7)) >= p
    assert tz._mask(keep, p).tobytes() == (keep / (1.0 - p)).tobytes()


def unfused_lora_delta(x, a, b, scale, p, rng):
    """The six-node chain a one-adapter `lora_delta` node fuses; the bitwise
    reference."""
    if rng is not None and p > 0.0:
        x = tz.dropout(x, p, rng)
    return tz.mul(tz.matmul(tz.matmul(x, tz.transpose(a)), tz.transpose(b)), scale)


class TestLoraDelta:
    @pytest.mark.parametrize("x_shape", [(5, 6), (2, 4, 6)])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_finite_difference(self, x_shape, p):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        a = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        w = rng.normal(size=x_shape[:-1] + (7,))

        def build():
            drop = np.random.default_rng(5)  # identical mask on every eval
            return tz.tsum(tz.mul(tz.adapter_delta(x, tz.LoRA((a,), (b,), 2.5, p, drop)), w))

        finite_difference_check(build, [x, a, b])

    @pytest.mark.parametrize("x_shape", [(5, 6), (2, 4, 6), (2, 4, 16)])
    @pytest.mark.parametrize("trainable", ["xab", "ab", "b", "xb"])
    def test_bitwise_equal_to_unfused_chain(self, x_shape, trainable):
        """At d_in = 16 the rank is 2, where x A^T depends in its last bits on
        the layout of A^T (`test_moe.py`'s
        `test_stacked_factors_are_contiguous_per_expert` guards it for E > 1)."""
        d_in = x_shape[-1]
        r = {6: 3, 16: 2}[d_in]
        rng = np.random.default_rng(22)
        values = {"x": rng.normal(size=x_shape), "a": rng.normal(size=(r, d_in)), "b": rng.normal(size=(7, r))}
        w = rng.normal(size=x_shape[:-1] + (7,))

        def run(fn):
            ts = {k: Tensor(v.copy(), requires_grad=k in trainable) for k, v in values.items()}
            with tz.Tape() as tape:
                out = fn(ts["x"], ts["a"], ts["b"], 2.5, 0.3, np.random.default_rng(9))
                n_nodes = len(tape.nodes)
                tz.backward(tz.tsum(tz.mul(out, w)))
            return out.data, {k: t.grad for k, t in ts.items()}, n_nodes

        fused, fused_grads, fused_nodes = run(lambda x, a, b, scale, p, rng: tz.adapter_delta(
            x, tz.LoRA((a,), (b,), scale, p, rng)))
        ref, ref_grads, ref_nodes = run(unfused_lora_delta)
        assert fused_nodes == 1 and ref_nodes > 1
        assert np.array_equal(fused, ref)
        for k in values:
            if k in trainable:
                assert np.array_equal(fused_grads[k], ref_grads[k]), k
            else:
                assert fused_grads[k] is None and ref_grads[k] is None, k

    @pytest.mark.parametrize("n_b,columns", [(1, None), (2, (0,)), (2, (0, 1, 2))])
    def test_unequal_lengths_raise(self, n_b, columns):
        """One b per a and, when gated, one column per a: a gated two-adapter
        term left at the default column (0,) would gate both by column 0."""
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(2, 3, 6)))
        a = [Tensor(rng.normal(size=(2, 6))) for _ in range(2)]
        b = [Tensor(rng.normal(size=(5, 2))) for _ in range(n_b)]
        gate = None if columns is None else Tensor(rng.random(size=(2, 3, 3)))
        term = tz.LoRA(a, b, 1.0, 0.0, None, gate, columns or (0,))
        with pytest.raises(ValueError, match=f"2 a, {n_b} b, {len(columns or (0,))} column"):
            tz.adapter_delta(x, term)
        if columns is None:  # an ungated term reads no column
            tz.adapter_delta(x, term._replace(b=b * 2))

    def test_no_dropout_without_rng(self):
        rng = np.random.default_rng(23)
        x, a, b = (Tensor(rng.normal(size=s)) for s in [(4, 6), (2, 6), (5, 2)])
        out = tz.adapter_delta(x, tz.LoRA((a,), (b,), 1.0, 0.5, None))
        assert np.array_equal(out.data, unfused_lora_delta(x, a, b, 1.0, 0.0, None).data)


def unfused_propulsion_delta(x, s, p, rng):
    """The two-node chain dropout, mul that a `propulsion_delta` node fuses."""
    if rng is not None and p > 0.0:
        x = tz.dropout(x, p, rng)
    return tz.mul(x, s)


def unfused_gate(delta, gate, column):
    """The select_index, mul pair that a gated adapter op folds in."""
    return tz.mul(delta, tz.select_index(gate, gate.ndim - 1, column))


# op -> (fused, unfused chain, input shapes without the gate)
ADAPTER_OPS = {
    "lora_delta": (lambda x, a, b, rng, gate=None, column=0: tz.adapter_delta(
                       x, tz.LoRA((a,), (b,), 2.5, 0.3, rng, gate, (column,))),
                   lambda x, a, b, rng: unfused_lora_delta(x, a, b, 2.5, 0.3, rng),
                   {"x": (2, 4, 6), "a": (3, 6), "b": (7, 3)}),
    "propulsion_delta": (lambda x, s, rng, gate=None, column=0: tz.adapter_delta(
                             x, tz.Propulsion(s, 0.3, rng, gate, column)),
                         lambda x, s, rng: unfused_propulsion_delta(x, s, 0.3, rng),
                         {"x": (2, 4, 7), "s": (7,)}),
}


class TestPropulsionDelta:
    """`propulsion_delta` keeps the boolean dropout mask, as `lora_delta`
    does, and rebuilds dropout(x) in its backward: bitwise the chain dropout,
    mul (and select_index, mul for the gate), on a smaller tape."""

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("trainable", ["all", "s", "x"])
    def test_bitwise_equal_to_unfused_chain(self, p, gated, trainable):
        rng = np.random.default_rng(49)
        values = {"x": rng.normal(size=(2, 4, 7)), "s": rng.normal(size=7), "gate": rng.random(size=(2, 4, 3))}
        w = rng.normal(size=(2, 4, 7))
        trains = {"all": set(values), "s": {"s"}, "x": {"x"}}[trainable]

        def run(apply):
            ts = {k: Tensor(v.copy(), requires_grad=k in trains) for k, v in values.items()}
            with tz.Tape():
                out = apply(ts["x"], ts["s"], ts["gate"] if gated else None)
                tz.backward(tz.tsum(tz.mul(out, w)))
            return out.data, {k: t.grad for k, t in ts.items()}

        def chain(x, s, gate):
            delta = unfused_propulsion_delta(x, s, p, np.random.default_rng(9))
            return delta if gate is None else unfused_gate(delta, gate, 1)

        out, grads = run(lambda x, s, gate: tz.adapter_delta(x, tz.Propulsion(s, p, np.random.default_rng(9), gate, 1)))
        ref, ref_grads = run(chain)
        assert out.tobytes() == ref.tobytes()
        for k in values:
            if grads[k] is None or ref_grads[k] is None:
                assert grads[k] is None and ref_grads[k] is None, k
            else:
                assert grads[k].tobytes() == ref_grads[k].tobytes(), k

    def test_keeps_the_boolean_mask_not_the_dropped_product(self):
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(size=(16, 24, 64)), requires_grad=True)
        s = Tensor(rng.normal(size=64), requires_grad=True)
        gate = Tensor(rng.random(size=(16, 24, 3)), requires_grad=True)

        def held(apply) -> int:
            """Bytes the tape holds for `apply` besides its output."""
            tracemalloc.start()
            try:
                with tz.Tape():
                    before = tracemalloc.get_traced_memory()[0]
                    out = apply(np.random.default_rng(9))
                    return tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
            finally:
                tracemalloc.stop()

        fused = held(lambda rng: tz.adapter_delta(x, tz.Propulsion(s, 0.3, rng, gate, 1)))
        chain = held(lambda rng: unfused_gate(unfused_propulsion_delta(x, s, 0.3, rng), gate, 1))
        column = 8 * 16 * 24
        assert fused <= x.data.size + column + 4096, fused  # the mask and the gate column
        assert chain >= 8 * x.data.size, chain  # dropout(x) at float64


class TestGatedAdapterOps:
    """`lora_delta` and `propulsion_delta` times a coefficient column, as one
    node, against the chain with `select_index` and `mul`."""

    @pytest.mark.parametrize("op", sorted(ADAPTER_OPS))
    @pytest.mark.parametrize("trainable", ["all", "gate", "inputs", "none"])
    def test_bitwise_equal_to_unfused_chain(self, op, trainable):
        fused, chain, shapes = ADAPTER_OPS[op]
        rng = np.random.default_rng(45)
        values = {k: rng.normal(size=s) for k, s in shapes.items()}
        values["gate"] = rng.random(size=(2, 4, 3))
        values["gate"][0, 1] = 0.0  # an unselected expert's column
        w = rng.normal(size=(2, 4, shapes["b"][0] if "b" in shapes else shapes["s"][0]))

        trains = {"all": set(values), "gate": {"gate"}, "inputs": set(shapes), "none": set()}[trainable]

        def run(apply_columns):
            ts = {k: Tensor(v.copy(), requires_grad=k in trains) for k, v in values.items()}
            inputs = [ts[k] for k in shapes]
            with tz.Tape() as tape:
                outs = apply_columns(inputs, ts["gate"])
                n_nodes = len(tape.nodes)
                loss = tz.tsum(tz.mul(tz.add(tz.add(outs[0], outs[1]), outs[2]), w))
                if loss.requires_grad:
                    tz.backward(loss)
            return [o.data for o in outs], {k: t.grad for k, t in ts.items()}, n_nodes

        # three columns feed one gate tensor, as the routed q, k and v do
        out, grads, n_nodes = run(lambda inputs, gate: [
            fused(*inputs, np.random.default_rng(9 + c), gate=gate, column=c) for c in range(3)])
        ref, ref_grads, _ = run(lambda inputs, gate: [
            unfused_gate(chain(*inputs, np.random.default_rng(9 + c)), gate, c) for c in range(3)])
        assert n_nodes == (3 if trainable != "none" else 0)
        for a, b in zip(out, ref):
            assert a.tobytes() == b.tobytes()
        for k in values:
            if grads[k] is None or ref_grads[k] is None:
                assert grads[k] is None and ref_grads[k] is None, k
            else:
                assert grads[k].tobytes() == ref_grads[k].tobytes(), k

    @pytest.mark.parametrize("op", sorted(ADAPTER_OPS))
    def test_gate_gradient_keeps_the_sign_of_zero(self, op):
        """A fresh adapter's delta is +-0.0, so its gate gradient can be -0.0.
        numpy sums from +0.0, so that needs d_out = 1 (no sum) and one column
        feeding the gate (nothing added to hide the sign)."""
        fused, chain, _ = ADAPTER_OPS[op]
        shapes = {"x": (2, 4, 6), "a": (3, 6), "b": (1, 3)} if op == "lora_delta" else {"x": (2, 4, 1), "s": (1,)}
        rng = np.random.default_rng(48)
        values = {k: rng.normal(size=s) for k, s in shapes.items()}
        values["b" if "b" in shapes else "s"][:] = 0.0  # as at init
        delta = chain(*(Tensor(values[k]) for k in shapes), None).data
        w = np.where(np.signbit(delta), 1.0, -1.0)  # every g * delta is -0.0

        def gate_grad(apply):
            inputs = [Tensor(values[k].copy(), requires_grad=True) for k in shapes]
            gate = Tensor(np.full((2, 4, 3), 0.5), requires_grad=True)
            with tz.Tape():
                tz.backward(tz.tsum(tz.mul(apply(inputs, gate), w)))
            return gate.grad

        got = gate_grad(lambda inputs, gate: fused(*inputs, None, gate=gate, column=2))
        ref = gate_grad(lambda inputs, gate: unfused_gate(chain(*inputs, None), gate, 2))
        assert (np.signbit(ref) & (ref == 0.0)).any()  # a -0.0 to keep
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("op", sorted(ADAPTER_OPS))
    def test_finite_difference(self, op):
        fused, _, shapes = ADAPTER_OPS[op]
        rng = np.random.default_rng(46)
        ts = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes.values()]
        gate = Tensor(rng.random(size=(2, 4, 3)), requires_grad=True)
        w = rng.normal(size=fused(*ts, None, gate=gate, column=1).shape)

        def build():
            return tz.tsum(tz.mul(fused(*ts, np.random.default_rng(5), gate=gate, column=1), w))

        finite_difference_check(build, ts + [gate])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("op", sorted(ADAPTER_OPS))
    def test_non_finite_input_names_the_op(self, op):
        fused, _, shapes = ADAPTER_OPS[op]
        rng = np.random.default_rng(47)
        ts = [Tensor(rng.normal(size=s)) for s in shapes.values()]
        ts[0].data[0, 0, 0] = np.inf
        gate = Tensor(np.zeros((2, 4, 3)))  # inf * 0 is nan: still caught
        with pytest.raises(FloatingPointError, match=f"'{op}'"):
            fused(*ts, None, gate=gate, column=0)


def one_weight(x, w):
    """x W^T as the model computes it for the `lm_head`, the classifier head
    and the MoE router: the projection node with one weight and no term."""
    return tz.adapted_projections(x, [w], [None], ["w"])


def unfused_linear(x, w):
    """The two-node chain the one-weight projection node replays (its finite
    check names it 'linear'); the bitwise reference."""
    return tz.matmul(x, tz.transpose(w))


def unfused_swiglu(gate, up):
    """The two-node chain `swiglu` fuses; the bitwise reference."""
    return tz.mul(tz.silu(gate), up)


def unfused_causal_attention(q, k, v, n_heads):
    """The 14-node chain `causal_attention` fuses; the bitwise reference."""
    b, t, d = q.shape
    hd = d // n_heads
    qh = tz.swapaxes(tz.reshape(q, (b, t, n_heads, hd)), 1, 2)
    kh = tz.swapaxes(tz.reshape(k, (b, t, n_heads, hd)), 1, 2)
    vh = tz.swapaxes(tz.reshape(v, (b, t, n_heads, hd)), 1, 2)
    scores = tz.mul(tz.matmul(qh, tz.swapaxes(kh, -1, -2)), 1.0 / np.sqrt(hd))
    mask = np.where(np.arange(t)[:, None] < np.arange(t)[None, :], -1e9, 0.0)
    scores = tz.add(scores, Tensor(mask[None, None, :, :]))
    att = tz.softmax(scores, axis=-1)
    ctx = tz.matmul(att, vh)
    return tz.reshape(tz.swapaxes(ctx, 1, 2), (b, t, d))


def stacked(*parts):
    """The parts stacked on a new leading axis, as one node that gives each
    part its own gradient: the separate inputs of the chain, fed to a fused
    op that takes one stacked array."""
    return tz._make("stack", np.stack([part.data for part in parts]), parts, tuple, check=False)


# op named by a finite check -> (fused, unfused chain, input shapes, nodes in
# the chain); swiglu and causal_attention get their inputs through `stacked`,
# one more node
FUSED = {
    "linear": (one_weight, unfused_linear, {"x": (2, 5, 6), "w": (7, 6)}, 2),
    "swiglu": (lambda gate, up: tz.swiglu(stacked(up, gate)), unfused_swiglu,
               {"gate": (3, 4, 5), "up": (3, 4, 5)}, 2),
    "causal_attention": (lambda q, k, v: tz.causal_attention(stacked(q, k, v), 2),
                         lambda q, k, v: unfused_causal_attention(q, k, v, 2),
                         {"q": (2, 5, 6), "k": (2, 5, 6), "v": (2, 5, 6)}, 14),
}
TRAINABLE_MIXES = [
    ("linear", ("x", "w")), ("linear", ("x",)), ("linear", ("w",)),
    ("swiglu", ("gate", "up")), ("swiglu", ("gate",)), ("swiglu", ("up",)),
    ("causal_attention", ("q", "k", "v")), ("causal_attention", ("v",)),
    ("causal_attention", ("q", "k")), ("causal_attention", ("q",)), ("causal_attention", ("k",)),
]


class TestFusedOps:
    """The one-weight projection node, `swiglu` and `causal_attention` against
    their unfused chains."""

    @pytest.mark.parametrize("op", sorted(FUSED))
    def test_finite_difference(self, op):
        fused, _, shapes, _ = FUSED[op]
        rng = np.random.default_rng(41)
        ts = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes.values()]
        w = rng.normal(size=fused(*ts).shape)

        def build():
            return tz.tsum(tz.mul(fused(*ts), w))

        finite_difference_check(build, ts)

    @staticmethod
    def assert_bitwise_equal(fused, chain, shapes, trainable, fused_nodes):
        """`fused` against `chain` on one draw of inputs of `shapes`, of which
        `trainable` require grad; returns the chain's node count."""
        rng = np.random.default_rng(42)
        values = {k: rng.normal(size=s) for k, s in shapes.items()}

        def run(fn):
            ts = {k: Tensor(v.copy(), requires_grad=k in trainable) for k, v in values.items()}
            with tz.Tape() as tape:
                out = fn(*ts.values())
                n_nodes = len(tape.nodes)
                w = np.random.default_rng(43).normal(size=out.shape)
                tz.backward(tz.tsum(tz.mul(out, w)))
            return out.data, {k: t.grad for k, t in ts.items()}, n_nodes

        out, grads, n_nodes = run(fused)
        ref, ref_grads, ref_nodes = run(chain)
        assert n_nodes == fused_nodes
        assert np.array_equal(out, ref)
        for k in values:
            if k in trainable:
                assert np.array_equal(grads[k], ref_grads[k]), k
            else:
                assert grads[k] is None and ref_grads[k] is None, k
        return ref_nodes

    @pytest.mark.parametrize("op,trainable", TRAINABLE_MIXES)
    def test_bitwise_equal_to_unfused_chain(self, op, trainable):
        fused, chain, shapes, chain_nodes = FUSED[op]
        ref_nodes = self.assert_bitwise_equal(fused, chain, shapes, trainable,
                                              1 if op == "linear" else 2)  # the op, after `stacked`
        if trainable == tuple(shapes):
            assert ref_nodes == chain_nodes

    @pytest.mark.parametrize("trainable", [("x", "w"), ("x",), ("w",)])
    def test_one_weight_node_on_a_2d_input(self, trainable):
        """The classifier head's (B, d) input."""
        self.assert_bitwise_equal(one_weight, unfused_linear, {"x": (5, 6), "w": (7, 6)}, trainable, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("op,position", [(op, i) for op in sorted(FUSED) for i in range(len(FUSED[op][2]))])
    def test_non_finite_input_names_the_op(self, op, position):
        fused, _, shapes, _ = FUSED[op]
        rng = np.random.default_rng(44)
        ts = [Tensor(rng.normal(size=s)) for s in shapes.values()]
        ts[position].data[(0,) * ts[position].ndim] = np.inf
        with pytest.raises(FloatingPointError, match=f"'{op}'"):
            fused(*ts)

    def test_linear_reads_the_weight_as_it_is_now(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
        assert np.array_equal(one_weight(x, w).data, np.full((2, 4), 3.0))
        w.data[:] = 2.0  # a write after freeze() must be seen: W^T is not cached
        assert np.array_equal(one_weight(x, w).data, np.full((2, 4), 6.0))


class TestFrozenOperands:
    """Backward computes no gradient for a frozen operand and leaves the
    trainable ones bitwise as they were with every operand trainable."""

    CASES = {
        "matmul": (lambda a, b: tz.matmul(a, b), [(2, 3, 4), (4, 5)]),
        "mul": (lambda a, b: tz.mul(a, b), [(3, 4), (4,)]),
        "add": (lambda a, b: tz.add(a, b), [(3, 4), (1, 4)]),
        "div": (lambda a, b: tz.div(a, b), [(3, 4), (3, 1)]),
    }

    @staticmethod
    def _grads(build, values, frozen):
        ts = [Tensor(v.copy(), requires_grad=i != frozen) for i, v in enumerate(values)]
        with tz.Tape() as tape:
            out = build(*ts)
            (node,) = tape.nodes
            if frozen is not None:  # the op itself computes nothing for the frozen input
                assert node.backward_fn(np.ones(out.shape))[frozen] is None
            w = np.random.default_rng(31).normal(size=out.shape)
            tz.backward(tz.tsum(tz.mul(out, w)))
        return [t.grad for t in ts]

    @pytest.mark.parametrize("op", sorted(CASES))
    @pytest.mark.parametrize("frozen", [0, 1])
    def test_binary_ops(self, op, frozen):
        build, shapes = self.CASES[op]
        rng = np.random.default_rng(32)
        values = [rng.uniform(0.5, 2.0, size=s) for s in shapes]
        full = self._grads(build, values, frozen=None)
        part = self._grads(build, values, frozen=frozen)
        assert part[frozen] is None
        assert np.array_equal(part[1 - frozen], full[1 - frozen])

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_layer_norm(self, frozen):
        rng = np.random.default_rng(33)
        values = [rng.normal(size=(2, 3, 4)), rng.normal(size=4), rng.normal(size=4)]
        full = self._grads(tz.layer_norm, values, frozen=None)
        part = self._grads(tz.layer_norm, values, frozen=frozen)
        for i in range(3):
            if i == frozen:
                assert part[i] is None
            else:
                assert np.array_equal(part[i], full[i]), i


class TestInvariants:
    def test_zero_norm_row_normalizes_to_zero(self):
        x = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        out = tz.l2_normalize_rows(x)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        assert np.allclose(out.data[1], [0.6, 0.8], atol=1e-15)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        r1 = tz.softmax(tz.matmul(Tensor(a), Tensor(b)), axis=1).data
        r2 = tz.softmax(tz.matmul(Tensor(a), Tensor(b)), axis=1).data
        assert np.array_equal(r1, r2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_surfaced(self):
        with pytest.raises(FloatingPointError):
            Tensor([np.inf, 1.0])
        big = Tensor([1e308, 1e308])
        with pytest.raises(FloatingPointError):
            tz.add(big, big)

    def test_grad_shape_matches(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        with tz.Tape():
            tz.backward(tz.tsum(tz.mul(w, 3.0)))
        assert w.grad.shape == w.data.shape


def jacobi_singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values by one-sided Jacobi, descending: a reference for
    `tz.singular_values` that shares no code with LAPACK.

    Cyclic sweeps orthogonalize column pairs until all normalized inner
    products fall below 1e-14.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    u = a.T.copy() if m < n else a.copy()
    n = u.shape[1]
    for _ in range(60):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ai = u[:, i].copy()
                aj = u[:, j].copy()
                alpha = float(ai @ ai)
                beta = float(aj @ aj)
                gamma = float(ai @ aj)
                if alpha == 0.0 or beta == 0.0:
                    continue
                rel = abs(gamma) / np.sqrt(alpha * beta)
                off = max(off, rel)
                if rel <= 1e-15:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                sign = 1.0 if zeta >= 0.0 else -1.0
                t = sign / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                cth = 1.0 / np.sqrt(1.0 + t * t)
                sth = cth * t
                u[:, i] = cth * ai - sth * aj
                u[:, j] = sth * ai + cth * aj
        if off < 1e-14:
            break
    sv = np.sqrt((u * u).sum(axis=0))
    return np.sort(sv)[::-1]


class TestSingularValues:
    def test_matches_lapack(self):
        """LAPACK singular values agree with the independent Jacobi reference."""
        rng = np.random.default_rng(14)
        for shape in [(4, 4), (3, 7), (8, 2), (6, 6)]:
            a = rng.normal(size=shape)
            mine = tz.singular_values(a)
            ref = jacobi_singular_values(a)
            assert np.abs(mine - ref).max() < 1e-10

    def test_rank_detection(self):
        rng = np.random.default_rng(15)
        b = rng.normal(size=(6, 2))
        a = rng.normal(size=(2, 6))
        assert tz.numeric_rank(b @ a) == 2
        assert tz.numeric_rank(np.zeros((3, 3))) == 0
        assert tz.numeric_rank(np.eye(5)) == 5


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        for shape in [(3, 4), (5,), (2, 3, 4), ()]:
            arr = rng.normal(size=shape)
            path = tmp_path / "t.bin"
            tz.save_tensor(path, arr)
            back = tz.load_tensor(path)
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.bin"
        tz.save_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        raw = path.read_bytes()
        assert len(raw) == 8 + 2 * 8 + 4 * 8
        assert int.from_bytes(raw[0:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 2
        assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        tz.save_tensor(path, np.arange(6.0).reshape(2, 3))
        raw = path.read_bytes()
        for bad in (raw[:-8], raw[:12], raw[:4], raw + b"\0" * 8):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="t.bin"):
                tz.load_tensor(path)

    def test_expected_shape_checked(self, tmp_path):
        path = tmp_path / "t.bin"
        tz.save_tensor(path, np.arange(6.0).reshape(2, 3))
        assert tz.load_tensor(path, shape=(2, 3)).shape == (2, 3)
        with pytest.raises(ValueError, match="t.bin"):
            tz.load_tensor(path, shape=(3, 2))

    def test_named_directory_round_trip(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
        manifest = {"tensors": ["b", "w"], "config": {"d": 3}}
        tz.save_named(tmp_path / "ckpt", arrays, manifest)
        # the manifest format every run directory already on disk uses
        assert (tmp_path / "ckpt" / "manifest.json").read_text() == json.dumps(manifest, indent=2, sort_keys=True)
        seen = []

        def shapes(m):
            seen.append(m)
            return {"w": (2, 3), "b": (3,)}

        back_manifest, back = tz.load_named(tmp_path / "ckpt", shapes)
        assert seen == [manifest] and back_manifest == manifest
        assert all(np.array_equal(back[name], arrays[name]) for name in arrays)
        with pytest.raises(ValueError, match="w.bin"):
            tz.load_named(tmp_path / "ckpt", lambda m: {"w": (3, 2)})
