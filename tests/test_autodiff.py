import numpy as np
import pytest

from recipegen.autodiff import (
    Tensor,
    attention,
    concat,
    gumbel_softmax,
    layer_norm,
    linear,
    log_softmax,
    no_grad,
    softmax,
    straight_through_onehot,
)
from recipegen.layers import (
    IncrementalPass,
    Linear,
    MemTransformer,
    MultiHeadAttention,
    causal_mask,
    sinusoidal_encoding,
)
from recipegen.optim import EPS, Adam, OptimizerConfig, warmup_lr

from gradcheck import grad_check


class FrozenUniform:
    """rng stub returning a constant; u = e^-1 makes the Gumbel noise 0."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class TestPrimitives:
    def test_scalar_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        err = grad_check(lambda: (x**2).sum(), [x], eps=1e-6)
        (x**2).sum().backward()
        assert err < 1e-6

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))

    def test_broadcast_add_gradients(self):
        x = Tensor(np.random.default_rng(1).standard_normal((4, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(2).standard_normal(3), requires_grad=True)
        err = grad_check(lambda: ((x + b) ** 2).sum(), [x, b], eps=1e-6)
        assert err < 1e-6

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def f():
            y = x.amax(axis=0) + x.mean(axis=0) + x.sum(axis=0)
            z = concat([x[:2], x[2:]], axis=0).reshape(2, 10)
            return (y**2).sum() + (z.transpose(1, 0) ** 2).sum()

        assert grad_check(f, [x], eps=1e-6) < 1e-6

    def test_getitem_accumulates_duplicates(self):
        w = Tensor(np.eye(3), requires_grad=True)
        out = w[np.array([0, 0, 2])].sum()
        out.backward()
        np.testing.assert_allclose(w.grad[0], [2, 2, 2])
        np.testing.assert_allclose(w.grad[1], [0, 0, 0])

    @pytest.mark.parametrize(
        "index", [2, np.int64(1), slice(1, 3), (slice(None), 1), (1, slice(0, 2))],
        ids=["int", "numpy-int", "slice", "column", "row-slice"],
    )
    def test_getitem_basic_index_grad_equals_add_at(self, index):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = w[index]
        g = rng.standard_normal(out.shape)
        out.backward(g)
        want = np.zeros_like(w.data)
        np.add.at(want, index, g)
        assert np.array_equal(w.grad, want)

    def test_softmax_log_softmax_consistency(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        np.testing.assert_allclose(
            np.log(softmax(x).data), log_softmax(x).data, atol=1e-12
        )
        assert grad_check(lambda: (softmax(x) * log_softmax(x)).sum(), [x], eps=1e-6) < 1e-6

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_concat_gradient(self, axis, count):
        rng = np.random.default_rng(8)
        shapes = [(k + 1, 3) if axis == 0 else (3, k + 1) for k in range(count)]
        parts = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
        weights = Tensor(rng.standard_normal(concat(parts, axis=axis).shape))
        err = grad_check(lambda: (concat(parts, axis=axis) ** 2 * weights).sum(), parts, eps=1e-6)
        assert err < 1e-6

    def test_concat_backward_ignores_later_appends_to_its_input_list(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        parts = [a, b]
        out = concat(parts, axis=0)
        late = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        parts.append(late)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        assert np.array_equal(a.grad, g[:2]) and np.array_equal(b.grad, g[2:])
        assert late.grad is None

    @pytest.mark.parametrize("requires_grad", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_op_results_are_arrays_of_the_input_dtype(self, dtype, requires_grad):
        x = Tensor(np.arange(1, 7, dtype=dtype).reshape(2, 3), requires_grad=requires_grad)
        v = Tensor(np.arange(1, 4, dtype=dtype), requires_grad=requires_grad)
        results = [
            x.sum(), v.sum(), x.mean(), v[0], x[1, 2], x[0], x.sum(axis=1), x * 2, x.exp(),
            x.amax(axis=1), softmax(x), log_softmax(x), concat([x, x]), x @ x.transpose(1, 0),
        ]
        for out in results:
            assert type(out.data) is np.ndarray and out.data.dtype == dtype
            assert out.requires_grad == requires_grad


def unfused_linear(x, weight, bias):
    y = x @ weight
    return y if bias is None else y + bias


def unfused_layer_norm(x, gain, shift, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered**2).mean(axis=-1, keepdims=True)
    return centered / ((var + eps) ** 0.5) * gain + shift


def unfused_attention(q, k, v, heads, mask):
    (nq, dim), nk = q.shape, k.shape[0]
    dh = dim // heads
    qh = q.reshape(nq, heads, dh).transpose(1, 0, 2)
    kh = k.reshape(nk, heads, dh).transpose(1, 0, 2)
    vh = v.reshape(nk, heads, dh).transpose(1, 0, 2)
    scores = (qh @ kh.transpose(0, 2, 1)) * (1.0 / float(np.sqrt(dh)))
    if mask is not None:
        scores = scores + Tensor(mask[None, :, :].astype(scores.data.dtype))
    return (softmax(scores, axis=-1) @ vh).transpose(1, 0, 2).reshape(nq, dim)


def key_mask(nq, nk, hidden):
    """Additive (nq, nk) mask hiding the keys in ``hidden`` from every query."""
    mask = np.zeros((nq, nk))
    mask[:, hidden] = -1e9
    return mask


# (name, fused op, unfused reference, input shapes, extra arguments)
FUSED_CASES = [
    ("linear", linear, unfused_linear, [(5, 4), (4, 3), (3,)], ()),
    ("linear_no_bias", linear, unfused_linear, [(5, 4), (4, 3)], (None,)),
    ("layer_norm", layer_norm, unfused_layer_norm, [(3, 6), (6,), (6,)], (1e-5,)),
    ("attention", attention, unfused_attention, [(3, 8), (5, 8), (5, 8)], (2, None)),
    ("attention_causal", attention, unfused_attention, [(4, 8)] * 3, (2, causal_mask(4))),
    (
        "attention_masked_keys",
        attention,
        unfused_attention,
        [(2, 6), (5, 6), (5, 6)],
        (3, key_mask(2, 5, [1, 4])),
    ),
]


def fused_inputs(shapes, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]


@pytest.mark.parametrize(
    "op, reference, shapes, extra",
    [case[1:] for case in FUSED_CASES],
    ids=[case[0] for case in FUSED_CASES],
)
class TestFusedOps:
    def test_gradients_match_finite_differences(self, op, reference, shapes, extra):
        inputs = fused_inputs(shapes, 0)
        out_shape = op(*inputs, *extra).shape
        weights = Tensor(np.random.default_rng(1).standard_normal(out_shape))
        assert grad_check(lambda: (op(*inputs, *extra) * weights).sum(), inputs) < 1e-6

    def test_matches_unfused_composition(self, op, reference, shapes, extra):
        fused_in, unfused_in = fused_inputs(shapes, 2), fused_inputs(shapes, 2)
        fused, unfused = op(*fused_in, *extra), reference(*unfused_in, *extra)
        np.testing.assert_array_equal(fused.data, unfused.data)
        weights = Tensor(np.random.default_rng(3).standard_normal(fused.shape))
        (fused * weights).sum().backward()
        (unfused * weights).sum().backward()
        for a, b in zip(fused_in, unfused_in):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-10)

    def test_one_graph_node(self, op, reference, shapes, extra):
        inputs = fused_inputs(shapes, 4)
        out = op(*inputs, *extra)
        assert out._parents == tuple(inputs)
        with no_grad():
            assert not op(*inputs, *extra).requires_grad


class TestFusedOpEdges:
    def test_masked_keys_receive_zero_gradient(self):
        q, k, v = fused_inputs([(3, 8), (6, 8), (6, 8)], 5)
        weights = Tensor(np.random.default_rng(6).standard_normal((3, 8)))
        (attention(q, k, v, 2, key_mask(3, 6, [0, 4])) * weights).sum().backward()
        for grad in (k.grad, v.grad):
            assert np.all(grad[[0, 4]] == 0.0)
            assert np.all(np.abs(grad[[1, 2, 3, 5]]).sum(axis=1) > 0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_linear_rejects_non_matrix_input(self, shape):
        x = Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match="2-d"):
            linear(x, Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))


class TestBackward:
    def test_diamond_accumulates_every_path(self):
        x = Tensor(np.array([0.3, -1.2]), requires_grad=True)
        h = x.exp()
        (h * h + h).sum().backward()
        np.testing.assert_allclose(x.grad, (2 * np.exp(x.data) + 1) * np.exp(x.data))

    def test_long_chain_needs_no_recursion(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0001**5000])


def exact_rows(rng, shape, dtype):
    """Small integers, whose products and sums are exact in float32 too."""
    return rng.integers(-3, 4, size=shape).astype(dtype)


class TestLeanBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_leaf_weight_sums_every_use(self, dtype, with_bias):
        rng = np.random.default_rng(0)
        weight = Tensor(exact_rows(rng, (5, 4), dtype), requires_grad=True)
        bias = Tensor(exact_rows(rng, 4, dtype), requires_grad=True) if with_bias else None
        xs = [Tensor(exact_rows(rng, (n, 5), dtype), requires_grad=True) for n in (1, 3, 12)]
        gs = [exact_rows(rng, (n, 4), dtype) for n in (1, 3, 12)]
        terms = [(linear(x, weight, bias) * Tensor(g)).sum() for x, g in zip(xs, gs)]
        (terms[0] + terms[1] + terms[2]).backward()
        want = sum(x.data.astype(np.float64).T @ g for x, g in zip(xs, gs))
        assert weight.grad.dtype == dtype
        np.testing.assert_allclose(weight.grad, want, rtol=0, atol=1e-12)
        if with_bias:
            assert bias.grad.dtype == dtype
            want_bias = sum(g.astype(np.float64).sum(axis=0) for g in gs)
            np.testing.assert_allclose(bias.grad, want_bias, rtol=0, atol=1e-12)
        for x, g in zip(xs, gs):
            np.testing.assert_allclose(x.grad, g @ weight.data.T, rtol=0, atol=1e-12)

    def test_computed_weight_and_bias_get_true_gradients(self):
        rng = np.random.default_rng(1)
        raw_w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        raw_b = Tensor(rng.standard_normal(3), requires_grad=True)
        xs = [Tensor(rng.standard_normal((n, 4)), requires_grad=True) for n in (1, 5)]

        def f():
            weight, bias = raw_w.tanh(), raw_b * 2.0
            return sum((linear(x, weight, bias) ** 2).sum() for x in xs)

        assert grad_check(f, [raw_w, raw_b] + xs, eps=1e-6) < 1e-6

    def test_interior_nodes_released_and_leaves_keep_grads(self):
        rng = np.random.default_rng(2)
        lin = Linear(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        hidden = linear(x, lin.weight, lin.bias).tanh()
        loss = (hidden * hidden).sum()
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node._parents == ()
        for leaf in (x, lin.weight, lin.bias):
            assert leaf.grad is not None and np.abs(leaf.grad).max() > 0

    def test_backward_per_graph_accumulates_like_one_backward(self):
        rng = np.random.default_rng(3)
        lin = Linear(3, 2, rng)
        xs = [rng.standard_normal((n, 3)) for n in (1, 4)]

        def loss(x):
            return (linear(Tensor(x), lin.weight, lin.bias).tanh() ** 2).sum() * 0.5

        for x in xs:
            loss(x).backward()
        separate = lin.weight.grad, lin.bias.grad
        lin.weight.grad = lin.bias.grad = None
        (loss(xs[0]) + loss(xs[1])).backward()
        np.testing.assert_allclose(separate[0], lin.weight.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(separate[1], lin.bias.grad, rtol=0, atol=1e-12)

    def test_backward_through_released_graph_raises(self):
        rng = np.random.default_rng(4)
        lin = Linear(3, 2, rng)
        hidden = lin(Tensor(rng.standard_normal((2, 3))))
        loss = hidden.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            (hidden * 2.0).sum().backward()


class TestLinear:
    def test_identity_weight_zero_bias(self):
        rng = np.random.default_rng(0)
        lin = Linear(3, 3, rng)
        lin.weight.data = np.eye(3)
        lin.bias.data = np.zeros(3)
        x = np.random.default_rng(1).standard_normal((4, 3))
        np.testing.assert_allclose(lin(Tensor(x)).data, x)

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(0)
        lin = Linear(3, 2, rng)
        lin.weight.data = np.zeros((3, 2))
        lin.bias.data = np.array([1.5, -2.0])
        out = lin(Tensor(np.ones((5, 3))))
        np.testing.assert_allclose(out.data, np.tile([1.5, -2.0], (5, 1)))

    def test_random_case_matches_hand_product(self):
        rng = np.random.default_rng(5)
        lin = Linear(4, 3, rng)
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            lin(Tensor(x)).data, x @ lin.weight.data + lin.bias.data
        )

    def test_dimension_mismatch(self):
        lin = Linear(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lin(Tensor(np.zeros((2, 5))))


class TestMultiHeadAttention:
    def test_indivisible_heads_error(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, np.random.default_rng(0))

    def test_single_key_value_ignores_query(self):
        rng = np.random.default_rng(1)
        mha = MultiHeadAttention(8, 2, rng)
        kv = Tensor(rng.standard_normal((1, 8)))
        out1 = mha(Tensor(rng.standard_normal((3, 8))), kv)
        out2 = mha(Tensor(rng.standard_normal((3, 8))), kv)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)
        # and equals the projected value pathway
        v = mha.proj_v(kv)
        want = mha.proj_out(concat([v] * 3, axis=0).reshape(3, 8))
        np.testing.assert_allclose(out1.data, want.data, atol=1e-12)

    def test_full_mask_except_one_position(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadAttention(8, 2, rng)
        q = Tensor(rng.standard_normal((1, 8)))
        kv = Tensor(rng.standard_normal((5, 8)))
        mask = np.full((1, 5), -1e9)
        mask[0, 3] = 0.0
        out = mha(q, kv, mask)
        only = mha(q, kv[3].reshape(1, 8))
        np.testing.assert_allclose(out.data, only.data, atol=1e-10)

    def test_small_case_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        mha = MultiHeadAttention(4, 1, rng)
        q_in = rng.standard_normal((2, 4))
        kv_in = rng.standard_normal((3, 4))
        out = mha(Tensor(q_in), Tensor(kv_in))
        # direct dense computation
        q = q_in @ mha.proj_q.weight.data + mha.proj_q.bias.data
        k = kv_in @ mha.proj_k.weight.data
        v = kv_in @ mha.proj_v.weight.data + mha.proj_v.bias.data
        scores = q @ k.T / 2.0
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        want = (attn @ v) @ mha.proj_out.weight.data + mha.proj_out.bias.data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_attention_rows_sum_to_one_with_mask(self):
        rng = np.random.default_rng(4)
        scores = Tensor(rng.standard_normal((3, 6)))
        mask = np.zeros((3, 6))
        mask[:, 4:] = -1e9
        attn = softmax(scores + Tensor(mask), axis=-1)
        np.testing.assert_allclose(attn.data.sum(axis=-1), np.ones(3))
        assert np.all(attn.data[:, 4:] == 0.0)


class TestMemTransformer:
    def test_deterministic_given_inputs(self):
        rng = np.random.default_rng(5)
        tf = MemTransformer(2, 8, 2, rng)
        x = Tensor(rng.standard_normal((4, 8)))
        mems = tf.initial_memory()
        out1, new1 = tf(x, mems, causal_mask(4))
        out2, new2 = tf(x, tf.initial_memory(), causal_mask(4))
        np.testing.assert_array_equal(out1.data, out2.data)
        for a, b in zip(new1, new2):
            np.testing.assert_array_equal(a.data, b.data)

    def test_gradients_flow_through_memory_recurrence(self):
        rng = np.random.default_rng(6)
        tf = MemTransformer(1, 8, 2, rng)
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)

        def f():
            out, mems = tf(x, tf.initial_memory(), None)
            out2, _ = tf(Tensor(out.data) * 0 + out, mems, None)
            return (out2**2).sum()

        params = {"x": x}
        params.update(tf.parameters())
        assert grad_check(f, params, eps=1e-6, max_coords_per_param=8) < 1e-5


def pass_state(run: IncrementalPass):
    """A pass's contexts, per-layer outputs and updated memories, as arrays."""
    return (
        [c.data for c in run.contexts],
        [[o.data for o in rows] for rows in run.outputs],
        [m.data for m in run.update_memories()],
    )


def assert_same_state(a, b, equal=True):
    (ctx_a, out_a, mem_a), (ctx_b, out_b, mem_b) = a, b
    pairs = list(zip(ctx_a, ctx_b, strict=True)) + list(zip(mem_a, mem_b, strict=True))
    for rows_a, rows_b in zip(out_a, out_b, strict=True):
        pairs += list(zip(rows_a, rows_b, strict=True))
    for x, y in pairs:
        if equal:
            np.testing.assert_array_equal(x, y)
        else:
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)


class TestIncrementalPass:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.tf = MemTransformer(2, 8, 2, rng)
        self.x = Tensor(rng.standard_normal((7, 8)))

    def run(self, *sizes):
        """A pass pushing the next ``n`` rows of ``x`` for each n in ``sizes``."""
        run, start = IncrementalPass(self.tf, self.tf.initial_memory()), 0
        for n in sizes:
            run.push(self.x[start : start + n], causal_mask(n))
            start += n
        return run

    @pytest.mark.parametrize("rows", [1, 3])
    def test_dropping_a_whole_push_equals_never_pushing_it(self, rows):
        run = self.run(3, 1, rows)
        run.drop(rows)
        assert_same_state(pass_state(run), pass_state(self.run(3, 1)))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_dropping_part_of_a_push_keeps_its_leading_rows(self, rows):
        """The kept rows are exactly the pushed ones; a pass that never pushed
        the dropped rows computes them in a smaller product, equal to 1e-12."""
        run = self.run(3, 4)
        contexts = [c.data for c in run.contexts]
        outputs = [[o.data for o in layer] for layer in run.outputs]
        run.drop(rows)
        got = pass_state(run)
        kept = [layer[:-1] + [layer[-1][:-rows]] for layer in outputs]
        memories = [
            layer.mem_update(memory, Tensor(np.concatenate(rows_kept)))
            for layer, memory, rows_kept in zip(self.tf.layers, run.memories, kept)
        ]
        want = ([c[:-rows] for c in contexts], kept, [m.data for m in memories])
        assert_same_state(got, want)
        assert_same_state(got, pass_state(self.run(3, 4 - rows)), equal=False)

    def test_dropping_nothing_changes_nothing(self):
        run = self.run(3, 2)
        run.drop(0)
        assert_same_state(pass_state(run), pass_state(self.run(3, 2)))

    def test_dropping_more_than_the_last_push_raises(self):
        run = self.run(3, 2)
        with pytest.raises(ValueError, match="last push holds 2"):
            run.drop(3)
        run.drop(1)
        with pytest.raises(ValueError, match="last push holds 1"):
            run.drop(2)
        with pytest.raises(ValueError):
            run.drop(-1)


class TestGumbelSoftmax:
    def test_zero_noise_equals_tempered_softmax(self):
        logits = Tensor(np.array([2.0, -1.0, 0.5]))
        out = gumbel_softmax(logits, 2.0, rng=FrozenUniform(np.exp(-1.0)))
        want = softmax(Tensor(np.array([2.0, -1.0, 0.5]) / 2.0)).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_tau_to_zero_approaches_onehot(self):
        rng_noise = np.random.default_rng(7)
        logits = np.array([0.3, 1.2, -0.4, 0.0])
        g = -np.log(-np.log(rng_noise.random(4)))
        target = np.argmax(logits + g)

        class Replay:
            def random(self, shape):
                return np.exp(-np.exp(-g))

        out = gumbel_softmax(Tensor(logits), 1e-4, rng=Replay())
        onehot = np.zeros(4)
        onehot[target] = 1.0
        np.testing.assert_allclose(out.data, onehot, atol=1e-9)

    def test_non_positive_tau_errors(self):
        with pytest.raises(ValueError):
            gumbel_softmax(Tensor(np.ones(3)), 0.0, rng=np.random.default_rng(0))

    def test_soft_sums_to_one(self):
        rng = np.random.default_rng(9)
        out = gumbel_softmax(Tensor(rng.standard_normal(5)), 0.7, rng=rng)
        assert out.data.sum() == pytest.approx(1.0)

    def test_straight_through_gradient_equals_soft_gradient(self):
        # the hard output's Jacobian w.r.t. the logits is defined to equal the
        # soft sample's Jacobian, whichever row it forwards, so for a loss
        # linear in the selection the scalar gradients coincide exactly
        # (frozen noise)
        rng_logits = np.random.default_rng(10)
        logits_data = rng_logits.standard_normal(4)
        w = Tensor(rng_logits.standard_normal(4))

        def grad_of(hard):
            logits = Tensor(logits_data.copy(), requires_grad=True)
            y = gumbel_softmax(logits, 1.0, rng=np.random.default_rng(99))
            sel = straight_through_onehot(y, index=2) if hard else y
            (sel * w).sum().backward()
            return logits.grad

        np.testing.assert_allclose(grad_of(True), grad_of(False), atol=1e-12)

    def test_soft_path_gradient_is_true_derivative(self):
        # grad_check on the composed loss with frozen noise validates the soft
        # relaxation's analytic gradient against finite differences
        rng = np.random.default_rng(12)
        logits = Tensor(rng.standard_normal(4), requires_grad=True)
        w = Tensor(rng.standard_normal(4))

        def f():
            y = gumbel_softmax(logits, 1.0, rng=np.random.default_rng(99))
            return (y * w).sum()

        assert grad_check(f, [logits], eps=1e-6) < 1e-6

    def test_forced_index_forwards_that_row(self):
        y = softmax(Tensor(np.array([0.1, 3.0, 0.2]), requires_grad=True))
        hard = straight_through_onehot(y, index=2)
        np.testing.assert_array_equal(hard.data, [0, 0, 1])


class TestAdam:
    def test_zero_grad_zero_decay_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p}, OptimizerConfig(lr=0.1, weight_decay=0.0, warmup_epochs=0))
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step(epoch=10)
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_hand_computation(self):
        cfg = OptimizerConfig(lr=0.01, weight_decay=0.0, warmup_epochs=0)
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        g = np.array([0.3, -0.7])
        p.grad = g.copy()
        opt = Adam({"p": p}, cfg)
        opt.step(epoch=0)
        want = np.array([1.0, 1.0]) - cfg.lr * g / (np.abs(g) + EPS)
        np.testing.assert_allclose(p.data, want, atol=1e-12)

    def test_decoupled_weight_decay(self):
        cfg = OptimizerConfig(lr=0.1, weight_decay=0.5, warmup_epochs=0)
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        Adam({"p": p}, cfg).step(epoch=0)
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_warmup_schedule(self):
        cfg = OptimizerConfig(lr=0.005, warmup_epochs=5)
        assert warmup_lr(cfg, 0) == pytest.approx(0.001)
        assert warmup_lr(cfg, 4) == pytest.approx(0.005)
        assert warmup_lr(cfg, 30) == pytest.approx(0.005)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(lr=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)


class TestGradCheck:
    def test_linear_layer_loss(self):
        rng = np.random.default_rng(11)
        lin = Linear(4, 3, rng)
        x = Tensor(rng.standard_normal((5, 4)))
        err = grad_check(lambda: (lin(x) ** 2).sum(), lin.parameters(), eps=1e-6)
        assert err < 1e-7

    def test_positional_encoding_shape(self):
        pe = sinusoidal_encoding(10, 8)
        assert pe.shape == (10, 8)
        assert np.all(np.abs(pe) <= 1.0)
        # distinct positions get distinct encodings
        assert not np.allclose(pe[0], pe[1])
