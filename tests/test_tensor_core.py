"""Core Tensor mechanics: arithmetic, broadcasting, graph traversal."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.errors import GradientError
from repro.tensor import Tensor, as_tensor, is_grad_enabled, no_grad, unbroadcast
from repro.tensor.tensor import WEIGHT_GRAD_CHUNK_BYTES, weight_grad_chunk_rows

from helpers import assert_gradcheck, summed_weight_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).data.sum() == 0
        assert Tensor.ones(2, 3).data.sum() == 6

    def test_from_numpy_shares_data(self):
        a = np.ones(3)
        t = Tensor.from_numpy(a)
        a[0] = 5.0
        assert t.data[0] == 5.0

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3).detach()
        z = (y * y).sum()
        z.backward()
        assert x.grad is None

    def test_item(self):
        assert Tensor([[3.5]]).item() == 3.5


class TestArithmetic:
    def test_add_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x + y).sum().backward()
        np.testing.assert_allclose(x.grad, [1, 1])
        np.testing.assert_allclose(y.grad, [1, 1])

    def test_mul_backward(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = Tensor([5.0, 7.0], requires_grad=True)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, [5, 7])
        np.testing.assert_allclose(y.grad, [2, 3])

    def test_div_gradcheck(self, rng):
        a = rng.normal(size=(3, 4)) + 3.0
        assert_gradcheck(lambda x: (x / 2.5).sum() + (1.0 / x).sum(), a)

    def test_sub_and_neg(self):
        x = Tensor([4.0], requires_grad=True)
        ((-x) - x).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [-2.0])

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        y = 10.0 - x
        z = 10.0 / x
        np.testing.assert_allclose(y.data, [8.0])
        np.testing.assert_allclose(z.data, [5.0])

    def test_pow_gradcheck(self, rng):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        assert_gradcheck(lambda x: (x**3).sum(), a)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_comparison_returns_bool_array(self):
        x = Tensor([1.0, 5.0])
        assert (x > 3).dtype == bool
        assert list(x > 3) == [False, True]
        assert list(x <= 1.0) == [True, False]


class TestBroadcasting:
    def test_broadcast_add_backward(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3, 3, 3, 3])

    def test_broadcast_mul_keepdim_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, [[3], [3]])

    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4),
               elements=st.floats(-5, 5)),
    )
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, a):
        target_shape = a.shape
        expanded = np.broadcast_to(a, (2,) + target_shape)
        reduced = unbroadcast(expanded.copy(), target_shape)
        np.testing.assert_allclose(reduced, 2 * a)

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3.0 + 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))


class TestMatmul:
    def test_matmul_gradcheck_2d(self, rng):
        a = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        assert_gradcheck(lambda x: ((x @ w) ** 2).sum(), a)

    def test_matmul_gradcheck_right(self, rng):
        a = rng.normal(size=(3, 4))
        x0 = rng.normal(size=(4, 2))
        assert_gradcheck(lambda w: ((Tensor(a) @ w) ** 2).sum(), x0)

    def test_matmul_batched(self, rng):
        a = rng.normal(size=(2, 3, 4))
        assert_gradcheck(lambda x: ((x @ np.swapaxes(a, -1, -2)) ** 2).sum(), a)

    def test_matmul_vector_cases(self, rng):
        v = rng.normal(size=4)
        m = rng.normal(size=(4, 3))
        assert_gradcheck(lambda x: (x @ m).sum(), v)  # vec @ mat wrt vec
        assert_gradcheck(lambda x: (Tensor(m.T) @ x).sum(), v)  # mat @ vec wrt vec
        assert_gradcheck(lambda x: (Tensor(v) @ x).sum(), m)  # vec @ mat wrt mat
        assert_gradcheck(lambda x: (x.transpose(1, 0) @ Tensor(v)).sum(), m)

    def test_matmul_vec_vec(self, rng):
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        assert_gradcheck(lambda x: x @ Tensor(w), v)


def linear_grads(a: np.ndarray, w: np.ndarray, g: np.ndarray):
    x = Tensor(a, requires_grad=True)
    weight = Tensor(w, requires_grad=True)
    (x @ weight).backward(g)
    return x.grad, weight.grad


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


class TestChunkedWeightGrad:
    """A weight applied over leading batch axes gets its gradient in slices
    of at most ``WEIGHT_GRAD_CHUNK_BYTES`` of products (at least one row),
    bit-identical to the one-shot sum."""

    def test_chunk_is_bounded_in_bytes_not_rows(self):
        assert weight_grad_chunk_rows(32, 32, 8) == 64  # the ensemble's layers
        assert weight_grad_chunk_rows(32, 96, 8) == 21
        assert weight_grad_chunk_rows(32, 1060, 8) == 1  # the MLM head
        for k, n in [(32, 32), (32, 96), (64, 256), (32, 1060)]:
            rows = weight_grad_chunk_rows(k, n, 8)
            assert rows == 1 or rows * k * n * 8 <= WEIGHT_GRAD_CHUNK_BYTES

    # 32 wide: 64 rows a chunk, so one partial chunk, two whole, two and a
    # row. 96 wide: 21 rows a chunk, so three whole, six and two, six and
    # three.
    @pytest.mark.parametrize("rows", [63, 128, 129])
    @pytest.mark.parametrize("out_dim", [32, 96])
    def test_rows_around_a_chunk_multiple(self, rng, rows, out_dim):
        a = rng.normal(size=(rows, 4, 32))
        w = rng.normal(size=(32, out_dim))
        g = rng.normal(size=(rows, 4, out_dim))
        ga, gw = linear_grads(a, w, g)
        assert_same_bits(gw, summed_weight_grad(a, g))
        assert_same_bits(ga, g @ w.T)

    @pytest.mark.parametrize(
        "a_shape, out_dim",
        [
            ((2048, 4, 32), 32),
            ((2049, 4, 32), 96),
            ((64, 24, 64), 64),
            ((64, 24, 64), 256),
            ((16, 2, 24, 32), 32),
            ((3, 5, 7), 4),
            ((40, 5, 3, 6), 2),
            ((200, 3, 1), 1),  # a single weight keeps the one-shot sum
            ((1, 5, 32), 1060),  # one-row chunks: one, two and three of them
            ((2, 5, 32), 1060),
            ((3, 5, 32), 1060),
        ],
    )
    def test_3d_and_4d_activations(self, rng, a_shape, out_dim):
        a = rng.normal(size=a_shape)
        w = rng.normal(size=(a_shape[-1], out_dim))
        g = rng.normal(size=a_shape[:-1] + (out_dim,))
        _, gw = linear_grads(a, w, g)
        assert_same_bits(gw, summed_weight_grad(a, g))

    def test_backward_holds_a_slice_not_the_batch(self, rng):
        """(2048, 4, 32) @ (32, 32): the one-shot backward materialised
        2048·32·32 float64s (16 MB) before summing them."""
        a = rng.normal(size=(2048, 4, 32))
        x = Tensor(a, requires_grad=True)
        weight = Tensor(rng.normal(size=(32, 32)), requires_grad=True)
        out = x @ weight
        g = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beyond_outputs = peak - base - x.grad.nbytes - weight.grad.nbytes
        assert beyond_outputs < 2048 * 32 * 32 * 8 / 4, beyond_outputs

    def test_wide_weight_holds_bytes_not_rows(self, rng):
        """The MLM head, (32, 16, 32) @ (32, 1060): a 64-row chunk was a
        33 × 32 × 1060 float64 buffer (8.9 MB), more than the step's own
        activations. One row per chunk holds two 271 KB products."""
        x = Tensor(rng.normal(size=(32, 16, 32)), requires_grad=True)
        weight = Tensor(rng.normal(size=(32, 1060)), requires_grad=True)
        out = x @ weight
        g = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beyond_outputs = peak - base - x.grad.nbytes - weight.grad.nbytes
        assert beyond_outputs < 4 * 32 * 1060 * 8, beyond_outputs


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self, rng):
        a = rng.normal(size=(2, 3, 4))
        assert_gradcheck(lambda x: (x.sum(axis=1, keepdims=True) ** 2).sum(), a)
        assert_gradcheck(lambda x: (x.sum(axis=(0, 2)) ** 2).sum(), a)

    def test_mean_matches_numpy(self, rng):
        a = rng.normal(size=(3, 5))
        t = Tensor(a)
        np.testing.assert_allclose(t.mean(axis=0).data, a.mean(axis=0))
        np.testing.assert_allclose(t.mean().data, a.mean())

    def test_reshape_transpose_gradcheck(self, rng):
        a = rng.normal(size=(2, 6))
        assert_gradcheck(lambda x: (x.reshape(3, 4).transpose(1, 0) ** 2).sum(), a)

    def test_T_property(self, rng):
        a = rng.normal(size=(2, 3))
        np.testing.assert_allclose(Tensor(a).T.data, a.T)

    def test_getitem_gradcheck(self, rng):
        a = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])
        assert_gradcheck(lambda x: (x[idx] ** 2).sum(), a)

    def test_getitem_slice(self, rng):
        a = rng.normal(size=(4, 4))
        assert_gradcheck(lambda x: (x[1:3, :2] ** 2).sum(), a)


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_grad_shape_mismatch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2
        with pytest.raises(GradientError):
            y.backward(np.ones(4))

    def test_diamond_graph_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 4
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reused_node_deep_chain(self):
        x = Tensor([1.5], requires_grad=True)
        y = x
        for _ in range(20):
            y = y + x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [21.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])
        x.zero_grad()
        assert x.grad is None

    def test_backward_frees_the_graph_it_walked(self):
        """The graph keeps what backward reads, and only until backward()
        has read it. ``activation`` is read by no closure (``sum`` keeps its
        shape), so it dies as soon as the forward drops it; ``hidden`` is
        read by the product's closure, so it lives until ``backward()``
        walks that node, while the loss is still bound."""
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        hidden = Tensor(np.ones((5, 4))) @ w
        activation = hidden * hidden
        loss = activation.sum()
        read, unread = weakref.ref(hidden.data), weakref.ref(activation.data)
        del hidden, activation
        assert unread() is None
        assert read() is not None
        loss.backward()
        assert read() is None
        assert loss._node.parents == ()
        np.testing.assert_allclose(w.grad, np.full((4, 3), 40.0))

    def test_linear_pre_bias_output_dies_with_the_forward(self):
        """``x @ w + b``: the add's closure reads nothing, so the matmul's
        output is freed once the forward is done with it, long before
        ``backward()``; the input ``x`` that the matmul's closure reads
        stays until then."""
        x = Tensor(np.ones((5, 4)))
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        product = x @ w
        pre_bias = weakref.ref(product.data)
        out = product + b
        del product
        assert pre_bias() is None
        kept = weakref.ref(x.data)
        del x
        assert kept() is not None
        out.sum().backward()
        assert kept() is None
        np.testing.assert_allclose(w.grad, np.full((4, 3), 5.0))
        np.testing.assert_allclose(b.grad, np.full(3, 5.0))

    def test_second_backward_through_a_freed_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        shared = x * 2
        first, second = shared.sum(), (shared * shared).sum()
        first.backward()
        with pytest.raises(GradientError, match="already freed"):
            first.backward()
        # Also from another root, and through a new op on a freed node —
        # neither silently treats the freed subgraph as a constant.
        with pytest.raises(GradientError, match="already freed"):
            second.backward()
        with pytest.raises(GradientError, match="already freed"):
            (shared * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert y._node is None
        assert is_grad_enabled()

    def test_no_grad_nesting_restores(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_len(self):
        assert len(Tensor(np.zeros((7, 2)))) == 7
