"""Functional ops: gradchecks against finite differences, reference values."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp as scipy_lse
from scipy.special import softmax as scipy_softmax

from repro.tensor import (
    Tensor,
    abs_,
    clip,
    concat,
    dropout,
    exp,
    gather_rows,
    gelu,
    leaky_relu,
    log,
    log_softmax,
    logsumexp,
    max_,
    maximum,
    relu,
    scatter_mean,
    scatter_sum,
    segment_softmax,
    sigmoid,
    softmax,
    sqrt,
    stack,
    tanh,
    where_const,
)
from repro.tensor.ops import scatter_add_rows

from helpers import assert_gradcheck


class TestElementwise:
    @pytest.mark.parametrize(
        "op",
        [exp, sigmoid, tanh, relu, gelu, leaky_relu],
        ids=["exp", "sigmoid", "tanh", "relu", "gelu", "leaky_relu"],
    )
    def test_gradcheck(self, op, rng):
        a = rng.normal(size=(3, 4)) + 0.05  # avoid relu kink at 0
        assert_gradcheck(lambda x: (op(x) ** 2).sum(), a)

    def test_log_sqrt_gradcheck(self, rng):
        a = np.abs(rng.normal(size=(3, 3))) + 0.5
        assert_gradcheck(lambda x: log(x).sum(), a)
        assert_gradcheck(lambda x: sqrt(x).sum(), a)

    def test_sigmoid_extreme_values_stable(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_abs_gradcheck(self, rng):
        a = rng.normal(size=(6,)) + 0.2
        assert_gradcheck(lambda x: abs_(x).sum(), a)

    def test_clip_forward_and_grad_mask(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        clip(x, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_maximum_gradcheck(self, rng):
        a = rng.normal(size=(5,))
        b = rng.normal(size=(5,))
        assert_gradcheck(lambda x: maximum(x, Tensor(b)).sum(), a)

    def test_where_const(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        cond = np.array([True, False, True])
        out = where_const(cond, x, -9.0)
        np.testing.assert_allclose(out.data, [1.0, -9.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0])

    def test_gelu_where_is_gelu_on_the_selected_rows_and_zero_elsewhere(self):
        rng = np.random.default_rng(24)
        a = rng.normal(scale=2.0, size=(4, 16, 37))  # (batch, seq, ffn)
        where = rng.random((4, 16)) < 0.59  # the MLM's share of real tokens
        upstream = rng.normal(size=a.shape)

        def run(**kwargs):
            x = Tensor(a, requires_grad=True)
            out = gelu(x, **kwargs)
            out.backward(upstream)
            return out.data, x.grad

        plain_out, plain_grad = run()
        out, grad = run(where=where)
        for got, want in ((out, plain_out), (grad, plain_grad)):
            assert got.shape == a.shape
            assert got[where].tobytes() == want[where].tobytes()
            assert got[~where].tobytes() == np.zeros_like(a)[~where].tobytes()
        # ``where=None`` is the formula it always was, to the bit.
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (a + 0.044715 * a**3))
        assert plain_out.tobytes() == (0.5 * a * (1.0 + t)).tobytes()
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * a * a)
        assert plain_grad.tobytes() == (upstream * (0.5 * (1.0 + t) + 0.5 * a * dt)).tobytes()
        none_out, none_grad = run(where=None)
        assert none_out.tobytes() == plain_out.tobytes()
        assert none_grad.tobytes() == plain_grad.tobytes()

    def test_gelu_where_gradcheck(self, rng):
        a = rng.normal(size=(3, 4))
        where = np.array([True, False, True])
        assert_gradcheck(lambda x: (gelu(x, where=where) ** 2).sum(), a)


class TestNormalisations:
    def test_softmax_matches_scipy(self, rng):
        a = rng.normal(size=(4, 6))
        np.testing.assert_allclose(softmax(Tensor(a), axis=1).data, scipy_softmax(a, axis=1))

    def test_softmax_rows_sum_to_one(self, rng):
        a = rng.normal(size=(5, 7)) * 10
        np.testing.assert_allclose(softmax(Tensor(a)).data.sum(axis=-1), np.ones(5))

    def test_softmax_gradcheck(self, rng):
        a = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        assert_gradcheck(lambda x: (softmax(x, axis=-1) * w).sum(), a)

    def test_log_softmax_matches_scipy(self, rng):
        a = rng.normal(size=(3, 5))
        expected = a - scipy_lse(a, axis=-1, keepdims=True)
        np.testing.assert_allclose(log_softmax(Tensor(a)).data, expected)

    def test_log_softmax_gradcheck(self, rng):
        a = rng.normal(size=(2, 5))
        w = rng.normal(size=(2, 5))
        assert_gradcheck(lambda x: (log_softmax(x) * w).sum(), a)

    @given(arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
    @settings(max_examples=30, deadline=None)
    def test_logsumexp_matches_scipy(self, a):
        np.testing.assert_allclose(
            logsumexp(Tensor(a), axis=1).data, scipy_lse(a, axis=1), atol=1e-10
        )

    def test_logsumexp_gradcheck(self, rng):
        a = rng.normal(size=(3, 4))
        assert_gradcheck(lambda x: logsumexp(x, axis=0).sum(), a)

    def test_max_gradcheck_no_ties(self, rng):
        a = rng.permutation(20).astype(np.float64).reshape(4, 5)
        assert_gradcheck(lambda x: max_(x, axis=1).sum(), a)

    def test_max_splits_tied_gradient(self):
        x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        max_(x, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])


class TestShapeOps:
    def test_concat_gradcheck(self, rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 4))
        assert_gradcheck(lambda x: (concat([x, Tensor(b)], axis=1) ** 2).sum(), a)

    def test_stack_gradcheck(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        assert_gradcheck(lambda x: (stack([x, Tensor(b)], axis=0) ** 2).sum(), a)

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_scales_kept_values(self, rng):
        x = Tensor(np.ones((2000,)))
        out = dropout(x, 0.25, rng, training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05


class TestScatterAddRows:
    """The kernel against its oracle, the N-d ``np.add.at`` it replaced:
    equal bits (``np.array_equal``), because the additions reach every
    element in the same order."""

    @pytest.mark.parametrize("shape", [(7,), (7, 5), (7, 3, 4)])
    def test_bit_identical_with_heavy_duplicates(self, rng, shape):
        index = rng.integers(0, shape[0], size=2500)  # ~350 hits per row
        index[::9] -= shape[0]  # negative row ids address from the end
        # Magnitudes spread over 16 decades, so every sum is order-sensitive.
        scale = 10.0 ** rng.integers(-8, 8, size=(len(index),) + (1,) * (len(shape) - 1))
        values = rng.normal(size=(len(index),) + shape[1:]) * scale
        start = rng.normal(size=shape)
        expected, got = start.copy(), start.copy()
        np.add.at(expected, index, values)
        scatter_add_rows(got, index, values)
        assert np.array_equal(got, expected)
        # The sums depend on the order: the check above is not vacuous.
        shuffled = start.copy()
        order = rng.permutation(len(index))
        np.add.at(shuffled, index[order], values[order])
        assert not np.array_equal(shuffled, expected)

    @pytest.mark.parametrize(
        "values", [1.0, np.arange(4.0), np.arange(6.0)[:, None]], ids=["scalar", "row", "column"]
    )
    def test_broadcast_values(self, values):
        index = np.array([2, 0, 2, 2, 1, 0])
        expected, got = np.zeros((3, 4)), np.zeros((3, 4))
        np.add.at(expected, index, values)
        scatter_add_rows(got, index, values)
        assert np.array_equal(got, expected)

    def test_empty_index_leaves_target_alone(self, rng):
        target = rng.normal(size=(4, 3))
        before = target.copy()
        scatter_add_rows(target, np.empty(0, dtype=np.int64), np.empty((0, 3)))
        assert np.array_equal(target, before)

    def test_other_dtypes_match_the_oracle(self, rng):
        index = rng.integers(0, 5, size=300)
        values = rng.normal(size=(300, 2))  # float64 into a float32 target
        expected, got = np.zeros((5, 2), dtype=np.float32), np.zeros((5, 2), dtype=np.float32)
        np.add.at(expected, index, values)
        scatter_add_rows(got, index, values)
        assert np.array_equal(got, expected)

    def test_non_contiguous_target_is_refused(self):
        # ``reshape(-1)`` of a non-contiguous array is a copy: the adds
        # would be lost, so the kernel must refuse instead.
        for target in (np.zeros((4, 6))[:, ::2], np.zeros((3, 4)).T):
            with pytest.raises(ValueError):
                scatter_add_rows(target, np.array([0, 1]), 1.0)
            assert not target.any()

    def test_bad_index_is_refused(self):
        target = np.zeros((3, 2))
        for index in (np.array([3]), np.array([-4]), np.array([[0, 1]]), np.array([0.0])):
            with pytest.raises(IndexError):
                scatter_add_rows(target, index, 1.0)
        assert not target.any()

    def test_gather_rows_backward_on_transposed_input(self, rng):
        a = rng.normal(size=(3, 5))
        idx = np.array([4, 4, 0, 2, 4])
        x = Tensor(a.T, requires_grad=True)  # an F-ordered (5, 3) view
        gather_rows(x, idx).sum().backward()
        expected = np.bincount(idx, minlength=5)[:, None] * np.ones((5, 3))
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_backward_by_index_array(self, rng):
        a = rng.normal(size=(6, 3))
        idx = np.array([5, 1, 1, -1, 1])
        g = rng.normal(size=(5, 3))
        x = Tensor(a, requires_grad=True)
        (x[idx] * Tensor(g)).sum().backward()
        expected = np.zeros_like(a)
        np.add.at(expected, idx, g)
        assert np.array_equal(x.grad, expected)


def test_one_scatter_add_kernel():
    """Guard: under ``src/repro`` an unbuffered ``np.<ufunc>.at`` may be
    called only inside ``scatter_add_rows``, for ``segment_softmax``'s max,
    for the indices of ``Tensor.__getitem__`` that are not a row array
    (slices, masks, tuples) and on the request path's one allow-listed line
    -- so numpy's slow N-d scatter-add cannot come back into training
    unnoticed."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"
                and ast.unparse(node.func.value).startswith("np.")
            ):
                found.append((path.relative_to(src).as_posix(), ast.unparse(node)))
    assert sorted(found) == [
        ("preference/store.py", "np.add.at(combine[:, i], cols, w)"),
        ("tensor/ops.py", "np.add.at(target.reshape(-1), flat, values.reshape(-1))"),
        ("tensor/ops.py", "np.maximum.at(seg_max, segment_ids, a)"),
        ("tensor/tensor.py", "np.add.at(grad, index, g)"),
    ]


class TestGatherScatter:
    def test_gather_rows_forward(self, rng):
        a = rng.normal(size=(5, 3))
        idx = np.array([4, 0, 4])
        np.testing.assert_allclose(gather_rows(Tensor(a), idx).data, a[idx])

    def test_gather_rows_gradcheck(self, rng):
        a = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 1])
        assert_gradcheck(lambda x: (gather_rows(x, idx) ** 2).sum(), a)

    def test_scatter_sum_inverse_of_gather(self, rng):
        a = rng.normal(size=(4, 2))
        idx = np.array([1, 1, 3, 0])
        out = scatter_sum(Tensor(a), idx, 5)
        expected = np.zeros((5, 2))
        np.add.at(expected, idx, a)
        np.testing.assert_allclose(out.data, expected)

    def test_scatter_sum_gradcheck(self, rng):
        a = rng.normal(size=(6, 2))
        idx = np.array([0, 0, 1, 2, 2, 2])
        assert_gradcheck(lambda x: (scatter_sum(x, idx, 3) ** 2).sum(), a)

    def test_scatter_mean_empty_bucket_zero(self, rng):
        a = rng.normal(size=(3, 2))
        out = scatter_mean(Tensor(a), np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out.data[1], [0.0, 0.0])
        np.testing.assert_allclose(out.data[3], [0.0, 0.0])
        np.testing.assert_allclose(out.data[0], a[:2].mean(axis=0))

    def test_segment_softmax_normalises_per_segment(self, rng):
        logits = Tensor(rng.normal(size=8))
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        out = segment_softmax(logits, seg, 3).data
        for s in range(3):
            assert abs(out[seg == s].sum() - 1.0) < 1e-12

    def test_segment_softmax_2d_heads(self, rng):
        logits = Tensor(rng.normal(size=(6, 2)))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(logits, seg, 3).data
        for s in range(3):
            np.testing.assert_allclose(out[seg == s].sum(axis=0), [1.0, 1.0])

    def test_segment_softmax_gradcheck(self, rng):
        a = rng.normal(size=(7,))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        w = rng.normal(size=7)
        assert_gradcheck(lambda x: (segment_softmax(x, seg, 3) * w).sum(), a)

    def test_segment_softmax_empty_segment_ok(self, rng):
        out = segment_softmax(Tensor(rng.normal(size=3)), np.array([0, 0, 2]), 4)
        assert np.isfinite(out.data).all()

    @given(st.integers(2, 6), st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_scatter_then_gather_roundtrip_counts(self, buckets, n):
        rng = np.random.default_rng(buckets * 100 + n)
        idx = rng.integers(0, buckets, size=n)
        ones = Tensor(np.ones((n, 1)))
        counts = scatter_sum(ones, idx, buckets).data[:, 0]
        np.testing.assert_allclose(counts, np.bincount(idx, minlength=buckets))
