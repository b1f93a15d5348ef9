"""Gradient correctness tests for the autograd framework.

Every op is checked against central finite differences, including via
hypothesis-generated shapes/values for the core arithmetic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (Scatter, Tensor, as_tensor, concat, segment_sum,
                      stack)

from tests.nn_oracle import gather_rows


def numgrad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar-valued f at x."""
    g = np.zeros_like(x, dtype=float)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check_grad(op, x0, rtol=1e-5, atol=1e-7):
    """Compare autograd against finite differences for y = sum(op(x))."""
    x = Tensor(x0, requires_grad=True)
    op(x).sum().backward()
    expected = numgrad(lambda v: op(Tensor(v)).sum().item(), x0)
    np.testing.assert_allclose(x.grad, expected, rtol=rtol, atol=atol)


ARRS = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).map(lambda m: (n, m))
)


class TestElementwiseGrads:
    @pytest.mark.parametrize("op", [
        lambda t: t * 3.0 + 1.0,
        lambda t: t * t,
        lambda t: t / 2.5,
        lambda t: 1.0 / (t + 3.0),
        lambda t: -t,
        lambda t: t ** 3,
        lambda t: t.exp(),
        lambda t: (t + 3.0).log(),
        lambda t: (t + 3.0).sqrt(),
        lambda t: t.sigmoid(),
        lambda t: t.softplus(),
    ])
    def test_op_gradient(self, op):
        rng = np.random.default_rng(0)
        check_grad(op, rng.uniform(-1.5, 1.5, size=(3, 4)))

    def test_broadcasting_add(self):
        a0 = np.random.default_rng(1).normal(size=(3, 4))
        b0 = np.random.default_rng(2).normal(size=(4,))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcasting_mul_grad(self):
        rng = np.random.default_rng(3)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.broadcast_to(b0, (3, 4)))
        np.testing.assert_allclose(b.grad, a0.sum(axis=0, keepdims=True))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=8))
    def test_chained_ops_property(self, values):
        x0 = np.array(values)
        check_grad(lambda t: (t * t + t.sigmoid()).softplus(), x0, rtol=1e-4)


class TestSaturatingOps:
    """``sigmoid`` and ``softplus`` saturate quietly and keep their bits."""

    @pytest.mark.parametrize("name, value, grad", [
        ("sigmoid", [0.0, 0.5, 1.0], [0.0, 0.25, 0.0]),
        ("softplus", [0.0, np.log(2.0), 800.0], [0.0, 0.5, 1.0]),
    ], ids=["sigmoid", "softplus"])
    def test_extreme_inputs_raise_no_warning(self, name, value, grad):
        x = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = getattr(x, name)()
            out.sum().backward()
        np.testing.assert_array_equal(out.data, value)
        np.testing.assert_array_equal(x.grad, grad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_the_plain_expression(self, dtype):
        rng = np.random.default_rng(11)
        x0 = (rng.standard_normal((64, 8)) * 30.0).astype(dtype)
        upstream = rng.standard_normal((64, 8)).astype(dtype)
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x0))
        softplus = np.maximum(x0, 0.0) + np.log1p(np.exp(-np.abs(x0)))
        # ``+ 0.0``: gradient accumulation turns -0.0 into 0.0.
        for name, value, grad in (
                ("sigmoid", sig, upstream * sig * (1.0 - sig) + 0.0),
                ("softplus", softplus, upstream * sig + 0.0)):
            x = Tensor(x0, requires_grad=True)
            out = getattr(x, name)()
            (out * Tensor(upstream)).sum().backward()
            assert out.data.tobytes() == value.tobytes(), name
            assert x.grad.tobytes() == grad.tobytes(), name


class TestMatmulGrads:
    def test_2d_2d(self):
        rng = np.random.default_rng(4)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, numgrad(
            lambda v: (Tensor(v) @ Tensor(b0)).sum().item(), a0), rtol=1e-5)
        np.testing.assert_allclose(b.grad, numgrad(
            lambda v: (Tensor(a0) @ Tensor(v)).sum().item(), b0), rtol=1e-5)

    def test_1d_2d(self):
        rng = np.random.default_rng(5)
        a0, b0 = rng.normal(size=4), rng.normal(size=(4, 3))
        a = Tensor(a0, requires_grad=True)
        (a @ Tensor(b0)).sum().backward()
        np.testing.assert_allclose(a.grad, b0.sum(axis=1))

    def test_2d_1d(self):
        rng = np.random.default_rng(6)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=4)
        b = Tensor(b0, requires_grad=True)
        (Tensor(a0) @ b).sum().backward()
        np.testing.assert_allclose(b.grad, a0.sum(axis=0))

    def test_1d_1d(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a @ Tensor(np.array([3.0, 4.0]))).backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2))) @ Tensor(np.zeros((2, 2)))


class TestAffine:
    """The fused ``x @ W + b`` op must be bit-identical to the chain."""

    def test_matches_chain_bitwise_2d(self):
        rng = np.random.default_rng(7)
        x0, w0, b0 = (rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
                      rng.normal(size=3))
        fused = Tensor(x0).affine(Tensor(w0), Tensor(b0))
        chain = Tensor(x0) @ Tensor(w0) + Tensor(b0)
        assert np.array_equal(fused.data, chain.data)

    def test_matches_chain_bitwise_1d(self):
        rng = np.random.default_rng(8)
        x0, w0, b0 = (rng.normal(size=4), rng.normal(size=(4, 3)),
                      rng.normal(size=3))
        fused = Tensor(x0).affine(Tensor(w0), Tensor(b0))
        chain = Tensor(x0) @ Tensor(w0) + Tensor(b0)
        assert np.array_equal(fused.data, chain.data)

    def test_grads_match_chain(self):
        rng = np.random.default_rng(9)
        x0, w0, b0 = (rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
                      rng.normal(size=3))

        def run(op):
            x = Tensor(x0, requires_grad=True)
            w = Tensor(w0, requires_grad=True)
            b = Tensor(b0, requires_grad=True)
            (op(x, w, b) * op(x, w, b)).sum().backward()
            return x.grad, w.grad, b.grad

        fused = run(lambda x, w, b: x.affine(w, b))
        chain = run(lambda x, w, b: x @ w + b)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2))).affine(
                Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


class TestReductionsAndShapes:
    def test_sum_axis_grad(self):
        x0 = np.random.default_rng(7).normal(size=(3, 4))
        check_grad(lambda t: t.sum(axis=0).sigmoid(), x0)

    def test_mean_grad(self):
        x0 = np.random.default_rng(8).normal(size=(5,))
        x = Tensor(x0, requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(5, 0.2))

    def test_reshape_grad(self):
        x0 = np.random.default_rng(9).normal(size=(2, 6))
        check_grad(lambda t: (t.reshape(3, 4) ** 2), x0)

    def test_transpose_grad(self):
        x0 = np.random.default_rng(10).normal(size=(2, 3))
        check_grad(lambda t: t.T * 2.0, x0)

    def test_getitem_grad_accumulates_repeats(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        gather_rows(x, np.array([0, 0, 2])).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestFunctional:
    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))

    def test_segment_sum_values(self):
        vals = Tensor(np.arange(6.0).reshape(3, 2))
        out = segment_sum(vals, Scatter(np.array([1, 0, 1]), 2))
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [4.0, 6.0]])

    def test_segment_sum_grad(self):
        vals = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        (segment_sum(vals, Scatter(np.array([1, 0, 1]), 2)) *
         Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
        np.testing.assert_allclose(vals.grad, [[3, 4], [1, 2], [3, 4]])

    def test_segment_sum_validates_ids(self):
        # Ids are range-checked once, when the operator is built.
        with pytest.raises(ValueError):
            Scatter(np.array([0, 5]), 2)
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((2, 2))), Scatter(np.array([0]), 2))


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_without_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        """x used through two paths that rejoin: grads sum correctly."""
        x0 = np.array([0.7, -0.3])
        check_grad(lambda t: (t.sigmoid() * t.softplus()), x0)

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


def bincount_segment_sum(values: np.ndarray, ids: np.ndarray,
                         num_segments: int) -> np.ndarray:
    """Reference: the per-column ``np.bincount`` aggregation kernel."""
    out = np.empty((values.shape[1], num_segments))
    for j, column in enumerate(np.ascontiguousarray(values.T)):
        out[j] = np.bincount(ids, weights=column, minlength=num_segments)
    return np.ascontiguousarray(out.T)


def add_at_scatter(values: np.ndarray, ids: np.ndarray,
                   num_segments: int) -> np.ndarray:
    """Reference: the sequential ``np.add.at`` gather-backward kernel."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def bits(array: np.ndarray) -> np.ndarray:
    """Raw bit patterns, so ``-0.0`` and ``0.0`` compare unequal."""
    return array.view(np.int64 if array.dtype == np.float64 else np.int32)


@st.composite
def segment_cases(draw):
    """(values, ids, num_segments): repeated ids, empty id arrays, and
    values mixing magnitudes with exact zeros of both signs."""
    num_segments = draw(st.integers(1, 8))
    rows = draw(st.integers(0, 30))
    cols = draw(st.integers(1, 4))
    ids = np.array(draw(st.lists(st.integers(0, num_segments - 1),
                                 min_size=rows, max_size=rows)),
                   dtype=np.int64)
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
        -8, 9, size=(rows, cols))
    values[rng.random((rows, cols)) < 0.2] = -0.0
    values[rng.random((rows, cols)) < 0.1] = 0.0
    return values, ids, num_segments


class TestScatterOracles:
    """The prebuilt CSR scatter against the kernels it replaced."""

    @given(case=segment_cases())
    @settings(deadline=None, max_examples=150)
    def test_segment_sum_bitwise_equals_bincount_and_add_at(self, case):
        values, ids, num_segments = case
        out = segment_sum(Tensor(values), Scatter(ids, num_segments)).data
        assert out.dtype == np.float64
        assert np.array_equal(
            bits(out), bits(bincount_segment_sum(values, ids, num_segments)))
        assert np.array_equal(
            bits(out), bits(add_at_scatter(values, ids, num_segments)))

    @given(case=segment_cases())
    @settings(deadline=None, max_examples=150)
    def test_gather_rows_backward_bitwise_equals_add_at(self, case):
        grad, ids, num_segments = case
        rows = np.random.default_rng(0).normal(
            size=(num_segments, grad.shape[1]))
        expected = np.zeros_like(rows) + add_at_scatter(grad, ids,
                                                        num_segments)
        for index in (ids, Scatter(ids, num_segments)):
            x = Tensor(rows, requires_grad=True)
            gathered = gather_rows(x, index)
            assert np.array_equal(gathered.data, rows[ids])
            gathered.backward(grad)
            assert np.array_equal(bits(x.grad), bits(expected))

    @given(case=segment_cases())
    @settings(deadline=None, max_examples=50)
    def test_float32_stays_float32(self, case):
        values, ids, num_segments = case
        values = values.astype(np.float32)
        base = Scatter(ids, num_segments)
        scatter = base.astype(np.float32)
        assert scatter.ids is base.ids
        out = segment_sum(Tensor(values), scatter).data
        assert out.dtype == np.float32
        assert np.array_equal(
            bits(out), bits(add_at_scatter(values, ids, num_segments)))
        x = Tensor(np.ones((num_segments, values.shape[1]), np.float32),
                   requires_grad=True)
        gather_rows(x, ids).backward(values)
        assert x.grad.dtype == np.float32

    @given(num_segments=st.integers(1, 6), bad=st.sampled_from([-1, 0]),
           rows=st.integers(1, 6))
    @settings(deadline=None, max_examples=30)
    def test_out_of_range_ids_rejected_at_build(self, num_segments, bad,
                                                rows):
        ids = np.zeros(rows, dtype=np.int64)
        ids[-1] = bad if bad < 0 else num_segments
        with pytest.raises(ValueError, match="out of range"):
            Scatter(ids, num_segments)
        with pytest.raises(ValueError, match="out of range"):
            gather_rows(Tensor(np.ones((num_segments, 2))), ids)

    def test_empty_ids_sum_to_zeros(self):
        """An edge type with no edges (e.g. MM/MP on a zero-module
        graph) scatters nothing."""
        scatter = Scatter(np.zeros(0, dtype=np.int64), 5)
        out = segment_sum(Tensor(np.zeros((0, 3))), scatter)
        assert out.shape == (5, 3) and not out.data.any()

    def test_scatter_must_span_gathered_rows(self):
        with pytest.raises(ValueError, match="rows"):
            gather_rows(Tensor(np.ones((4, 2))),
                        Scatter(np.array([0, 1]), 3))
