import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynavq.allocator import (
    AllocatorParams,
    allocator_backward,
    allocator_forward,
    count_from_ratio,
    dpa_loss,
    init_allocator,
    ratio_target,
)
from dynavq.numerics import grad_check


def zero_params(dim=4, hidden=2, k1=3, k2=3):
    return AllocatorParams(
        conv1_w=np.zeros((hidden, dim, k1)),
        conv1_b=np.zeros(hidden),
        conv2_w=np.zeros((1, hidden, k2)),
        conv2_b=np.zeros(1),
    )


class TestForward:
    def test_zero_params_give_half(self):
        z = np.random.default_rng(0).normal(size=(6, 4))
        ratios, _ = allocator_forward(z, zero_params())
        assert np.allclose(ratios, 0.5, atol=1e-15)

    def test_large_negative_bias(self):
        params = zero_params()
        params.conv2_b[0] = -20.0
        ratios, _ = allocator_forward(np.zeros((3, 4)), params)
        expected = 1.0 / (1.0 + np.exp(20.0))
        assert np.allclose(ratios, expected, rtol=1e-12)
        assert np.all(ratios > 0)

    def test_length_preserved(self):
        params = init_allocator(8, seed=1)
        z = np.random.default_rng(1).normal(size=(16, 8))
        ratios, _ = allocator_forward(z, params)
        assert ratios.shape == (16,)

    def test_open_interval(self):
        params = zero_params()
        params.conv2_b[0] = 500.0
        ratios, _ = allocator_forward(np.zeros((2, 4)), params)
        assert np.all(ratios < 1.0)
        params.conv2_b[0] = -500.0
        ratios, _ = allocator_forward(np.zeros((2, 4)), params)
        assert np.all(ratios > 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="patches"):
            allocator_forward(np.zeros((3, 5)), zero_params(dim=4))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            AllocatorParams(
                conv1_w=np.zeros((2, 4, 2)),
                conv1_b=np.zeros(2),
                conv2_w=np.zeros((1, 2, 3)),
                conv2_b=np.zeros(1),
            )


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_parameter_gradients(self, seed):
        rng = np.random.default_rng(seed)
        dim, hidden, length = 4, 3, 7
        z = rng.normal(size=(length, dim))
        params = init_allocator(dim, seed=seed + 100, hidden=hidden)
        # random linear functional of the ratios as the scalar loss
        coeff = rng.normal(size=length)

        def pack(p):
            return np.concatenate(
                [p.conv1_w.ravel(), p.conv1_b, p.conv2_w.ravel(), p.conv2_b]
            )

        def unpack(vec):
            i = 0
            shapes = [params.conv1_w.shape, params.conv1_b.shape,
                      params.conv2_w.shape, params.conv2_b.shape]
            parts = []
            for s in shapes:
                n = int(np.prod(s))
                parts.append(vec[i:i + n].reshape(s))
                i += n
            return AllocatorParams(*parts)

        def f(vec):
            ratios, _ = allocator_forward(z, unpack(vec))
            return float(coeff @ ratios)

        def g(vec):
            p = unpack(vec)
            ratios, cache = allocator_forward(z, p)
            grads, _ = allocator_backward(coeff, cache, p)
            return pack(
                AllocatorParams(grads.conv1_w, grads.conv1_b, grads.conv2_w, grads.conv2_b)
            )

        report = grad_check(f, g, pack(params), eps=1e-5, rel_tol=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(3))
    def test_input_gradient(self, seed):
        rng = np.random.default_rng(seed)
        dim, length = 4, 6
        params = init_allocator(dim, seed=seed + 7)
        coeff = rng.normal(size=length)
        z0 = rng.normal(size=(length, dim))

        def f(z):
            ratios, _ = allocator_forward(z, params)
            return float(coeff @ ratios)

        def g(z):
            ratios, cache = allocator_forward(z, params)
            _, d_z = allocator_backward(coeff, cache, params)
            return d_z

        report = grad_check(f, g, z0, eps=1e-5, rel_tol=1e-4)
        assert report.passed, report


class TestCountFromRatio:
    def test_upper_clamp(self):
        assert count_from_ratio(np.array([1.0 - 1e-9]), 16).tolist() == [16]

    def test_lower_clamp(self):
        assert count_from_ratio(np.array([0.001]), 16).tolist() == [1]

    def test_round(self):
        assert count_from_ratio(np.array([0.5]), 16).tolist() == [8]

    @given(
        ratios=hnp.arrays(np.float64, 10, elements=st.floats(1e-9, 1.0 - 1e-9)),
        cap=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_range(self, ratios, cap):
        counts = count_from_ratio(ratios, cap)
        assert np.all(counts >= 1)
        assert np.all(counts <= cap)


class TestRatioTarget:
    def test_exact_reconstruction(self):
        z = np.random.default_rng(0).normal(size=(5, 4))
        targets = ratio_target(z, z, 8)
        assert np.allclose(targets, 1.0 / 8, atol=0)

    def test_linear_map(self):
        # per-patch squared errors 0, 2, 4 with 4 primitives per sub
        z = np.zeros((3, 2))
        q = np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0], [2.0, 0.0]])
        targets = ratio_target(z, q, 4)
        assert np.allclose(targets, [0.25, 0.625, 1.0], atol=1e-12)

    def test_single_patch(self):
        targets = ratio_target(np.zeros((1, 3)), np.ones((1, 3)), 64)
        assert targets.tolist() == [1.0 / 64]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ratio_target(np.zeros((2, 3)), np.zeros((3, 2)), 4)

    @given(
        z=hnp.arrays(np.float64, (7, 3), elements=st.floats(-5, 5)),
        q=hnp.arrays(np.float64, (7, 3), elements=st.floats(-5, 5)),
        prims=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_exact(self, z, q, prims):
        targets = ratio_target(z, q, prims)
        assert np.all(targets >= 1.0 / prims)
        assert np.all(targets <= 1.0)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(6, 4))
        q = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        base = ratio_target(z, q, 16)
        permuted = ratio_target(z[perm], q[perm], 16)
        assert np.array_equal(base[perm], permuted)


class TestDpaLoss:
    def test_zero(self):
        r = np.array([0.3, 0.7])
        loss, grad = dpa_loss(r, r)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_hand_value(self):
        loss, grad = dpa_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(0.25, abs=1e-15)
        assert grad.tolist() == [-1.0]

    def test_two_unit_errors(self):
        loss, _ = dpa_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dpa_loss(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        targets = rng.uniform(0.1, 1.0, size=8)
        report = grad_check(
            lambda r: dpa_loss(r, targets)[0],
            lambda r: dpa_loss(r, targets)[1],
            rng.uniform(0.0, 1.0, size=8),
        )
        assert report.passed, report
