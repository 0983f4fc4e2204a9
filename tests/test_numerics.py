import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynavq.numerics import cosine_similarity_matrix, grad_check

from oracle_helpers import oracle_masked_softmax, oracle_top_k


def finite_matrices(rows, cols, min_value=-10.0, max_value=10.0):
    return hnp.arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(min_value, max_value, allow_nan=False),
    )


class TestCosineSimilarity:
    def test_orthogonal(self):
        out = cosine_similarity_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_identical(self):
        out = cosine_similarity_matrix(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # dot/(|a||b|) = 4/(sqrt(5)*sqrt(5)) = 0.8
        out = cosine_similarity_matrix(np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]]))
        assert out[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_clamped(self):
        out = cosine_similarity_matrix(np.zeros((1, 3)), np.ones((1, 3)))
        assert np.isfinite(out).all()
        assert out[0, 0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            cosine_similarity_matrix(np.ones((1, 2)), np.ones((1, 2)), eps=0.0)

    @given(a=finite_matrices(3, 4), b=finite_matrices(5, 4))
    @settings(max_examples=50, deadline=None)
    def test_swap_transpose_exact(self, a, b):
        left = cosine_similarity_matrix(a, b)
        right = cosine_similarity_matrix(b, a).T
        assert np.array_equal(left, right)

    @given(
        a=finite_matrices(2, 3, min_value=-5.0, max_value=5.0),
        b=finite_matrices(2, 3, min_value=-5.0, max_value=5.0),
        alpha=st.floats(0.1, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, a, b, alpha):
        # keep rows away from the eps clamp so the property is exact
        a = a + np.sign(a + 0.5) * 1.0
        b = b + np.sign(b + 0.5) * 1.0
        base = cosine_similarity_matrix(a, b)
        scaled = cosine_similarity_matrix(alpha * a, b)
        assert np.allclose(base, scaled, atol=1e-12, rtol=0)

    def test_range_slack(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 6))
        out = cosine_similarity_matrix(a, a)
        assert np.all(out <= 1.0 + 1e-12)
        assert np.all(out >= -1.0 - 1e-12)


class TestTopK:
    """The selection order every quantizer oracle relies on."""

    def test_basic(self):
        assert oracle_top_k([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_tie_lowest_index(self):
        assert oracle_top_k([0.5, 0.5], 1) == [0]

    def test_full_sort(self):
        assert oracle_top_k([3.0, 1.0, 2.0, 5.0], 4) == [3, 0, 2, 1]

    @pytest.mark.parametrize("k", [0, 5])
    def test_bad_k(self, k):
        with pytest.raises(ValueError):
            oracle_top_k([1.0, 2.0, 3.0], k)

    @given(
        scores=hnp.arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_full_k_is_permutation(self, scores):
        idx = oracle_top_k(scores, len(scores))
        assert sorted(idx) == list(range(len(scores)))
        picked = scores[idx]
        assert np.all(picked[:-1] >= picked[1:])


class TestMaskedSoftmax:
    """The weighting of the quantizer oracle."""

    def test_single(self):
        w = oracle_masked_softmax([3.0, -1.0], [1])
        assert w == [1.0]

    def test_equal_scores(self):
        w = oracle_masked_softmax([2.0, 2.0, 99.0], [0, 1])
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_hand_value(self):
        # e/(e+1), 1/(e+1)
        w = oracle_masked_softmax([1.0, 0.0], [0, 1], temperature=1.0)
        assert w[0] == pytest.approx(math.e / (math.e + 1.0), abs=1e-4)
        assert w[1] == pytest.approx(1.0 / (math.e + 1.0), abs=1e-4)

    def test_empty_selection(self):
        with pytest.raises(ValueError, match="non-empty"):
            oracle_masked_softmax([1.0], [])

    def test_duplicate_selection(self):
        with pytest.raises(ValueError, match="unique"):
            oracle_masked_softmax([1.0, 2.0], [1, 1])

    def test_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            oracle_masked_softmax([1.0], [0], temperature=0.0)

    @given(
        scores=finite_matrices(1, 8, min_value=-30, max_value=30),
        shift=st.floats(-50, 50, allow_nan=False),
        temp=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_and_normalization(self, scores, shift, temp):
        s = scores[0]
        sel = [0, 2, 5]
        w = oracle_masked_softmax(s, sel, temp)
        w2 = oracle_masked_softmax(s + shift, sel, temp)
        assert np.allclose(w, w2, atol=1e-12, rtol=0)
        assert abs(sum(w) - 1.0) <= 1e-12
        assert all(x > 0 for x in w)


class TestGradCheck:
    def test_quadratic(self):
        report = grad_check(
            lambda x: float(x[0] ** 2),
            lambda x: np.array([2.0 * x[0]]),
            np.array([3.0]),
        )
        assert report.passed
        assert report.probe_count == 1

    def test_sum(self):
        report = grad_check(
            lambda x: float(np.sum(x)),
            lambda x: np.ones_like(x),
            np.array([1.0, -2.0, 0.5]),
        )
        assert report.passed

    def test_norm_squared(self):
        report = grad_check(
            lambda x: float(np.sum(x * x)),
            lambda x: 2.0 * x,
            np.array([1.0, 2.0]),
        )
        assert report.passed
        assert report.max_rel_diff <= 1e-6

    def test_catches_wrong_gradient(self):
        report = grad_check(
            lambda x: float(np.sum(x * x)),
            lambda x: 2.5 * x,
            np.array([1.0, 2.0]),
        )
        assert not report.passed

    def test_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda x: 0.0, lambda x: x, np.array([1.0]), eps=0.5)

    def test_non_finite_probe(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return float(np.log(x[0]))

        with pytest.raises(FloatingPointError, match="coordinate 0"):
            grad_check(f, lambda x: 1.0 / x, np.array([1e-6]), eps=1e-4 * 0.01)

    def test_matrix_point(self):
        report = grad_check(
            lambda x: float(np.sum(np.sin(x))),
            lambda x: np.cos(x),
            np.arange(6, dtype=np.float64).reshape(2, 3) / 3.0,
        )
        assert report.passed
        assert report.probe_count == 6
