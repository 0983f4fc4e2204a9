import numpy as np
import pytest

from dynavq.codebook import (
    Codebook,
    apply_codebook_grads,
    centroids,
    diversity_grad_entries,
    diversity_loss,
    init_codebook,
)
from dynavq.numerics import grad_check


def sgd_step(learning_rate):
    """Plain gradient-descent step rule for apply_codebook_grads."""
    return lambda param, grad: param - learning_rate * grad


class TestInit:
    def test_shape_contract(self):
        cb = init_codebook(4, 64, 4, seed=7)
        assert cb.entries.shape == (4, 64, 4)
        assert cb.usage_counts.shape == (4, 64)
        assert cb.usage_counts.dtype == np.uint64
        assert np.all(cb.usage_counts == 0)
        assert cb.embed_dim == 16
        assert cb.subcodebooks * cb.primitives_per_sub == 256

    def test_seed_determinism(self):
        a = init_codebook(3, 8, 2, seed=123)
        b = init_codebook(3, 8, 2, seed=123)
        assert np.array_equal(a.entries, b.entries)
        c = init_codebook(3, 8, 2, seed=124)
        assert not np.array_equal(a.entries, c.entries)

    def test_single_primitive_centroid(self):
        cb = init_codebook(1, 1, 2, seed=5)
        assert np.array_equal(centroids(cb)[0], cb.entries[0, 0])

    def test_bounds(self):
        cb = init_codebook(2, 16, 3, seed=0)
        assert np.all(np.abs(cb.entries) <= 1.0 / 16)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_zero_dims(self, dims):
        with pytest.raises(ValueError):
            init_codebook(*dims, seed=0)


class TestCentroids:
    def test_two_rows(self):
        cb = Codebook(
            entries=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
            usage_counts=np.zeros((1, 2), dtype=np.uint64),
        )
        assert np.allclose(centroids(cb), [[0.5, 0.5]], atol=1e-12)

    def test_zero_subcodebook(self):
        cb = Codebook(
            entries=np.zeros((1, 3, 2)),
            usage_counts=np.zeros((1, 3), dtype=np.uint64),
        )
        assert np.array_equal(centroids(cb), np.zeros((1, 2)))

    def test_column_means(self):
        cb = Codebook(
            entries=np.array([[[2.0, 0.0], [4.0, 0.0], [0.0, 6.0]]]),
            usage_counts=np.zeros((1, 3), dtype=np.uint64),
        )
        assert np.allclose(centroids(cb), [[2.0, 2.0]], atol=1e-12)


class TestDiversityLoss:
    def test_orthogonal_pair(self):
        loss, grad = diversity_loss(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert grad.shape == (2, 2)

    def test_identical_pair(self):
        loss, _ = diversity_loss(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_three_centroids_hand_value(self):
        s = 1.0 / np.sqrt(2.0)
        cents = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        loss, _ = diversity_loss(cents)
        assert loss == pytest.approx((0.0 + s + s) / 3.0, abs=1e-12)

    def test_single_centroid(self):
        loss, grad = diversity_loss(np.array([[1.0, 2.0]]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((1, 2)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        cents = rng.normal(size=(4, 3))
        base, _ = diversity_loss(cents)
        scaled = cents.copy()
        scaled[2] *= 7.5
        loss, _ = diversity_loss(scaled)
        assert loss == pytest.approx(base, abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cents = rng.normal(size=(5, 4))
            loss, _ = diversity_loss(cents)
            assert 0.0 <= loss <= 1.0 + 1e-12

    def test_positive_multiples_give_one(self):
        base = np.array([1.0, -2.0, 0.5])
        cents = np.stack([base, 2.0 * base, 0.25 * base])
        loss, _ = diversity_loss(cents)
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_opposed_centroids_still_penalized(self):
        # antipodal pairs are as redundant as identical ones
        loss, _ = diversity_loss(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_frame_is_minimum(self):
        loss, _ = diversity_loss(np.eye(4))
        assert loss == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cents = rng.normal(size=(4, 3))
        report = grad_check(
            lambda c: diversity_loss(c)[0],
            lambda c: diversity_loss(c)[1],
            cents,
            eps=1e-5,
            rel_tol=1e-4,
        )
        assert report.passed, report

    def test_entry_chain_rule(self):
        cb = init_codebook(3, 5, 2, seed=9)

        def loss_of_entries(entries):
            return diversity_loss(entries.mean(axis=1))[0]

        def grad_of_entries(entries):
            tmp = Codebook(entries, np.zeros(entries.shape[:2], dtype=np.uint64))
            _, g = diversity_loss(entries.mean(axis=1))
            return diversity_grad_entries(tmp, g)

        report = grad_check(loss_of_entries, grad_of_entries, cb.entries)
        assert report.passed, report


class TestApplyGrads:
    def test_zero_gradient(self):
        cb = init_codebook(2, 4, 3, seed=1)
        out = apply_codebook_grads(cb, np.zeros_like(cb.entries), sgd_step(0.1))
        assert np.array_equal(out.entries, cb.entries)

    def test_plain_step(self):
        cb = Codebook(np.ones((1, 1, 1)), np.zeros((1, 1), dtype=np.uint64))
        out = apply_codebook_grads(cb, np.ones((1, 1, 1)), sgd_step(0.1))
        assert out.entries[0, 0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_two_steps_commute_with_combined(self):
        cb = init_codebook(2, 3, 2, seed=4)
        g1 = np.full_like(cb.entries, 0.25)
        g2 = np.full_like(cb.entries, -0.5)
        stepped = apply_codebook_grads(apply_codebook_grads(cb, g1, sgd_step(0.2)), g2, sgd_step(0.2))
        combined = apply_codebook_grads(cb, g1 + g2, sgd_step(0.2))
        assert np.allclose(stepped.entries, combined.entries, atol=1e-15)

    def test_usage_untouched(self):
        cb = init_codebook(1, 2, 2, seed=0)
        cb.usage_counts[0, 1] = 7
        out = apply_codebook_grads(cb, np.ones_like(cb.entries), sgd_step(0.01))
        assert out.usage_counts[0, 1] == 7

    def test_shape_mismatch(self):
        cb = init_codebook(1, 2, 2, seed=0)
        with pytest.raises(ValueError, match="shape"):
            apply_codebook_grads(cb, np.zeros((1, 2, 3)), sgd_step(0.1))
