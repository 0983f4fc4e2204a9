import numpy as np
import pytest

from dynavq.codebook import Codebook, init_codebook
from dynavq.gradsuite import check_quantizer
from dynavq.numerics import grad_check
from dynavq.quantizer import (
    PASS_SIMS,
    WEIGHTINGS,
    QuantizeMode,
    commitment_loss,
    quantize,
    quantize_backward,
    quantize_chunk,
)

from oracle_helpers import oracle_quantize_chunk


def make_codebook(entries):
    arr = np.asarray(entries, dtype=np.float64)
    return Codebook(arr, np.zeros(arr.shape[:2], dtype=np.uint64))


class TestQuantizeChunk:
    def test_nearest_neighbor_limit(self):
        sub_cb = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        out, idx, weights = quantize_chunk(np.array([0.0, 2.0]), sub_cb, n=1, pool=3)
        assert idx.tolist() == [1]
        assert weights.tolist() == [1.0]
        assert np.array_equal(out, sub_cb[1])

    def test_hand_example(self):
        sub_cb = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, idx, weights = quantize_chunk(
            np.array([0.9, 0.1]), sub_cb, n=2, pool=2, temperature=1.0
        )
        assert idx.tolist() == [0, 1]
        assert weights == pytest.approx([0.7076, 0.2924], abs=1e-4)
        assert out == pytest.approx([0.7076, 0.2924], abs=1e-4)
        # exact agreement with the enumeration oracle
        o_out, o_idx, o_w = oracle_quantize_chunk(np.array([0.9, 0.1]), sub_cb, 2)
        assert idx.tolist() == o_idx
        assert np.allclose(weights, o_w, atol=1e-12)
        assert np.allclose(out, o_out, atol=1e-12)

    def test_full_pool_whole_subcodebook(self):
        rng = np.random.default_rng(5)
        sub_cb = rng.normal(size=(6, 3))
        row = rng.normal(size=3)
        out, idx, weights = quantize_chunk(row, sub_cb, n=6, pool=6)
        assert sorted(idx.tolist()) == list(range(6))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, weights @ sub_cb[idx], atol=1e-12)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            quantize_chunk(np.zeros(2), np.zeros((3, 2)), n=0, pool=2)
        with pytest.raises(ValueError):
            quantize_chunk(np.zeros(2), np.zeros((3, 2)), n=3, pool=2)

    @pytest.mark.parametrize("seed", range(20))
    def test_subset_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_codes = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(1, min(3, num_codes) + 1))
        sub_cb = rng.normal(size=(num_codes, dim))
        row = rng.normal(size=dim)
        out, idx, weights = quantize_chunk(row, sub_cb, n=n, pool=num_codes)
        o_out, o_idx, o_w = oracle_quantize_chunk(row, sub_cb, n)
        assert idx.tolist() == o_idx
        assert np.allclose(weights, o_w, atol=1e-12)
        assert np.allclose(out, o_out, atol=1e-12)

    def test_tie_by_index(self):
        sub_cb = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # codes 0,1 parallel
        _, idx, _ = quantize_chunk(np.array([1.0, 0.0]), sub_cb, n=1, pool=3)
        assert idx.tolist() == [0]


class TestQuantize:
    def test_top1_forces_single(self):
        cb = init_codebook(2, 8, 3, seed=0)
        z = np.random.default_rng(0).normal(size=(5, 6))
        out = quantize(z, cb, None, QuantizeMode.top1())
        assert np.all(out.alloc.counts == 1)
        assert out.alloc.weights.shape == (2, 5, 1)
        assert np.all(out.alloc.weights == 1.0)

    def test_fixed_point_when_rows_are_primitives(self):
        cb = init_codebook(2, 4, 2, seed=3)
        rows = np.concatenate([cb.entries[0][[0, 2]], cb.entries[1][[1, 3]]], axis=1)
        out = quantize(rows, cb, None, QuantizeMode.top1())
        assert np.allclose(out.quantized, rows, atol=1e-12)
        assert np.allclose(out.per_patch_error, 0.0, atol=1e-12)

    def test_composition_matches_quantize_chunk(self):
        sub_cb = np.array([[1.0, 0.0], [0.0, 1.0]])
        cb = make_codebook([sub_cb])
        z = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = quantize(z, cb, None, QuantizeMode.fixed_top_n(2))
        for i in range(2):
            expected, _, _ = quantize_chunk(z[i], sub_cb, n=2, pool=2)
            assert np.allclose(out.quantized[i], expected, atol=1e-12)

    def test_adaptive_k1_bitmatches_top1(self):
        cb_a = init_codebook(3, 8, 2, seed=9)
        cb_b = cb_a.copy()
        z = np.random.default_rng(4).normal(size=(6, 6))
        ratios = np.random.default_rng(5).uniform(0.01, 0.99, size=6)
        out_a = quantize(z, cb_a, ratios, QuantizeMode.adaptive(1))
        out_b = quantize(z, cb_b, None, QuantizeMode.top1())
        assert np.array_equal(out_a.quantized, out_b.quantized)
        assert np.array_equal(out_a.per_patch_error, out_b.per_patch_error)

    def test_fixed_full_ignores_ratios(self):
        cb_a = init_codebook(2, 4, 2, seed=1)
        cb_b = cb_a.copy()
        z = np.random.default_rng(6).normal(size=(4, 4))
        out_a = quantize(z, cb_a, None, QuantizeMode.fixed_top_n(4))
        out_b = quantize(z, cb_b, np.full(4, 0.123), QuantizeMode.fixed_top_n(4))
        assert np.array_equal(out_a.quantized, out_b.quantized)

    def test_weights_sum_and_unique_indices(self):
        cb = init_codebook(3, 16, 2, seed=2)
        rng = np.random.default_rng(7)
        z = rng.normal(size=(10, 6))
        ratios = rng.uniform(0.01, 0.99, size=10)
        out = quantize(z, cb, ratios, QuantizeMode.adaptive(8))
        for j in range(3):
            for i in range(10):
                n = out.alloc.counts[i]
                idx, w = out.alloc.indices[j, i, :n], out.alloc.weights[j, i, :n]
                assert len(set(idx.tolist())) == len(idx)
                assert abs(w.sum() - 1.0) <= 1e-10
                assert np.all(w > 0)

    def test_usage_counts_increment(self):
        cb = init_codebook(1, 4, 2, seed=0)
        untouched = cb.copy()
        z = np.random.default_rng(1).normal(size=(6, 2))
        out = quantize(z, cb, None, QuantizeMode.fixed_top_n(2))
        assert out.usage_delta.sum() == 12  # 6 patches x 2 picks
        assert np.array_equal(cb.usage_counts, untouched.usage_counts)
        assert np.array_equal(cb.entries, untouched.entries)

    def test_counts_respect_ratio(self):
        cb = init_codebook(1, 16, 2, seed=0)
        z = np.random.default_rng(2).normal(size=(3, 2))
        ratios = np.array([0.01, 0.5, 0.99])
        out = quantize(z, cb, ratios, QuantizeMode.adaptive(16))
        assert out.alloc.counts.tolist() == [1, 8, 16]

    def test_shape_validation(self):
        cb = init_codebook(2, 4, 2, seed=0)
        with pytest.raises(ValueError, match="patches"):
            quantize(np.zeros((3, 5)), cb, None, QuantizeMode.top1())

    def test_adaptive_needs_ratios(self):
        cb = init_codebook(2, 4, 2, seed=0)
        with pytest.raises(ValueError, match="ratios"):
            quantize(np.zeros((3, 4)), cb, None, QuantizeMode.adaptive(2))

    def test_top1_is_fixed_at_one(self):
        assert QuantizeMode.top1() == QuantizeMode.fixed_top_n(1)
        with pytest.raises(ValueError, match="unknown quantize mode 'top1'"):
            QuantizeMode("top1")

    @pytest.mark.parametrize(
        "mode", [QuantizeMode.fixed_top_n(5), QuantizeMode.adaptive(5)],
        ids=["fixed", "adaptive"],
    )
    def test_count_above_codebook_size_is_refused(self, mode):
        cb = init_codebook(2, 4, 2, seed=0)
        with pytest.raises(ValueError, match=f"{mode.kind} count 5 exceeds"):
            quantize(np.ones((3, 4)), cb, np.full(3, 0.5), mode)

    def test_unknown_weighting_is_a_value_error(self):
        cb = init_codebook(2, 4, 2, seed=0)
        with pytest.raises(ValueError, match="unknown weighting 'ridge'"):
            quantize(np.ones((3, 4)), cb, None, QuantizeMode.top1(), weighting="ridge")


class TestQuantizeBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_at_stable_points(self, seed):
        report = check_quantizer(seed, weighting="softmax")
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_weighting_gradients(self, seed):
        report = check_quantizer(seed, weighting="linear")
        assert report.passed, report

    def test_every_weighting_is_checked(self):
        assert set(WEIGHTINGS) == {"softmax", "linear"}

    def test_linear_uniform_fallback_rows_get_no_weight_gradient(self):
        # a zero row has all similarities 0, so its linear weights fall
        # back to uniform and do not depend on the row or the codes
        cb = make_codebook(np.random.default_rng(4).normal(size=(2, 5, 3)))
        z = np.random.default_rng(5).normal(size=(3, 6))
        z[1] = 0.0
        out = quantize(z, cb.copy(), None, QuantizeMode.fixed_top_n(3),
                       weighting="linear")
        assert np.all(out.alloc.weights[:, 1] == 1.0 / 3.0)
        coeff = np.random.default_rng(6).normal(size=z.shape)
        d_entries = quantize_backward(coeff, out.cache, cb)
        # the codes still receive the direct path through their values
        expect = np.zeros_like(cb.entries)
        for j in range(2):
            for i, w in zip(out.alloc.indices[j, 1], out.alloc.weights[j, 1]):
                expect[j, i] += w * coeff[1, j * 3:(j + 1) * 3]
        z_rest = np.delete(z, 1, axis=0)
        rest = quantize(z_rest, cb.copy(), None, QuantizeMode.fixed_top_n(3),
                        weighting="linear")
        d_rest = quantize_backward(np.delete(coeff, 1, axis=0), rest.cache, cb)
        np.testing.assert_allclose(d_entries, d_rest + expect, rtol=1e-12, atol=1e-15)


GROUP_ROWS = (0, 1, 64, 65, 150, 512)
GROUP_CODES = (5, 64, 256)
GROUP_MODES = {
    "top1": lambda codes: QuantizeMode.top1(),
    "fixed": lambda codes: QuantizeMode.fixed_top_n(min(codes, 10)),
    "adaptive": lambda codes: QuantizeMode.adaptive(min(codes, 8)),
}


def test_group_shapes_span_pass_sims():
    """The shapes below take one, two, three and all four sub-codebooks
    per pass."""
    sizes = {
        min(4, max(1, PASS_SIMS // max(1, rows * codes)))
        for rows in GROUP_ROWS
        for codes in GROUP_CODES
    }
    assert sizes == {1, 2, 3, 4}


@pytest.mark.parametrize("weighting", ["softmax", "linear"])
@pytest.mark.parametrize("mode_name", sorted(GROUP_MODES))
@pytest.mark.parametrize("codes", GROUP_CODES)
@pytest.mark.parametrize("rows", GROUP_ROWS)
def test_grouping_changes_no_bit(rows, codes, mode_name, weighting):
    """Quantizing with the whole codebook, in passes of several
    sub-codebooks, equals quantizing each sub-codebook alone as a one-sub
    codebook and concatenating, byte for byte, forward and backward."""
    rng = np.random.default_rng(rows * 1000 + codes)
    cb = init_codebook(4, codes, 4, seed=rows + codes)
    z = rng.normal(size=(rows, 16))
    ratios = rng.uniform(0.0, 1.0, size=rows)
    coeff = rng.normal(size=z.shape)
    mode = GROUP_MODES[mode_name](codes)

    def run(emb, book, grad):
        out = quantize(emb, book, ratios, mode, temperature=0.05, weighting=weighting)
        return out, quantize_backward(grad, out.cache, book)

    whole, d_entries = run(z, cb, coeff)
    group = max(1, PASS_SIMS // max(1, rows * codes))
    assert [c.codes.shape[0] for c in whole.cache] == [
        min(group, 4 - first) for first in range(0, 4, group)
    ]
    cols = [slice(4 * j, 4 * j + 4) for j in range(4)]
    parts = [
        run(z[:, c], make_codebook(cb.entries[j:j + 1]), coeff[:, c])
        for j, c in enumerate(cols)
    ]
    quantized = np.concatenate([out.quantized for out, _ in parts], axis=1)
    expect = {
        "quantized": quantized,
        "indices": np.concatenate([out.alloc.indices for out, _ in parts]),
        "weights": np.concatenate([out.alloc.weights for out, _ in parts]),
        "usage_delta": np.concatenate([out.usage_delta for out, _ in parts]),
        "per_patch_error": ((quantized - z) ** 2).sum(axis=1),
        "d_entries": np.concatenate([d for _, d in parts]),
    }
    got = {
        "quantized": whole.quantized,
        "indices": whole.alloc.indices,
        "weights": whole.alloc.weights,
        "usage_delta": whole.usage_delta,
        "per_patch_error": whole.per_patch_error,
        "d_entries": d_entries,
    }
    for key, value in expect.items():
        assert got[key].shape == value.shape, key
        assert got[key].tobytes() == value.tobytes(), key


class TestCommitment:
    def test_zero(self):
        z = np.random.default_rng(0).normal(size=(3, 4))
        value, dz, dq = commitment_loss(z, z, 0.25)
        assert value == 0.0
        assert np.array_equal(dz, np.zeros_like(z))
        assert np.array_equal(dq, np.zeros_like(z))

    def test_beta_zero_drops_encoder_term(self):
        z = np.ones((2, 2))
        q = np.zeros((2, 2))
        value, dz, _ = commitment_loss(z, q, 0.0)
        assert value == pytest.approx(2.0, abs=1e-15)  # mean row error = 2
        assert np.array_equal(dz, np.zeros_like(z))

    def test_hand_value(self):
        value, dz, dq = commitment_loss(
            np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]), 0.25
        )
        assert value == pytest.approx(1.25, abs=1e-15)
        assert np.allclose(dz, [[0.5, 0.0]], atol=1e-15)
        assert np.allclose(dq, [[-2.0, 0.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commitment_loss(np.zeros((2, 2)), np.zeros((2, 3)), 0.1)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(3, 4))
        beta = 0.25
        # encoder-side gradient only covers the beta term; probe it alone
        z0 = rng.normal(size=(3, 4))
        report = grad_check(
            lambda z: beta * float(np.mean(((z - q) ** 2).sum(axis=1))),
            lambda z: commitment_loss(z, q, beta)[1],
            z0,
        )
        assert report.passed, report
        report = grad_check(
            lambda qq: float(np.mean(((z0 - qq) ** 2).sum(axis=1))),
            lambda qq: commitment_loss(z0, qq, beta)[2],
            q,
        )
        assert report.passed, report
