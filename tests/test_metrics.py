import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynavq.allocator import init_allocator
from dynavq.autoencoder import init_decoder, init_encoder
from dynavq.codebook import Codebook, init_codebook
from dynavq.dataio import gen_synthetic, load_raster
from dynavq.metrics import (
    PSNR_CAP_DB,
    allocation_heatmap,
    centroid_similarity_matrix,
    codebook_perplexity,
    evaluate_reconstruction,
    psnr,
    rate_distortion,
    spearman,
    ssim,
    write_eval_report,
)
from dynavq.pipeline import Model, forward_image
from dynavq.quantizer import QuantizeMode


from oracle_helpers import oracle_spearman


def tiny_model(seed=0, subs=2, prims=8, dim=2, patch=4, hidden=8, top_k=4):
    embed = subs * dim
    return Model(
        codebook=init_codebook(subs, prims, dim, seed),
        allocator=init_allocator(embed, seed + 1),
        encoder=init_encoder(patch, hidden, embed, seed + 2),
        decoder=init_decoder(patch, hidden, embed, seed + 3),
        patch_size=patch,
        top_k=top_k,
        temperature=1.0,
        beta=0.25,
        weighting="softmax",
    )


class TestPsnr:
    def test_identical_cap(self):
        img = np.random.default_rng(0).uniform(size=(4, 4))
        assert psnr(img, img) == PSNR_CAP_DB

    def test_unit_mse(self):
        assert psnr(np.zeros((2, 2)), np.ones((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_twenty_db(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_monotone_in_mse(self):
        img = np.random.default_rng(1).uniform(size=(8, 8))
        values = []
        for scale in [0.01, 0.02, 0.05, 0.1, 0.2]:
            values.append(psnr(img, np.clip(img + scale, 0, 2)))
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(np.zeros((2, 2)), np.zeros((3, 2)))


class TestSsim:
    def test_identical_exactly_one(self):
        img = np.random.default_rng(2).uniform(size=(16, 16))
        assert ssim(img, img) == 1.0

    def test_constant_images(self):
        value = ssim(np.zeros((8, 8)), np.ones((8, 8)))
        expected = 1e-4 / (1.0 + 1e-4)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(16, 16))
        b = rng.uniform(size=(16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least"):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)), window=8)


class TestPerplexity:
    def test_uniform(self):
        assert codebook_perplexity(np.ones(64)) == pytest.approx(64.0, rel=1e-12)

    def test_single_code(self):
        usage = np.zeros(16)
        usage[3] = 10
        assert codebook_perplexity(usage) == pytest.approx(1.0, abs=1e-12)

    def test_half_half(self):
        assert codebook_perplexity(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_matrix_input(self):
        usage = np.stack([np.ones(8), np.eye(8)[0]])
        out = codebook_perplexity(usage)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(8.0, rel=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero(self):
        with pytest.raises(ValueError, match="zero"):
            codebook_perplexity(np.zeros(4))

    def test_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            codebook_perplexity(np.array([1.0, -1.0]))


class TestHeatmap:
    def _alloc(self, counts, cap):
        from dynavq.quantizer import AllocationMap

        counts = np.asarray(counts, dtype=np.int64)
        n = counts.shape[0]
        return AllocationMap(
            counts=counts,
            cap=cap,
            indices=np.zeros((1, n, cap), dtype=np.int64),
            weights=np.zeros((1, n, cap)),
        )

    def test_grid_shape(self):
        grid = allocation_heatmap(self._alloc([1, 2, 3, 4], 4), 2, 2)
        assert grid.tolist() == [[1, 2], [3, 4]]

    def test_warmup_uniform_pgm(self, tmp_path):
        path = tmp_path / "h.pgm"
        allocation_heatmap(self._alloc([1, 1, 1, 1], 16), 2, 2, path)
        img = load_raster(path)
        assert np.all(img == 0.0)

    def test_pixel_values(self, tmp_path):
        path = tmp_path / "h.pgm"
        allocation_heatmap(self._alloc([1, 8, 16, 4], 16), 2, 2, path)
        raw = path.read_bytes()
        assert list(raw[-4:]) == [0, 119, 255, 51]

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            allocation_heatmap(self._alloc([1, 2, 3], 4), 2, 2)


class TestSpearman:
    def test_increasing(self):
        assert spearman(
            np.array([1, 2, 3, 4]), np.array([0, 1, 2, 3])
        ) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing(self):
        assert spearman(
            np.array([4, 3, 2, 1]), np.array([0, 1, 2, 3])
        ) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value_with_tie(self):
        rho = spearman(np.array([1, 2, 3, 4]), np.array([0, 1, 1, 3]))
        assert rho == pytest.approx(0.9487, abs=1e-4)

    def test_constant_error(self):
        with pytest.raises(ValueError, match="constant"):
            spearman(np.array([1, 1, 1]), np.array([0, 1, 2]))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman(np.array([1, 2]), np.array([0, 1]))

    @given(seed=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        # integer-valued vectors produce plenty of ties
        a = rng.integers(0, 6, size=n).astype(np.float64)
        b = rng.integers(0, 6, size=n).astype(np.float64)
        if np.all(a == a[0]) or np.all(b == b[0]):
            return
        assert spearman(a, b) == pytest.approx(oracle_spearman(a, b), abs=1e-12)


class TestCentroidMatrix:
    def test_diagonal_ones_and_symmetry(self):
        cb = init_codebook(4, 8, 3, seed=0)
        sims = centroid_similarity_matrix(cb)
        assert np.array_equal(np.diag(sims), np.ones(4))
        assert np.array_equal(sims, sims.T)

    def test_orthogonal_pair(self):
        entries = np.zeros((2, 1, 2))
        entries[0, 0] = [1.0, 0.0]
        entries[1, 0] = [0.0, 1.0]
        cb = Codebook(entries, np.zeros((2, 1), dtype=np.uint64))
        sims = centroid_similarity_matrix(cb)
        assert sims[0, 1] == 0.0

    def test_csv_export(self, tmp_path):
        cb = init_codebook(3, 4, 2, seed=1)
        path = tmp_path / "cents.csv"
        sims = centroid_similarity_matrix(cb, path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(parsed, sims)


@pytest.fixture(scope="module")
def setup():
    model = tiny_model()
    ds = gen_synthetic(6, 16, 4, (0.25, 0.25, 0.25, 0.25), seed=5)
    return model, ds


class TestEvaluation:

    def test_rate_distortion_shape(self, setup):
        model, ds = setup
        points = rate_distortion(model, ds, [1, 2, 4])
        assert len(points) == 4
        assert points[-1].forced_n == "adaptive"
        assert 1.0 <= points[-1].mean_count <= model.top_k

    def test_forced_one_bitmatches_top1_eval(self, setup):
        model, ds = setup
        points = rate_distortion(model, ds, [1])
        top1 = evaluate_reconstruction(model, ds, QuantizeMode.top1())
        assert points[0].mean_mse == top1.mean_mse
        assert points[0].mean_count == top1.mean_count

    def test_forced_n_validation(self, setup):
        model, ds = setup
        with pytest.raises(ValueError, match="forced n"):
            rate_distortion(model, ds, [99])

    def test_eval_does_not_touch_usage(self, setup):
        model, ds = setup
        before = model.codebook.usage_counts.copy()
        evaluate_reconstruction(model, ds)
        assert np.array_equal(model.codebook.usage_counts, before)

    def test_eval_stats_sane(self, setup):
        model, ds = setup
        stats = evaluate_reconstruction(model, ds)
        assert stats.mean_mse >= 0
        assert stats.perplexity.shape == (model.codebook.subcodebooks,)
        assert stats.counts.shape == stats.labels.shape

    def test_report_writer(self, setup, tmp_path):
        model, ds = setup
        stats = evaluate_reconstruction(model, ds)
        path = tmp_path / "report.csv"
        write_eval_report(
            path,
            [{
                "setting": "adaptive",
                "mean_mse": stats.mean_mse,
                "psnr": stats.mean_psnr,
                "ssim": stats.mean_ssim,
                "mean_count": stats.mean_count,
                "perplexity": stats.perplexity,
            }],
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("setting,mean_mse")
        assert lines[1].startswith("adaptive,")


def test_forward_image_shapes():
    model = tiny_model()
    img = np.random.default_rng(1).uniform(size=(16, 16))
    result = forward_image(model, img)
    assert result.embeddings.shape == (16, model.codebook.embed_dim)
    assert result.ratios.shape == (16,)
    assert result.recon_image(16, 16, 4).shape == (16, 16)
