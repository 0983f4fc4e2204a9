"""Chunked dataset evaluation and the vectorized SSIM against the
per-image reference in tests/reference_eval.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eval import (
    image_ssim,
    reference_evaluate,
    reference_psnr,
    reference_scores,
    reference_ssim,
)

from dynavq import metrics
from dynavq.autoencoder import reconstruction_loss
from dynavq.checkpoint import load_checkpoint
from dynavq.dataio import Dataset, gen_synthetic
from dynavq.quantizer import QuantizeMode
from dynavq.trainer import TrainConfig, build_datasets, run_training

#: float64 summation order differs between one pass per image and one per
#: chunk; nothing else may.
RTOL = 1e-12

MIX = (0.25, 0.25, 0.25, 0.25)

MODES = {
    "adaptive": QuantizeMode.adaptive(16),
    "top1": QuantizeMode.top1(),
    "fixed": QuantizeMode.fixed_top_n(10),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A desk model trained past warm-up, so adaptive counts spread out,
    plus its 13-image validation set (832 patch rows)."""
    workdir = tmp_path_factory.mktemp("eval")
    config = TrainConfig(
        total_steps=120, warmup_fraction=0.25, batch_size=8, learning_rate=1e-3,
        subcodebooks=4, primitives_per_sub=64, primitive_dim=4, top_k=16,
        pool=16, temperature=0.003, image_size=32, patch_size=4,
        hidden_dim=32, n_images=64, seed=3,
        metrics_path=str(workdir / "metrics.csv"),
        checkpoint_path=str(workdir / "model.ckpt"),
    )
    ckpt, _ = run_training(config)
    _, val = build_datasets(config)
    return load_checkpoint(ckpt).model, val


def mixed_sizes():
    """Ten 32x32 and ten 16x16 images interleaved: 800 rows, two chunks
    (the seventh 32x32 image would take the first past 512 rows)."""
    big = gen_synthetic(10, 32, 4, MIX, seed=11).items
    small = gen_synthetic(10, 16, 4, MIX, seed=12).items
    items = [item for pair in zip(big, small) for item in pair]
    return Dataset(items, 0, "mixed")


def oversized():
    """A 96x96 image (576 rows) between two 32x32 ones: it runs alone."""
    a, b = gen_synthetic(2, 32, 4, MIX, seed=13).items
    (large,) = gen_synthetic(1, 96, 4, MIX, seed=14).items
    return Dataset([a, large, b], 0, "oversized")


DATASETS = {
    "desk_val": (lambda val: val, [512, 320]),
    "mixed_sizes": (lambda val: mixed_sizes(), [480, 320]),
    "oversized": (lambda val: oversized(), [64, 576, 64]),
}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_chunked_eval_matches_per_image_eval(trained, name, mode):
    model, val = trained
    dataset = DATASETS[name][0](val)
    got = metrics.evaluate_reconstruction(model, dataset, MODES[mode])
    want = reference_evaluate(model, dataset, MODES[mode])
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.perplexity, want.perplexity)
    assert got.mean_count == want.mean_count
    for field in ("mean_mse", "mean_psnr", "mean_ssim"):
        np.testing.assert_allclose(
            getattr(got, field), getattr(want, field), rtol=RTOL, atol=0, err_msg=field
        )


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_stacked_scores_equal_per_image_scores(trained, name, mode):
    """Scoring each run of equal-shaped images as one stack gives the
    per-image means bit for bit, over the same chunked forward pass."""
    model, val = trained
    dataset = DATASETS[name][0](val)
    got = metrics.evaluate_reconstruction(model, dataset, MODES[mode])
    want = reference_scores(model, dataset, MODES[mode])
    assert (got.mean_mse, got.mean_psnr, got.mean_ssim) == want


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_chunks_hold_at_most_eval_rows(trained, name, monkeypatch):
    model, val = trained
    dataset, expected = DATASETS[name][0](val), DATASETS[name][1]
    rows = []
    forward = metrics.forward_image

    def recording(work, images, mode):
        result = forward(work, images, mode)
        rows.append(int(result.offsets[-1]))
        return result

    monkeypatch.setattr(metrics, "forward_image", recording)
    metrics.evaluate_reconstruction(model, dataset)
    assert rows == expected


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(1, 8),
    height=st.integers(0, 40),
    width=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
)
def test_vectorized_ssim_matches_window_loop(window, height, width, seed, noise):
    shape = (max(height, window), max(width, window))
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    b = np.clip(a + noise * rng.normal(size=shape), 0.0, 1.0)
    got = metrics.ssim(a, b, window=window)
    want = reference_ssim(a, b, window=window)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert metrics.ssim(a, a, window=window) == 1.0


def image_stacks(n, window, height, width, seed, noise, exact):
    """Two (n, H, W) stacks in [0, 1], at least ``window`` on each side,
    equal in image ``exact % n``."""
    shape = (n, max(height, window), max(width, window))
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    b = a + noise * rng.normal(size=shape)
    b[exact % n] = a[exact % n]
    return a, b


STACKS = dict(
    n=st.integers(1, 5),
    height=st.integers(0, 40),
    width=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.01, 0.3, 1.0]),
    exact=st.integers(0, 4),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(window=st.integers(1, 8), **STACKS)
def test_stacked_psnr_and_ssim_equal_per_image_values(
    n, window, height, width, seed, noise, exact
):
    """Leading axes give each image the value it gets alone, bit for bit;
    ragged edges included, and a zero-MSE image gets the PSNR cap."""
    a, b = image_stacks(n, window, height, width, seed, noise, exact)
    b = np.clip(b, 0.0, 1.0)
    got = metrics.psnr(a, b)
    assert np.array_equal(got, [reference_psnr(x, y) for x, y in zip(a, b)])
    assert got[exact % n] == metrics.PSNR_CAP_DB
    got = metrics.ssim(a, b, window=window)
    assert np.array_equal(got, [image_ssim(x, y, window=window) for x, y in zip(a, b)])
    assert got[exact % n] == 1.0
    assert metrics.psnr(a[0], b[0]) == reference_psnr(a[0], b[0])
    assert metrics.ssim(a[0], b[0], window=window) == image_ssim(a[0], b[0], window=window)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**STACKS)
def test_stack_scores_equal_per_image_scores(n, height, width, seed, noise, exact):
    """The evaluation's MSE before the clamp, and PSNR and SSIM after it,
    of each image of a stack equal the per-image scorer's values."""
    image, recon = image_stacks(n, metrics.SSIM_WINDOW, height, width, seed, noise, exact)
    mse, psnr, ssim = metrics._stack_scores(image, recon)
    clamped = np.clip(recon, 0.0, 1.0)
    assert np.array_equal(mse, [reconstruction_loss(x, y)[0] for x, y in zip(image, recon)])
    assert np.array_equal(psnr, [reference_psnr(x, y) for x, y in zip(image, clamped)])
    assert np.array_equal(ssim, [image_ssim(x, y) for x, y in zip(image, clamped)])
