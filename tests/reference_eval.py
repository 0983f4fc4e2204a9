"""Dataset evaluation one image at a time, with a per-window SSIM loop.

This is the per-image form of ``dynavq.metrics.evaluate_reconstruction``
and ``dynavq.metrics.ssim``: every image gets its own forward pass and
every SSIM window its own Python iteration. The batched evaluation and
the vectorized SSIM must agree with these up to float64 summation order;
tests compare them.

``reference_scores`` keeps the evaluation's chunked forward pass but
scores each image on its own, with a scalar PSNR and ``image_ssim``, the
vectorized SSIM of one image. Scoring a stack of equal-shaped images
changes no summation order, so the evaluation's means, and the stacked
PSNR and SSIM of each image, must equal these exactly.
"""

from typing import List, Optional, Tuple

import numpy as np

from dynavq.autoencoder import reconstruction_loss, unpatchify
from dynavq.dataio import Dataset
from dynavq.metrics import PSNR_CAP_DB, EvalStats, _chunks, codebook_perplexity
from dynavq.pipeline import Model, forward_image
from dynavq.quantizer import QuantizeMode


def reference_psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR in dB of one pair of images with peak 1; identical images give
    the cap."""
    mse = float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / mse))


def reference_ssim(
    a: np.ndarray,
    b: np.ndarray,
    window: int = 8,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean SSIM over non-overlapping windows, one window per iteration;
    ragged edge pixels beyond the last full window are ignored."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    rows = x.shape[0] // window
    cols = x.shape[1] // window
    values = []
    for wy in range(rows):
        for wx in range(cols):
            wa = x[wy * window:(wy + 1) * window, wx * window:(wx + 1) * window]
            wb = y[wy * window:(wy + 1) * window, wx * window:(wx + 1) * window]
            mu_a = wa.mean()
            mu_b = wb.mean()
            var_a = ((wa - mu_a) ** 2).mean()
            var_b = ((wb - mu_b) ** 2).mean()
            cov = ((wa - mu_a) * (wb - mu_b)).mean()
            num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
            den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
            values.append(num / den)
    return float(np.mean(values))


def image_ssim(
    a: np.ndarray,
    b: np.ndarray,
    window: int = 8,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean SSIM of one pair of (H, W) images over non-overlapping
    windows, every window reduced at once through one reshape to (window
    rows, window cols, window^2 pixels)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    rows = x.shape[0] // window
    cols = x.shape[1] // window

    def windows(img: np.ndarray) -> np.ndarray:
        return (
            img[:rows * window, :cols * window]
            .reshape(rows, window, cols, window)
            .swapaxes(1, 2)
            .reshape(rows, cols, window * window)
        )

    wa = windows(x)
    wb = windows(y)
    mu_a = wa.mean(axis=2)
    mu_b = wb.mean(axis=2)
    da = wa - mu_a[..., None]
    db = wb - mu_b[..., None]
    var_a = (da ** 2).mean(axis=2)
    var_b = (db ** 2).mean(axis=2)
    cov = (da * db).mean(axis=2)
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def reference_evaluate(
    model: Model, dataset: Dataset, mode: Optional[QuantizeMode] = None
) -> EvalStats:
    """Evaluate a dataset with one forward pass per image."""
    if mode is None:
        mode = model.adaptive_mode()
    mses: List[float] = []
    psnrs: List[float] = []
    ssims: List[float] = []
    all_counts: List[np.ndarray] = []
    all_labels: List[np.ndarray] = []
    usage = np.zeros_like(model.codebook.usage_counts, dtype=np.float64)
    for item in dataset.items:
        h, w = item.image.shape
        result = forward_image(model, item.image, mode)
        recon = result.recon_image(h, w, model.patch_size)
        mses.append(reconstruction_loss(item.image, recon)[0])
        clamped = np.clip(recon, 0.0, 1.0)
        psnrs.append(reference_psnr(item.image, clamped))
        ssims.append(reference_ssim(item.image, clamped))
        all_counts.append(result.quant.alloc.counts)
        all_labels.append(item.patch_labels.reshape(-1))
        usage += result.quant.usage_delta
    counts = np.concatenate(all_counts)
    return EvalStats(
        mean_mse=float(np.mean(mses)),
        mean_psnr=float(np.mean(psnrs)),
        mean_ssim=float(np.mean(ssims)),
        mean_count=float(np.mean(counts)),
        perplexity=np.asarray(codebook_perplexity(usage)),
        counts=counts,
        labels=np.concatenate(all_labels),
    )


def reference_scores(
    model: Model, dataset: Dataset, mode: QuantizeMode
) -> Tuple[float, float, float]:
    """Mean MSE, PSNR and SSIM over the chunked forward pass of
    evaluate_reconstruction, each image cut out and scored alone."""
    p = model.patch_size
    mses: List[float] = []
    psnrs: List[float] = []
    ssims: List[float] = []
    for chunk in _chunks(dataset.items, p):
        result = forward_image(model, [item.image for item in chunk], mode)
        for item, start, stop in zip(chunk, result.offsets[:-1], result.offsets[1:]):
            h, w = item.image.shape
            recon = unpatchify(result.recon_patches[start:stop], h, w, p)
            mses.append(reconstruction_loss(item.image, recon)[0])
            clamped = np.clip(recon, 0.0, 1.0)
            psnrs.append(reference_psnr(item.image, clamped))
            ssims.append(image_ssim(item.image, clamped))
    return float(np.mean(mses)), float(np.mean(psnrs)), float(np.mean(ssims))
