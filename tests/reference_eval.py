"""Dataset evaluation one image at a time, with a per-window SSIM loop.

This is the per-image form of ``dynavq.metrics.evaluate_reconstruction``
and ``dynavq.metrics.ssim``: every image gets its own forward pass and
every SSIM window its own Python iteration. The batched evaluation and
the vectorized SSIM must agree with these up to float64 summation order;
tests compare them.
"""

from typing import List, Optional

import numpy as np

from dynavq.autoencoder import reconstruction_loss
from dynavq.dataio import Dataset
from dynavq.metrics import EvalStats, codebook_perplexity, psnr
from dynavq.pipeline import Model, forward_image
from dynavq.quantizer import QuantizeMode


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
        psnrs.append(psnr(item.image, clamped))
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
