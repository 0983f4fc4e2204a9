"""Reconstruction quality, codebook health and allocation diagnostics.

PSNR and a windowed SSIM for image quality, usage perplexity for codebook
health, rate-distortion sweeps over forced primitive counts, allocation
heatmaps, Spearman correlation between allocation and ground-truth patch
complexity, and the centroid similarity matrix.

Dataset evaluation runs the pipeline over chunks of consecutive images,
one forward pass per chunk of at most ``EVAL_ROWS`` patch rows, and
scores each run of equal-shaped images in a chunk as one stack. PSNR and
SSIM take stacks: leading axes give one value per image, equal bit for
bit to scoring that image alone. SSIM reduces all windows at once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from dynavq.autoencoder import unpatchify
from dynavq.codebook import Codebook, centroids
from dynavq.dataio import Dataset, LabeledImage, save_raster
from dynavq.numerics import Array, cosine_similarity_matrix
from dynavq.pipeline import Model, forward_image
from dynavq.quantizer import AllocationMap, QuantizeMode

#: PSNR reported for a zero-MSE pair; keeps CSV outputs free of infinities.
PSNR_CAP_DB = 99.0

#: Side of SSIM's square windows; evaluated images must be at least this
#: wide and tall.
SSIM_WINDOW = 8

#: Patch rows per evaluation forward pass: one training batch at the desk
#: recipe (8 images x 64 patches). Evaluation then holds no more
#: activations at once than a training step does, whatever the dataset's
#: size; an image with more rows than this runs alone.
EVAL_ROWS = 512


def _image_pair(a: Array, b: Array) -> Tuple[np.ndarray, np.ndarray]:
    """Two images, or two stacks of images on the last two axes, of equal
    shape as float64 arrays."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.ndim < 2:
        raise ValueError(f"images must be 2-D, got shape {x.shape}")
    return x, y


def _per_image(values: np.ndarray) -> Union[float, np.ndarray]:
    """A float for one image, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def psnr(a: Array, b: Array, max_val: float = 1.0) -> Union[float, np.ndarray]:
    """Peak signal-to-noise ratio in dB; identical images give the cap.

    A pair of (H, W) images gives a float; leading axes give one value per
    image, equal bit for bit to scoring each image alone.
    """
    x, y = _image_pair(a, b)
    mse = np.mean((x - y) ** 2, axis=(-2, -1))
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(max_val * max_val / mse)
    return _per_image(np.where(mse == 0.0, PSNR_CAP_DB, db))


def ssim(
    a: Array,
    b: Array,
    window: int = SSIM_WINDOW,
    k1: float = 0.01,
    k2: float = 0.03,
) -> Union[float, np.ndarray]:
    """Mean structural similarity over non-overlapping windows.

    Uses the standard luminance/contrast/structure product per window with
    population statistics and dynamic range 1. Ragged edge pixels beyond
    the last full window are ignored. Every window is reduced at once: the
    images are reshaped to (window rows, window cols, window^2 pixels).
    A pair of (H, W) images gives a float; leading axes give one value per
    image, equal bit for bit to scoring each image alone.
    """
    x, y = _image_pair(a, b)
    if x.shape[-2] < window or x.shape[-1] < window:
        raise ValueError(f"images must be at least {window}x{window}")
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    lead = x.shape[:-2]
    rows = x.shape[-2] // window
    cols = x.shape[-1] // window

    def windows(img: np.ndarray) -> np.ndarray:
        return (
            img[..., :rows * window, :cols * window]
            .reshape(*lead, rows, window, cols, window)
            .swapaxes(-3, -2)
            .reshape(*lead, rows, cols, window * window)
        )

    wa = windows(x)
    wb = windows(y)
    mu_a = wa.mean(axis=-1)
    mu_b = wb.mean(axis=-1)
    da = wa - mu_a[..., None]
    db = wb - mu_b[..., None]
    var_a = (da ** 2).mean(axis=-1)
    var_b = (db ** 2).mean(axis=-1)
    cov = (da * db).mean(axis=-1)
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return _per_image(np.mean(num / den, axis=(-2, -1)))


def codebook_perplexity(usage_counts: Array) -> Union[float, np.ndarray]:
    """exp(entropy) of the normalized usage distribution.

    1-D input returns a float; an (subs, prims) matrix returns one value
    per sub-codebook. Uniform usage over n codes gives n; a single live
    code gives 1.
    """
    counts = np.asarray(usage_counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("usage counts must be non-negative")
    single = counts.ndim == 1
    mat = counts.reshape(1, -1) if single else counts
    totals = mat.sum(axis=1)
    if np.any(totals == 0):
        raise ValueError("usage counts must not be all zero")
    probs = mat / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(probs > 0, np.log(probs), 0.0)
    entropy = -(probs * logs).sum(axis=1)
    out = np.exp(entropy)
    return float(out[0]) if single else out


def allocation_heatmap(
    alloc: AllocationMap, rows: int, cols: int, path=None
) -> np.ndarray:
    """Per-patch allocation counts as a (rows, cols) grid.

    When ``path`` is given the grid is also exported as a PGM with counts
    [1, cap] scaled linearly onto pixel levels [0, 255].
    """
    if rows * cols != alloc.patches:
        raise ValueError(
            f"grid {rows}x{cols} does not match {alloc.patches} patches"
        )
    grid = alloc.counts.reshape(rows, cols)
    if path is not None:
        if alloc.cap > 1:
            scaled = (grid - 1) / (alloc.cap - 1)
        else:
            scaled = np.zeros_like(grid, dtype=np.float64)
        save_raster(scaled, path)
    return grid


def _average_ranks(values: Array) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.shape[0])
    i = 0
    while i < v.shape[0]:
        j = i
        while j < v.shape[0] and v[order[j]] == v[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    return ranks


def spearman(a: Array, b: Array) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if x.shape[0] < 3:
        raise ValueError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for constant inputs")
    ra = _average_ranks(x)
    rb = _average_ranks(y)
    da = ra - ra.mean()
    db = rb - rb.mean()
    return float((da * db).sum() / np.sqrt((da * da).sum() * (db * db).sum()))


def centroid_similarity_matrix(cb: Codebook, path=None) -> np.ndarray:
    """Pairwise cosine similarities between sub-codebook centroids.

    The diagonal is pinned to exactly 1 (cosine of a vector with itself).
    Optionally exported as CSV.
    """
    cents = centroids(cb)
    sims = cosine_similarity_matrix(cents, cents)
    np.fill_diagonal(sims, 1.0)
    if path is not None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in sims:
                writer.writerow([repr(float(v)) for v in row])
    return sims


# ---------------------------------------------------------------------------
# Dataset-level evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalStats:
    """Aggregate reconstruction statistics over a dataset."""

    mean_mse: float
    mean_psnr: float
    mean_ssim: float
    mean_count: float
    perplexity: np.ndarray
    counts: np.ndarray
    labels: np.ndarray


def _chunks(items: Sequence[LabeledImage], patch: int) -> Iterator[List[LabeledImage]]:
    """Consecutive items grouped into chunks of at most EVAL_ROWS patch
    rows; an item with more rows than that forms a chunk of its own."""
    chunk: List[LabeledImage] = []
    rows = 0
    for item in items:
        h, w = item.image.shape
        n = (h // patch) * (w // patch)
        if chunk and rows + n > EVAL_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(item)
        rows += n
    if chunk:
        yield chunk


def _stack_scores(
    image: np.ndarray, recon: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MSE before the [0, 1] clamp, and PSNR and SSIM after it, one value
    per image of an (n, H, W) stack."""
    diff = recon - image
    clamped = np.clip(recon, 0.0, 1.0)
    return np.mean(diff * diff, axis=(-2, -1)), psnr(image, clamped), ssim(image, clamped)


def evaluate_reconstruction(
    model: Model, dataset: Dataset, mode: Optional[QuantizeMode] = None
) -> EvalStats:
    """Evaluate pixel reconstruction of a dataset under one quantize mode.

    Consecutive images share one forward pass, up to EVAL_ROWS patch rows
    per pass (one desk training batch, so memory stays bounded on any
    dataset). Rows are quantized independently, so the chunking changes
    no result beyond float64 rounding. Each run of equal-shaped images in
    a chunk is scored as one (n, H, W) stack, cut from the pass's input
    and output patch rows: MSE, PSNR and SSIM are computed once per stack
    and give each image the value it would get alone, bit for bit. MSE is
    measured pre-clamp (training semantics); PSNR/SSIM are measured on
    outputs clamped to [0, 1] (export semantics).
    """
    items = dataset.items
    if len(items) == 0:
        raise ValueError("dataset is empty")
    if mode is None:
        mode = model.adaptive_mode()
    p = model.patch_size
    mses = np.empty(len(items))
    psnrs = np.empty(len(items))
    ssims = np.empty(len(items))
    all_counts: List[np.ndarray] = []
    usage = np.zeros_like(model.codebook.usage_counts, dtype=np.float64)
    done = 0
    for chunk in _chunks(items, p):
        result = forward_image(model, [item.image for item in chunk], mode)
        row = 0
        for (h, w), run in groupby(item.image.shape for item in chunk):
            n = len(list(run))
            per_image = (h // p) * (w // p)
            rows = slice(row, row + n * per_image)
            stack = (n, per_image, p * p)
            image = unpatchify(result.patches[rows].reshape(stack), h, w, p)
            recon = unpatchify(result.recon_patches[rows].reshape(stack), h, w, p)
            scored = slice(done, done + n)
            mses[scored], psnrs[scored], ssims[scored] = _stack_scores(image, recon)
            row = rows.stop
            done += n
        all_counts.append(result.quant.alloc.counts)
        usage += result.quant.usage_delta
    counts = np.concatenate(all_counts)
    labels = np.concatenate([item.patch_labels for item in items], axis=None)
    return EvalStats(
        mean_mse=float(np.mean(mses)),
        mean_psnr=float(np.mean(psnrs)),
        mean_ssim=float(np.mean(ssims)),
        mean_count=float(np.mean(counts)),
        perplexity=np.asarray(codebook_perplexity(usage)),
        counts=counts,
        labels=labels,
    )


def rate_distortion(
    model: Model, dataset: Dataset, forced_ns: Sequence[int]
) -> List[EvalStats]:
    """Evaluate each forced primitive count, then the adaptive allocator.

    Returns one EvalStats per forced n (quantizer in fixed mode), in the
    given order, followed by the adaptive one.
    """
    prims = model.codebook.primitives_per_sub
    for n in forced_ns:
        if not 1 <= n <= prims:
            raise ValueError(f"forced n must lie in [1, {prims}], got {n}")
    modes = [QuantizeMode.fixed_top_n(n) for n in forced_ns]
    modes.append(model.adaptive_mode())
    return [evaluate_reconstruction(model, dataset, mode) for mode in modes]


def write_eval_report(
    path, settings: Sequence[str], stats: Sequence[EvalStats]
) -> None:
    """CSV report, one row per setting name and its EvalStats: setting,
    mean_mse, psnr, ssim, mean_count, perplexities."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["setting", "mean_mse", "psnr", "ssim", "mean_count",
             "perplexity_per_subcodebook"]
        )
        for setting, row in zip(settings, stats, strict=True):
            writer.writerow([
                setting,
                repr(float(row.mean_mse)),
                repr(float(row.mean_psnr)),
                repr(float(row.mean_ssim)),
                repr(float(row.mean_count)),
                ";".join(repr(float(p)) for p in np.atleast_1d(row.perplexity)),
            ])
