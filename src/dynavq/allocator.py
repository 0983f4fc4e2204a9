"""Per-patch allocation ratios and their training target.

A two-layer 1D convolutional network (conv -> ReLU -> conv -> sigmoid)
runs along the patch sequence and emits one ratio per patch. The ratio is
mapped to a primitive count, and the network is supervised by the
min-max-normalized per-patch quantization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from dynavq.numerics import Array, check_finite

#: Sigmoid outputs are clipped to this open interval so ratios never hit
#: 0 or 1 exactly even when the logits saturate in float64.
RATIO_CLIP = 1e-12


@dataclass
class AllocatorParams:
    """Weights of the allocator network.

    conv1_w: (hidden, in_channels, k1) kernel over the patch axis.
    conv2_w: (1, hidden, k2) kernel producing the ratio logit.
    Kernel widths must be odd (same-length zero padding).
    """

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray

    def __post_init__(self):
        if self.conv1_w.ndim != 3 or self.conv2_w.ndim != 3:
            raise ValueError("conv kernels must be 3-D (out, in, width)")
        if self.conv1_w.shape[2] % 2 == 0 or self.conv2_w.shape[2] % 2 == 0:
            raise ValueError("kernel widths must be odd")
        if self.conv2_w.shape[0] != 1:
            raise ValueError("second conv must emit a single channel")
        if self.conv2_w.shape[1] != self.conv1_w.shape[0]:
            raise ValueError("conv2 input channels must match conv1 output channels")
        for arr in vars(self).values():
            if not np.all(np.isfinite(arr)):
                raise ValueError("allocator parameters must be finite")

    @property
    def in_channels(self) -> int:
        return self.conv1_w.shape[1]

    @property
    def hidden(self) -> int:
        return self.conv1_w.shape[0]


def init_allocator(
    embed_dim: int,
    seed: int,
    hidden: int | None = None,
    kernel1: int = 3,
    kernel2: int = 3,
) -> AllocatorParams:
    """Allocator with uniform(+-1/sqrt(fan_in)) weights; hidden defaults to embed_dim/2."""
    if hidden is None:
        hidden = max(1, embed_dim // 2)
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(embed_dim * kernel1)
    bound2 = 1.0 / np.sqrt(hidden * kernel2)
    return AllocatorParams(
        conv1_w=rng.uniform(-bound1, bound1, size=(hidden, embed_dim, kernel1)),
        conv1_b=np.zeros(hidden),
        conv2_w=rng.uniform(-bound2, bound2, size=(1, hidden, kernel2)),
        conv2_b=np.zeros(1),
    )


def _conv1d_valid(x: Array, w: Array, b: Array) -> Array:
    """1-D convolution along the last axis without padding.

    x: (in_channels, positions); w: (out, in, width) with odd width.
    Output column i is centred on input column i + width // 2.
    """
    width = w.shape[2]
    length = x.shape[1] - width + 1
    out = b[:, None] + w[:, :, 0] @ x[:, :length]
    for u in range(1, width):
        out += w[:, :, u] @ x[:, u:u + length]
    return out


def _sigmoid(x: Array) -> Array:
    """Logistic function; exp only sees non-positive arguments."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class AllocatorCache:
    """Activations stashed by allocator_forward for the backward pass.

    Arrays run over the padded sequence; ``positions`` are the columns that
    hold patches, every other column is zero padding.
    """

    xpad: np.ndarray
    pre_relu: np.ndarray
    hidden_pad: np.ndarray
    ratios: np.ndarray
    positions: np.ndarray


def _patch_positions(offsets: Array, gap: int) -> Tuple[Array, int]:
    """Columns of each patch when every image is preceded by ``gap`` zero
    columns and the last one followed by ``gap`` more; also the total
    number of columns."""
    lengths = np.diff(offsets)
    image = np.repeat(np.arange(lengths.size), lengths)
    patches = int(offsets[-1])
    return np.arange(patches) + gap * (image + 1), patches + gap * (lengths.size + 1)


def allocator_forward(
    embeddings: Array, params: AllocatorParams, offsets: Array | None = None
) -> Tuple[Array, AllocatorCache]:
    """Map patch embeddings (length x dim) to per-patch ratios in (0, 1).

    ``offsets`` (0, L_0, L_0 + L_1, ..., length) splits the rows into the
    patch sequences of several images; each is convolved on its own with
    same-length zero padding. One convolution covers them all, with zero
    columns between the images. Defaults to one sequence.
    """
    z = check_finite("embeddings", embeddings)
    if z.ndim != 2 or z.shape[1] != params.in_channels:
        raise ValueError(
            f"embeddings must be (patches, {params.in_channels}), got {z.shape}"
        )
    if offsets is None:
        offsets = np.array([0, z.shape[0]])
    radius1 = params.conv1_w.shape[2] // 2
    radius2 = params.conv2_w.shape[2] // 2
    positions, columns = _patch_positions(offsets, max(radius1, radius2))
    xpad = np.zeros((params.in_channels, columns))
    xpad[:, positions] = z.T
    pre_relu = np.zeros((params.hidden, columns))
    pre_relu[:, radius1:columns - radius1] = _conv1d_valid(
        xpad, params.conv1_w, params.conv1_b
    )
    hidden_pad = np.zeros_like(pre_relu)
    hidden_pad[:, positions] = np.maximum(pre_relu[:, positions], 0.0)
    logits = _conv1d_valid(hidden_pad, params.conv2_w, params.conv2_b)
    ratios = np.clip(
        _sigmoid(logits[0, positions - radius2]), RATIO_CLIP, 1.0 - RATIO_CLIP
    )
    return ratios, AllocatorCache(xpad, pre_relu, hidden_pad, ratios, positions)


def allocator_backward(
    grad_ratios: Array, cache: AllocatorCache, params: AllocatorParams
) -> Tuple[AllocatorParams, Array]:
    """Backprop through sigmoid -> conv2 -> ReLU -> conv1.

    Returns gradients for the parameters (as an AllocatorParams) and for
    the input embeddings.
    """
    r = cache.ratios
    positions = cache.positions
    columns = cache.xpad.shape[1]

    k2 = params.conv2_w.shape[2]
    radius2 = k2 // 2
    length2 = columns - 2 * radius2
    ds = np.zeros((1, length2))
    ds[0, positions - radius2] = np.asarray(grad_ratios, dtype=np.float64) * r * (1 - r)
    d_w2 = np.zeros_like(params.conv2_w)
    d_hidden_pad = np.zeros_like(cache.hidden_pad)
    for u in range(k2):
        d_w2[:, :, u] = ds @ cache.hidden_pad[:, u:u + length2].T
        d_hidden_pad[:, u:u + length2] += params.conv2_w[:, :, u].T @ ds
    d_b2 = ds.sum(axis=1)
    d_pre = np.zeros_like(cache.pre_relu)
    active = cache.pre_relu[:, positions] > 0
    d_pre[:, positions] = d_hidden_pad[:, positions] * active

    k1 = params.conv1_w.shape[2]
    radius1 = k1 // 2
    length1 = columns - 2 * radius1
    d_pre = d_pre[:, radius1:radius1 + length1]
    d_w1 = np.zeros_like(params.conv1_w)
    d_xpad = np.zeros_like(cache.xpad)
    for u in range(k1):
        d_w1[:, :, u] = d_pre @ cache.xpad[:, u:u + length1].T
        d_xpad[:, u:u + length1] += params.conv1_w[:, :, u].T @ d_pre
    d_b1 = d_pre.sum(axis=1)
    d_embeddings = d_xpad[:, positions].T
    return AllocatorParams(d_w1, d_b1, d_w2, d_b2), d_embeddings


def count_from_ratio(ratios: Array, cap: int) -> Array:
    """Map ratios to primitive counts: clamp(round(r * cap), 1, cap).

    Rounding is half-up, so every patch gets at least one primitive and at
    most ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    r = np.asarray(ratios, dtype=np.float64)
    counts = np.floor(r * cap + 0.5)
    return np.clip(counts, 1, cap).astype(np.int64)


def ratio_target(
    embeddings: Array,
    quantized: Array,
    primitives_per_sub: int,
    offsets: Array | None = None,
) -> Array:
    """Per-patch supervision targets from quantization error.

    Squared L2 errors per patch are min-max mapped onto
    [1/primitives_per_sub, 1], separately within each image when
    ``offsets`` (0, L_0, L_0 + L_1, ..., patches) splits the rows into
    images. An image whose errors are all equal maps everything to the
    lower bound. The output is a constant teaching signal: no gradient
    flows through it.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    q = np.asarray(quantized, dtype=np.float64)
    if z.shape != q.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {q.shape}")
    if primitives_per_sub < 1:
        raise ValueError("primitives_per_sub must be at least 1")
    errors = ((q - z) ** 2).sum(axis=1)
    if offsets is None:
        offsets = np.array([0, errors.shape[0]])
    starts = np.asarray(offsets[:-1])
    lengths = np.diff(offsets)
    e_min = np.repeat(np.minimum.reduceat(errors, starts), lengths)
    e_max = np.repeat(np.maximum.reduceat(errors, starts), lengths)
    lo = 1.0 / primitives_per_sub
    flat = e_max == e_min
    scaled = (errors - e_min) / np.where(flat, 1.0, e_max - e_min)
    return np.where(flat, lo, np.clip(lo + scaled * (1.0 - lo), lo, 1.0))


def dpa_loss(
    ratios: Array, targets: Array, row_weights: Array | None = None
) -> Tuple[float, Array]:
    """Squared error between ratios and targets, plus d/d ratios.

    The mean over patches, or the sum weighted by ``row_weights`` when
    given (weights summing to 1).
    """
    r = np.asarray(ratios, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if r.shape != t.shape or r.ndim != 1:
        raise ValueError(f"length mismatch: {r.shape} vs {t.shape}")
    diff = r - t
    if row_weights is None:
        return float(np.mean(diff * diff)), 2.0 * diff / r.shape[0]
    return float(row_weights @ (diff * diff)), 2.0 * diff * row_weights
