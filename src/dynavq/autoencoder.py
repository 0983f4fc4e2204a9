"""Patch-level encoder/decoder and the pixel reconstruction loss.

Images are cut into non-overlapping patches in row-major order; each
patch is mapped through a small affine -> tanh -> affine network into the
embedding space, and the decoder mirrors it back. tanh keeps every
activation smooth, so all backward passes verify cleanly against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from dynavq.numerics import Array, check_finite


def patchify(image: Array, patch: int) -> Array:
    """Cut (H, W) pixels into rows of flattened patches.

    Patches are ordered top-left to bottom-right and flattened row-major,
    so ``unpatchify(patchify(img)) == img`` bit-exactly.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be a 2-D grayscale array")
    h, w = img.shape
    if patch < 1 or h % patch or w % patch:
        raise ValueError(f"image {h}x{w} not divisible into {patch}x{patch} patches")
    rows = h // patch
    cols = w // patch
    return (
        img.reshape(rows, patch, cols, patch)
        .transpose(0, 2, 1, 3)
        .reshape(rows * cols, patch * patch)
    )


def unpatchify(patches: Array, height: int, width: int, patch: int) -> Array:
    """Inverse of patchify for the given output dimensions.

    Leading axes are kept: an (n, rows * cols, patch^2) stack of patch
    matrices gives an (n, height, width) stack of images.
    """
    p = np.asarray(patches, dtype=np.float64)
    rows = height // patch
    cols = width // patch
    lead = p.shape[:-2]
    if height % patch or width % patch or p.shape[-2:] != (rows * cols, patch * patch):
        raise ValueError(
            f"patch matrix {p.shape} does not tile a {height}x{width} image "
            f"with patch {patch}"
        )
    return (
        p.reshape(*lead, rows, cols, patch, patch)
        .swapaxes(-3, -2)
        .reshape(*lead, height, width)
    )


@dataclass
class MlpParams:
    """Per-patch two-layer affine map with a tanh in between."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[1] != self.b2.shape[0]:
            raise ValueError("bias sizes must match layer widths")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden widths of the two layers must agree")
        for arr in vars(self).values():
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[1]


def init_mlp(in_dim: int, hidden: int, out_dim: int, seed: int) -> MlpParams:
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(in_dim)
    bound2 = 1.0 / np.sqrt(hidden)
    return MlpParams(
        w1=rng.uniform(-bound1, bound1, size=(in_dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-bound2, bound2, size=(hidden, out_dim)),
        b2=np.zeros(out_dim),
    )


@dataclass
class MlpCache:
    inputs: np.ndarray
    hidden: np.ndarray  # tanh outputs


def mlp_forward(x: Array, params: MlpParams) -> Tuple[Array, MlpCache]:
    inp = check_finite("inputs", x)
    if inp.ndim != 2 or inp.shape[1] != params.in_dim:
        raise ValueError(f"inputs must be (rows, {params.in_dim}), got {inp.shape}")
    hidden = np.tanh(inp @ params.w1 + params.b1)
    out = hidden @ params.w2 + params.b2
    return out, MlpCache(inputs=inp, hidden=hidden)


def mlp_backward(
    grad_out: Array, cache: MlpCache, params: MlpParams
) -> Tuple[MlpParams, Array]:
    """Gradients for the parameters (as an MlpParams) and for the inputs."""
    g = np.asarray(grad_out, dtype=np.float64)
    d_w2 = cache.hidden.T @ g
    d_b2 = g.sum(axis=0)
    d_hidden = (g @ params.w2.T) * (1.0 - cache.hidden**2)
    d_w1 = cache.inputs.T @ d_hidden
    d_b1 = d_hidden.sum(axis=0)
    d_inputs = d_hidden @ params.w1.T
    return MlpParams(d_w1, d_b1, d_w2, d_b2), d_inputs


def init_encoder(patch: int, hidden: int, embed_dim: int, seed: int) -> MlpParams:
    return init_mlp(patch * patch, hidden, embed_dim, seed)


def init_decoder(patch: int, hidden: int, embed_dim: int, seed: int) -> MlpParams:
    return init_mlp(embed_dim, hidden, patch * patch, seed)


def encode(patches: Array, params: MlpParams) -> Tuple[Array, MlpCache]:
    """Patch matrix -> embedding matrix (rows preserved)."""
    return mlp_forward(patches, params)


def reconstruction_loss(
    image: Array, recon: Array, row_weights: Array | None = None
) -> Tuple[float, Array]:
    """Mean squared error over all pixels, plus d/d recon.

    With ``row_weights`` (one per row of a patch matrix, summing to 1) the
    value is the weighted sum of the rows' mean squared errors.
    """
    a = np.asarray(image, dtype=np.float64)
    b = np.asarray(recon, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = b - a
    if row_weights is None:
        return float(np.mean(diff * diff)), 2.0 * diff / a.size
    scale = row_weights[:, None] / a.shape[1]
    return float(((diff * diff) * scale).sum()), 2.0 * diff * scale
