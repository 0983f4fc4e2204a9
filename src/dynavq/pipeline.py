"""Composition of encoder, allocator, quantizer and decoder.

A Model bundles all learnable parameters plus the quantization
hyperparameters, and forward_image runs the full
patchify -> encode -> allocate -> quantize -> decode pass for one image or
for a batch of them at once. The pass reads the model and writes nothing
into it. Training and evaluation both build on this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from dynavq.allocator import AllocatorCache, AllocatorParams, allocator_forward
from dynavq.autoencoder import (
    MlpCache,
    MlpParams,
    encode,
    mlp_forward,
    patchify,
    unpatchify,
)
from dynavq.codebook import Codebook
from dynavq.quantizer import WEIGHTINGS, QuantizeMode, QuantizeOutput, quantize

#: The networks other than the codebook, in checkpoint and optimizer order.
#: Each is a parameter dataclass whose fields are walked as ``vars(params)``.
PARTS = ("allocator", "encoder", "decoder")

#: The quantization settings a Model carries, in checkpoint order. Their
#: defaults are TrainConfig's; check_settings validates them for both.
SETTINGS = ("patch_size", "top_k", "temperature", "beta", "weighting")


def check_settings(settings, primitives_per_sub: int) -> None:
    """Raise ValueError naming the first of the SETTINGS attributes of
    ``settings`` (a Model or a TrainConfig) that is out of range."""
    if settings.patch_size < 1:
        raise ValueError(f"patch_size must be at least 1, got {settings.patch_size}")
    if not 1 <= settings.top_k <= primitives_per_sub:
        raise ValueError("top_k must lie in [1, primitives_per_sub]")
    if not (math.isfinite(settings.temperature) and settings.temperature > 0):
        raise ValueError(
            f"temperature must be finite and positive, got {settings.temperature}"
        )
    if not (math.isfinite(settings.beta) and settings.beta >= 0):
        raise ValueError(f"beta must be finite and non-negative, got {settings.beta}")
    if settings.weighting not in WEIGHTINGS:
        raise ValueError(
            f"weighting must be one of {tuple(WEIGHTINGS)}, got {settings.weighting!r}"
        )


@dataclass
class Model:
    """All parameters of the tokenizer plus its SETTINGS."""

    codebook: Codebook
    allocator: AllocatorParams
    encoder: MlpParams
    decoder: MlpParams
    patch_size: int
    top_k: int
    temperature: float
    beta: float
    weighting: str

    def __post_init__(self):
        check_settings(self, self.codebook.primitives_per_sub)
        if self.encoder.out_dim != self.codebook.embed_dim:
            raise ValueError("encoder output dim must match the codebook embed dim")
        if self.decoder.in_dim != self.codebook.embed_dim:
            raise ValueError("decoder input dim must match the codebook embed dim")
        if self.allocator.in_channels != self.codebook.embed_dim:
            raise ValueError("allocator channels must match the codebook embed dim")

    def adaptive_mode(self) -> QuantizeMode:
        return QuantizeMode.adaptive(self.top_k)


@dataclass
class ForwardResult:
    """One forward pass with cached activations.

    A batch's patch rows are stacked image after image; image i owns rows
    ``offsets[i]:offsets[i + 1]``.
    """

    patches: np.ndarray
    embeddings: np.ndarray
    ratios: np.ndarray
    quant: QuantizeOutput
    recon_patches: np.ndarray
    encoder_cache: MlpCache
    allocator_cache: AllocatorCache
    decoder_cache: MlpCache
    offsets: np.ndarray

    def recon_image(self, height: int, width: int, patch: int) -> np.ndarray:
        return unpatchify(self.recon_patches, height, width, patch)


def forward_image(
    model: Model,
    image: Union[np.ndarray, Sequence[np.ndarray]],
    mode: Optional[QuantizeMode] = None,
) -> ForwardResult:
    """Run the full pipeline on one grayscale image or a list of them.

    A list is processed in one pass over all its patches; the images may
    differ in size. ``mode`` defaults to the model's adaptive mode. The
    allocator runs in every mode (its ratios are logged and trained even
    when a forced mode ignores them).
    """
    if mode is None:
        mode = model.adaptive_mode()
    images = [image] if isinstance(image, np.ndarray) else list(image)
    if not images:
        raise ValueError("need at least one image")
    per_image = [patchify(img, model.patch_size) for img in images]
    patches = np.concatenate(per_image)
    offsets = np.cumsum([0] + [p.shape[0] for p in per_image])
    embeddings, encoder_cache = encode(patches, model.encoder)
    ratios, allocator_cache = allocator_forward(embeddings, model.allocator, offsets)
    quant = quantize(
        embeddings,
        model.codebook,
        ratios,
        mode,
        temperature=model.temperature,
        weighting=model.weighting,
    )
    recon_patches, decoder_cache = mlp_forward(quant.quantized, model.decoder)
    return ForwardResult(
        patches=patches,
        embeddings=embeddings,
        ratios=ratios,
        quant=quant,
        recon_patches=recon_patches,
        encoder_cache=encoder_cache,
        allocator_cache=allocator_cache,
        decoder_cache=decoder_cache,
        offsets=offsets,
    )
