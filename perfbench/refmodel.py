"""Reference forward pass of the dynavq tokenizer, written from the method.

It reads a model's parameter arrays but calls none of dynavq's forward
code: patchify, the tanh MLP encoder, the two-layer conv allocator with a
sigmoid head, the count rule, the cosine top-n selection with ties broken
by ascending index, the softmax over the kept codes at temperature T, and
the decoder are all written out here, mostly one patch and one
sub-codebook at a time. The benchmark compares ``forward_image`` against
it, so a fast path that changes what the tokenizer computes shows up as a
failed check rather than as a speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_EPS = 1e-8
RATIO_CLIP = 1e-12


@dataclass
class RefForward:
    ratios: np.ndarray  # (patches,)
    counts: np.ndarray  # (patches,)
    recon: np.ndarray  # (H, W), not clamped


def _patches(image: np.ndarray, p: int) -> np.ndarray:
    h, w = image.shape
    rows = [
        image[r:r + p, c:c + p].reshape(-1)
        for r in range(0, h, p)
        for c in range(0, w, p)
    ]
    return np.array(rows, dtype=np.float64)


def _image(patches: np.ndarray, h: int, w: int, p: int) -> np.ndarray:
    out = np.empty((h, w))
    k = 0
    for r in range(0, h, p):
        for c in range(0, w, p):
            out[r:r + p, c:c + p] = patches[k].reshape(p, p)
            k += 1
    return out


def _mlp(x: np.ndarray, params) -> np.ndarray:
    return np.tanh(x @ params.w1 + params.b1) @ params.w2 + params.b2


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: (channels, length); w: (out, channels, width), zero padded."""
    width = w.shape[2]
    r = width // 2
    length = x.shape[1]
    xpad = np.concatenate(
        [np.zeros((x.shape[0], r)), x, np.zeros((x.shape[0], r))], axis=1
    )
    windows = np.stack([xpad[:, l:l + width] for l in range(length)])
    return np.einsum("ocu,lcu->ol", w, windows) + b[:, None]


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    for i, x in enumerate(v):
        if x >= 0:
            out[i] = 1.0 / (1.0 + np.exp(-x))
        else:
            e = np.exp(x)
            out[i] = e / (1.0 + e)
    return out


def allocator_ratios(z: np.ndarray, params) -> np.ndarray:
    hidden = np.maximum(_conv_same(z.T, params.conv1_w, params.conv1_b), 0.0)
    logits = _conv_same(hidden, params.conv2_w, params.conv2_b)[0]
    return np.clip(_sigmoid(logits), RATIO_CLIP, 1.0 - RATIO_CLIP)


def counts_for(kind: str, amount: int, ratios: np.ndarray) -> np.ndarray:
    """1 in top1, ``amount`` in fixed, round-half-up(r * cap) in [1, cap]."""
    if kind == "top1":
        return np.ones(ratios.shape[0], dtype=np.int64)
    if kind == "fixed":
        return np.full(ratios.shape[0], amount, dtype=np.int64)
    return np.clip(np.floor(ratios * amount + 0.5), 1, amount).astype(np.int64)


def quantize_row(row: np.ndarray, codes: np.ndarray, n: int, temperature: float):
    """Softmax-weighted sum of the ``n`` codes most cosine-similar to
    ``row``, ties broken by ascending index."""
    row_norm = max(float(np.sqrt(np.sum(row * row))), NORM_EPS)
    code_norms = np.maximum(np.sqrt(np.sum(codes * codes, axis=1)), NORM_EPS)
    sims = (codes @ row) / (row_norm * code_norms)
    order = np.lexsort((np.arange(codes.shape[0]), -sims))
    kept = order[:n]
    scaled = sims[kept] / temperature
    e = np.exp(scaled - scaled.max())
    return (e / e.sum()) @ codes[kept]


def reference_forward(model, image: np.ndarray, kind: str, amount: int) -> RefForward:
    """Forward pass for one image in mode ``kind`` ("top1", "fixed",
    "adaptive") with ``amount`` primitives (fixed) or cap (adaptive)."""
    if model.weighting != "softmax":
        raise ValueError("the reference covers softmax weighting only")
    p = model.patch_size
    h, w = image.shape
    x = _patches(np.asarray(image, dtype=np.float64), p)
    z = _mlp(x, model.encoder)
    ratios = allocator_ratios(z, model.allocator)
    counts = counts_for(kind, amount, ratios)
    entries = model.codebook.entries
    width = entries.shape[2]
    q = np.empty_like(z)
    for i in range(z.shape[0]):
        for j in range(entries.shape[0]):
            cols = slice(j * width, (j + 1) * width)
            q[i, cols] = quantize_row(
                z[i, cols], entries[j], int(counts[i]), model.temperature
            )
    recon = _image(_mlp(q, model.decoder), h, w, p)
    return RefForward(ratios=ratios, counts=counts, recon=recon)


def psnr_db(image: np.ndarray, recon: np.ndarray) -> float:
    """PSNR of the [0, 1]-clamped reconstruction, peak 1."""
    mse = float(np.mean((np.clip(recon, 0.0, 1.0) - image) ** 2))
    return 99.0 if mse == 0.0 else 10.0 * np.log10(1.0 / mse)
