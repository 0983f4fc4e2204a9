"""Finite-difference verification of every hand-derived gradient.

Each check builds a small random problem, evaluates the analytic backward
pass, and compares it against central differences through the real
forward code. The checks take the forms training runs: the losses
weighted per row, the allocator over two images with zero columns between
them, and each layer's gradient into its input as well as into its
parameters. The quantizer check resamples until the top-n selection has a
safe margin, since the selection itself is intentionally treated as a
constant by the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from dynavq.allocator import (
    allocator_backward,
    allocator_forward,
    dpa_loss,
    init_allocator,
)
from dynavq.autoencoder import (
    init_decoder,
    init_encoder,
    mlp_backward,
    mlp_forward,
    reconstruction_loss,
)
from dynavq.codebook import Codebook, diversity_loss
from dynavq.numerics import GradReport, grad_check
from dynavq.quantizer import (
    WEIGHTINGS,
    QuantizeMode,
    commitment_loss,
    quantize,
    quantize_backward,
)

DEFAULT_EPS = 1e-5
DEFAULT_REL_TOL = 1e-4
SELECTION_MARGIN = 1e-3


@dataclass
class SuiteResult:
    name: str
    seed: int
    report: GradReport


def _ravel(params) -> np.ndarray:
    """A parameter dataclass's arrays, flattened in field order."""
    return np.concatenate([arr.ravel() for arr in vars(params).values()])


def _unravel(vec: np.ndarray, like):
    """Inverse of _ravel, shaped like the dataclass ``like``."""
    arrays, i = {}, 0
    for name, arr in vars(like).items():
        arrays[name] = vec[i:i + arr.size].reshape(arr.shape)
        i += arr.size
    return type(like)(**arrays)


def _row_weights(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Random positive per-row loss weights summing to 1."""
    w = rng.uniform(0.5, 1.5, size=rows)
    return w / w.sum()


def _check_layer(forward, backward, params, input_shape, seed: int, eps, rel_tol) -> GradReport:
    """A layer's gradients into its parameters and its input, for the
    scalar ``sum(coeff * forward(x, params)[0])`` at a random input."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=input_shape)
    coeff = rng.normal(size=forward(x, params)[0].shape)
    split = _ravel(params).size

    def unpack(vec):
        return vec[split:].reshape(input_shape), _unravel(vec[:split], params)

    def f(vec):
        return float(np.sum(coeff * forward(*unpack(vec))[0]))

    def g(vec):
        x, p = unpack(vec)
        grads, d_x = backward(coeff, forward(x, p)[1], p)
        return np.concatenate([_ravel(grads), d_x.ravel()])

    point = np.concatenate([_ravel(params), x.ravel()])
    return grad_check(f, g, point, eps=eps, rel_tol=rel_tol)


def check_diversity(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    cents = np.random.default_rng(seed).normal(size=(4, 3))
    return grad_check(
        lambda c: diversity_loss(c)[0],
        lambda c: diversity_loss(c)[1],
        cents,
        eps=eps,
        rel_tol=rel_tol,
    )


def check_dpa_loss(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.1, 1.0, size=10)
    weights = _row_weights(rng, 10)
    return grad_check(
        lambda r: dpa_loss(r, targets, weights)[0],
        lambda r: dpa_loss(r, targets, weights)[1],
        rng.uniform(0.0, 1.0, size=10),
        eps=eps,
        rel_tol=rel_tol,
    )


def check_allocator(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    """Two images of 5 and 3 patches, convolved with zero columns between."""
    forward = partial(allocator_forward, offsets=np.array([0, 5, 8]))
    return _check_layer(forward, allocator_backward, init_allocator(6, seed + 1), (8, 6),
                        seed, eps, rel_tol)


def _stable_quantizer_setup(seed: int):
    """Random quantizer problem whose top-n selections all have margin
    above SELECTION_MARGIN, so finite differences cannot flip them."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        entries = rng.normal(size=(2, 5, 3))
        cb = Codebook(entries, np.zeros((2, 5), dtype=np.uint64))
        z = rng.normal(size=(4, 6))
        ratios = rng.uniform(0.2, 0.9, size=4)
        out = quantize(z, cb, ratios, QuantizeMode.adaptive(3))
        stable = True
        for cache in out.cache:
            # the similarities, with the arithmetic the forward pass used
            unit_rows = cache.rows / cache.row_norms[..., None]
            unit_codes = cache.codes / cache.code_norms[..., None]
            for sims in unit_rows @ unit_codes.swapaxes(1, 2):
                ordered = -np.sort(-sims, axis=1)
                for i, n in enumerate(out.alloc.counts):
                    if n < sims.shape[1]:
                        if ordered[i, n - 1] - ordered[i, n] < SELECTION_MARGIN:
                            stable = False
        if stable:
            return cb, z, ratios
    raise RuntimeError("could not find a selection-stable quantizer setup")


def check_quantizer(
    seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL, weighting="softmax"
) -> GradReport:
    """The codebook gradient only: the embeddings' is straight-through."""
    cb, z, ratios = _stable_quantizer_setup(seed)
    rng = np.random.default_rng(seed + 999)
    coeff = rng.normal(size=z.shape)
    mode = QuantizeMode.adaptive(3)

    def run(entries):
        tmp = Codebook(entries, cb.usage_counts)
        return tmp, quantize(z, tmp, ratios, mode, weighting=weighting)

    def f(entries):
        return float(np.sum(coeff * run(entries)[1].quantized))

    def g(entries):
        tmp, out = run(entries)
        return quantize_backward(coeff, out.cache, tmp)

    return grad_check(f, g, cb.entries, eps=eps, rel_tol=rel_tol)


def check_encoder(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    return _check_layer(mlp_forward, mlp_backward, init_encoder(4, 6, 8, seed + 11), (3, 16),
                        seed, eps, rel_tol)


def check_decoder(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    """Its input gradient is the one the quantizer passes straight through."""
    return _check_layer(mlp_forward, mlp_backward, init_decoder(4, 6, 8, seed + 17), (3, 8),
                        seed, eps, rel_tol)


def check_reconstruction(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    rng = np.random.default_rng(seed)
    img = rng.uniform(size=(6, 6))
    weights = _row_weights(rng, 6)
    return grad_check(
        lambda r: reconstruction_loss(img, r, weights)[0],
        lambda r: reconstruction_loss(img, r, weights)[1],
        rng.uniform(size=(6, 6)),
        eps=eps,
        rel_tol=rel_tol,
    )


def check_commitment(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    """Both gradients at the stacked point (z, q). Each term stops the
    gradient of the other side, so each is probed against the other
    side held at the point."""
    rng = np.random.default_rng(seed)
    beta = 0.25
    q0 = rng.normal(size=(4, 5))
    z0 = rng.normal(size=(4, 5))
    weights = _row_weights(rng, 4)

    def f(zq):
        z, q = zq
        return (beta * float(weights @ ((z - q0) ** 2).sum(axis=1))
                + float(weights @ ((z0 - q) ** 2).sum(axis=1)))

    return grad_check(
        f,
        lambda zq: np.stack(commitment_loss(zq[0], zq[1], beta, weights)[1:]),
        np.stack([z0, q0]),
        eps=eps,
        rel_tol=rel_tol,
    )


CHECKS: List[tuple] = [
    ("diversity_loss", check_diversity),
    ("dpa_loss", check_dpa_loss),
    ("allocator", check_allocator),
    *((f"quantizer_{name}", partial(check_quantizer, weighting=name))
      for name in WEIGHTINGS),
    ("encoder", check_encoder),
    ("decoder", check_decoder),
    ("reconstruction_loss", check_reconstruction),
    ("commitment_loss", check_commitment),
]


def run_suite(
    seeds: int = 5, eps: float = DEFAULT_EPS, rel_tol: float = DEFAULT_REL_TOL
) -> List[SuiteResult]:
    """Run every registered gradient check over ``seeds`` random seeds."""
    results: List[SuiteResult] = []
    for name, fn in CHECKS:
        for seed in range(seeds):
            results.append(SuiteResult(name, seed, fn(seed, eps, rel_tol)))
    return results
