"""Finite-difference verification of every hand-derived gradient.

Each check builds a small random problem, evaluates the analytic backward
pass, and compares it against central differences through the real
forward code. The quantizer check resamples until the top-n selection has
a safe margin, since the selection itself is intentionally treated as a
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
    MlpParams,
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
    return grad_check(
        lambda r: dpa_loss(r, targets)[0],
        lambda r: dpa_loss(r, targets)[1],
        rng.uniform(0.0, 1.0, size=10),
        eps=eps,
        rel_tol=rel_tol,
    )


def check_allocator(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    rng = np.random.default_rng(seed)
    dim, length = 6, 8
    params = init_allocator(dim, seed + 1)
    z = rng.normal(size=(length, dim))
    coeff = rng.normal(size=length)

    def f(vec):
        ratios, _ = allocator_forward(z, _unravel(vec, params))
        return float(coeff @ ratios)

    def g(vec):
        p = _unravel(vec, params)
        ratios, cache = allocator_forward(z, p)
        grads, _ = allocator_backward(coeff, cache, p)
        return _ravel(grads)

    return grad_check(f, g, _ravel(params), eps=eps, rel_tol=rel_tol)


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


def _check_mlp(params: MlpParams, rows: int, seed: int, eps, rel_tol) -> GradReport:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, params.in_dim))
    coeff = rng.normal(size=(rows, params.out_dim))

    def f(vec):
        out, _ = mlp_forward(x, _unravel(vec, params))
        return float(np.sum(coeff * out))

    def g(vec):
        p = _unravel(vec, params)
        out, cache = mlp_forward(x, p)
        grads, _ = mlp_backward(coeff, cache, p)
        return _ravel(grads)

    return grad_check(f, g, _ravel(params), eps=eps, rel_tol=rel_tol)


def check_encoder(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    return _check_mlp(init_encoder(4, 6, 8, seed + 11), rows=3, seed=seed,
                      eps=eps, rel_tol=rel_tol)


def check_decoder(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    return _check_mlp(init_decoder(4, 6, 8, seed + 17), rows=3, seed=seed,
                      eps=eps, rel_tol=rel_tol)


def check_reconstruction(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    rng = np.random.default_rng(seed)
    img = rng.uniform(size=(6, 6))
    return grad_check(
        lambda r: reconstruction_loss(img, r)[0],
        lambda r: reconstruction_loss(img, r)[1],
        rng.uniform(size=(6, 6)),
        eps=eps,
        rel_tol=rel_tol,
    )


def check_commitment(seed: int, eps=DEFAULT_EPS, rel_tol=DEFAULT_REL_TOL) -> GradReport:
    rng = np.random.default_rng(seed)
    beta = 0.25
    q = rng.normal(size=(4, 5))
    z0 = rng.normal(size=(4, 5))
    enc = grad_check(
        lambda z: beta * float(np.mean(((z - q) ** 2).sum(axis=1))),
        lambda z: commitment_loss(z, q, beta)[1],
        z0,
        eps=eps,
        rel_tol=rel_tol,
    )
    cbk = grad_check(
        lambda qq: float(np.mean(((z0 - qq) ** 2).sum(axis=1))),
        lambda qq: commitment_loss(z0, qq, beta)[2],
        q,
        eps=eps,
        rel_tol=rel_tol,
    )
    worst = enc if enc.max_rel_diff >= cbk.max_rel_diff else cbk
    return GradReport(
        max_abs_diff=max(enc.max_abs_diff, cbk.max_abs_diff),
        max_rel_diff=worst.max_rel_diff,
        passed=enc.passed and cbk.passed,
        probe_count=enc.probe_count + cbk.probe_count,
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
