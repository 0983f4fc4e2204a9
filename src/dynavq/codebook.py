"""Multi-subcodebook primitive store and the centroid diversity loss.

The global codebook is a stack of independent sub-codebooks; each
quantizes one slice of the embedding. A diversity loss on the
sub-codebook centroids (mean pairwise cosine similarity) keeps the
sub-codebooks in distinct regions of the embedding space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from dynavq.numerics import DEFAULT_NORM_EPS, Array, check_finite


@dataclass
class Codebook:
    """Stack of sub-codebooks plus per-primitive selection counters.

    ``entries`` has shape (subcodebooks, primitives_per_sub, primitive_dim);
    ``usage_counts`` mirrors the first two axes with uint64 counters.
    """

    entries: np.ndarray
    usage_counts: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 3:
            raise ValueError("codebook entries must have shape (subs, prims, dim)")
        if self.usage_counts.shape != self.entries.shape[:2]:
            raise ValueError("usage_counts shape must match (subs, prims)")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codebook entries must be finite")

    @property
    def subcodebooks(self) -> int:
        return self.entries.shape[0]

    @property
    def primitives_per_sub(self) -> int:
        return self.entries.shape[1]

    @property
    def primitive_dim(self) -> int:
        return self.entries.shape[2]

    @property
    def embed_dim(self) -> int:
        return self.subcodebooks * self.primitive_dim


def init_codebook(
    subcodebooks: int, primitives_per_sub: int, primitive_dim: int, seed: int
) -> Codebook:
    """Fresh codebook with entries i.i.d. uniform on [-1/prims, +1/prims].

    The same seed always yields a bit-identical codebook.
    """
    if subcodebooks < 1 or primitives_per_sub < 1 or primitive_dim < 1:
        raise ValueError("codebook dimensions must all be at least 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / primitives_per_sub
    entries = rng.uniform(
        -bound, bound, size=(subcodebooks, primitives_per_sub, primitive_dim)
    )
    usage = np.zeros((subcodebooks, primitives_per_sub), dtype=np.uint64)
    return Codebook(entries=entries, usage_counts=usage)


def centroids(cb: Codebook) -> Array:
    """Arithmetic mean of each sub-codebook's primitives, shape (subs, dim)."""
    return cb.entries.mean(axis=1)


def diversity_loss(cents: Array) -> Tuple[float, Array]:
    """Mean pairwise absolute cosine similarity of the centroids.

    Averages |cos(c_j, c_k)| over the unordered centroid pairs, so
    alignment is penalized in either direction and the loss is minimized
    exactly at mutual orthogonality (a plain signed mean would instead
    reward antipodal collapse, which leaves the centroids just as
    redundant). Row norms are clamped at DEFAULT_NORM_EPS; a clamped row
    is treated as having constant norm, which keeps the gradient exact on
    either side of the clamp.

    Returns (loss, gradient w.r.t. the centroid matrix). A single centroid
    has no pairs and yields (0.0, zeros).
    """
    c = check_finite("centroids", cents)
    if c.ndim != 2:
        raise ValueError("centroids must be a 2-D matrix")
    m = c.shape[0]
    if m < 2:
        return 0.0, np.zeros_like(c)
    true_norms = np.sqrt(np.einsum("id,id->i", c, c, optimize=False))
    norms = np.maximum(true_norms, DEFAULT_NORM_EPS)
    unit = c / norms[:, None]
    sims = np.einsum("id,jd->ij", unit, unit, optimize=False)
    pair_count = m * (m - 1)
    signs = np.sign(sims)
    np.fill_diagonal(signs, 0.0)
    loss = (signs * sims).sum() / pair_count

    coef = 2.0 / pair_count
    abs_offdiag_sum = (signs * sims).sum(axis=1)
    unclamped = (true_norms > DEFAULT_NORM_EPS).astype(np.float64)
    grad = coef * (
        signs @ unit - (abs_offdiag_sum * unclamped)[:, None] * unit
    ) / norms[:, None]
    return float(loss), grad


def diversity_grad_entries(cb: Codebook, centroid_grad: Array) -> Array:
    """Chain a centroid gradient back to the codebook entries.

    Each centroid is the mean of its sub-codebook's rows, so every entry
    receives grad/primitives_per_sub.
    """
    if centroid_grad.shape != (cb.subcodebooks, cb.primitive_dim):
        raise ValueError("centroid gradient shape mismatch")
    return np.broadcast_to(
        centroid_grad[:, None, :] / cb.primitives_per_sub, cb.entries.shape
    ).copy()


StepRule = Callable[[np.ndarray, np.ndarray], np.ndarray]


def apply_codebook_grads(cb: Codebook, grads: Array, step_rule: StepRule) -> Codebook:
    """Return a codebook whose entries were updated by ``step_rule``.

    Usage counters are carried over untouched.
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != cb.entries.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match entries {cb.entries.shape}"
        )
    new_entries = np.asarray(step_rule(cb.entries, g), dtype=np.float64)
    if new_entries.shape != cb.entries.shape:
        raise ValueError("step rule changed the entry shape")
    return Codebook(entries=new_entries, usage_counts=cb.usage_counts)
