"""Quantization of patch embeddings against the multi-subcodebook store.

Embeddings are split column-wise into one chunk per sub-codebook. Each
chunk row is scored by cosine similarity against all primitives of its
sub-codebook, the top ``n`` of them are kept (ties broken by ascending
index), and the output is their sum, weighted by one of the WEIGHTINGS.
``n`` is a constant in fixed mode (1 in warm-up/top-1) and
allocator-driven in adaptive mode. ``quantize`` is the one entry point:
a call quantizes every row it is given, from one row against a
one-sub-codebook store to all patches of a training batch at once.

A call takes the sub-codebooks in groups of
``max(1, PASS_SIMS // (rows * codes))`` and scores each group in one pass:
one batched matmul, one head selection, one weighting, one weighted sum
and one usage count for the whole group. ``quantize_backward`` walks the
same groups, one cache each. A single desk image groups all four of its
sub-codebooks, and one with 256 codes per sub-codebook groups them in
pairs; a training batch or an evaluation chunk takes one per pass.
Grouping changes no output bit.

Each row's head, its ``cap`` most similar primitives (``cap`` being the
mode's amount), is found by ``select_head``: an argmax when ``cap`` is 1,
else one in-place integer sort of keys that pack each similarity (in
[-1, 1]) with its code index, with a stable argsort for any row whose
keys collide. Only the head is weighted and differentiated. The kept set
is the top ``n`` of all primitives, which always lies inside the head.

Selection is non-differentiable; the codebook gradient treats the chosen
index sets as constants and flows through the weights and the primitive
values. The encoder's gradient is straight-through: the trainer passes the
decoder gradient to the embeddings unchanged, so ``quantize_backward``
computes the codebook gradient alone. Quantizing writes nothing into the
codebook: each call returns its selection counts as ``usage_delta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from dynavq.allocator import count_from_ratio
from dynavq.codebook import Codebook
from dynavq.numerics import DEFAULT_NORM_EPS, Array, check_finite

#: Linear weight normalization falls back to uniform weights when the
#: selected similarities sum to (almost) zero.
LINEAR_DENOM_EPS = 1e-12

#: Most cosine similarities one pass scores: ``quantize`` takes the
#: sub-codebooks ``max(1, PASS_SIMS // (rows * codes))`` at a time.
#: Grouping saves numpy's per-call overhead, which dominates small blocks;
#: on larger ones the bigger temporaries cost more than the calls save.
#: Measured end to end against one sub-codebook per pass (one BLAS thread,
#: shared 2-core box): single 64-patch images tokenize about 1.4x faster
#: with 4 x 64 codes grouped (16k) and 1.1-1.3x faster with 256 codes in
#: pairs (32k), while 64k blocks made desk training 1-11% and 512-row
#: evaluation 6-8% slower. Desk batches and evaluation chunks therefore
#: keep one sub-codebook per pass.
PASS_SIMS = 32768

#: ``weight_grad(weights, centred)``: dL/d head_sims from the weights and
#: the centred weight gradient ``d_w - sum(w * d_w)`` of each row.
WeightGrad = Callable[[Array, Array], Array]


@dataclass(frozen=True)
class QuantizeMode:
    """How many primitives each patch receives.

    kind "fixed": a constant ``amount`` primitives per patch; top-1 (the
    warm-up behaviour) is fixed at 1.
    kind "adaptive": per-patch counts derived from the allocation ratios,
    capped at ``amount``.
    """

    kind: str
    amount: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise ValueError(f"unknown quantize mode {self.kind!r}")
        if self.amount < 1:
            raise ValueError("mode amount must be at least 1")

    @classmethod
    def top1(cls) -> "QuantizeMode":
        return cls("fixed", 1)

    @classmethod
    def fixed_top_n(cls, n: int) -> "QuantizeMode":
        return cls("fixed", n)

    @classmethod
    def adaptive(cls, cap: int) -> "QuantizeMode":
        return cls("adaptive", cap)


@dataclass
class AllocationMap:
    """Chosen primitives per patch: counts, indices and weights.

    ``indices``/``weights`` have shape (subcodebooks, patches, cap) in
    selection order (descending similarity), padded with -1 / 0.0 beyond
    each patch's count.
    """

    counts: np.ndarray
    cap: int
    indices: np.ndarray
    weights: np.ndarray

    @property
    def patches(self) -> int:
        return self.counts.shape[0]


@dataclass
class ChunkCache:
    """What one pass over a group of G sub-codebooks keeps for the backward
    pass.

    Every array has a leading group axis. Only the (rows x cap) head is
    held: the selected code indices, their similarities and their weights
    (0.0 beyond each row's count) and the mask ``keep`` of each row's
    count, next to the input rows (G, rows, width), the sub-codebooks
    (G, codes, width) and their norms, clamped at DEFAULT_NORM_EPS. The
    weighting's ``weight_grad`` of the forward pass travels with it, so the
    backward pass differentiates exactly the function the forward pass
    computed.
    """

    rows: np.ndarray
    codes: np.ndarray
    row_norms: np.ndarray
    code_norms: np.ndarray
    head: np.ndarray
    head_sims: np.ndarray
    weights: np.ndarray
    keep: np.ndarray
    weight_grad: WeightGrad

    def code_index(self) -> np.ndarray:
        """``head`` as indices into the group's codes stacked as one
        (G * codes) axis; ``head`` itself when G is 1, so a one-sub-codebook
        pass adds no array work to the loop it replaces."""
        groups, num_codes = self.code_norms.shape
        if groups == 1:
            return self.head
        return self.head + (np.arange(groups) * num_codes)[:, None, None]


@dataclass
class QuantizeOutput:
    """Quantized embeddings plus training bookkeeping."""

    quantized: np.ndarray
    alloc: AllocationMap
    usage_delta: np.ndarray
    cache: Optional[List[ChunkCache]] = field(default=None, repr=False)


def _clamped_norms(x: Array) -> Array:
    """Euclidean norms along the last axis, clamped below at
    DEFAULT_NORM_EPS."""
    return np.maximum(np.sqrt((x * x).sum(axis=-1)), DEFAULT_NORM_EPS)


def _cosine(rows: Array, codes: Array, row_norms: Array, code_norms: Array) -> Array:
    """(G x rows x codes) similarities of a group's rows and codes."""
    return (rows / row_norms[..., None]) @ (codes / code_norms[..., None]).swapaxes(1, 2)


def _flat_index(cols: Array, width: int) -> Array:
    """Positions of the per-row column indices ``cols`` (... x rows x k)
    in a C-ordered array of the same leading shape with ``width`` columns."""
    starts = np.arange(cols.size // cols.shape[-1]) * width
    return cols + starts.reshape(cols.shape[:-1] + (1,))


def select_head(sims: Array, cap: int) -> Array:
    """The ``cap`` most similar codes of each row, most similar first.

    ``sims`` is float64 in [-1, 1]. Equals
    ``np.argsort(-sims, axis=1, kind="stable")[:, :cap]``: ties break by
    ascending code index. A width-1 head is an argmax. A wider head comes
    from one in-place integer sort of packed keys: ``2 - sims`` is a
    positive float, whose bits order like an int64 and fall as the
    similarity rises, so its low ``b = (codes - 1).bit_length()`` bits are
    replaced by the code index. A row where two of its first ``cap + 1``
    sorted keys share the bits above those (an exact tie, or similarities
    within 2**b ulps of each other) is re-selected by the exact stable
    sort.
    """
    num_codes = sims.shape[1]
    if cap == 1:
        return np.argmax(sims, axis=1)[:, None]
    bits = (num_codes - 1).bit_length()
    low = (1 << bits) - 1
    keys = (2.0 - sims).view(np.int64)
    keys &= ~low
    keys |= np.arange(num_codes)
    keys.sort(axis=1)
    high = keys[:, : cap + 1] >> bits
    tied = (high[:, 1:] == high[:, :-1]).any(axis=1)
    head = keys[:, :cap] & low
    if tied.any():
        head[tied] = np.argsort(-sims[tied], axis=1, kind="stable")[:, :cap]
    return head


def _softmax(head_sims: Array, keep: Array, temperature: float) -> Tuple[Array, WeightGrad]:
    """Softmax of the kept similarities at ``temperature``."""
    # heads are sorted, so column 0 holds each row's largest similarity
    scaled = head_sims / temperature
    expd = np.where(keep, np.exp(scaled - scaled[..., :1]), 0.0)
    return expd / expd.sum(axis=-1, keepdims=True), (
        lambda w, centred: w * centred / temperature
    )


def _linear(head_sims: Array, keep: Array, temperature: float) -> Tuple[Array, WeightGrad]:
    """Kept similarities over their sum; uniform weights, which do not
    depend on the similarities, where that sum is within LINEAR_DENOM_EPS
    of zero. ``temperature`` is unused."""
    picked = np.where(keep, head_sims, 0.0)
    denom = picked.sum(axis=-1, keepdims=True)
    uniform = keep / keep.sum(axis=-1, keepdims=True)
    safe = np.abs(denom) > LINEAR_DENOM_EPS
    denom = np.where(safe, denom, 1.0)
    return np.where(safe, picked / denom, uniform), (
        lambda w, centred: np.where(keep & safe, centred / denom, 0.0)
    )


#: How the kept primitives of a row are weighted: each maps (head_sims,
#: keep, temperature) to the weights over each row's head (along the last
#: axis, 0.0 beyond its count) and their WeightGrad.
WEIGHTINGS: Dict[str, Callable[[Array, Array, float], Tuple[Array, WeightGrad]]] = {
    "softmax": _softmax,
    "linear": _linear,
}


def _scatter(flat: Array, values: Array, num_codes: int) -> Array:
    """Dense (... x rows x codes) array holding ``values`` at the head
    entries ``flat`` (see _flat_index; shaped ... x rows x cap) and zeros
    elsewhere, so head-weighted sums run as BLAS matmuls."""
    dense = np.zeros(flat.shape[:-1] + (num_codes,))
    dense.reshape(-1)[flat] = values
    return dense


def _quantize_group(
    rows: Array,
    codes: Array,
    row_norms: Array,
    code_norms: Array,
    keep: Array,
    temperature: float,
    weighting: str,
) -> Tuple[Array, ChunkCache]:
    """Selection and weighted sum of every row against a group of G
    sub-codebooks, in one pass.

    ``rows`` is (G x rows x width), ``codes`` (G x codes x width), the
    norms are clamped and ``keep`` (G x rows x cap) marks each row's
    count. Returns the (G x rows x width) outputs and the cache;
    ``cache.head`` lists each row's ``cap`` most similar codes in selection
    order.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    weigh = WEIGHTINGS.get(weighting)
    if weigh is None:
        raise ValueError(f"unknown weighting {weighting!r}")
    groups, num_rows, cap = keep.shape
    num_codes = codes.shape[1]
    sims = _cosine(rows, codes, row_norms, code_norms).reshape(-1, num_codes)
    head = select_head(sims, cap).reshape(groups, num_rows, cap)
    flat = _flat_index(head, num_codes)
    head_sims = np.take(sims, flat)
    del sims
    weights, weight_grad = weigh(head_sims, keep, temperature)
    cache = ChunkCache(
        rows=rows,
        codes=codes,
        row_norms=row_norms,
        code_norms=code_norms,
        head=head,
        head_sims=head_sims,
        weights=weights,
        keep=keep,
        weight_grad=weight_grad,
    )
    if cap == 1:
        picked = codes.reshape(-1, codes.shape[2])[cache.code_index()[..., 0]]
        out = picked * weights
    else:
        out = _scatter(flat, weights, num_codes) @ codes
    return out, cache


def quantize(
    embeddings: Array,
    cb: Codebook,
    ratios: Optional[Array],
    mode: QuantizeMode,
    temperature: float = 1.0,
    weighting: str = "softmax",
) -> QuantizeOutput:
    """Quantize a full embedding matrix.

    Rows may come from any number of images: one call covers them all.
    Per-patch counts are ``mode.amount`` (fixed mode) or derived from
    ``ratios`` (adaptive mode, capped at ``mode.amount``).
    ``cb`` is left untouched; ``usage_delta`` counts each primitive's
    selections.
    """
    z = check_finite("embeddings", embeddings)
    if z.ndim != 2 or z.shape[1] != cb.embed_dim:
        raise ValueError(
            f"embeddings must be (patches, {cb.embed_dim}), got {z.shape}"
        )
    num_codes = cb.primitives_per_sub
    patches = z.shape[0]

    cap = mode.amount
    if cap > num_codes:
        raise ValueError(
            f"{mode.kind} count {cap} exceeds sub-codebook size {num_codes}"
        )
    if mode.kind == "fixed":
        counts = np.full(patches, cap, dtype=np.int64)
    else:
        if ratios is None:
            raise ValueError("adaptive mode requires allocation ratios")
        r = np.asarray(ratios, dtype=np.float64)
        if r.shape != (patches,):
            raise ValueError("ratio vector length must match the patch count")
        counts = count_from_ratio(r, cap)

    subs = cb.subcodebooks
    # (rows x subs x width) views; sub-codebook j is [:, j]
    z_subs = z.reshape(patches, subs, cb.primitive_dim)
    row_norms = _clamped_norms(z_subs).T
    code_norms = _clamped_norms(cb.entries)
    quantized = np.empty(z.shape)
    q_subs = quantized.reshape(z_subs.shape)
    indices = np.full((subs, patches, cap), -1, dtype=np.int64)
    sel_weights = np.empty((subs, patches, cap))
    usage_delta = np.empty((subs, num_codes), dtype=np.int64)
    caches: List[ChunkCache] = []
    group = min(subs, max(1, PASS_SIMS // max(1, patches * num_codes)))
    keep = np.repeat((np.arange(cap) < counts[:, None])[None], group, axis=0)
    for first in range(0, subs, group):
        part = slice(first, min(first + group, subs))
        out, cache = _quantize_group(
            z_subs[:, part].transpose(1, 0, 2), cb.entries[part], row_norms[part],
            code_norms[part], keep[: part.stop - first], temperature, weighting,
        )
        q_subs[:, part] = out.transpose(1, 0, 2)
        indices[part] = np.where(cache.keep, cache.head, -1)
        # the cache shares the map's weights rather than holding a copy
        sel_weights[part] = cache.weights
        cache.weights = sel_weights[part]
        usage_delta[part] = np.bincount(
            cache.code_index()[cache.keep], minlength=cache.code_norms.size
        ).reshape(-1, num_codes)
        caches.append(cache)

    alloc = AllocationMap(counts=counts, cap=cap, indices=indices, weights=sel_weights)
    return QuantizeOutput(
        quantized=quantized, alloc=alloc, usage_delta=usage_delta, cache=caches
    )


def quantize_backward(
    grad_quantized: Array,
    caches: Sequence[ChunkCache],
    cb: Codebook,
) -> Array:
    """Exact codebook gradient through the weighted sum, selection held
    fixed.

    Given dL/d(quantized), returns dL/d entries, flowing through both the
    primitive values and the weights (whose similarities depend on the
    primitives), with the weighting and norm clamp the forward pass used.
    The embeddings get no gradient here: the encoder's is straight-through.
    Only the selected head enters the arithmetic; weighted sums over it run
    as matmuls against the head scattered into a dense (rows x codes)
    matrix.
    """
    g = np.asarray(grad_quantized, dtype=np.float64)
    num_codes = cb.primitives_per_sub
    d_entries = np.zeros_like(cb.entries)
    # (rows x subs x width) view; sub-codebook j is [:, j]
    g_subs = g.reshape(g.shape[0], cb.subcodebooks, cb.primitive_dim)
    first = 0
    for cache in caches:
        groups = cache.codes.shape[0]
        part = slice(first, first + groups)
        first += groups
        gj = g_subs[:, part].transpose(1, 0, 2)
        w = cache.weights
        codes = cache.codes
        nz = cache.row_norms[..., None]
        nc = cache.code_norms
        code_index = cache.code_index()
        flat = _flat_index(cache.head, num_codes)
        # path through the weights, backward on the head
        d_w = np.take(gj @ codes.swapaxes(1, 2), flat)
        row_dot = (w * d_w).sum(axis=-1, keepdims=True)
        d_sims = cache.weight_grad(w, d_w - row_dot)
        # cosine backward: sims = <z, c> / (|z| |c|) with clamped norms
        head_norms = np.take(nc, code_index)
        scale = _scatter(flat, d_sims / (nz * head_norms), num_codes)
        corr = d_sims * cache.head_sims
        col_corr = np.bincount(
            code_index.ravel(), corr.ravel(), minlength=nc.size
        ).reshape(nc.shape)
        col_corr *= nc > DEFAULT_NORM_EPS
        d_entries[part] = scale.swapaxes(1, 2) @ cache.rows
        del scale
        # direct path through the primitive values
        d_entries[part] += _scatter(flat, w, num_codes).swapaxes(1, 2) @ gj
        d_entries[part] -= (col_corr / (nc * nc))[..., None] * codes
    return d_entries


def commitment_loss(
    embeddings: Array,
    quantized: Array,
    beta: float,
    row_weights: Optional[Array] = None,
) -> Tuple[float, Array, Array]:
    """VQ commitment objective with stop-gradient semantics.

    Value is ``beta * mean_i |z_i - sg(q_i)|^2 + mean_i |sg(z_i) - q_i|^2``
    (mean over patches of per-patch squared L2 norms, or their sum weighted
    by ``row_weights`` when given, weights summing to 1). Returns the value
    plus the encoder-side gradient (w.r.t. the embeddings, from the first
    term) and the codebook-side gradient (w.r.t. the quantized output,
    from the second term). The trainer passes the decoder gradient
    straight through the quantizer to the encoder on its own.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    q = np.asarray(quantized, dtype=np.float64)
    if z.shape != q.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {q.shape}")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    errors = ((z - q) ** 2).sum(axis=1)
    if row_weights is None:
        mean_err = float(np.mean(errors))
        value = beta * mean_err + mean_err
        return value, 2.0 * beta * (z - q) / z.shape[0], 2.0 * (q - z) / z.shape[0]
    mean_err = float(row_weights @ errors)
    w = row_weights[:, None]
    return beta * mean_err + mean_err, 2.0 * beta * (z - q) * w, 2.0 * (q - z) * w
