"""Independent reference implementations used by several test modules.

Everything here is deliberately plain Python (math module, loops,
itertools): these are the oracles the fast numpy paths are checked
against, so they must not share code with the package.
"""

import itertools
import math

EPS = 1e-8


def oracle_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = max(math.sqrt(sum(a * a for a in u)), EPS)
    nv = max(math.sqrt(sum(b * b for b in v)), EPS)
    return dot / (nu * nv)


def oracle_top_k(scores, k):
    """Indices of the ``k`` largest scores, by descending score; ties break
    by ascending index."""
    scores = [float(s) for s in scores]
    if not 1 <= k <= len(scores):
        raise ValueError(f"k must lie in [1, {len(scores)}], got {k!r}")
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def oracle_masked_softmax(scores, selected, temperature=1.0):
    """Softmax of ``scores[i] / temperature`` over the indices ``selected``,
    one weight per index in the given order."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if not selected:
        raise ValueError("selection must be a non-empty index list")
    if len(set(selected)) != len(selected):
        raise ValueError("selection indices must be unique")
    scaled = [float(scores[i]) / temperature for i in selected]
    top = max(scaled)
    exps = [math.exp(v - top) for v in scaled]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_quantize_chunk(row, sub_cb, n, temperature=1.0):
    """Enumerate every n-subset of primitives; keep the one with the
    largest similarity sum (lexicographically first among maximizers),
    order it by descending similarity with index tiebreaks, and weight by
    softmax of similarity/temperature."""
    codes = [list(map(float, c)) for c in sub_cb]
    sims = [oracle_cosine(list(map(float, row)), c) for c in codes]
    best = None
    for subset in itertools.combinations(range(len(codes)), n):
        score = sum(sims[i] for i in subset)
        if best is None or score > best[0] + 1e-15:
            best = (score, subset)
    subset = best[1]  # ascending, so position ties are index ties
    ordered = [subset[j] for j in oracle_top_k([sims[i] for i in subset], n)]
    weights = oracle_masked_softmax(sims, ordered, temperature)
    out = [0.0] * len(row)
    for w, i in zip(weights, ordered):
        for d in range(len(row)):
            out[d] += w * codes[i][d]
    return out, list(ordered), weights


def oracle_spearman(a, b):
    """Rank-then-Pearson with average ranks, all via plain loops."""

    def ranks(values):
        out = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out.append(less + (equal + 1) / 2.0)
        return out

    ra, rb = ranks(list(a)), ranks(list(b))
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / (va * vb) ** 0.5
