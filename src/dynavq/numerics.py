"""Dense float64 numerics shared by every other module.

A cosine similarity kernel, a finiteness check and a central
finite-difference gradient checker that validates every hand-derived
backward pass in this package. All functions are pure and deterministic;
reductions run in a fixed order so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

#: Norm clamp used wherever a cosine similarity is taken (zero vectors must
#: never produce NaN).
DEFAULT_NORM_EPS = 1e-8

#: Relative differences in grad_check are measured against
#: max(|numeric|, |analytic|, REL_DIFF_FLOOR) so that near-zero gradient
#: coordinates are compared absolutely instead of blowing up.
REL_DIFF_FLOOR = 1.0


def check_finite(name: str, arr: Array) -> Array:
    """Return ``arr`` as float64, raising if any entry is NaN/Inf."""
    out = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def cosine_similarity_matrix(a: Array, b: Array, eps: float = DEFAULT_NORM_EPS) -> Array:
    """Pairwise cosine similarity between the rows of two matrices.

    Row norms are clamped below at ``eps`` so zero rows yield 0 similarity
    rather than NaN. The dot products are computed with a fixed scalar
    reduction order (no BLAS), which makes the result exactly symmetric
    under swapping the arguments and transposing.

    Args:
        a: n x d matrix.
        b: m x d matrix.
        eps: positive norm clamp.

    Returns:
        n x m matrix with entries in [-1, 1] up to float slack.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("cosine_similarity_matrix expects 2-D inputs")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: left has {a.shape[1]} columns, right has {b.shape[1]}"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    # optimize=False keeps einsum on its sequential C kernel: entry (i, j)
    # then depends only on the two rows, so sim(A,B) == sim(B,A).T exactly.
    dots = np.einsum("id,jd->ij", a, b, optimize=False)
    na = np.maximum(np.sqrt(np.einsum("id,id->i", a, a, optimize=False)), eps)
    nb = np.maximum(np.sqrt(np.einsum("id,id->i", b, b, optimize=False)), eps)
    return dots / np.outer(na, nb)


@dataclass
class GradReport:
    """Outcome of one finite-difference gradient check."""

    max_abs_diff: float
    max_rel_diff: float
    passed: bool
    probe_count: int


def grad_check(
    f: Callable[[Array], float],
    analytic_grad: Callable[[Array], Array],
    point: Array,
    eps: float = 1e-5,
    rel_tol: float = 1e-4,
) -> GradReport:
    """Compare an analytic gradient against central finite differences.

    Every coordinate of ``point`` is probed with a symmetric step of
    ``eps``. The relative difference for a coordinate is
    ``|numeric - analytic| / max(|numeric|, |analytic|, 1.0)``; the check
    passes when the largest such difference is at most ``rel_tol``.

    Args:
        f: scalar-valued function of an array.
        analytic_grad: hand-derived gradient of ``f``, same shape as point.
        point: location to probe; entries must be finite.
        eps: finite-difference step, required to lie in [1e-7, 1e-3].
        rel_tol: pass threshold on the max relative difference.

    Returns:
        GradReport with the worst-case differences and pass flag.

    Raises:
        FloatingPointError: if ``f`` returns a non-finite value at a probe.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    x = check_finite("point", np.array(point, dtype=np.float64))
    ana = np.asarray(analytic_grad(x.copy()), dtype=np.float64)
    if ana.shape != x.shape:
        raise ValueError(f"analytic gradient shape {ana.shape} != point shape {x.shape}")
    flat = x.reshape(-1)
    ana_flat = ana.reshape(-1)
    max_abs = 0.0
    max_rel = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(x))
        flat[i] = orig - eps
        f_minus = float(f(x))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite function value while probing coordinate {i}")
        numeric = (f_plus - f_minus) / (2.0 * eps)
        diff = abs(numeric - ana_flat[i])
        rel = diff / max(abs(numeric), abs(ana_flat[i]), REL_DIFF_FLOOR)
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, rel)
    return GradReport(
        max_abs_diff=max_abs,
        max_rel_diff=max_rel,
        passed=max_rel <= rel_tol,
        probe_count=flat.size,
    )
