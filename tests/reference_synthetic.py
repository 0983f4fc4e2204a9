"""The synthetic-data generator one patch view at a time.

This is the plain form of ``dynavq.dataio.gen_synthetic``: every patch is
filled in place in the image through its own view, drawing from the
item's generator with ``rng.uniform``. The fast generator must produce
the same bytes; tests compare them.
"""

from typing import List, Sequence, Tuple

import numpy as np

from dynavq.dataio import TEXTURE_AMPLITUDE

_U64 = 0xFFFFFFFFFFFFFFFF


def _fill_patch(patch_view: np.ndarray, label: int, rng: np.random.Generator) -> None:
    p = patch_view.shape[0]
    if label == 0:
        patch_view[:] = rng.uniform()
    elif label == 1:
        c0, c1 = rng.uniform(size=2)
        axis = int(rng.integers(3))  # horizontal, vertical, diagonal ramp
        x = np.arange(p)
        if p == 1:
            t = np.zeros((1, 1))
        elif axis == 0:
            t = np.broadcast_to(x / (p - 1), (p, p))
        elif axis == 1:
            t = np.broadcast_to((x / (p - 1))[:, None], (p, p))
        else:
            t = (x[:, None] + x[None, :]) / (2 * (p - 1))
        patch_view[:] = c0 + (c1 - c0) * t
    elif label == 2:
        max_f = max(1, p // 4)
        kx = ky = 0
        while kx == 0 and ky == 0:
            kx = int(rng.integers(0, max_f + 1))
            ky = int(rng.integers(0, max_f + 1))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x = np.arange(p)
        grid = 2.0 * np.pi * (kx * x[None, :] + ky * x[:, None]) / p
        patch_view[:] = 0.5 + TEXTURE_AMPLITUDE * np.sin(grid + phase)
    else:
        patch_view[:] = rng.uniform(size=(p, p))


def reference_gen_synthetic(
    n: int, size: int, patch: int, mix: Sequence[float], seed: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(image, label grid) of each of ``n`` items; item ``i`` from seed
    ``seed XOR i``."""
    grid = size // patch
    out = []
    for i in range(n):
        rng = np.random.default_rng((seed ^ i) & _U64)
        labels = rng.choice(4, size=(grid, grid), p=np.asarray(mix, dtype=np.float64))
        image = np.empty((size, size))
        for gy in range(grid):
            for gx in range(grid):
                view = image[gy * patch:(gy + 1) * patch, gx * patch:(gx + 1) * patch]
                _fill_patch(view, int(labels[gy, gx]), rng)
        out.append((image, labels.astype(np.int64)))
    return out
