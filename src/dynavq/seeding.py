"""Named deterministic RNG streams.

Sub-seeds are derived by hashing (seed, stream name) with SHA-256, so a
stream's sequence depends only on the master seed and its name, never on
creation order or on draws from other streams.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, *names: str) -> int:
    """Stable 64-bit sub-seed for a named stream."""
    text = repr(int(seed)) + "".join("|" + str(n) for n in names)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
