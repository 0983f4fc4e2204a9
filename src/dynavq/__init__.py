"""dynavq: adaptive multi-subcodebook vector quantization at desk scale.

A trainable tokenize -> quantize -> detokenize pipeline built around two
ideas: a codebook split into several sub-codebooks whose centroids are
pushed apart by a diversity loss, and a small allocator network that
decides, patch by patch, how many primitives to spend on reconstruction.
Everything is float64 numpy with hand-derived gradients that are verified
against finite differences.
"""

__version__ = "0.1.0"
