"""dynavq: adaptive multi-subcodebook vector quantization at desk scale.

A trainable tokenize -> quantize -> detokenize pipeline built around two
ideas: a codebook split into several sub-codebooks whose centroids are
pushed apart by a diversity loss, and a small allocator network that
decides, patch by patch, how many primitives to spend on reconstruction.
Everything is float64 numpy with hand-derived gradients that are verified
against finite differences.
"""

from dynavq.allocator import (
    AllocatorParams,
    allocator_backward,
    allocator_forward,
    count_from_ratio,
    dpa_loss,
    init_allocator,
    ratio_target,
)
from dynavq.autoencoder import (
    MlpParams,
    encode,
    init_decoder,
    init_encoder,
    patchify,
    reconstruction_loss,
    unpatchify,
)
from dynavq.codebook import (
    Codebook,
    apply_codebook_grads,
    centroids,
    diversity_loss,
    init_codebook,
)
from dynavq.checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from dynavq.dataio import Dataset, LabeledImage, gen_synthetic, load_raster, save_raster, split
from dynavq.metrics import (
    allocation_heatmap,
    centroid_similarity_matrix,
    codebook_perplexity,
    evaluate_reconstruction,
    psnr,
    rate_distortion,
    ssim,
)
from dynavq.numerics import GradReport, cosine_similarity_matrix, grad_check
from dynavq.pipeline import Model, forward_image
from dynavq.quantizer import (
    AllocationMap,
    QuantizeMode,
    QuantizeOutput,
    commitment_loss,
    quantize,
    quantize_chunk,
)
from dynavq.seeding import derive_seed
from dynavq.trainer import TrainConfig, TrainState, run_training, train_step

__version__ = "0.1.0"

__all__ = [
    "AllocationMap",
    "AllocatorParams",
    "CheckpointData",
    "Codebook",
    "Dataset",
    "GradReport",
    "LabeledImage",
    "MlpParams",
    "Model",
    "QuantizeMode",
    "QuantizeOutput",
    "TrainConfig",
    "TrainState",
    "allocation_heatmap",
    "allocator_backward",
    "allocator_forward",
    "apply_codebook_grads",
    "centroid_similarity_matrix",
    "centroids",
    "codebook_perplexity",
    "commitment_loss",
    "cosine_similarity_matrix",
    "count_from_ratio",
    "diversity_loss",
    "dpa_loss",
    "encode",
    "evaluate_reconstruction",
    "forward_image",
    "gen_synthetic",
    "grad_check",
    "init_allocator",
    "init_codebook",
    "init_decoder",
    "init_encoder",
    "load_checkpoint",
    "load_raster",
    "patchify",
    "psnr",
    "quantize",
    "quantize_chunk",
    "rate_distortion",
    "ratio_target",
    "reconstruction_loss",
    "run_training",
    "save_checkpoint",
    "save_raster",
    "derive_seed",
    "split",
    "ssim",
    "train_step",
    "unpatchify",
    "__version__",
]
