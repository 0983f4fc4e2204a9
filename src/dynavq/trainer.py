"""End-to-end training loop.

One step runs the batch's images through the pipeline in one pass over
their stacked patches, assembles the total loss (reconstruction +
commitment, plus the diversity and allocation losses once the warm-up
phase ends), backpropagates through the hand-derived gradients, passing
the decoder gradient straight through the quantizer, and applies Adam to
every parameter array in one walk over the model's parts. The loop is
fully deterministic: batches are drawn from a per-step derived RNG, so
resuming from a checkpoint reproduces the uninterrupted trajectory bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from dynavq.allocator import (
    allocator_backward,
    dpa_loss,
    init_allocator,
    ratio_target,
)
from dynavq.autoencoder import init_decoder, init_encoder, mlp_backward, reconstruction_loss
from dynavq.codebook import (
    apply_codebook_grads,
    centroids,
    diversity_grad_entries,
    diversity_loss,
    init_codebook,
)
from dynavq.checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from dynavq.dataio import Dataset, gen_synthetic, load_manifest, split
from dynavq.metrics import SSIM_WINDOW, codebook_perplexity
from dynavq.pipeline import PARTS, SETTINGS, Model, check_settings, forward_image
from dynavq.quantizer import QuantizeMode, commitment_loss, quantize_backward
from dynavq.seeding import derive_seed

#: The metrics CSV's columns, which are also the keys of a step's row:
#: ``step`` is written as an integer and every other column as
#: ``repr(float)``.
METRICS_COLUMNS = (
    "step", "loss_total", "loss_rec", "loss_commit", "loss_dqp", "loss_dpa",
    "mean_count", "std_count", "mean_R", "mean_Rstar", "perplexity",
)
METRICS_HEADER = ",".join(METRICS_COLUMNS)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters, loss weights, data recipe and output paths.

    Holds the only defaults of the model's SETTINGS. ``pool`` is only a
    checked key (top_k <= pool <= primitives_per_sub) that nothing reads,
    kept so that the benchmark's recipes and older configs still load.
    """

    total_steps: int = 1000
    warmup_fraction: float = 0.25
    batch_size: int = 8
    learning_rate: float = 1e-3
    lambda_rec: float = 1.0
    beta: float = 0.25
    lambda_dqp: float = 0.25
    lambda_dpa: float = 1.0
    subcodebooks: int = 4
    primitives_per_sub: int = 64
    primitive_dim: int = 4
    top_k: int = 16
    pool: int = 16
    # sharp weighting: mixtures act as nearest-code-plus-corrections, which
    # is what lets multi-primitive sums beat single-code quantization at
    # this scale
    temperature: float = 0.003
    weighting: str = "softmax"
    quantize_mode: str = "adaptive"  # adaptive | top1 | fixed
    fixed_n: int = 10
    seed: int = 0
    image_size: int = 32
    patch_size: int = 4
    hidden_dim: int = 32
    data_source: str = "synthetic"
    n_images: int = 64
    mix_flat: float = 0.25
    mix_smooth: float = 0.25
    mix_texture: float = 0.25
    mix_noise: float = 0.25
    train_frac: float = 0.8
    metrics_path: str = "metrics.csv"
    checkpoint_path: str = "checkpoint.ckpt"

    @property
    def embed_dim(self) -> int:
        return self.subcodebooks * self.primitive_dim

    @property
    def mix(self) -> Tuple[float, float, float, float]:
        return (self.mix_flat, self.mix_smooth, self.mix_texture, self.mix_noise)

    def validate(self) -> None:
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.total_steps < 0:
            raise ValueError("total_steps must be non-negative")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        for name in ("lambda_rec", "lambda_dqp", "lambda_dpa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("subcodebooks", "primitives_per_sub", "primitive_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        check_settings(self, self.primitives_per_sub)
        if not self.top_k <= self.pool <= self.primitives_per_sub:
            raise ValueError("pool must lie in [top_k, primitives_per_sub]")
        if self.quantize_mode not in ("adaptive", "top1", "fixed"):
            raise ValueError("quantize_mode must be adaptive, top1 or fixed")
        if not 1 <= self.fixed_n <= self.primitives_per_sub:
            raise ValueError("fixed_n must lie in [1, primitives_per_sub]")
        if self.image_size % self.patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        if self.image_size < SSIM_WINDOW:
            raise ValueError(f"image_size must be at least the {SSIM_WINDOW}-pixel SSIM window")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if self.n_images < 2:
            raise ValueError("n_images must be at least 2 for a train/val split")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must lie strictly between 0 and 1")
        mix = np.asarray(self.mix)
        if np.any(mix < 0) or abs(mix.sum() - 1.0) > 1e-9:
            raise ValueError(
                "mix_flat, mix_smooth, mix_texture and mix_noise must be "
                "non-negative and sum to 1"
            )

    def active_mode(self) -> QuantizeMode:
        if self.quantize_mode == "adaptive":
            return QuantizeMode.adaptive(self.top_k)
        if self.quantize_mode == "top1":
            return QuantizeMode.top1()
        return QuantizeMode.fixed_top_n(self.fixed_n)


#: Each TrainConfig field's type, looked up once: ``validate`` checks the
#: float fields and the CLI parses each config value with its type.
FIELD_TYPES: Dict[str, type] = get_type_hints(TrainConfig)


@dataclass
class AdamState:
    t: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def step_rule(self, name: str, learning_rate: float) -> Callable:
        """Update rule for one named parameter at the current time step.

        ``t`` must already be advanced for the step before calling.
        """

        def rule(param: np.ndarray, grad: np.ndarray) -> np.ndarray:
            if name not in self.m:
                self.m[name] = np.zeros_like(param)
                self.v[name] = np.zeros_like(param)
            m = self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * grad
            v = self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**self.t)
            v_hat = v / (1.0 - ADAM_BETA2**self.t)
            return param - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        return rule


@dataclass
class TrainState:
    model: Model
    opt: AdamState
    step: int
    config: TrainConfig


def warmup_steps(total_steps: int, warmup_fraction: float) -> int:
    """ceil(fraction * total), with products snapped to nearby integers so
    binary float noise cannot shift the boundary."""
    x = warmup_fraction * total_steps
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(x))


def phase(step: int, total_steps: int, warmup_fraction: float) -> str:
    """"warmup" or "active" for a step index."""
    if not 0 <= step < max(total_steps, 1):
        raise ValueError(f"step {step} outside [0, {total_steps})")
    return "warmup" if step < warmup_steps(total_steps, warmup_fraction) else "active"


def total_loss(
    components: Dict[str, float], config: TrainConfig, current_phase: str
) -> float:
    """Weighted, warm-up-gated sum of the loss components.

    ``components`` holds raw values for rec, commit, dqp and dpa. During
    warm-up the dqp and dpa contributions are exactly zero.
    """
    for name, value in components.items():
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss component: {name}")
    total = config.lambda_rec * components["rec"] + components["commit"]
    if current_phase == "active":
        total += config.lambda_dqp * components["dqp"]
        total += config.lambda_dpa * components["dpa"]
    return float(total)


def init_state(config: TrainConfig) -> TrainState:
    config.validate()
    seed = config.seed
    model = Model(
        codebook=init_codebook(
            config.subcodebooks,
            config.primitives_per_sub,
            config.primitive_dim,
            derive_seed(seed, "init", "codebook"),
        ),
        allocator=init_allocator(
            config.embed_dim, derive_seed(seed, "init", "allocator")
        ),
        encoder=init_encoder(
            config.patch_size, config.hidden_dim, config.embed_dim,
            derive_seed(seed, "init", "encoder"),
        ),
        decoder=init_decoder(
            config.patch_size, config.hidden_dim, config.embed_dim,
            derive_seed(seed, "init", "decoder"),
        ),
        **{name: getattr(config, name) for name in SETTINGS},
    )
    return TrainState(model=model, opt=AdamState(), step=0, config=config)


def build_datasets(config: TrainConfig) -> Tuple[Dataset, Dataset]:
    """Train/val datasets from the config's data recipe (deterministic).

    A synthetic recipe is generated once per process: its image and label
    arrays are read-only and shared by every call, and each call gets new
    Dataset objects with their own item lists. A manifest is read on every
    call, since its files can change; its patches must be
    ``config.patch_size`` pixels wide, and its images at least as wide and
    tall as the SSIM window.
    """
    if config.data_source == "synthetic":
        # repr is the text Dataset.recipe records
        mix_text = tuple(repr(float(f)) for f in config.mix)
        ds = _synthetic(
            config.n_images, config.image_size, config.patch_size, mix_text,
            config.seed,
        )
    else:
        ds = load_manifest(config.data_source)
        for number, item in enumerate(ds.items, start=1):
            h, w = item.image.shape
            if h < SSIM_WINDOW or w < SSIM_WINDOW:
                raise ValueError(
                    f"manifest {config.data_source} item {number}: a {h}x{w} "
                    f"image is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} "
                    "SSIM window"
                )
            tile = h // item.patch_labels.shape[0]
            if tile != config.patch_size:
                raise ValueError(
                    f"manifest {config.data_source} labels {tile}-pixel patches, "
                    f"but patch_size is {config.patch_size}"
                )
    return split(ds, config.train_frac, derive_seed(config.seed, "data", "split"))


@lru_cache(maxsize=1, typed=True)
def _synthetic(
    n_images: int,
    image_size: int,
    patch_size: int,
    mix_text: Tuple[str, ...],
    seed: int,
) -> Dataset:
    """The most recent synthetic recipe, with read-only arrays.

    Keyed with argument types and the mix as text, so inputs that compare
    equal but print differently (1 and True, 0.0 and -0.0) each keep their
    own recipe text. Calls gen_synthetic through this module's global,
    which a tracer may wrap.
    """
    ds = gen_synthetic(
        n_images, image_size, patch_size, [float(f) for f in mix_text],
        derive_seed(seed, "data"),
    )
    for item in ds.items:
        item.image.flags.writeable = False
        item.patch_labels.flags.writeable = False
    return ds


def _batch_images(
    train: Dataset, config: TrainConfig, step: int
) -> List[np.ndarray]:
    rng = np.random.default_rng(derive_seed(config.seed, "training", "batch", str(step)))
    idx = rng.integers(0, len(train.items), size=config.batch_size)
    return [train.items[int(i)].image for i in idx]


def train_step(
    state: TrainState, batch: Sequence[np.ndarray]
) -> Tuple[TrainState, Dict[str, float], Dict[str, np.ndarray]]:
    """One optimization step over a batch of images.

    Returns the new state, the metrics row, and the raw per-patch arrays
    (counts, ratios, targets) for observers.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    config = state.config
    model = state.model
    current_phase = phase(state.step, config.total_steps, config.warmup_fraction)
    active = current_phase == "active"
    mode = config.active_mode() if active else QuantizeMode.top1()

    cb = model.codebook
    # one pass over every patch of the batch; each row carries 1 / (n L_i)
    # for an image of L_i patches, so every loss is the mean over images of
    # the per-image mean, whatever the image sizes
    fwd = forward_image(model, list(batch), mode)
    lengths = np.diff(fwd.offsets)
    row_weights = np.repeat(1.0 / (len(batch) * lengths), lengths)
    z = fwd.embeddings
    q = fwd.quant.quantized

    # pixel MSE equals the patch-matrix MSE (same multiset of values)
    rec, d_recon = reconstruction_loss(fwd.patches, fwd.recon_patches, row_weights)
    commit, d_z_commit, d_q_commit = commitment_loss(z, q, model.beta, row_weights)
    targets = ratio_target(z, q, cb.primitives_per_sub, fwd.offsets)
    dpa, d_ratios = dpa_loss(fwd.ratios, targets, row_weights)
    dqp, d_cents = diversity_loss(centroids(cb))
    components = {
        "rec": rec,
        "commit": commit,
        "dqp": dqp if active else 0.0,
        "dpa": dpa if active else 0.0,
    }
    # before the backward pass, whose gradient dataclasses reject
    # non-finite arrays: a non-finite loss must raise the RuntimeError that
    # run_training answers with an abort checkpoint
    loss = total_loss(components, config, current_phase)

    grads = {}
    grads["decoder"], d_q_rec = mlp_backward(
        config.lambda_rec * d_recon, fwd.decoder_cache, model.decoder
    )
    # the quantizer passes the decoder gradient to the encoder unchanged
    d_z_total = d_q_rec + d_z_commit
    d_entries = quantize_backward(d_q_commit, fwd.quant.cache, cb)
    if active:
        grads["allocator"], d_z_alloc = allocator_backward(
            config.lambda_dpa * d_ratios, fwd.allocator_cache, model.allocator
        )
        d_z_total = d_z_total + d_z_alloc
    else:
        alloc = model.allocator
        grads["allocator"] = type(alloc)(
            **{name: np.zeros_like(value) for name, value in vars(alloc).items()}
        )
    grads["encoder"], _ = mlp_backward(d_z_total, fwd.encoder_cache, model.encoder)
    if active:
        d_entries = d_entries + config.lambda_dqp * diversity_grad_entries(
            cb, d_cents
        )

    opt = state.opt
    opt.t += 1
    lr = config.learning_rate
    usage = cb.usage_counts + fwd.quant.usage_delta.astype(np.uint64)
    new_codebook = apply_codebook_grads(
        replace(cb, usage_counts=usage), d_entries,
        opt.step_rule("codebook.entries", lr),
    )
    new_parts = {}
    for part in PARTS:
        params = getattr(model, part)
        part_grads = vars(grads[part])
        new_parts[part] = type(params)(**{
            name: opt.step_rule(f"{part}.{name}", lr)(value, part_grads[name])
            for name, value in vars(params).items()
        })
    new_model = replace(model, codebook=new_codebook, **new_parts)

    counts = fwd.quant.alloc.counts
    ratios = fwd.ratios
    usage_step = fwd.quant.usage_delta.astype(np.float64)
    perplexity = float(np.mean(codebook_perplexity(usage_step)))
    metrics_row = {
        "step": state.step,
        "loss_total": loss,
        "loss_rec": components["rec"],
        "loss_commit": components["commit"],
        "loss_dqp": components["dqp"],
        "loss_dpa": components["dpa"],
        "mean_count": float(counts.mean()),
        "std_count": float(counts.std()),
        "mean_R": float(ratios.mean()),
        "mean_Rstar": float(targets.mean()),
        "perplexity": perplexity,
    }
    raw = {"counts": counts, "ratios": ratios, "targets": targets}
    new_state = TrainState(
        model=new_model, opt=opt, step=state.step + 1, config=config
    )
    return new_state, metrics_row, raw


def _format_row(row: Dict[str, float]) -> str:
    step, *rest = METRICS_COLUMNS
    return ",".join([str(int(row[step]))] + [repr(float(row[key])) for key in rest])


def warmup_checkpoint_path(config: TrainConfig) -> Path:
    base = Path(config.checkpoint_path)
    return base.with_name(base.stem + "_warmup" + base.suffix)


Observer = Callable[[int, Dict[str, float], Dict[str, np.ndarray]], None]


def run_training(
    config: TrainConfig,
    resume_from: Optional[str] = None,
    observer: Optional[Observer] = None,
) -> Tuple[Path, Path]:
    """Execute the configured number of steps, writing metrics and
    checkpoints.

    A checkpoint is written at the warm-up boundary (when one exists) and
    at the end. ``resume_from`` continues a run from a saved checkpoint;
    because batches are derived from (seed, step), the resumed trajectory
    matches the uninterrupted one exactly. ``observer`` is called after
    each step with (step, metrics row, raw per-patch arrays). A step that
    raises RuntimeError (a non-finite loss) saves the state before it to
    ``<checkpoint_path>.abort``, and the RuntimeError is raised again
    naming the step and that file.

    Returns (final checkpoint path, metrics path).
    """
    config.validate()
    train, _ = build_datasets(config)
    if resume_from is not None:
        data = load_checkpoint(resume_from)
        _check_resume(data, config)
        opt = AdamState(t=data.adam_t, m=data.opt_m, v=data.opt_v)
        state = TrainState(model=data.model, opt=opt, step=data.step, config=config)
    else:
        state = init_state(config)

    boundary = warmup_steps(config.total_steps, config.warmup_fraction)
    metrics_path = Path(config.metrics_path)
    final_path = Path(config.checkpoint_path)
    for parent in {metrics_path.parent, final_path.parent}:
        parent.mkdir(parents=True, exist_ok=True)

    # A diverging run overflows before total_loss names the non-finite
    # loss; numpy's warnings would come first and name nothing.
    quiet = np.errstate(over="ignore", invalid="ignore")
    with open(metrics_path, "w", newline="") as fh, quiet:
        fh.write(METRICS_HEADER + "\n")
        for step in range(state.step, config.total_steps):
            batch = _batch_images(train, config, step)
            try:
                state, row, raw = train_step(state, batch)
            except RuntimeError as err:
                abort = str(final_path) + ".abort"
                save_checkpoint(abort, _to_checkpoint(state))
                raise RuntimeError(
                    f"step {step}: {err}; the state before this step is saved "
                    f"in {abort}"
                ) from err
            fh.write(_format_row(row) + "\n")
            if observer is not None:
                observer(step, row, raw)
            if state.step == boundary and 0 < boundary < config.total_steps:
                save_checkpoint(warmup_checkpoint_path(config), _to_checkpoint(state))
    save_checkpoint(final_path, _to_checkpoint(state))
    return final_path, metrics_path


def _check_resume(data: CheckpointData, config: TrainConfig) -> None:
    """Reject a checkpoint that the config would not have produced.

    Compares the seed, the model settings and the shape of every parameter
    array against a fresh model built from the config, and raises
    ValueError naming the first key that differs.
    """
    fresh, loaded = init_state(config).model, data.model
    # a checkpoint keeps the seed modulo 2**64
    pairs = [("seed", data.seed % (1 << 64), config.seed % (1 << 64))]
    for key in SETTINGS:
        pairs.append((key, getattr(loaded, key), getattr(fresh, key)))
    pairs.append(
        ("codebook.entries", loaded.codebook.entries.shape, fresh.codebook.entries.shape)
    )
    for part in PARTS:
        for name, value in vars(getattr(fresh, part)).items():
            got = getattr(getattr(loaded, part), name).shape
            pairs.append((f"{part}.{name}", got, value.shape))
    for key, got, want in pairs:
        if got != want:
            raise ValueError(
                f"checkpoint {key} is {got!r} but the config gives {want!r}"
            )


def _to_checkpoint(state: TrainState) -> CheckpointData:
    return CheckpointData(
        model=state.model,
        step=state.step,
        seed=state.config.seed,
        adam_t=state.opt.t,
        opt_m=state.opt.m,
        opt_v=state.opt.v,
    )
