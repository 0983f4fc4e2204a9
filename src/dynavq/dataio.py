"""Synthetic data with per-patch complexity labels, plus PGM raster I/O.

The generator builds grayscale images patch by patch from four recipes of
increasing pixel variance (flat fill, linear ramp, sinusoidal grid,
uniform noise) and records which recipe produced each patch. That label
grid is the ground truth for checking that the allocator spends more
primitives on busier patches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from dynavq.numerics import Array

LABEL_NAMES = ("flat", "smooth", "texture", "noise")

#: Sine amplitude for texture patches. A^2/2 keeps texture variance below
#: the 1/12 variance of uniform noise while staying well above the ramps.
TEXTURE_AMPLITUDE = 0.35

_U64 = 0xFFFFFFFFFFFFFFFF


class PgmError(ValueError):
    """Malformed PGM data; ``offset`` is the byte position of the problem
    and ``path`` the file, when known."""

    def __init__(self, message: str, offset: int, path=None):
        where = "" if path is None else f"pgm {path}: "
        super().__init__(f"{where}{message} (byte offset {offset})")
        self.message = message
        self.offset = offset
        self.path = path


class ManifestError(ValueError):
    """Malformed manifest; names the manifest and the 1-based line, or no
    line when the fault is the whole file."""

    def __init__(self, path, lineno: Optional[int], message: str):
        where = "" if lineno is None else f" line {lineno}"
        super().__init__(f"manifest {path}{where}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class LabeledImage:
    """Grayscale image in [0, 1] with one complexity label per patch."""

    image: np.ndarray
    patch_labels: np.ndarray

    def __post_init__(self):
        if self.image.ndim != 2 or self.patch_labels.ndim != 2:
            raise ValueError("image and label grid must be 2-D")


@dataclass
class Dataset:
    items: List[LabeledImage]
    seed: int
    recipe: str

    def __len__(self) -> int:
        return len(self.items)


def _ramp_grids(p: int) -> Tuple[Array, Array, Array]:
    """Horizontal, vertical and diagonal ramps from 0 to 1 over a patch."""
    if p == 1:
        flat = np.zeros((1, 1))
        return flat, flat, flat
    x = np.arange(p)
    return (
        np.broadcast_to(x / (p - 1), (p, p)),
        np.broadcast_to((x / (p - 1))[:, None], (p, p)),
        (x[:, None] + x[None, :]) / (2 * (p - 1)),
    )


def _texture_arguments(p: int, max_f: int) -> Array:
    """Sine arguments 2 pi (kx x + ky y) / p for every frequency pair,
    indexed [kx, ky, y, x]."""
    x = np.arange(p)
    k = np.arange(max_f + 1)
    kx = k[:, None, None, None]
    ky = k[None, :, None, None]
    return 2.0 * np.pi * (kx * x[None, :] + ky * x[:, None]) / p


def gen_synthetic(
    n: int, size: int, patch: int, mix: Sequence[float], seed: int
) -> Dataset:
    """Generate ``n`` labeled images of ``size`` x ``size`` pixels.

    ``mix`` gives the class probabilities (flat, smooth, texture, noise);
    each patch draws its class independently. Item ``i`` is generated from
    seed ``seed XOR i``, so regeneration is bit-identical and order-free.

    Patches are filled in row-major order, each drawing from the item's
    generator: flat a level; smooth two end levels and a ramp direction
    (horizontal, vertical, diagonal); texture a nonzero integer frequency
    pair up to p/4 (alias-free on the p-grid, variance A^2/2 for any
    phase) and a phase; noise one uniform value per pixel.
    """
    mix = np.asarray(mix, dtype=np.float64)
    if mix.shape != (4,) or np.any(mix < 0) or abs(mix.sum() - 1.0) > 1e-9:
        raise ValueError("mix must be 4 non-negative fractions summing to 1")
    if n < 1:
        raise ValueError("need at least one image")
    if size < 1 or patch < 1 or size % patch:
        raise ValueError(f"size {size} must be divisible by patch {patch}")
    grid = size // patch
    ramps = _ramp_grids(patch)
    max_f = max(1, patch // 4)
    texture_args = _texture_arguments(patch, max_f)
    items: List[LabeledImage] = []
    for i in range(n):
        rng = np.random.default_rng((seed ^ i) & _U64)
        labels = rng.choice(4, size=(grid, grid), p=mix)
        block = np.empty((grid * grid, patch, patch))
        for k, label in enumerate(labels.ravel().tolist()):
            if label == 0:
                block[k] = rng.random()
            elif label == 1:
                c0, c1 = rng.random(2)
                block[k] = c0 + (c1 - c0) * ramps[int(rng.integers(3))]
            elif label == 2:
                kx = ky = 0
                while kx == 0 and ky == 0:
                    kx = int(rng.integers(0, max_f + 1))
                    ky = int(rng.integers(0, max_f + 1))
                phase = 2.0 * np.pi * rng.random()
                wave = np.sin(texture_args[kx, ky] + phase)
                block[k] = 0.5 + TEXTURE_AMPLITUDE * wave
            else:
                block[k] = rng.random((patch, patch))
        image = (
            block.reshape(grid, grid, patch, patch).swapaxes(1, 2).reshape(size, size)
        )
        items.append(LabeledImage(image=image, patch_labels=labels.astype(np.int64)))
    mix_text = ",".join(repr(float(f)) for f in mix)
    return Dataset(
        items=items,
        seed=seed,
        recipe=f"synthetic(n={n},size={size},patch={patch},mix=[{mix_text}])",
    )


def split(ds: Dataset, train_frac: float, seed: int) -> Tuple[Dataset, Dataset]:
    """Deterministic shuffled split into disjoint, exhaustive halves; the
    training half must hold at least one item."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie strictly between 0 and 1")
    n_train = int(train_frac * len(ds.items))
    if n_train == 0:
        raise ValueError(
            f"train_frac {train_frac} of {len(ds.items)} items leaves the "
            "training split empty"
        )
    perm = np.random.default_rng(seed).permutation(len(ds.items))
    train_items = [ds.items[i] for i in perm[:n_train]]
    val_items = [ds.items[i] for i in perm[n_train:]]
    return (
        Dataset(train_items, ds.seed, ds.recipe + f"|train({train_frac},{seed})"),
        Dataset(val_items, ds.seed, ds.recipe + f"|val({train_frac},{seed})"),
    )


# ---------------------------------------------------------------------------
# Binary PGM (P5)
# ---------------------------------------------------------------------------


def save_raster(image: Array, path) -> None:
    """Write a [0, 1] grayscale image as binary PGM, maxval 255.

    Pixels are clamped to [0, 1] and rounded half-up to 0..255, so a
    save/load round trip is accurate to 1/510 per pixel. Output bytes are
    a pure function of the pixel values.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    levels = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())


def _next_token(data: bytes, pos: int) -> Tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_raster(path) -> Array:
    """Parse a binary PGM (P5) file into a [0, 1] float image.

    Sample values are divided by the header's maxval; maxval above 255
    means two-byte big-endian samples per the netpbm convention. A sample
    above maxval raises PgmError at its byte offset. Every PgmError names
    the file.
    """
    try:
        return _decode_pgm(Path(path).read_bytes())
    except PgmError as err:
        raise PgmError(err.message, err.offset, path) from None


def _decode_pgm(data: bytes) -> Array:
    if data[:2] != b"P5":
        raise PgmError("not a binary PGM (expected magic P5)", 0)
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        if not token.isdigit():
            raise PgmError(f"expected integer header field, got {token!r}", pos - len(token))
        if len(token) > 20:  # int() refuses past 4300 digits; no real field comes close
            raise PgmError(f"{len(token)}-digit header field", pos - len(token))
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError("image dimensions must be positive", 2)
    if not 0 < maxval < 65536:
        raise PgmError(f"maxval {maxval} out of range", pos)
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise PgmError("missing whitespace after maxval", pos)
    pos += 1
    sample_bytes = 1 if maxval < 256 else 2
    needed = width * height * sample_bytes
    raster = data[pos:pos + needed]
    if len(raster) < needed:
        raise PgmError(
            f"truncated raster: need {needed} bytes, have {len(raster)}",
            pos + len(raster),
        )
    dtype = np.uint8 if sample_bytes == 1 else np.dtype(">u2")
    samples = np.frombuffer(raster, dtype=dtype)
    over = np.flatnonzero(samples > maxval)
    if over.size:
        first = int(over[0])
        raise PgmError(
            f"sample {samples[first]} exceeds maxval {maxval}",
            pos + first * sample_bytes,
        )
    return (samples.astype(np.float64) / maxval).reshape(height, width)


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


def export_dataset(ds: Dataset, directory) -> Path:
    """Write images as PGM plus label-grid CSVs and a manifest file.

    The manifest holds one ``image_path,label_csv_path`` line per item
    (paths relative to the manifest's directory).
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, item in enumerate(ds.items):
        img_name = f"item_{i:04d}.pgm"
        lbl_name = f"item_{i:04d}_labels.csv"
        save_raster(item.image, out / img_name)
        np.savetxt(out / lbl_name, item.patch_labels, fmt="%d", delimiter=",")
        lines.append(f"{img_name},{lbl_name}")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _reason(err: Exception) -> str:
    """An OSError's reason without the path it repeats, else the message."""
    return getattr(err, "strerror", None) or str(err)


def load_manifest(manifest_path) -> Dataset:
    """Load a dataset written by export_dataset.

    Each label grid must tile its image into square patches, one label in
    [0, len(LABEL_NAMES)) per patch. Every fault in the manifest or a
    file it lists raises ManifestError naming the manifest, the line and
    the file: a missing or malformed PGM, a missing, unparsable or empty
    label CSV, text that is not UTF-8. A manifest that lists no items
    raises it without a line.
    """
    path = Path(manifest_path)
    base = path.parent
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        # the line the first undecodable byte sits on
        lineno = len((raw[: err.start].decode("utf-8") + "?").splitlines())
        raise ManifestError(path, lineno, f"not UTF-8 text ({err.reason})") from err
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ManifestError(
                path, lineno,
                f"expected 'image_path,label_csv_path', got {len(fields)} fields",
            )
        img_path, csv_path = (base / rel for rel in fields)
        try:
            image = load_raster(img_path)
        except PgmError as err:
            raise ManifestError(path, lineno, str(err)) from err
        except (OSError, ValueError) as err:
            raise ManifestError(path, lineno, f"pgm {img_path}: {_reason(err)}") from err
        try:
            with warnings.catch_warnings():
                # numpy warns on an empty file; it is refused below, by name
                warnings.simplefilter("ignore", UserWarning)
                labels = np.loadtxt(csv_path, dtype=np.int64, delimiter=",", ndmin=2)
        except (OSError, ValueError) as err:
            raise ManifestError(
                path, lineno, f"label csv {csv_path}: {_reason(err)}"
            ) from err
        if labels.size == 0:
            raise ManifestError(path, lineno, f"label csv {csv_path}: holds no labels")
        (h, w), (gh, gw) = image.shape, labels.shape
        if h % gh or w % gw or h // gh != w // gw:
            raise ManifestError(
                path, lineno,
                f"a {gh}x{gw} label grid does not tile the {h}x{w} image "
                "into square patches",
            )
        bad = labels[(labels < 0) | (labels >= len(LABEL_NAMES))]
        if bad.size:
            raise ManifestError(
                path, lineno,
                f"label {bad[0]} is not in [0, {len(LABEL_NAMES)})",
            )
        items.append(LabeledImage(image=image, patch_labels=labels))
    if not items:
        raise ManifestError(path, None, "lists no items")
    return Dataset(items=items, seed=0, recipe=f"manifest({path})")
