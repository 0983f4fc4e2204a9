"""Flat binary checkpoint container.

Layout (format 2): a fixed header (magic ``CDDV``, u32 version, u32
sub-codebook count, u32 primitives per sub-codebook, u32 primitive dim,
all little-endian), the codebook entries as little-endian f64 in
sub-codebook-major row-major order, the usage counters as u64, a
sequence of tagged sections (allocator, encoder, decoder, optimizer,
meta), then the SHA-256 digest of every byte before it. Each section is
``[12-byte NUL-padded ASCII tag][u64 length][payload]`` where the payload
is a list of named arrays; meta holds step, seed, adam_t and the model's
SETTINGS. Format 1 has no digest and one more meta entry, the inert
``pool``, which is read and dropped; format 1 files still load.

A save writes a temporary file in the target's directory and renames it
into place, so the target is never left half written; a failed write or
rename removes the temporary file. Loading a truncated, corrupted or
malformed file raises CheckpointError naming the path; parse_checkpoint
does the same for bytes already in memory and the name they came from.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, get_type_hints

import numpy as np

from dynavq.codebook import Codebook
from dynavq.pipeline import PARTS, SETTINGS, Model

MAGIC = b"CDDV"
VERSION = 2
_TAG_LEN = 12
_DIGEST_LEN = 32
_MODEL_TYPES = get_type_hints(Model)

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8"), 2: np.dtype("<u8")}
_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<i8"): 1, np.dtype("<u8"): 2}


class CheckpointError(ValueError):
    pass


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr)
    key = data.dtype.newbyteorder("<")
    if key not in _DTYPE_CODES:
        if np.issubdtype(data.dtype, np.floating):
            data = data.astype("<f8")
        elif np.issubdtype(data.dtype, np.unsignedinteger):
            data = data.astype("<u8")
        elif np.issubdtype(data.dtype, np.integer):
            data = data.astype("<i8")
        else:
            raise CheckpointError(f"unsupported dtype {data.dtype} for {name}")
        key = data.dtype
    else:
        data = data.astype(key, copy=False)
    raw = data.tobytes()
    name_b = name.encode("ascii")
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<B", data.ndim)
    head += struct.pack(f"<{data.ndim}I", *data.shape) if data.ndim else b""
    head += struct.pack("<B", _DTYPE_CODES[key])
    return head + raw


def _setting_array(name: str, value) -> np.ndarray:
    """A model setting as a meta array; a string is one u64 per ASCII
    character."""
    kind = _MODEL_TYPES[name]
    if kind is str:
        return np.frombuffer(value.encode("ascii"), dtype=np.uint8).astype("<u8")
    return np.array(value, dtype="<f8" if kind is float else "<u8")


def _setting_value(name: str, arr: np.ndarray):
    kind = _MODEL_TYPES[name]
    if kind is str:
        return arr.astype(np.uint8).tobytes().decode("ascii")
    return kind(arr.reshape(-1)[0])


def _take(raw: bytes, pos: int, size: int, end: int) -> bytes:
    """``size`` bytes at offset ``pos``, which must not run past ``end``."""
    if pos + size > end:
        raise CheckpointError(
            f"truncated: {size} bytes needed at offset {pos}, {end - pos} left"
        )
    return raw[pos:pos + size]


def _unpack(fmt: str, raw: bytes, pos: int, end: int) -> tuple:
    return struct.unpack(fmt, _take(raw, pos, struct.calcsize(fmt), end))


def _unpack_arrays(raw: bytes, pos: int, end: int) -> Dict[str, np.ndarray]:
    """The named arrays of the section payload ``raw[pos:end]``."""
    out: Dict[str, np.ndarray] = {}
    while pos < end:
        (name_len,) = _unpack("<H", raw, pos, end)
        pos += 2
        name = _take(raw, pos, name_len, end).decode("ascii")
        pos += name_len
        (ndim,) = _unpack("<B", raw, pos, end)
        pos += 1
        shape = _unpack(f"<{ndim}I", raw, pos, end)
        pos += 4 * ndim
        (code,) = _unpack("<B", raw, pos, end)
        if code not in _DTYPES:
            raise CheckpointError(f"unknown dtype code {code} at offset {pos}")
        pos += 1
        nbytes = math.prod(shape) * _DTYPES[code].itemsize
        data = _take(raw, pos, nbytes, end)
        out[name] = np.frombuffer(data, dtype=_DTYPES[code]).reshape(shape).copy()
        pos += nbytes
    return out


@dataclass
class CheckpointData:
    """Everything a checkpoint holds; optimizer state is optional."""

    model: Model
    step: int = 0
    seed: int = 0
    adam_t: int = 0
    opt_m: Dict[str, np.ndarray] = field(default_factory=dict)
    opt_v: Dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path, data: CheckpointData) -> None:
    model = data.model
    cb = model.codebook
    blob = MAGIC + struct.pack(
        "<IIII", VERSION, cb.subcodebooks, cb.primitives_per_sub, cb.primitive_dim
    )
    blob += np.ascontiguousarray(cb.entries, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(cb.usage_counts, dtype="<u8").tobytes()

    def section(tag: str, arrays: Dict[str, np.ndarray]) -> bytes:
        payload = b"".join(_pack_array(k, v) for k, v in arrays.items())
        tag_b = tag.encode("ascii")
        if len(tag_b) > _TAG_LEN:
            raise CheckpointError(f"section tag too long: {tag}")
        return tag_b.ljust(_TAG_LEN, b"\x00") + struct.pack("<Q", len(payload)) + payload

    for part in PARTS:
        blob += section(part, vars(getattr(model, part)))
    opt_arrays: Dict[str, np.ndarray] = {}
    for name, arr in data.opt_m.items():
        opt_arrays[f"m.{name}"] = arr
    for name, arr in data.opt_v.items():
        opt_arrays[f"v.{name}"] = arr
    blob += section("optimizer", opt_arrays)
    meta = {
        "step": np.array(data.step, dtype="<u8"),
        "seed": np.array(data.seed & 0xFFFFFFFFFFFFFFFF, dtype="<u8"),
        "adam_t": np.array(data.adam_t, dtype="<u8"),
        **{name: _setting_array(name, getattr(model, name)) for name in SETTINGS},
    }
    blob += section("meta", meta)
    blob += hashlib.sha256(blob).digest()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint of format 1 or 2; a truncated, corrupted or
    malformed file raises CheckpointError naming the path."""
    return parse_checkpoint(Path(path).read_bytes(), path)


def parse_checkpoint(raw: bytes, name) -> CheckpointData:
    """The checkpoint held in ``raw``; a truncated, corrupted or malformed
    one raises CheckpointError naming ``name``, its file."""
    try:
        return _parse(raw)
    except CheckpointError as err:
        raise CheckpointError(f"{name}: {err}") from None
    except (ValueError, KeyError, TypeError, IndexError) as err:
        raise CheckpointError(f"{name}: malformed checkpoint: {err!r}") from err


def _parse(raw: bytes) -> CheckpointData:
    end = len(raw)
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (version,) = _unpack("<I", raw, 4, end)
    if version == VERSION:
        end -= _DIGEST_LEN
        if end < 8:
            raise CheckpointError(f"truncated: {len(raw)} bytes, no room for the digest")
        if hashlib.sha256(raw[:end]).digest() != raw[end:]:
            raise CheckpointError("SHA-256 mismatch: the file is truncated or corrupted")
    elif version != 1:
        raise CheckpointError(f"unsupported version {version}")
    subs, prims, dim = _unpack("<III", raw, 8, end)
    pos = 4 + 16
    n_entries = subs * prims * dim
    entries = np.frombuffer(_take(raw, pos, n_entries * 8, end), dtype="<f8")
    entries = entries.reshape(subs, prims, dim).copy()
    pos += n_entries * 8
    usage = np.frombuffer(_take(raw, pos, subs * prims * 8, end), dtype="<u8")
    usage = usage.reshape(subs, prims).astype(np.uint64)
    pos += subs * prims * 8

    sections: Dict[str, Dict[str, np.ndarray]] = {}
    while pos < end:
        tag = _take(raw, pos, _TAG_LEN, end).rstrip(b"\x00").decode("ascii")
        pos += _TAG_LEN
        (length,) = _unpack("<Q", raw, pos, end)
        pos += 8
        if pos + length > end:
            raise CheckpointError(
                f"truncated: section {tag!r} needs {length} bytes at offset "
                f"{pos}, {end - pos} left"
            )
        sections[tag] = _unpack_arrays(raw, pos, pos + length)
        pos += length

    for needed in PARTS + ("meta",):
        if needed not in sections:
            raise CheckpointError(f"missing section {needed!r}")
    meta = sections["meta"]

    def scalar(name):
        return meta[name].reshape(-1)[0]

    seed_u = int(scalar("seed"))
    if seed_u >= 1 << 63:
        seed_u -= 1 << 64
    model = Model(
        codebook=Codebook(entries=entries, usage_counts=usage),
        **{
            part: _MODEL_TYPES[part](**{
                name: arr.astype(np.float64) for name, arr in sections[part].items()
            })
            for part in PARTS
        },
        **{name: _setting_value(name, meta[name]) for name in SETTINGS},
    )
    opt_m: Dict[str, np.ndarray] = {}
    opt_v: Dict[str, np.ndarray] = {}
    for name, arr in sections.get("optimizer", {}).items():
        if name.startswith("m."):
            opt_m[name[2:]] = arr.astype(np.float64)
        elif name.startswith("v."):
            opt_v[name[2:]] = arr.astype(np.float64)
    return CheckpointData(
        model=model,
        step=int(scalar("step")),
        seed=seed_u,
        adam_t=int(scalar("adam_t")),
        opt_m=opt_m,
        opt_v=opt_v,
    )
