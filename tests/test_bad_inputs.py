"""Property tests: every bad input file ends in its module's typed error.

``load_raster`` either returns an image in [0, 1] or raises PgmError,
``parse_config`` either returns a TrainConfig or raises ConfigError, and
``load_manifest`` either loads or raises ManifestError, whatever the
bytes. Each error names the file. Examples are derandomized, so a run is
repeatable.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynavq.cli import ConfigError, parse_config
from dynavq.dataio import ManifestError, PgmError, load_manifest, load_raster, save_raster
from dynavq.trainer import TrainConfig

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bad_inputs")


def check_raster(path):
    try:
        image = load_raster(path)
    except PgmError as err:
        assert str(path) in str(err)
        return
    assert image.ndim == 2 and image.size > 0
    assert np.all((image >= 0.0) & (image <= 1.0))


@FUZZ
@given(data=st.binary(max_size=48))
def test_load_raster_on_arbitrary_bytes(workdir, data):
    path = workdir / "any.pgm"
    path.write_bytes(data)
    check_raster(path)


@st.composite
def mutated_pgms(draw):
    """A valid P5 file, one- or two-byte samples, with some bytes
    replaced, inserted or cut."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 100, 255, 256, 65535]))
    wide = maxval > 255
    samples = draw(
        st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height)
    )
    body = np.array(samples, dtype=">u2" if wide else np.uint8).tobytes()
    data = bytearray(f"P5\n{width} {height}\n{maxval}\n".encode() + body)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "insert", "cut"]))
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([0, 9, 10, 32, 35, 48, 53, 57, 80, 200, 255]))
        if kind == "replace" and at < len(data):
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        else:
            del data[at:]
    return bytes(data)


@FUZZ
@given(data=mutated_pgms())
def test_load_raster_on_mutated_files(workdir, data):
    path = workdir / "mutated.pgm"
    path.write_bytes(data)
    check_raster(path)


KEYS = [f.name for f in dataclasses.fields(TrainConfig)]

config_lines = st.one_of(
    st.text(max_size=24),
    st.builds(
        "{} = {}".format,
        st.sampled_from(KEYS + ["bogus", ""]),
        st.one_of(
            st.text(max_size=8),
            st.integers(-3, 300).map(str),
            st.floats().map(repr),
            st.sampled_from(["softmax", "linear", "adaptive", "top1", "fixed", "1e999"]),
        ),
    ),
)


def check_config(path):
    try:
        config = parse_config(path)
    except ConfigError as err:
        assert str(path) in str(err)
        return
    assert isinstance(config, TrainConfig)


@FUZZ
@given(lines=st.lists(config_lines, max_size=6))
def test_parse_config_on_generated_text(workdir, lines):
    path = workdir / "any.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    check_config(path)


@FUZZ
@given(data=st.binary(max_size=48))
def test_parse_config_on_arbitrary_bytes(workdir, data):
    path = workdir / "bytes.cfg"
    path.write_bytes(data)
    check_config(path)


@pytest.fixture(scope="module")
def manifest_dir(workdir):
    """Good and bad images and label grids for generated manifests."""
    folder = workdir / "manifest"
    folder.mkdir()
    save_raster(np.linspace(0.0, 1.0, 64).reshape(8, 8), folder / "good.pgm")
    (folder / "over.pgm").write_bytes(b"P5\n2 1\n100\n" + bytes([50, 200]))
    (folder / "good.csv").write_text("0,1\n2,3\n")
    (folder / "wide.csv").write_text("0,1,2\n")
    (folder / "label7.csv").write_text("7,1\n2,3\n")
    (folder / "text.csv").write_text("0,abc\n")
    (folder / "empty.csv").write_text("")
    return folder


FILES = ["good.pgm", "over.pgm", "good.csv", "wide.csv", "label7.csv", "text.csv",
         "empty.csv", "missing.pgm", "missing.csv", "", ".", "\x00"]

manifest_lines = st.one_of(
    st.builds("{},{}".format, st.sampled_from(FILES), st.sampled_from(FILES)),
    st.builds("{},{}".format, st.just("good.pgm"), st.just("good.csv")),
    st.text(max_size=24),
)


@FUZZ
@given(
    lines=st.lists(manifest_lines, max_size=4),
    tail=st.sampled_from([b"", b"", b"\n", b"\r\n", b"\xff\n", b"\xc3"]),
)
def test_load_manifest_on_generated_lines(manifest_dir, lines, tail):
    path = manifest_dir / "manifest.txt"
    path.write_bytes("\n".join(lines).encode("utf-8") + tail)
    try:
        ds = load_manifest(path)
    except ManifestError as err:
        assert f"manifest {path}" in str(err)
        return
    assert len(ds) > 0
    for item in ds.items:
        assert item.image.shape == (8, 8) and item.patch_labels.shape == (2, 2)
