"""Property tests: every bad input file ends in its module's typed error.

``load_raster`` either returns an image in [0, 1] or raises PgmError,
``parse_config`` either returns a TrainConfig or raises ConfigError, and
``load_manifest`` either loads or raises ManifestError, whatever the
bytes. Each error names the file. ``run_command`` on generated argv for
every subcommand returns 0, 1 or 2 without raising, and exit 1 names the
bad file, flag or config key. Examples are derandomized, so a run is
repeatable.
"""

import contextlib
import dataclasses
import io
import tempfile
import warnings
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynavq.checkpoint import load_checkpoint
from dynavq.cli import ConfigError, parse_config, run_command
from dynavq.dataio import ManifestError, PgmError, load_manifest, load_raster, save_raster
from dynavq.trainer import FIELD_TYPES, TrainConfig

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


# ---------------------------------------------------------------------------
# run_command on generated argv
# ---------------------------------------------------------------------------

#: A tiny recipe of at most 2 steps; the generated configs start from it.
TINY = {
    "total_steps": "2", "warmup_fraction": "0.5", "batch_size": "2",
    "subcodebooks": "2", "primitives_per_sub": "4", "primitive_dim": "2",
    "top_k": "2", "pool": "2", "fixed_n": "2", "image_size": "8",
    "patch_size": "4", "hidden_dim": "4", "n_images": "4", "seed": "1",
}

#: Values a config key is tried with: out of range or not numbers, none
#: above 2, so no run exceeds 2 steps or grows the model.
KEY_VALUES = ["-1", "0", "1", "2", "0.2", "1.5", "nan", "x", ""]

OUTPUT_KEYS = ("metrics_path", "checkpoint_path")
PATH_KEYS = ("data_source",) + OUTPUT_KEYS

COMMANDS = ("train", "eval", "reconstruct", "heatmap", "gradcheck",
            "ablate-warmup", "ablate-topk", "ablate-diversity")

CLI_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def config_text(values):
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def key_values(key):
    """KEY_VALUES, plus an ``image_size`` of 4, which tiles into 4-pixel
    patches but is smaller than the 8x8 SSIM window of evaluation."""
    return KEY_VALUES + (["4"] if key == "image_size" else [])


def run_quietly(argv):
    """run_command's exit status and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return run_command(argv), err.getvalue()


@pytest.fixture(scope="module")
def cli_inputs(workdir):
    """A good config, the checkpoint it trains and an image it tiles."""
    folder = workdir / "cli"
    folder.mkdir()
    outputs = {"metrics_path": folder / "metrics.csv", "checkpoint_path": folder / "model.ckpt"}
    (folder / "good.cfg").write_text(config_text({**TINY, **outputs}))
    assert run_command(["train", "--config", str(folder / "good.cfg")]) == 0
    save_raster(np.random.default_rng(0).uniform(size=(8, 8)), folder / "good.pgm")
    return folder


class Argv:
    """Draws one command line. Each input is good, or bad in one of a few
    ways; ``bad`` collects each file, flag or config key given a bad
    value, any of which an exit-1 message must name."""

    def __init__(self, draw, root: Path, work: Path):
        self.draw, self.root, self.work = draw, root, work
        self.bad: List[str] = []

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def fault(self, kinds: Sequence[str]) -> Optional[str]:
        """None (a good input) three times in four, else one of ``kinds``."""
        return self.pick([None] * (3 * len(kinds)) + list(kinds))

    def _bad_path(self, kind: str, tag: str, good: Optional[Path] = None) -> str:
        path = self.work / f"{kind}_{tag}"
        if kind == "empty":
            path.write_bytes(b"")
        elif kind == "directory":
            path.mkdir()
        elif kind == "corrupted":
            data = bytearray(good.read_bytes())
            at = self.draw(st.integers(0, len(data) - 1))
            if self.draw(st.booleans()):
                del data[at:]
            else:
                data[at] ^= self.draw(st.integers(1, 255))
            path.write_bytes(bytes(data))
        elif kind == "missing_parent":
            path = path / "out"
        elif kind == "untileable":
            save_raster(np.zeros((6, 6)), path)
        self.bad.append(str(path))
        return str(path)

    def input_file(self, tag: str, good: Path, *other_kinds: str) -> str:
        kind = self.fault(["missing", "empty", "directory", "corrupted", *other_kinds])
        return str(good) if kind is None else self._bad_path(kind, tag, good)

    def output(self, tag: str) -> str:
        kind = self.fault(["directory", "missing_parent"])
        return str(self.work / tag) if kind is None else self._bad_path(kind, tag)

    def config(self, trains: bool) -> str:
        """A tiny config, maybe with one key set to a bad value, or a bad
        file. An empty file selects the defaults (1000 steps), so only
        commands that do not train get one; it is a good input."""
        kind = self.fault(["missing", "directory", "corrupted", "bad_key"]
                          + ([] if trains else ["empty"]))
        if kind in ("missing", "directory"):
            return self._bad_path(kind, "cfg")
        if kind == "empty":
            (self.work / "defaults.cfg").write_bytes(b"")
            return str(self.work / "defaults.cfg")
        values = dict(TINY)
        if kind == "bad_key":
            key = self.pick(sorted(FIELD_TYPES))
            if key == "data_source":
                values[key] = self._bad_path(self.pick(["missing", "empty", "directory"]), key)
            elif key in PATH_KEYS:
                values[key] = self._bad_path(self.pick(["directory", "missing_parent"]), key)
            else:
                values[key] = self.pick(key_values(key))
            self.bad.append(key)
        text = config_text(values).encode()
        if kind == "corrupted":
            at = self.draw(st.integers(0, len(text) - 1))
            byte = self.pick([0, 10, 61, 255])
            text = text[:at] + bytes([byte]) + text[at + 1:]
            self.bad.append(str(self.work / "run.cfg"))
        # outputs are appended unmutated, so every write stays in work
        outputs = {key: self.work / key for key in OUTPUT_KEYS if key not in values}
        (self.work / "run.cfg").write_bytes(text + config_text(outputs).encode())
        return str(self.work / "run.cfg")

    def flag_value(self, flag: str, good: Sequence[str], bad: Sequence[str]) -> List[str]:
        if self.fault(["bad"]) is None:
            return [flag, self.pick(good)]
        self.bad.append(flag)
        return [flag, self.pick(bad)]

    def command(self, name: str) -> List[str]:
        ckpt, pgm = self.root / "model.ckpt", self.root / "good.pgm"
        if name == "train":
            argv = ["--config", self.config(trains=True)]
            if self.draw(st.booleans()):
                argv += ["--resume", self.input_file("ckpt", ckpt)]
        elif name == "eval":
            argv = ["--checkpoint", self.input_file("ckpt", ckpt),
                    "--out", self.output("report.csv")]
            if self.draw(st.booleans()):
                argv += ["--config", self.config(trains=False)]
            argv += self.flag_value("--forced-n", ["1", "1,2", "", "4"],
                                    ["0", "5", "-1", "x", "1.5", "1,,x"])
        elif name in ("reconstruct", "heatmap"):
            argv = ["--checkpoint", self.input_file("ckpt", ckpt),
                    "--input", self.input_file("pgm", pgm, "untileable"),
                    "--output", self.output("out.pgm")]
        elif name == "gradcheck":
            argv = self.flag_value("--seeds", ["1"], ["0", "-1"])
        else:
            argv = ["--config", self.config(trains=True),
                    "--out", self.output("ablate.csv")]
            workdir = self.work / "runs"
            if self.fault(["file"]):
                workdir.write_bytes(b"")
                self.bad.append(str(workdir))
            argv += ["--workdir", str(workdir)]
        return [name] + argv


@CLI_FUZZ
@given(data=st.data())
def test_run_command_on_generated_argv(cli_inputs, data):
    """Every subcommand on generated argv returns 0, 1 or 2 and never
    raises; exit 1 names a bad file, flag or config key, and a command
    line with nothing bad in it succeeds."""
    work = Path(tempfile.mkdtemp(dir=cli_inputs))
    argv = Argv(data.draw, cli_inputs, work)
    line = argv.command(data.draw(st.sampled_from(COMMANDS)))
    # an unknown flag or a flag without its value is a usage error
    junk = data.draw(st.sampled_from([[]] * 8 + [["--bogus"], [line[-2]]]))
    status, message = run_quietly(line + junk)
    if junk:
        assert status == 2, message
    elif not argv.bad:
        assert status == 0, message
    assert status in (0, 1, 2), message
    if status == 1:
        assert any(name in message for name in argv.bad), (argv.bad, message)


@pytest.mark.parametrize("key", sorted(set(FIELD_TYPES) - set(PATH_KEYS)))
def test_every_bad_config_value_is_named(cli_inputs, key):
    """``train`` and ``eval`` on the tiny config with ``key`` set to each
    of its key_values exit 0, or exit 1 naming the key."""
    for value in key_values(key):
        work = Path(tempfile.mkdtemp(dir=cli_inputs))
        config = work / "run.cfg"
        outputs = {"metrics_path": work / "m.csv", "checkpoint_path": work / "c.ckpt"}
        config.write_text(config_text({**TINY, key: value, **outputs}))
        for line in (
            ["train", "--config", str(config)],
            ["eval", "--checkpoint", str(cli_inputs / "model.ckpt"), "--config",
             str(config), "--out", str(work / "report.csv"), "--forced-n", "1"],
        ):
            status, message = run_quietly(line)
            assert status in (0, 1), (value, line[0], message)
            if status == 1:
                assert key in message, (value, line[0], message)


def test_a_diverging_run_names_the_step_and_its_abort_checkpoint(workdir):
    """A learning rate that overflows the parameters ends in exit 1 naming
    the failing step and the abort checkpoint, which loads."""
    work = Path(tempfile.mkdtemp(dir=workdir))
    config = work / "run.cfg"
    outputs = {"metrics_path": work / "m.csv", "checkpoint_path": work / "c.ckpt"}
    config.write_text(config_text({**TINY, "learning_rate": "1e300", **outputs}))
    with np.errstate(all="ignore"):
        status, message = run_quietly(["train", "--config", str(config)])
    abort = work / "c.ckpt.abort"
    assert status == 1
    assert (
        "step 1: non-finite loss component: rec; the state before this step "
        f"is saved in {abort}"
    ) in message
    assert load_checkpoint(abort).step == 1


def test_a_diverging_run_warns_nothing_before_its_error(workdir):
    """The same diverging run, with every warning recorded, emits none and
    still exits 1 with the same message."""
    work = Path(tempfile.mkdtemp(dir=workdir))
    config = work / "run.cfg"
    outputs = {"metrics_path": work / "m.csv", "checkpoint_path": work / "c.ckpt"}
    config.write_text(config_text({**TINY, "learning_rate": "1e300", **outputs}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, message = run_quietly(["train", "--config", str(config)])
    assert [str(w.message) for w in caught] == []
    assert status == 1
    assert (
        "step 1: non-finite loss component: rec; the state before this step "
        f"is saved in {work / 'c.ckpt.abort'}"
    ) in message
