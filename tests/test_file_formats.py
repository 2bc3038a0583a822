"""Malformed input files: every truncation and random byte flips of each
format give the format's typed error naming the file, or a valid result."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from irismatch import checkpoint as ckpt
from irismatch.iris_io import FileFormatError, read_iris_raw, read_pgm, write_iris_raw, write_pgm
from irismatch.matcher import ConvBlockSpec, IrisMatchModel, ModelConfig
from irismatch.synthetic import read_manifest
from irismatch.training import Adam, TrainConfig

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def tiny_model():
    config = ModelConfig(height=12, width=24, bank_kernels=((3, 3), (3, 5)),
                         matcher_blocks=(ConvBlockSpec(4, (2, 2)), ConvBlockSpec(6, (2, 2))))
    return IrisMatchModel(config, rng=np.random.default_rng(90))


def write_pgm_file(path):
    write_pgm(path, np.random.default_rng(91).uniform(size=(3, 5)))


def write_iris_file(path):
    write_iris_raw(path, np.random.default_rng(92).uniform(size=(3, 4)))


def write_model_file(path):
    ckpt.save_model(tiny_model(), path)


def write_optim_file(path):
    model = tiny_model()
    optimizer = Adam(model.named_parameters(), TrainConfig())
    rng = np.random.default_rng(93)
    for name in optimizer.m:
        optimizer.m[name][...] = rng.normal(size=optimizer.m[name].shape)
        optimizer.v[name][...] = rng.uniform(size=optimizer.v[name].shape)
    ckpt.save_optimizer(optimizer, path)


def write_manifest_file(path):
    # no trailing newline: a prefix that drops only whitespace would still be
    # the whole manifest
    manifest = {"height": 3, "width": 4,
                "identities": [{"id": "a", "files": ["a/img_000", "a/img_001"]},
                               {"id": "b", "files": ["b/img_000"]}]}
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))


def valid_image(img):
    return img.ndim == 2 and img.size > 0 and np.all((img >= 0) & (img <= 1))


def valid_raw(img):
    return img.ndim == 2 and img.size > 0 and np.all(np.isfinite(img))


def valid_model(model):
    return isinstance(model, IrisMatchModel)


def valid_moments(result):
    _, moments = result
    return all(m.shape == v.shape for m, v in moments.values())


def valid_manifest(manifest):
    return isinstance(manifest, dict) and len(manifest["identities"]) > 0


FORMATS = {
    "pgm": (write_pgm_file, read_pgm, FileFormatError, valid_image),
    "iris": (write_iris_file, read_iris_raw, FileFormatError, valid_raw),
    "imcn": (write_model_file, ckpt.load_model, ckpt.CheckpointError, valid_model),
    "imos": (write_optim_file, ckpt.load_optimizer_state, ckpt.CheckpointError, valid_moments),
    "manifest": (write_manifest_file, read_manifest, ValueError, valid_manifest),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_truncation_gives_the_typed_error(fmt, tmp_path):
    write, read, error, _ = FORMATS[fmt]
    path = tmp_path / f"whole.{fmt}"
    write(path)
    raw = path.read_bytes()
    cut = tmp_path / f"cut.{fmt}"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(error) as err:
            read(cut)
        assert str(cut) in str(err.value), n
        assert "\n" not in str(err.value), n


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(data=st.data())
def test_byte_flips_give_the_typed_error_or_a_valid_result(fmt, tmp_path, data):
    write, read, error, valid = FORMATS[fmt]
    path = tmp_path / f"flip.{fmt}"
    write(path)
    raw = bytearray(path.read_bytes())
    for pos in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=3),
                         label="flip at"):
        raw[pos] ^= data.draw(st.integers(1, 255), label="flip bits")
    path.write_bytes(bytes(raw))
    try:
        result = read(path)
    except error as exc:
        assert str(path) in str(exc) and "\n" not in str(exc)
    else:
        assert valid(result)


@pytest.mark.parametrize("header", [b"P5\n-4 -4\n255\n", b"P5\n0 5\n255\n", b"P5\n5 0\n255\n"],
                         ids=["negative", "zero-width", "zero-height"])
def test_pgm_rejects_extents_that_are_not_positive(header, tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(FileFormatError, match="bad.pgm: PGM extents .* are not positive"):
        read_pgm(path)


def test_pgm_rejects_pixels_above_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 1\n100\n\x05\xc8")
    with pytest.raises(FileFormatError, match="bad.pgm: pixel value 200 exceeds maxval 100"):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"IRIS -2 -2\n", b"IRIS 0 3\n", b"IRIS 3 0\n"],
                         ids=["negative", "zero-height", "zero-width"])
def test_iris_raw_rejects_extents_that_are_not_positive(header, tmp_path):
    path = tmp_path / "bad.iris"
    path.write_bytes(header + bytes(16))
    with pytest.raises(FileFormatError, match="bad.iris: iris raw extents .* are not positive"):
        read_iris_raw(path)


def test_iris_raw_rejects_non_finite_pixels(tmp_path):
    path = tmp_path / "bad.iris"
    write_iris_raw(path, np.array([[0.5, np.nan], [np.inf, 0.25]]))
    with pytest.raises(FileFormatError, match="bad.iris: 2 pixel values are not finite"):
        read_iris_raw(path)


@pytest.mark.parametrize("name", ["bank0weight", "bank.0.weight.x", ".m"])
def test_optimizer_record_without_moment_suffix_rejected(name, tmp_path):
    path = tmp_path / "bad.optim"
    ckpt.write_records(path, ckpt.OPTIM_MAGIC, {"type": "adam"}, [(name, np.zeros(3))])
    with pytest.raises(ckpt.CheckpointError, match="bad.optim: record .* is not"):
        ckpt.load_optimizer_state(path)


def test_optimizer_moment_without_its_pair_rejected(tmp_path):
    path = tmp_path / "bad.optim"
    ckpt.write_records(path, ckpt.OPTIM_MAGIC, {"type": "adam"}, [("w.m", np.zeros(3))])
    with pytest.raises(ckpt.CheckpointError, match="bad.optim: 'w' needs a .m and a .v"):
        ckpt.load_optimizer_state(path)


def test_checkpoint_with_a_bad_architecture_rejected(tmp_path):
    model = tiny_model()
    meta = model.config.to_dict()
    meta["bank"]["mode"] = "sine"
    path = tmp_path / "bad.ckpt"
    ckpt.write_records(path, ckpt.MODEL_MAGIC, meta, model.state_items())
    with pytest.raises(ckpt.CheckpointError, match="bad.ckpt: bad architecture"):
        ckpt.load_model(path)


class _CutAfterFirstWrite:
    """A text file whose second ``write`` raises, as a kill mid-write would
    end it."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        if self.writes:
            raise OSError("write cut")
        self.writes += 1
        return self.fh.write(text)


@pytest.mark.parametrize("writer", ["roc.csv", "tar_at_far.csv", "eval_snapshot.cfg",
                                    "manifest.json"])
def test_a_cut_text_write_keeps_the_previous_file(writer, tmp_path, monkeypatch):
    """Every text output goes through ``atomic_open``: a write that fails
    after its first row leaves the previous file's bytes and no ``.tmp``."""
    import contextlib

    from irismatch import cli, evaluation, synthetic
    from irismatch.evaluation import RocCurve
    from irismatch.synthetic import SynthSpec, generate

    curve = RocCurve(np.array([0.9, 0.5, -np.inf]), np.array([0.0, 0.5, 1.0]),
                     np.array([0.5, 1.0, 1.0]))
    store = generate(SynthSpec(identities=2, images_per_identity=2, height=8, width=16))
    module, write = {
        "roc.csv": (evaluation, lambda: evaluation.emit_roc_csv(curve, tmp_path / writer)),
        "tar_at_far.csv": (cli, lambda: cli._write_far_table([(0.1, 0.5, 0.9), (0.5, 1.0, 0.5)],
                                                             tmp_path / writer)),
        "eval_snapshot.cfg": (cli, lambda: cli.write_snapshot(
            "eval", cli.resolve_config("eval", {"checkpoint": "a.ckpt", "seed": 12}), tmp_path)),
        "manifest.json": (synthetic, lambda: synthetic.write_store(store, tmp_path)),
    }[writer]
    write()
    before = (tmp_path / writer).read_bytes()

    @contextlib.contextmanager
    def cut_open(path, *args, **kwargs):
        with ckpt.atomic_open(path, *args, **kwargs) as fh:
            yield _CutAfterFirstWrite(fh)

    monkeypatch.setattr(module, "atomic_open", cut_open)
    with pytest.raises(OSError, match="write cut"):
        write()
    assert (tmp_path / writer).read_bytes() == before
    assert list(tmp_path.rglob("*.tmp")) == []
