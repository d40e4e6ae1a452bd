"""Binary checkpoint round trips and corruption handling."""

import os
import struct

import numpy as np
import pytest

from conftest import make_imageset
from histlearn import checkpoint, cli, models
from histlearn.checkpoint import load_checkpoint, save_checkpoint
from histlearn.errors import DataFormatError
from histlearn.histogram import HistogramSpec


@pytest.mark.parametrize("arch", ("lenet", "base", "cnn", "dadm"))
def test_round_trip_preserves_logits(arch, tmp_path):
    cfg = models.ModelConfig(arch, epochs=1, batch_size=16, seed=5)
    model = models.build_model(cfg)
    # perturb away from the seeded init so the load really carries state
    rng = np.random.default_rng(6)
    for p in model.parameters():
        p.value += rng.standard_normal(p.value.shape) * 0.01
    image_set = make_imageset(4, seed=7)
    batch = image_set.pixels[:, None, :, :]
    before = model.forward(batch)

    path = tmp_path / "model.ckpt"
    save_checkpoint(model, cfg, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded.architecture == arch
    assert np.array_equal(loaded.forward(batch), before)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    cfg = models.ModelConfig("base", epochs=1, seed=0)
    model = models.build_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, cfg, path)
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_trailing_bytes_rejected(tmp_path):
    cfg = models.ModelConfig("base", epochs=1, seed=0)
    model = models.build_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, cfg, path)
    (tmp_path / "fat.ckpt").write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataFormatError):
        load_checkpoint(tmp_path / "fat.ckpt")


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_corrupt_header_is_data_error(tmp_path):
    # valid magic, garbage after: must surface as DataFormatError, not
    # struct.error
    path = tmp_path / "hdr.ckpt"
    path.write_bytes(b"HLCP\x01\x00")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_save_uses_a_private_temp_file(tmp_path):
    # another writer's temp file at the old fixed name is left alone, and
    # the save itself leaves nothing behind
    cfg = models.ModelConfig("base", epochs=1, seed=0)
    path = tmp_path / "model.ckpt"
    (tmp_path / "model.ckpt.tmp").write_bytes(b"another writer")
    save_checkpoint(models.build_model(cfg), cfg, path)
    assert (tmp_path / "model.ckpt.tmp").read_bytes() == b"another writer"
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt", "model.ckpt.tmp"]
    # same permissions as a file opened the ordinary way
    assert os.stat(path).st_mode == os.stat(tmp_path / "model.ckpt.tmp").st_mode
    load_checkpoint(path)


def test_failed_save_removes_temp_file(tmp_path, monkeypatch):
    cfg = models.ModelConfig("base", epochs=1, seed=0)

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        save_checkpoint(models.build_model(cfg), cfg, tmp_path / "model.ckpt")
    assert os.listdir(tmp_path) == []


def _corrupt_dadm_checkpoint(directory, old, new):
    cfg = models.ModelConfig("dadm", epochs=1, seed=0)
    directory.mkdir()
    path = directory / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    blob = path.read_bytes()
    assert blob.count(old) == 1 and len(old) == len(new)
    bad = directory / "bad.ckpt"
    bad.write_bytes(blob.replace(old, new))
    return bad


def _rewrite_config(path, old, new):
    """A copy of the checkpoint at ``path`` beside it, with the config line
    ``old`` replaced by ``new`` and the config block's length prefix fixed."""
    blob = path.read_bytes()
    start = blob.index(b"architecture=")  # the config block, after its u32 length
    (length,) = struct.unpack_from("<I", blob, start - 4)
    config = blob[start : start + length]
    assert config.count(old) == 1
    config = config.replace(old, new)
    bad = path.with_name("bad.ckpt")
    bad.write_bytes(blob[: start - 4] + struct.pack("<I", len(config)) + config + blob[start + length :])
    return bad


@pytest.mark.parametrize(
    "old, new",
    [
        (b"\x04\x00\x00\x00dadm", b"\x04\x00\x00\x00\xffadm"),  # undecodable arch tag
        (b"bandwidth=0.001", b"bandwidth=0.000"),
        (b"n_bins=256", b"n_bins=000"),
    ],
    ids=["arch-tag-0xff", "bandwidth-zero", "n-bins-zero"],
)
def test_corrupt_checkpoint_is_data_error(old, new, tmp_path, synth_data_dir):
    bad = _corrupt_dadm_checkpoint(tmp_path / "ckpt", old, new)
    with pytest.raises(DataFormatError):
        load_checkpoint(bad)
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(bad), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2


def test_bin_count_above_bound_is_data_error(tmp_path, synth_data_dir, monkeypatch):
    # a header asking for more bins than the distribution layer may hold is
    # refused while the config is read, before a model is built
    cfg = models.ModelConfig("dadm", epochs=1, n_bins=8, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    bad = _rewrite_config(path, b"n_bins=8\n", b"n_bins=%d\n" % (HistogramSpec.MAX_BINS + 1))

    def no_build(cfg):
        raise AssertionError("build_model called for a refused config")

    monkeypatch.setattr(checkpoint, "build_model", no_build)
    with pytest.raises(DataFormatError, match="n_bins"):
        load_checkpoint(bad)
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(bad), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2


@pytest.mark.parametrize(
    "value",
    [b"1" + b"+1" * 100_000, b"-" * 100_000 + b"1"],
    ids=["deep-sum", "deep-negation"],
)
def test_parser_exhausting_config_is_data_error(value, tmp_path, synth_data_dir):
    # ast.literal_eval gives up on these with RecursionError and MemoryError
    cfg = models.ModelConfig("base", epochs=1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    bad = _rewrite_config(path, b"epochs=1\n", b"epochs=" + value + b"\n")
    with pytest.raises(DataFormatError, match="malformed config block"):
        load_checkpoint(bad)
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(bad), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("arch, name", [("dadm", "arith.weight_hist"), ("lenet", "conv2.weight")])
def test_nonfinite_parameter_is_data_error(arch, name, bad, tmp_path, synth_data_dir):
    # what a flipped exponent byte loads: a NaN or inf weight
    cfg = models.ModelConfig(arch, epochs=1, seed=0)
    model = models.build_model(cfg)
    [param] = [p for p in model.parameters() if p.name == name]
    param.value.ravel()[7] = bad
    path = tmp_path / "bad.ckpt"
    save_checkpoint(model, cfg, path)
    with pytest.raises(DataFormatError, match=name.replace(".", r"\.")):
        load_checkpoint(path)
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(path), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2
