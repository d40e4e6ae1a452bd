"""Binary checkpoint round trips and corruption handling."""

import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_imageset
from histlearn import checkpoint, cli, distlayers, models, nn
from histlearn.checkpoint import load_checkpoint, save_checkpoint
from histlearn.errors import DataFormatError
from histlearn.histogram import HistogramSpec
from histlearn.transforms import TRANSFORM_KINDS


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
    for got, saved in zip(loaded.parameters(), model.parameters(), strict=True):
        assert got.value.tobytes() == saved.value.tobytes(), got.name
    assert np.array_equal(loaded.forward(batch), before)


def test_config_of_numpy_scalars_round_trips(tmp_path):
    # each field is held as its plain Python value, so the config block reads
    # back and the file is the one a config of plain values writes
    fields = dict(epochs=2, batch_size=16, lr=0.01, seed=3, n_bins=16, bandwidth=0.05)
    plain = models.ModelConfig("dadm", **fields)
    scalars = models.ModelConfig(np.str_("dadm"), **{
        name: (np.float64 if isinstance(value, float) else np.int64)(value) for name, value in fields.items()
    })
    save_checkpoint(models.build_model(plain), plain, tmp_path / "plain.ckpt")
    save_checkpoint(models.build_model(scalars), scalars, tmp_path / "scalars.ckpt")
    assert (tmp_path / "scalars.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    _, loaded = load_checkpoint(tmp_path / "scalars.ckpt")
    assert loaded == plain


def _saved(arch, path, seed=5):
    """A checkpoint of ``arch`` at ``path`` whose values are not the seeded
    draws; returns ``(model, config)``."""
    cfg = models.ModelConfig(arch, epochs=1, batch_size=16, seed=seed)
    model = models.build_model(cfg)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():
        p.value += rng.standard_normal(p.value.shape) * 0.01
    save_checkpoint(model, cfg, path)
    return model, cfg


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_load_draws_nothing_and_round_trips_bitwise(arch, tmp_path, monkeypatch):
    model, cfg = _saved(arch, tmp_path / "model.ckpt")

    def no_draw(*args, **kwargs):
        raise AssertionError("an initial value was drawn while loading")

    for owner, name in ((nn, "_uniform_init"), (distlayers, "init_kernel"), (models, "init_kernel")):
        monkeypatch.setattr(owner, name, no_draw)
    loaded, loaded_cfg = load_checkpoint(tmp_path / "model.ckpt")
    assert loaded_cfg == cfg
    for got, saved in zip(loaded.parameters(), model.parameters(), strict=True):
        assert got.name == saved.name and got.value.tobytes() == saved.value.tobytes(), got.name
    save_checkpoint(loaded, loaded_cfg, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "model.ckpt").read_bytes()


def _held_gradients(model):
    """Names of the parameters that hold an array besides their value."""
    return [p.name for p in model.parameters()
            if any(isinstance(a, np.ndarray) and a is not p.value for a in vars(p).values())]


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_loaded_model_allocates_gradients_on_first_backward(arch, tmp_path):
    saved, cfg = _saved(arch, tmp_path / "model.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
    test_set = make_imageset(12, seed=8)
    models.evaluate(loaded, test_set, TRANSFORM_KINDS, seed=2)
    assert _held_gradients(loaded) == []
    # the first backward writes what a freshly built model's does
    fresh = models.build_model(cfg)
    for p, q in zip(fresh.parameters(), saved.parameters(), strict=True):
        p.value[...] = q.value
    grads = []
    for model in (loaded, fresh):
        logits = model.forward(test_set.pixels[:, None, :, :])
        model.backward(nn.log_softmax_nll(logits, test_set.labels)[1])
        grads.append([p.grad.tobytes() for p in model.parameters()])
    assert grads[0] == grads[1]
    assert _held_gradients(loaded) == [p.name for p in loaded.parameters()]


def test_loaded_dadm_evaluate_peak_is_bounded(tmp_path):
    # 256 images, five kinds, the load included.  Measured 6.9 MiB: a block
    # of 128 images' float pixels and trained-layer buffers, no gradient
    # array, and rotate's temporaries on top.  With 256-image blocks and a
    # zeroed gradient per parameter it read 10.4 MiB, and 128-image blocks
    # alone with the gradients held about 7.9 MiB.
    path = tmp_path / "model.ckpt"
    _saved("dadm", path)
    test_set = make_imageset(256, seed=41)
    # the distribution layer's scatter maps and the histogram's byte table
    # are cached per bin count: fill them first so they are not counted
    models.evaluate(load_checkpoint(path)[0], make_imageset(8, seed=42), TRANSFORM_KINDS, seed=1)
    tracemalloc.start()
    try:
        model, _ = load_checkpoint(path)
        models.evaluate(model, test_set, TRANSFORM_KINDS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20, peak / 2**20


# What a checkpoint's values mean: the file stores no names or shapes, only
# each parameter's float64 bytes in this order.
LAYOUT = {
    "lenet": [
        ("conv1.weight", (6, 1, 5, 5)), ("conv1.bias", (6,)),
        ("conv2.weight", (16, 6, 5, 5)), ("conv2.bias", (16,)),
        ("fc1.weight", (120, 256)), ("fc1.bias", (120,)),
        ("fc2.weight", (84, 120)), ("fc2.bias", (84,)),
        ("fc3.weight", (10, 84)), ("fc3.bias", (10,)),
    ],
    "base": [
        ("fc1.weight", (256, 784)), ("fc1.bias", (256,)),
        ("fc2.weight", (512, 256)), ("fc2.bias", (512,)),
        ("fc3.weight", (10, 512)), ("fc3.bias", (10,)),
    ],
    "cnn": [
        ("conv1.weight", (4, 1, 3, 3)), ("conv1.bias", (4,)),
        ("fc1.weight", (256, 2704)), ("fc1.bias", (256,)),
        ("fc2.weight", (512, 256)), ("fc2.bias", (512,)),
        ("fc3.weight", (10, 512)), ("fc3.bias", (10,)),
    ],
    "dadm": [
        ("arith.weight_hist", (256,)), ("arith.bias_hist", (256,)),
        ("fc1.weight", (512, 256)), ("fc1.bias", (512,)),
        ("fc2.weight", (10, 512)), ("fc2.bias", (10,)),
    ],
}


@pytest.mark.parametrize("arch", sorted(LAYOUT))
def test_parameter_layout_is_pinned(arch):
    model = models.build_model(models.ModelConfig(arch))
    layout = [(p.name, p.value.shape) for p in model.parameters()]
    assert layout == LAYOUT[arch], (
        f"{arch}'s parameter names, shapes or order changed; a checkpoint stores only the "
        f"values in this order, so changing the layout means bumping checkpoint.VERSION "
        f"(now {checkpoint.VERSION}) and updating LAYOUT"
    )


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


def _signed(body):
    """``body`` followed by its sha256, as ``save_checkpoint`` ends a file."""
    return body + hashlib.sha256(body).digest()


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
    ``old`` replaced by ``new``, the config block's length prefix fixed and
    the digest re-signed, as a crafted file would carry them."""
    blob = path.read_bytes()[: -checkpoint._DIGEST_SIZE]
    start = blob.index(b"architecture=")  # the config block, after its u32 length
    (length,) = struct.unpack_from("<I", blob, start - 4)
    config = blob[start : start + length]
    assert config.count(old) == 1
    config = config.replace(old, new)
    bad = path.with_name("bad.ckpt")
    bad.write_bytes(_signed(blob[: start - 4] + struct.pack("<I", len(config)) + config + blob[start + length :]))
    return bad


@pytest.mark.parametrize(
    "old, new",
    [
        (b"bandwidth=0.001", b"bandwidth=0.000"),
        (b"n_bins=256", b"n_bins=000"),
    ],
    ids=["bandwidth-zero", "n-bins-zero"],
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


@pytest.mark.parametrize("seed", [b"1.5", b"-1"])
def test_bad_seed_in_config_is_one_data_error_line(seed, tmp_path, synth_data_dir, capsys):
    # the seed follows the same rule as every other config field, so a
    # signed file carrying a bad one is refused while the config is read
    cfg = models.ModelConfig("base", epochs=1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    bad = _rewrite_config(path, b"seed=0\n", b"seed=" + seed + b"\n")
    message = (f"{bad}: config block does not build a model: "
               f"seed must be an integer >= 0, got {seed.decode()}")
    with pytest.raises(DataFormatError) as refusal:
        load_checkpoint(bad)
    assert str(refusal.value) == message
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(bad), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2
    assert capsys.readouterr().err == f"histlearn: data error: {message}\n"


def test_bool_epochs_in_config_is_data_error(tmp_path):
    # True is an int to Python, but a signed file carrying it as a count is
    # refused while the config is read
    cfg = models.ModelConfig("base", epochs=1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    bad = _rewrite_config(path, b"epochs=1\n", b"epochs=True\n")
    with pytest.raises(DataFormatError, match="epochs must be an integer >= 1, got True"):
        load_checkpoint(bad)


@pytest.mark.parametrize("bandwidth", [b"5e-324", b"1e+301"])
def test_bandwidth_out_of_bounds_in_config_is_one_data_error_line(bandwidth, tmp_path, synth_data_dir,
                                                                  capsys):
    # below HistogramSpec.MIN_BANDWIDTH the histogram is NaN; a signed file
    # asking for it is refused while the config is read
    cfg = models.ModelConfig("dadm", epochs=1, n_bins=8, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    bad = _rewrite_config(path, b"bandwidth=0.001", b"bandwidth=" + bandwidth)
    with pytest.raises(ValueError) as refusal:
        HistogramSpec(bandwidth=float(bandwidth))
    message = f"{bad}: config block does not build a model: {refusal.value}"
    with pytest.raises(DataFormatError) as failure:
        load_checkpoint(bad)
    assert str(failure.value) == message
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(bad), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2
    assert capsys.readouterr().err == f"histlearn: data error: {message}\n"


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


def test_version_1_file_is_refused(tmp_path, synth_data_dir):
    # a version 1 header goes on with an architecture tag; its reader is gone
    path = tmp_path / "v1.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<II", 1, 4) + b"dadm" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(path), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2


@pytest.mark.parametrize("change", ["one-value-short", "one-value-over"])
def test_signed_file_with_wrong_value_count_is_data_error(change, tmp_path):
    # a digest proves the bytes are as written, not that they fit the config
    cfg = models.ModelConfig("lenet", epochs=1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    body = path.read_bytes()[: -checkpoint._DIGEST_SIZE]
    body = body[:-8] if change == "one-value-short" else body + bytes(8)
    path.write_bytes(_signed(body))
    with pytest.raises(DataFormatError, match="bytes of parameter values"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory):
    """``arch -> (bytes of a saved checkpoint, a scratch path)`` for lenet and dadm."""
    directory = tmp_path_factory.mktemp("fuzz")
    saved = {}
    for arch in ("lenet", "dadm"):
        cfg = models.ModelConfig(arch, epochs=1, seed=0)
        path = directory / f"{arch}.ckpt"
        save_checkpoint(models.build_model(cfg), cfg, path)
        saved[arch] = (path.read_bytes(), directory / f"bad-{arch}.ckpt")
    return saved


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    arch=st.sampled_from(["lenet", "dadm"]),
    position=st.integers(min_value=0),
    mask=st.integers(1, 255),
    truncate=st.booleans(),
)
def test_any_flipped_or_cut_byte_is_data_error(saved_checkpoints, arch, position, mask, truncate):
    # one byte xor-ed anywhere, or the file cut anywhere, never loads as a
    # model (the values of a flipped mantissa byte are finite and plausible)
    blob, bad = saved_checkpoints[arch]
    data = bytearray(blob)
    if truncate:
        del data[position % len(data) :]
    else:
        data[position % len(data)] ^= mask
    bad.write_bytes(bytes(data))
    with pytest.raises(DataFormatError):
        load_checkpoint(bad)


def test_flipped_value_byte_through_eval_exits_2(tmp_path, synth_data_dir, capsys):
    cfg = models.ModelConfig("lenet", epochs=1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(models.build_model(cfg), cfg, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01  # the low mantissa bit of one weight
    path.write_bytes(bytes(data))
    out_dir = str(tmp_path / "eval")
    assert cli.main(["eval", str(path), "--data-dir", synth_data_dir, "--out-dir", out_dir]) == 2
    assert "sha256" in capsys.readouterr().err
