"""IDX parsing, normalization, ImageSet invariants, fetch verification."""

import gc
import gzip
import hashlib
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gzip_file, make_imageset
from histlearn.data import (
    ImageSet,
    fetch_mnist,
    load_idx,
    load_mnist,
    mnist_files_present,
    normalize,
    write_idx,
)
from histlearn.errors import DataFormatError


@pytest.fixture
def idx_pair(tmp_path):
    images = (np.arange(3 * 28 * 28) % 256).astype(np.uint8).reshape(3, 28, 28)
    labels = np.array([1, 7, 0], dtype=np.uint8)
    return write_idx(tmp_path, "train", ImageSet(images, labels)), images, labels


class TestLoadIdx:
    def test_round_trip(self, idx_pair):
        (img_path, lbl_path), images, labels = idx_pair
        got_images, got_labels = load_idx(img_path, lbl_path)
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_gzip_transparent(self, idx_pair):
        (img_path, lbl_path), images, labels = idx_pair
        got_images, got_labels = load_idx(gzip_file(img_path), gzip_file(lbl_path))
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_bad_image_magic(self, idx_pair, tmp_path):
        (img_path, lbl_path), _, _ = idx_pair
        bad = tmp_path / "bad-images"
        payload = Path(img_path).read_bytes()
        bad.write_bytes(struct.pack(">I", 0x00000801) + payload[4:])
        with pytest.raises(DataFormatError) as err:
            load_idx(str(bad), lbl_path)
        assert "magic" in str(err.value) and "0x00000803" in str(err.value)

    def test_truncated_header_names_expected_bytes(self, idx_pair, tmp_path):
        (_, lbl_path), _, _ = idx_pair
        stub = tmp_path / "stub"
        stub.write_bytes(b"\x00" * 12)
        with pytest.raises(DataFormatError) as err:
            load_idx(str(stub), lbl_path)
        assert "16" in str(err.value) and "12" in str(err.value)

    def test_truncated_payload_names_expected_bytes(self, idx_pair, tmp_path):
        (img_path, lbl_path), _, _ = idx_pair
        cut = tmp_path / "cut-images"
        cut.write_bytes(Path(img_path).read_bytes()[:-10])
        with pytest.raises(DataFormatError) as err:
            load_idx(str(cut), lbl_path)
        assert str(16 + 3 * 28 * 28) in str(err.value)

    def test_count_mismatch(self, idx_pair, tmp_path):
        (img_path, _), _, _ = idx_pair
        lbl = tmp_path / "short-labels"
        lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([1, 7]))
        with pytest.raises(DataFormatError) as err:
            load_idx(img_path, str(lbl))
        assert "3" in str(err.value) and "2" in str(err.value)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    gzipped=st.booleans(),
    which=st.sampled_from([0, 1]),
    flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), min_size=1, max_size=4),
    cut=st.none() | st.integers(min_value=0),
)
def test_corrupted_idx_loads_or_raises_data_format_error(tmp_path_factory, gzipped, which, flips, cut):
    # flip (xor) 1-4 bytes of a valid image or label file, raw or gzipped,
    # or truncate it instead: load_idx either loads the result or rejects it
    # as a data error, never with another exception
    directory = tmp_path_factory.mktemp("fuzz")
    images = (np.arange(3 * 28 * 28) % 256).astype(np.uint8).reshape(3, 28, 28)
    paths = write_idx(directory, "train", ImageSet(images, np.array([1, 7, 0])))
    if gzipped:
        paths = tuple(gzip_file(path) for path in paths)
    with open(paths[which], "rb") as fh:
        data = bytearray(fh.read())
    if cut is None:
        for position, mask in flips:
            data[position % len(data)] ^= mask
    else:
        data = data[: cut % len(data)]
    with open(paths[which], "wb") as fh:
        fh.write(bytes(data))
    try:
        load_idx(*paths)
    except DataFormatError:
        pass


# sha256 of the files write_idx makes of make_imageset(512, seed=10) and
# make_imageset(256, seed=11), the suite's synthetic MNIST directory, pinned
# so that the bytes every CLI and acceptance test reads stay the same
SYNTH_DIGESTS = {
    "train-images-idx3-ubyte": "bf66977cbfbd08974b86b4ce8748eca3bdf03aa247da49c20cc70d455f542af6",
    "train-labels-idx1-ubyte": "b7e2c1102806715f53236e8e99f576381a88946a082c95fc6af123916aaffa43",
    "t10k-images-idx3-ubyte": "5d6353b2d82b68dfe24b2e0d507296d8b7b61fb9fef0bf2b8a113e7298898ec1",
    "t10k-labels-idx1-ubyte": "6b6c058c903383910a5b90352c417969ec6f02839d91bda278f5ed39b905cb38",
}


class TestWriteIdx:
    def test_load_mnist_reads_back_both_splits_bitwise(self, tmp_path):
        for split, count, seed in (("train", 512, 10), ("test", 256, 11)):
            image_set = make_imageset(count, seed=seed)
            paths = write_idx(tmp_path, split, image_set)
            loaded = load_mnist(tmp_path, split)
            assert loaded.images.shape == image_set.images.shape
            assert loaded.images.tobytes() == image_set.images.tobytes()
            assert loaded.labels.dtype == np.int64 and np.array_equal(loaded.labels, image_set.labels)
            for path in paths:
                digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
                assert digest == SYNTH_DIGESTS[os.path.basename(path)], path

    @pytest.mark.parametrize("shape, message", [((4, 32, 32), "32x32"), ((0, 28, 28), "no images")])
    def test_load_mnist_refuses_a_set_no_model_takes(self, tmp_path, shape, message):
        write_idx(tmp_path, "test", ImageSet(np.zeros(shape, np.uint8), np.zeros(shape[0], np.int64)))
        with pytest.raises(DataFormatError, match=message):
            load_mnist(tmp_path, "test")


class TestNormalize:
    def test_endpoints(self):
        assert normalize(np.uint8(0)) == -1.0
        assert normalize(np.uint8(255)) == 1.0

    def test_midpoint_value(self):
        # 128/127.5 - 1 = 1/255
        assert abs(normalize(np.uint8(128)) - 0.00392156862745098) < 1e-15

    def test_array(self):
        out = normalize(np.array([0, 128, 255], dtype=np.uint8))
        assert out.dtype == np.float64
        assert out[0] == -1.0 and out[2] == 1.0


class TestImageSet:
    def test_invariants_enforced(self):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        with pytest.raises(DataFormatError):
            ImageSet(images, np.array([0, 10]))
        with pytest.raises(DataFormatError):
            ImageSet(images, np.zeros(3, dtype=int))
        # images are bytes: float pixels or wider integers are refused, not cast
        for dtype in (np.float64, np.int64):
            with pytest.raises(DataFormatError, match="uint8"):
                ImageSet(images.astype(dtype), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("labels", [[0.9, 9.99], [0.0, 9.0]], ids=["fractional", "integral"])
    def test_float_labels_refused_not_truncated(self, labels):
        # a cast to int64 would read 0.9 as class 0 and 9.99 as class 9
        with pytest.raises(DataFormatError, match="labels must be integers"):
            ImageSet(np.zeros((2, 4, 4), dtype=np.uint8), np.array(labels))

    def test_bytes_held_as_bytes_and_normalized_per_take(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, (5, 4, 4), dtype=np.uint8)
        image_set = ImageSet(raw, np.arange(5))
        assert image_set.images.dtype == np.uint8
        whole = normalize(raw)
        for index in (2, slice(1, 4), np.array([4, 0, 4])):
            got = image_set.take(index)
            assert got.dtype == np.float64 and np.array_equal(got, whole[index])
        assert np.array_equal(image_set.pixels, whole)

    def test_from_idx_files(self, idx_pair, tmp_path):
        _, images, labels = idx_pair
        image_set = load_mnist(tmp_path, "train")
        assert image_set.count == 3
        assert image_set.images.shape[1:] == (28, 28)
        assert np.array_equal(image_set.labels, labels)
        assert np.array_equal(image_set.images, images)  # held as the file's bytes
        assert image_set.pixels.min() >= -1.0 and image_set.pixels.max() <= 1.0


def small_table(tmp_path):
    """A fake file table with checksums of synthetic gz blobs."""
    image_set = make_imageset(4, seed=3)
    img_path, lbl_path = write_idx(tmp_path / "src", "train", image_set)
    table = {}
    blobs = {}
    for path, name in ((img_path, "train-images-idx3-ubyte"), (lbl_path, "train-labels-idx1-ubyte")):
        raw = Path(path).read_bytes()
        gz = gzip.compress(raw)
        table[name] = (len(raw), len(gz), hashlib.md5(gz).hexdigest())
        blobs[name + ".gz"] = gz
    return table, blobs


class TestFetch:
    def test_download_verify_decompress(self, tmp_path):
        table, blobs = small_table(tmp_path)
        calls = []

        def fake_download(url):
            calls.append(url)
            return blobs[url.rsplit("/", 1)[1]]

        out = tmp_path / "data"
        paths = fetch_mnist(out, download=fake_download, file_table=table)
        assert len(paths) == 2
        assert mnist_files_present(out, file_table=table)
        assert len(calls) == 2

        # second run finds the raw files and touches nothing
        fetch_mnist(out, download=fake_download, file_table=table)
        assert len(calls) == 2

    def test_checksum_mismatch_names_file(self, tmp_path):
        table, blobs = small_table(tmp_path)
        bad = {k: bytes([b ^ 0xFF for b in v[:50]]) + v[50:] for k, v in blobs.items()}
        # keep sizes right so only the checksum trips
        with pytest.raises(DataFormatError) as err:
            fetch_mnist(tmp_path / "d", download=lambda url: bad[url.rsplit("/", 1)[1]], file_table=table)
        assert "checksum" in str(err.value)
        assert "train-images-idx3-ubyte.gz" in str(err.value)

    def test_size_mismatch_names_file(self, tmp_path):
        table, blobs = small_table(tmp_path)
        with pytest.raises(DataFormatError) as err:
            fetch_mnist(
                tmp_path / "d",
                download=lambda url: blobs[url.rsplit("/", 1)[1]] + b"x",
                file_table=table,
            )
        assert "size" in str(err.value)

    def test_existing_corrupt_raw_rejected(self, tmp_path):
        table, _ = small_table(tmp_path)
        out = tmp_path / "d"
        out.mkdir()
        (out / "train-images-idx3-ubyte").write_bytes(b"tiny")
        with pytest.raises(DataFormatError) as err:
            fetch_mnist(out, download=lambda url: b"", file_table=table)
        assert "train-images-idx3-ubyte" in str(err.value)

    def test_local_gz_used_without_network(self, tmp_path):
        table, blobs = small_table(tmp_path)
        out = tmp_path / "d"
        out.mkdir()
        for name, blob in blobs.items():
            (out / name).write_bytes(blob)

        def refuse(url):
            raise AssertionError("network should not be touched")

        fetch_mnist(out, download=refuse, file_table=table)
        assert mnist_files_present(out, file_table=table)

    def test_local_gz_is_closed(self, tmp_path):
        table, blobs = small_table(tmp_path)
        out = tmp_path / "d"
        out.mkdir()
        for name, blob in blobs.items():
            (out / name).write_bytes(blob)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fetch_mnist(out, download=None, file_table=table)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_all_mirrors_down(self, tmp_path):
        table, _ = small_table(tmp_path)

        def down(url):
            raise OSError("no route to host")

        with pytest.raises(DataFormatError) as err:
            fetch_mnist(tmp_path / "d", download=down, file_table=table)
        assert "mirror" in str(err.value)

    def test_another_writers_temp_file_is_left_alone(self, tmp_path):
        # each write goes through a temp file of its own, never a fixed
        # <name>.tmp that a concurrent fetch into the same directory shares
        table, blobs = small_table(tmp_path)
        out = tmp_path / "d"
        out.mkdir()
        other = out / "train-images-idx3-ubyte.tmp"
        other.write_bytes(b"another writer")
        fetch_mnist(out, download=lambda url: blobs[url.rsplit("/", 1)[1]], file_table=table)
        assert other.read_bytes() == b"another writer"
        assert sorted(p.name for p in out.iterdir()) == sorted([*table, *blobs, other.name])

    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        table, blobs = small_table(tmp_path)

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        out = tmp_path / "d"
        with pytest.raises(OSError, match="disk full"):
            fetch_mnist(out, download=lambda url: blobs[url.rsplit("/", 1)[1]], file_table=table)
        assert list(out.iterdir()) == []
