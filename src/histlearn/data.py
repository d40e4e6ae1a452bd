"""MNIST ingestion: the IDX reader and its inverse writer, download with
verification, normalization, and the atomic file writer the downloads,
checkpoints and IDX files share.

IDX is the dataset's raw binary container: a big-endian magic number
(0x00000803 for image files, 0x00000801 for label files), big-endian
dimension fields, then unsigned bytes.  This module is the only code that
knows that layout: :func:`load_idx` reads both files of a split through one
header reader, and :func:`write_idx` writes the pair :func:`load_mnist`
reads back.  Files may be given raw or gzipped; gzip is detected from the
two-byte signature.

Pixels are mapped from bytes to ``v / 127.5 - 1`` so the working range is
exactly [-1, 1].  An image set is held as its bytes; float pixels exist only
as the batch or chunk that training or evaluation reads and normalizes.
"""

import gzip
import hashlib
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# name -> (raw size, gz size, gz md5)
MNIST_FILES = {
    "train-images-idx3-ubyte": (47040016, 9912422, "f68b3c2dcbeaaa9fbdd348bbdeb94873"),
    "train-labels-idx1-ubyte": (60008, 28881, "d53e105ee54ea40749a09fcbcd1e9432"),
    "t10k-images-idx3-ubyte": (7840016, 1648877, "9fb629c4189551a2d022fa330f9573f3"),
    "t10k-labels-idx1-ubyte": (10008, 4542, "ec29112dd5afa0611ce80d1b7f02629c"),
}

MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)

IMAGE_SHAPE = (28, 28)  # the input every architecture is built for

# split -> (images file, labels file)
SPLITS = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _read_file(path) -> bytes:
    with open(path, "rb") as fh:
        payload = fh.read()
    if payload[:2] != b"\x1f\x8b":
        return payload
    try:
        return gzip.decompress(payload)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataFormatError(f"{path}: corrupt gzip data: {exc}") from exc


def _read_idx(path, magic, ndim, what) -> np.ndarray:
    """The uint8 array of ``ndim`` dimensions an IDX file holds, a read-only
    view of its bytes, after its header length, ``magic`` and exact payload
    length are checked; a refusal names ``what`` the file should hold."""
    payload = _read_file(path)
    header = 4 + 4 * ndim
    if len(payload) < header:
        raise DataFormatError(
            f"{path}: truncated header, expected at least {header} bytes, got {len(payload)}"
        )
    found, *shape = struct.unpack(f">{1 + ndim}I", payload[:header])
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x} ({what})")
    expected = header + math.prod(shape)
    if len(payload) != expected:
        raise DataFormatError(f"{path}: truncated, expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8, offset=header).reshape(shape)


def load_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into raw arrays.

    Returns ``(images, labels)`` with images uint8 of shape (count, H, W)
    and labels uint8 of shape (count,), read-only views of the file's
    bytes.  Raises :class:`DataFormatError` for corrupt gzip data, bad
    magic numbers, truncated payloads, or image/label count mismatches,
    each with a distinct message.
    """
    images = _read_idx(images_path, IMAGE_MAGIC, 3, "images")
    labels = _read_idx(labels_path, LABEL_MAGIC, 1, "labels")
    if len(labels) != len(images):
        raise DataFormatError(
            f"image count {len(images)} ({images_path}) != label count {len(labels)} ({labels_path})"
        )
    return images, labels


def normalize(raw) -> np.ndarray:
    """Bytes 0..255 -> float64 in [-1, 1]; 0 maps to -1 and 255 to +1.

    Element by element, so a batch normalized on its own is bitwise the
    same rows of the whole set normalized at once."""
    return np.asarray(raw, dtype=np.float64) / 127.5 - 1.0


@dataclass
class ImageSet:
    """Grayscale byte images with labels.

    ``images`` is held as the uint8 bytes it is given; an IDX split is
    held read-only as the file's bytes (a 60k MNIST split is 47 MB of
    bytes, 376 MB as float64).  :meth:`take` returns float64 pixels of the
    rows a batch or chunk reads, normalizing only those bytes.

    Invariants checked at construction: images uint8 and (count, H, W),
    labels of an integer dtype and in 0..9, one label per image.
    """

    images: np.ndarray  # (count, H, W) uint8
    labels: np.ndarray  # (count,) int64

    def __post_init__(self):
        self.images = np.asarray(self.images)
        labels = np.asarray(self.labels)
        if self.images.dtype != np.uint8:
            raise DataFormatError(f"images must be uint8 bytes, got dtype {self.images.dtype}")
        # a cast would truncate float labels: 0.9 would become class 0
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataFormatError(f"labels must be integers, got dtype {labels.dtype}")
        self.labels = labels.astype(np.int64, copy=False)
        if self.images.ndim != 3:
            raise DataFormatError(f"pixels must be (count, H, W), got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise DataFormatError("labels must be class indices 0..9")

    @property
    def count(self):
        return self.images.shape[0]

    def take(self, index) -> np.ndarray:
        """Float64 pixels of ``images[index]`` (an index, slice or index
        array), normalizing only those bytes."""
        return normalize(self.images[index])

    @property
    def pixels(self) -> np.ndarray:
        """The whole set as float64 pixels, a float copy 8x its size built
        on every access, so no package path reads this."""
        return normalize(self.images)


def load_mnist(data_dir, split="train") -> ImageSet:
    """Load one MNIST split, held as its bytes, from a directory holding
    the standard IDX files.

    A split with no images, or with images that are not 28x28, raises
    :class:`DataFormatError` naming the file, before any model sees it.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    images, labels = (os.path.join(data_dir, name) for name in SPLITS[split])
    image_set = ImageSet(*load_idx(images, labels))
    if image_set.count == 0:
        raise DataFormatError(f"{images}: holds no images")
    if image_set.images.shape[1:] != IMAGE_SHAPE:
        height, width = image_set.images.shape[1:]
        raise DataFormatError(
            f"{images}: images are {height}x{width}, expected {IMAGE_SHAPE[0]}x{IMAGE_SHAPE[1]}"
        )
    return image_set


def write_idx(data_dir, split, image_set: ImageSet):
    """Write ``image_set`` as ``split``'s IDX image/label file pair in
    ``data_dir``, the files :func:`load_mnist` reads back bitwise, each
    through :func:`write_atomic`; returns the two paths."""
    os.makedirs(data_dir, exist_ok=True)
    images, labels = (os.path.join(data_dir, name) for name in SPLITS[split])
    count, height, width = image_set.images.shape
    write_atomic(images, [struct.pack(">IIII", IMAGE_MAGIC, count, height, width),
                          image_set.images.tobytes()])
    write_atomic(labels, [struct.pack(">II", LABEL_MAGIC, count),
                          image_set.labels.astype(np.uint8).tobytes()])
    return images, labels


def mnist_files_present(data_dir, file_table=None) -> bool:
    """True when all four raw IDX files exist with their expected sizes."""
    for name, (raw_size, _, _) in (file_table or MNIST_FILES).items():
        path = os.path.join(data_dir, name)
        if not (os.path.isfile(path) and os.path.getsize(path) == raw_size):
            return False
    return True


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path, parts):
    """Write the byte buffers ``parts`` to ``path`` through a temp file of
    this call's own and an atomic rename, so readers never see a torn file
    and concurrent writers never share one; a failed write leaves nothing."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _default_download(url: str) -> bytes:
    import urllib.request  # local: it loads http and ssl, which only a download needs
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.read()


def fetch_mnist(data_dir, mirrors=MNIST_MIRRORS, download=None, file_table=None):
    """Ensure the four raw IDX files exist in ``data_dir``; download if needed.

    Existing raw files with correct sizes are left alone (idempotent).
    Gzipped files already in the directory are verified against the
    published md5/size and decompressed; otherwise each mirror is tried in
    order.  Any size or checksum mismatch raises :class:`DataFormatError`
    naming the offending file.  ``download`` and ``file_table`` may be
    injected for testing (a callable ``url -> bytes`` and an alternate
    name -> (raw size, gz size, gz md5) map).
    """
    if download is None:
        download = _default_download
    os.makedirs(data_dir, exist_ok=True)
    paths = []
    for name, (raw_size, gz_size, gz_md5) in (file_table or MNIST_FILES).items():
        raw_path = os.path.join(data_dir, name)
        paths.append(raw_path)
        if os.path.isfile(raw_path):
            actual = os.path.getsize(raw_path)
            if actual != raw_size:
                raise DataFormatError(
                    f"{raw_path}: size {actual} does not match expected {raw_size}"
                )
            continue

        gz_path = raw_path + ".gz"
        if os.path.isfile(gz_path):
            with open(gz_path, "rb") as fh:
                blob = fh.read()
        else:
            blob = None
            errors = []
            for mirror in mirrors:
                url = mirror + name + ".gz"
                try:
                    blob = download(url)
                    break
                except Exception as exc:  # noqa: BLE001 - report every mirror failure
                    errors.append(f"{url}: {exc}")
            if blob is None:
                raise DataFormatError(
                    f"could not download {name}.gz from any mirror:\n  " + "\n  ".join(errors)
                )

        if len(blob) != gz_size:
            raise DataFormatError(
                f"{name}.gz: size {len(blob)} does not match expected {gz_size}"
            )
        digest = hashlib.md5(blob).hexdigest()
        if digest != gz_md5:
            raise DataFormatError(
                f"{name}.gz: checksum {digest} does not match expected {gz_md5}"
            )
        raw = gzip.decompress(blob)
        if len(raw) != raw_size:
            raise DataFormatError(
                f"{name}: decompressed size {len(raw)} does not match expected {raw_size}"
            )
        write_atomic(raw_path, [raw])
        if not os.path.isfile(gz_path):
            write_atomic(gz_path, [blob])
    return paths
