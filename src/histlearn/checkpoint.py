"""Versioned binary model checkpoints.

Layout (all integers little-endian):

    magic   4 bytes  b"HLCP"
    version u32, 2
    config  u32 length + utf-8 key=value lines (one per ModelConfig field)
    values  every parameter's float64 data, row-major, in model order
    digest  32 bytes, sha256 of everything before it

The config rebuilds the model, and the model fixes every parameter's name,
shape and place, so the file carries none of them: the values are exactly
8 bytes per parameter of the config's model.  Loading checks the magic, the
version and the digest, rebuilds the model from the config, checks that
length and copies the values in, refusing non-finite ones, so a checkpoint
is self-sufficient.  Version 1 files no longer load.
"""

import ast
import dataclasses
import hashlib
import struct

import numpy as np

from .data import write_atomic
from .errors import DataFormatError, ShapeError
from .models import Model, ModelConfig, build_model

MAGIC = b"HLCP"
VERSION = 2
_HEADER = struct.Struct("<4sII")  # magic, version, config length
_DIGEST_SIZE = hashlib.sha256().digest_size


def _config_to_text(cfg: ModelConfig) -> str:
    return "\n".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in dataclasses.fields(cfg))


def _config_values(text: str) -> dict:
    """The config block's ``key=value`` lines as field name -> value."""
    values = {}
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        values[key] = ast.literal_eval(raw)
    return values


def save_checkpoint(model: Model, cfg: ModelConfig, path):
    """Write ``model`` and ``cfg`` to ``path`` atomically.  The digest is
    taken over the same buffers that are written, with no whole-file copy."""
    config = _config_to_text(cfg).encode()
    parts = [_HEADER.pack(MAGIC, VERSION, len(config)), config]
    parts += [np.ascontiguousarray(p.value, dtype="<f8") for p in model.parameters()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    write_atomic(path, [*parts, digest.digest()])


def load_checkpoint(path):
    """Read a checkpoint and return ``(model, config)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < _HEADER.size + _DIGEST_SIZE:
        raise DataFormatError(f"{path}: truncated, {len(blob)} bytes is shorter than any checkpoint")
    _, version, length = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    end = len(blob) - _DIGEST_SIZE
    if hashlib.sha256(memoryview(blob)[:end]).digest() != blob[end:]:
        raise DataFormatError(f"{path}: sha256 digest does not match (corrupt or truncated file)")

    offset = _HEADER.size + length
    try:
        values = _config_values(blob[_HEADER.size : offset].decode())
    # a digest is no proof against a crafted file: a deeply nested value
    # exhausts the parser with RecursionError or MemoryError
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError) as exc:
        raise DataFormatError(f"{path}: malformed config block: {exc!r}") from exc
    # ModelConfig checks each field; a missing or unknown one is a TypeError
    try:
        cfg = ModelConfig(**values)
        model = build_model(cfg)
    except (ValueError, TypeError, ShapeError) as exc:
        raise DataFormatError(f"{path}: config block does not build a model: {exc}") from exc
    params = model.parameters()
    expected = 8 * sum(p.value.size for p in params)
    if end - offset != expected:
        raise DataFormatError(
            f"{path}: {end - offset} bytes of parameter values, the config's model holds {expected}"
        )
    for p in params:
        p.value[...] = np.frombuffer(blob, dtype="<f8", count=p.value.size, offset=offset).reshape(
            p.value.shape
        )
        if not np.all(np.isfinite(p.value)):
            raise DataFormatError(f"{path}: parameter {p.name!r} has non-finite values")
        offset += p.value.nbytes
    return model, cfg
