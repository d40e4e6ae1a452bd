"""Versioned binary model checkpoints.

Layout (all integers little-endian):

    magic   4 bytes  b"HLCP"
    version u32
    arch    u32 length + utf-8 architecture tag
    config  u32 length + utf-8 key=value lines (one per ModelConfig field)
    count   u32 number of parameters
    per parameter:
        name  u32 length + utf-8
        ndim  u32, then ndim x u32 dims
        data  float64 little-endian, row-major

Loading rebuilds the architecture from the stored config and then copies
the stored tensors in, verifying names, shapes and that every value is
finite, so a checkpoint is self-sufficient.
"""

import dataclasses
import os
import struct
import tempfile

import numpy as np

from .errors import DataFormatError, ShapeError
from .models import Model, ModelConfig, build_model

MAGIC = b"HLCP"
VERSION = 1


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def _unpack_str(blob: bytes, offset: int):
    (length,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    return blob[offset : offset + length].decode(), offset + length


def _config_to_text(cfg: ModelConfig) -> str:
    return "\n".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in dataclasses.fields(cfg))


def _config_from_text(text: str) -> ModelConfig:
    import ast

    values = {}
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        values[key] = ast.literal_eval(raw)
    return ModelConfig(**values)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def save_checkpoint(model: Model, cfg: ModelConfig, path):
    """Write through a temp file of this call's own and an atomic rename, so
    readers never see a torn file and concurrent writers never share one."""
    params = model.parameters()
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(_pack_str(model.architecture))
            fh.write(_pack_str(_config_to_text(cfg)))
            fh.write(struct.pack("<I", len(params)))
            for p in params:
                fh.write(_pack_str(p.name))
                fh.write(struct.pack("<I", p.value.ndim))
                fh.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
                fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint and return ``(model, config)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        arch, offset = _unpack_str(blob, 8)
        config_text, offset = _unpack_str(blob, offset)
        try:
            cfg = _config_from_text(config_text)
        except (ValueError, SyntaxError, TypeError, KeyError) as exc:
            raise DataFormatError(f"{path}: malformed config block: {exc}") from exc
        if cfg.architecture != arch:
            raise DataFormatError(
                f"{path}: architecture tag {arch!r} != config architecture {cfg.architecture!r}"
            )
        (count,) = struct.unpack_from("<I", blob, offset)
    except (struct.error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: truncated or corrupt header: {exc}") from exc
    offset += 4

    try:
        model = build_model(cfg)
    except (ValueError, ShapeError) as exc:
        raise DataFormatError(f"{path}: config block does not build a model: {exc}") from exc
    params = model.parameters()
    if len(params) != count:
        raise DataFormatError(
            f"{path}: checkpoint has {count} parameters, architecture expects {len(params)}"
        )
    try:
        for p in params:
            name, offset = _unpack_str(blob, offset)
            if name != p.name:
                raise DataFormatError(f"{path}: parameter {name!r} where {p.name!r} expected")
            (ndim,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            if shape != p.value.shape:
                raise DataFormatError(
                    f"{path}: parameter {name!r} has shape {shape}, expected {p.value.shape}"
                )
            size = int(np.prod(shape)) * 8
            if offset + size > len(blob):
                raise DataFormatError(f"{path}: truncated parameter data for {name!r}")
            p.value[...] = np.frombuffer(
                blob, dtype="<f8", count=int(np.prod(shape)), offset=offset
            ).reshape(shape)
            if not np.all(np.isfinite(p.value)):
                raise DataFormatError(f"{path}: parameter {name!r} has non-finite values")
            offset += size
    except (struct.error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: truncated or corrupt parameter table: {exc}") from exc
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return model, cfg
