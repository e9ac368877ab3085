"""Vectorized image stacks and their on-disk format.

File layout: magic "RDAE2"; header u32 P, u32 Q, u32 image rows, u32 image
cols, u8 value-kind, u8 role; Q column records (u16 interval index, u16
realization, u8 wall class); then P*Q little-endian float64 values,
column-major.  Version 1 files ("RDAE1", no rows/cols in the header) still
load, as square images when P is a square and as (P, 1) otherwise.  A paired
dataset is two such files plus a text manifest naming both, the image shape
and the generation config hash.  Version 1 stacks take the manifest's image
shape; version 2 headers must agree with it and with each other.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError

__all__ = ["ImageStack", "load_dataset", "load_stack", "save_dataset", "save_stack"]

_MAGIC = b"RDAE2"
# header layout after each magic: P, Q[, rows, cols], value-kind, role
_HEADERS = {b"RDAE1": "<IIBB", _MAGIC: "<IIIIBB"}
_ROLES = {"clean": 0, "corrupt": 1}

VALUE_KINDS = {"generic": 0, "spectrogram": 1, "hrrp": 2, "frontal": 3}

# one packed 5-byte column record
_RECORD = np.dtype([("interval", "<u2"), ("realization", "<u2"), ("wall", "u1")])


@dataclass
class ImageStack:
    data: np.ndarray                      # (P, Q), float64 in [0, 1]
    image_shape: tuple[int, int]
    interval_index: np.ndarray | None = None  # (Q,)
    realization: np.ndarray | None = None
    wall_class: np.ndarray | None = None
    role: str = "clean"
    value_kind: str = "generic"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ConfigError("stack data must be a P x Q matrix")
        P, Q = self.data.shape
        rows, cols = self.image_shape
        if rows * cols != P:
            raise ConfigError(f"image shape {self.image_shape} != P={P}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("stack contains non-finite values")
        if self.data.size and (self.data.min() < -1e-12 or self.data.max() > 1 + 1e-12):
            raise ConfigError("stack values must lie in [0, 1]")
        if self.role not in _ROLES:
            raise ConfigError(f"unknown role {self.role!r}")
        if self.value_kind not in VALUE_KINDS:
            raise ConfigError(f"unknown value kind {self.value_kind!r}")
        for name in ("interval_index", "realization", "wall_class"):
            v = getattr(self, name)
            if v is None:
                v = np.zeros(Q, dtype=np.uint16)
            v = np.asarray(v)
            if v.shape != (Q,):
                raise ConfigError(f"{name} must have one entry per column")
            setattr(self, name, v.astype(np.uint16 if name != "wall_class" else np.uint8))

    @property
    def pixel_count(self):
        return self.data.shape[0]

    @property
    def count(self):
        return self.data.shape[1]

    def copy(self, data=None, role=None):
        return replace(self, data=self.data.copy() if data is None else data,
                       role=self.role if role is None else role)

    def select(self, columns):
        """New stack holding the given columns (data and metadata)."""
        columns = np.asarray(columns)
        return replace(self, data=self.data[:, columns],
                       interval_index=self.interval_index[columns],
                       realization=self.realization[columns],
                       wall_class=self.wall_class[columns])

    def metadata_matches(self, other):
        return (
            self.data.shape == other.data.shape
            and np.array_equal(self.interval_index, other.interval_index)
            and np.array_equal(self.realization, other.realization)
            and np.array_equal(self.wall_class, other.wall_class)
        )


def save_stack(stack: ImageStack, path):
    path = Path(path)
    P, Q = stack.data.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(_HEADERS[_MAGIC], P, Q, *stack.image_shape,
                             VALUE_KINDS[stack.value_kind], _ROLES[stack.role]))
        records = np.empty(Q, dtype=_RECORD)
        records["interval"] = stack.interval_index
        records["realization"] = stack.realization
        records["wall"] = stack.wall_class
        fh.write(records.tobytes())
        fh.write(np.asfortranarray(stack.data).astype("<f8").tobytes(order="F"))


def load_stack(path):
    return _read_stack(path)[0]


def _read_stack(path):
    """(stack, whether its header recorded the image shape)."""
    path = Path(path)
    raw = path.read_bytes()
    header = _HEADERS.get(raw[: len(_MAGIC)])
    if header is None:
        raise FormatError(f"bad magic in {path}")
    off = len(_MAGIC)
    try:
        P, Q, *shape, kind_tag, role_tag = struct.unpack_from(header, raw, off)
    except struct.error as exc:
        raise FormatError(f"truncated header in {path}") from exc
    off += struct.calcsize(header)
    recorded = bool(shape)
    if not recorded:  # version 1 did not record the image shape
        side = int(round(np.sqrt(P)))
        shape = (side, side) if side * side == P else (P, 1)
    if shape[0] * shape[1] != P:
        raise FormatError(f"image shape {tuple(shape)} != P={P} in {path}")
    kinds = {v: k for k, v in VALUE_KINDS.items()}
    roles = {v: k for k, v in _ROLES.items()}
    if kind_tag not in kinds or role_tag not in roles:
        raise FormatError(f"unknown kind/role tag in {path}")
    need = off + _RECORD.itemsize * Q + 8 * P * Q
    if len(raw) < need:
        raise FormatError(f"truncated stack in {path}: {len(raw)} < {need} bytes")
    records = np.frombuffer(raw, dtype=_RECORD, count=Q, offset=off)
    off += _RECORD.itemsize * Q
    data = np.frombuffer(raw, dtype="<f8", count=P * Q, offset=off)
    data = data.reshape((P, Q), order="F").copy()
    return ImageStack(data=data, image_shape=tuple(shape),
                      interval_index=records["interval"],
                      realization=records["realization"],
                      wall_class=records["wall"],
                      role=roles[role_tag],
                      value_kind=kinds[kind_tag]), recorded


def save_dataset(clean: ImageStack, corrupt: ImageStack, directory, config_text=""):
    """Write a paired dataset: clean/corrupt stack files plus a manifest."""
    if clean.data.shape != corrupt.data.shape:
        raise FormatError("paired stacks must share (P, Q)")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_stack(clean, directory / "clean.rdae")
    save_stack(corrupt, directory / "corrupt.rdae")
    digest = hashlib.sha256(config_text.encode()).hexdigest()
    rows, cols = clean.image_shape
    manifest = (
        f"clean=clean.rdae\ncorrupt=corrupt.rdae\n"
        f"image_shape={rows}x{cols}\nconfig_hash={digest}\n"
    )
    (directory / "manifest.txt").write_text(manifest)
    return directory / "manifest.txt"


def load_dataset(directory):
    """Load a paired dataset written by save_dataset; returns (clean, corrupt)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.txt"
    if not manifest_path.exists():
        raise FormatError(f"missing manifest in {directory}")
    fields = {}
    for line in manifest_path.read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            fields[k.strip()] = v.strip()
    for key in ("clean", "corrupt"):
        if key not in fields:
            raise FormatError(f"manifest missing {key} entry")
    clean, clean_recorded = _read_stack(directory / fields["clean"])
    corrupt, corrupt_recorded = _read_stack(directory / fields["corrupt"])
    if clean_recorded and corrupt_recorded \
            and clean.image_shape != corrupt.image_shape:
        raise FormatError(f"stack headers disagree on the image shape: "
                          f"{clean.image_shape} vs {corrupt.image_shape}")
    if "image_shape" in fields:
        rows, cols = (int(s) for s in fields["image_shape"].split("x"))
        if rows * cols != clean.pixel_count:
            raise FormatError("manifest image shape inconsistent with stacks")
        # version 1 stacks take the manifest's shape; version 2 headers
        # record their own, which must agree with it
        for stack, recorded in ((clean, clean_recorded),
                                (corrupt, corrupt_recorded)):
            if not recorded:
                stack.image_shape = (rows, cols)
            elif stack.image_shape != (rows, cols):
                raise FormatError(
                    f"manifest image shape {rows}x{cols} != {stack.role} "
                    f"stack header shape {stack.image_shape}")
    if clean.data.shape != corrupt.data.shape:
        raise FormatError("paired stacks disagree on (P, Q)")
    return clean, corrupt
