"""Vectorized image stacks and their on-disk format.

File layout: magic "RDAE2"; header u32 P, u32 Q, u32 image rows, u32 image
cols, u8 value-kind, u8 role; Q column records (u16 interval index, u16
realization, u8 wall class); then P*Q little-endian float64 values,
column-major, and nothing after them.  A paired dataset is a directory
holding two such files, clean.rdae and corrupt.rdae, whose headers must
agree, and a manifest.txt recording the generation config hash for
provenance; nothing reads the manifest back.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError

__all__ = ["ImageStack", "columns_to_images", "images_to_columns",
           "load_dataset", "load_stack", "save_dataset", "save_stack"]

_MAGIC = b"RDAE2"
_HEADER = "<IIIIBB"   # P, Q, rows, cols, value-kind, role
_ROLES = {"clean": 0, "corrupt": 1}

VALUE_KINDS = {"generic": 0, "spectrogram": 1, "hrrp": 2, "frontal": 3}

# one packed 5-byte column record
_RECORD = np.dtype([("interval", "<u2"), ("realization", "<u2"), ("wall", "u1")])


def columns_to_images(columns, image_shape):
    """View a P x Q stack of Fortran-order image columns as Q images; the
    images of a C- or F-ordered stack are a writable view of it."""
    rows, cols = image_shape
    return columns.T.reshape(-1, cols, rows).swapaxes(-1, -2)


def images_to_columns(images):
    """Inverse of columns_to_images: N contiguous images as a C-ordered
    P x N column stack."""
    return images.reshape(images.shape[0], -1, order="F").T


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
    def count(self):
        return self.data.shape[1]

    def copy(self, data=None, role=None):
        return replace(self, data=self.data.copy(order="K") if data is None else data,
                       role=self.role if role is None else role)

    def select(self, columns):
        """New stack holding the given columns (data and metadata)."""
        columns = np.asarray(columns)
        return replace(self, data=self.data[:, columns],
                       interval_index=self.interval_index[columns],
                       realization=self.realization[columns],
                       wall_class=self.wall_class[columns])


def save_stack(stack: ImageStack, path):
    path = Path(path)
    P, Q = stack.data.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(_HEADER, P, Q, *stack.image_shape,
                             VALUE_KINDS[stack.value_kind], _ROLES[stack.role]))
        records = np.empty(Q, dtype=_RECORD)
        records["interval"] = stack.interval_index
        records["realization"] = stack.realization
        records["wall"] = stack.wall_class
        fh.write(records.tobytes())
        fh.write(np.asfortranarray(stack.data).astype("<f8").tobytes(order="F"))


def load_stack(path):
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"bad magic in {path}")
    off = len(_MAGIC)
    try:
        P, Q, rows, cols, kind_tag, role_tag = struct.unpack_from(_HEADER, raw, off)
    except struct.error as exc:
        raise FormatError(f"truncated header in {path}") from exc
    off += struct.calcsize(_HEADER)
    if rows * cols != P:
        raise FormatError(f"image shape {(rows, cols)} != P={P} in {path}")
    kinds = {v: k for k, v in VALUE_KINDS.items()}
    roles = {v: k for k, v in _ROLES.items()}
    if kind_tag not in kinds or role_tag not in roles:
        raise FormatError(f"unknown kind/role tag in {path}")
    need = off + _RECORD.itemsize * Q + 8 * P * Q
    if len(raw) != need:
        raise FormatError(f"{path} holds {len(raw)} bytes; its header calls for {need}")
    records = np.frombuffer(raw, dtype=_RECORD, count=Q, offset=off)
    off += _RECORD.itemsize * Q
    data = np.frombuffer(raw, dtype="<f8", count=P * Q, offset=off)
    data = data.reshape((P, Q), order="F").copy()
    try:
        return ImageStack(data=data, image_shape=(rows, cols),
                          interval_index=records["interval"],
                          realization=records["realization"],
                          wall_class=records["wall"],
                          role=roles[role_tag],
                          value_kind=kinds[kind_tag])
    except ConfigError as exc:
        raise FormatError(f"invalid stack in {path}: {exc}") from exc


def save_dataset(clean: ImageStack, corrupt: ImageStack, directory, config_text=""):
    """Write a paired dataset: clean/corrupt stack files plus a manifest."""
    if clean.data.shape != corrupt.data.shape:
        raise FormatError("paired stacks must share (P, Q)")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_stack(clean, directory / "clean.rdae")
    save_stack(corrupt, directory / "corrupt.rdae")
    digest = hashlib.sha256(config_text.encode()).hexdigest()
    (directory / "manifest.txt").write_text(f"config_hash={digest}\n")
    return directory / "manifest.txt"


def load_dataset(directory):
    """Load a paired dataset written by save_dataset; returns (clean, corrupt)."""
    stacks = []
    for name in ("clean.rdae", "corrupt.rdae"):
        path = Path(directory) / name
        if not path.is_file():
            raise FormatError(f"missing {path}")
        stacks.append(load_stack(path))
    clean, corrupt = stacks
    if clean.image_shape != corrupt.image_shape:
        raise FormatError(f"stack headers disagree on the image shape: "
                          f"{clean.image_shape} vs {corrupt.image_shape}")
    if clean.data.shape != corrupt.data.shape:
        raise FormatError("paired stacks disagree on (P, Q)")
    return clean, corrupt
