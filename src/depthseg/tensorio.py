"""Typed in-memory tensors and bit-exact file I/O.

Two on-disk formats are supported:

* ``STN1`` binary tensor container: one ASCII header line
  ``STN1 <dtype> <H> <W> <C>\\n`` followed by the raw little-endian payload.
* binary PGM/PPM (``P5``/``P6``, maxval 255) for previews: the magic, then
  width, height and maxval, each after whitespace or ``#`` comments (each to
  the end of its line), then one whitespace byte and the raw payload.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import dataclass, field

import numpy as np

DTYPE_NAMES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1"), "i32": np.dtype("<i4")}
_NAME_BY_KIND = {dt: name for name, dt in DTYPE_NAMES.items()}
_PNM_HEADER = re.compile(rb"P[56]" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


class TensorError(ValueError):
    """Malformed tensor data or tensor file."""


@dataclass(frozen=True)
class Tensor2D:
    """A row-major H x W x C array of f32, u8 or i32 values.

    ``data`` always has shape (H, W, C); single-channel input of shape (H, W)
    is accepted and expanded. Zero-sized dimensions are rejected.
    """

    data: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise TensorError(f"expected 2D or 3D array, got ndim={arr.ndim}")
        if arr.dtype not in _NAME_BY_KIND:
            raise TensorError(f"unsupported dtype {arr.dtype}; use f32, u8 or i32")
        if min(arr.shape) == 0:
            raise TensorError("degenerate shape rejected")
        object.__setattr__(self, "data", np.ascontiguousarray(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def dtype_name(self) -> str:
        return _NAME_BY_KIND[self.data.dtype]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor2D):
            return NotImplemented
        return (self.data.shape == other.data.shape
                and self.data.dtype == other.data.dtype
                and self.data.tobytes() == other.data.tobytes())


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_tensor(t: Tensor2D, path) -> None:
    header = f"STN1 {t.dtype_name} {t.height} {t.width} {t.channels}\n"
    payload = t.data.astype(DTYPE_NAMES[t.dtype_name], copy=False).tobytes()
    atomic_write_bytes(path, header.encode("ascii") + payload)


def load_tensor(path) -> Tensor2D:
    with open(path, "rb") as f:
        header = f.readline(128)
        body = f.read()
    if not header.endswith(b"\n"):
        raise TensorError(f"{path}: malformed header (no newline)")
    fields = header.decode("ascii", errors="replace").split()
    if len(fields) != 5 or fields[0] != "STN1":
        raise TensorError(f"{path}: malformed header {fields!r}")
    name = fields[1]
    if name not in DTYPE_NAMES:
        raise TensorError(f"{path}: unsupported dtype {name!r}")
    try:
        shape = tuple(int(x) for x in fields[2:])
    except ValueError as e:
        raise TensorError(f"{path}: malformed header: {e}") from None
    return _payload(path, body, DTYPE_NAMES[name], shape)


def _payload(path, body: bytes, dt: np.dtype, shape) -> Tensor2D:
    """The (H, W, C) tensor of ``dt`` values that ``body`` holds."""
    if min(shape) <= 0:
        raise TensorError(f"{path}: degenerate shape rejected "
                          f"({'x'.join(map(str, shape))})")
    expected = math.prod(shape) * dt.itemsize
    if len(body) != expected:
        raise TensorError(
            f"{path}: payload length mismatch (got {len(body)}, want {expected})")
    # frombuffer gives a read-only view; Tensor2D keeps a copy it owns
    return Tensor2D(np.frombuffer(body, dtype=dt).reshape(shape).copy())


def write_pgm_ppm(t: Tensor2D, path) -> None:
    if t.dtype_name != "u8":
        raise TensorError("PGM/PPM export requires u8 data")
    if t.channels == 1:
        magic = b"P5"
        flat = t.data[:, :, 0]
    elif t.channels == 3:
        magic = b"P6"
        flat = t.data
    else:
        raise TensorError(f"PGM/PPM supports 1 or 3 channels, got {t.channels}")
    header = magic + f"\n{t.width} {t.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + flat.tobytes())


def read_pgm_ppm(path) -> Tensor2D:
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[:2]
    if magic in (b"P2", b"P3"):
        raise TensorError(f"{path}: only binary PGM/PPM (P5/P6) supported")
    if magic not in (b"P5", b"P6"):
        raise TensorError(f"{path}: not a PGM/PPM file")
    header = _PNM_HEADER.match(raw)
    if header is None:
        raise TensorError(f"{path}: malformed or truncated header")
    width, height, maxval = (int(g) for g in header.groups())
    if maxval != 255:
        raise TensorError(f"{path}: only maxval 255 supported, got {maxval}")
    channels = 1 if magic == b"P5" else 3
    return _payload(path, raw[header.end():], DTYPE_NAMES["u8"],
                    (height, width, channels))


def to_float(t: Tensor2D) -> Tensor2D:
    """u8 image -> f32 in [0, 1]; f32 passes through unchanged."""
    if t.dtype_name == "f32":
        return t
    if t.dtype_name != "u8":
        raise TensorError("to_float expects u8 or f32 input")
    return Tensor2D((t.data.astype(np.float32) / 255.0))


def to_u8(t: Tensor2D) -> Tensor2D:
    """f32 in [0, 1] -> u8 (clipped and rounded); u8 passes through."""
    if t.dtype_name == "u8":
        return t
    arr = np.clip(np.rint(t.data.astype(np.float64) * 255.0), 0, 255)
    return Tensor2D(arr.astype(np.uint8))
