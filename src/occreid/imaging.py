"""Raster image primitives.

8-bit row-major images with a binary PPM (P6) / PGM (P5) codec, bilinear
resize and the jittered center-crop that defines training augmentation.
Storage is uint8; compute happens on float64 views and is written back
with round-half-away-from-zero, clamped to [0, 255]. All operations are
pure: inputs are never mutated and identical inputs (including generator
state) produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CorruptData, InsufficientSize, ShapeMismatch, UnsupportedFormat
from .rng import SplitMix64

_WHITESPACE = (0x20, 0x09, 0x0A, 0x0B, 0x0C, 0x0D)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle; origin is the image's top-left corner."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect sides must be >= 1, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect origin must be >= 0, got ({self.x}, {self.y})")

    @property
    def area(self) -> int:
        return self.w * self.h


class Image:
    """Immutable 8-bit raster, pixels shaped (height, width, channels).

    channels is 3 for color and 1 for masks/saliency. A 2-d array is
    accepted and treated as single-channel.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected 2-d or 3-d pixel array, got ndim={arr.ndim}")
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iu":
                raise TypeError(f"pixel dtype must be integer, got {arr.dtype}; use Image.from_float")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("integer pixel values must lie in [0, 255]")
        h, w, c = arr.shape
        if w < 1 or h < 1:
            raise ShapeMismatch(f"image dims must be >= 1, got {w}x{h}")
        if c not in (1, 3):
            raise ShapeMismatch(f"channel count must be 1 or 3, got {c}")
        arr = np.array(arr, dtype=np.uint8, copy=True, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Image is immutable")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def __array__(self, dtype=None, copy=None):
        """The pixels, so a list of equal-sized Images converts to one array."""
        return np.array(self.pixels, dtype=dtype, copy=copy)

    def to_float(self) -> np.ndarray:
        """Unit-interval float64 view (a fresh array) of the pixel data."""
        return self.pixels.astype(np.float64) / 255.0

    @classmethod
    def from_float(cls, values: np.ndarray) -> "Image":
        """Build from unit-interval reals; round half away from zero, clamp."""
        arr = np.asarray(values, dtype=np.float64)
        stored = np.clip(np.floor(arr * 255.0 + 0.5), 0.0, 255.0)
        return cls(stored.astype(np.uint8))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height}x{self.channels})"


def _next_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            while pos < n and data[pos] != 0x0A:
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise CorruptData(f"{path}: truncated header")
    return data[start:pos], pos


def load_image(path) -> Image:
    """Decode a binary PPM (P6, 3 channels) or PGM (P5, 1 channel) file.

    Samples are scaled from 0..maxval to 0..255, rounding half up, so a
    maxval-1 mask reads as 0/255; maxval 255 reads unchanged. Raises
    FileNotFoundError, UnsupportedFormat for other magics or 16-bit
    samples, CorruptData for malformed headers, short payloads, samples
    above maxval or bytes after the payload; every message starts with the
    path.
    """
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0, path)
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise UnsupportedFormat(f"{path}: unsupported magic {magic!r}, expected P5 or P6")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos, path)
        try:
            fields.append(int(tok))
        except ValueError:
            raise CorruptData(f"{path}: non-integer header field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1 or maxval < 1:
        raise CorruptData(f"{path}: bad dimensions {width}x{height} maxval={maxval}")
    if maxval > 255:
        raise UnsupportedFormat(f"{path}: 16-bit samples (maxval={maxval}) not supported")
    pos += 1  # single whitespace byte separates header from payload
    expected = width * height * channels
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise CorruptData(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    if pos + expected != len(data):
        raise CorruptData(f"{path}: {len(data) - pos - expected} trailing bytes after the payload")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if maxval < 255:
        if arr.max() > maxval:
            raise CorruptData(f"{path}: sample {arr.max()} above maxval {maxval}")
        arr = ((arr.astype(np.uint32) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return Image(arr)


def save_image(img: Image, path) -> None:
    """Write as P6 (3 channels) or P5 (1 channel), maxval 255, bit-exact."""
    magic = b"P6" if img.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    Path(path).write_bytes(header + img.pixels.tobytes())


@lru_cache(maxsize=1024)  # a few hundred (length, size) pairs per experiment
def _taps(n_in: int, n_out: int, channels: int = 1):
    """Bilinear taps along one axis of n_in samples resized to n_out: the two
    clamped source indices of each output sample and their weights (1 - f, f).

    With channels > 1 the taps address the axis flattened with its
    interleaved channels, one entry per (sample, channel).
    """
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src)
    f = src - i0
    i0 = i0.astype(np.int64)
    i1 = np.clip(i0 + 1, 0, n_in - 1)
    i0 = np.clip(i0, 0, n_in - 1)
    g = 1.0 - f
    if channels > 1:
        ch = np.arange(channels)
        i0 = (i0[:, None] * channels + ch).ravel()
        i1 = (i1[:, None] * channels + ch).ravel()
        g = np.repeat(g, channels)
        f = np.repeat(f, channels)
    for a in (i0, i1, g, f):
        a.setflags(write=False)
    return i0, i1, g, f


def bilinear_resize_array(values: np.ndarray, w: int, h: int) -> np.ndarray:
    """Bilinear resample of a float array (h, w) or (h, w, c) to h rows, w cols.

    Sample positions follow the half-pixel convention
    src = (dst + 0.5) * in/out - 0.5 with neighbours clamped to the edge,
    so resizing to identical dims is exact. Every input row is interpolated
    along x on an (h, w * c) view, then pairs of those rows are blended
    along y: top * (1 - fy) + bottom * fy with top = left * (1 - fx) +
    right * fx, the same operations in the same order for every output
    value as the direct four-neighbour formula.
    """
    if w < 1 or h < 1:
        raise ValueError(f"target dims must be >= 1, got {w}x{h}")
    arr = np.asarray(values, dtype=np.float64)
    in_h, in_w = arr.shape[:2]
    c = arr.shape[2] if arr.ndim == 3 else 1
    flat = arr.reshape(in_h, in_w * c)
    x0, x1, gx, fx = _taps(in_w, w, c)
    y0, y1, gy, fy = _taps(in_h, h)
    rows = flat.take(x0, axis=1) * gx
    rows += flat.take(x1, axis=1) * fx
    top = rows.take(y0, axis=0)
    top *= gy[:, None]
    bottom = rows.take(y1, axis=0)
    bottom *= fy[:, None]
    top += bottom
    return top.reshape((h, w) + arr.shape[2:])


def resize(img: Image, w: int, h: int) -> Image:
    """Bilinear resize with edge clamping; value range [0, 255] is preserved.
    Resizing to the image's own size is exact, so the image itself is returned."""
    if (w, h) == (img.width, img.height):
        return img
    out = bilinear_resize_array(img.pixels, w, h)
    return Image(np.clip(np.floor(out + 0.5), 0.0, 255.0).astype(np.uint8))


def jittered_center_crop(
    img: Image, side: int, max_jitter: int, rng: SplitMix64 | None = None
) -> Image:
    """Square side-by-side crop around the center, perturbed by up to max_jitter.

    Both offsets are independent uniform integers in [-max_jitter, +max_jitter],
    drawn x first then y. The caller is expected to have resized the image so
    that side + 2 * max_jitter fits within both dims.
    """
    if side < 1 or max_jitter < 0:
        raise ValueError(f"side must be >= 1 and max_jitter >= 0, got {side}, {max_jitter}")
    if side + 2 * max_jitter > min(img.width, img.height):
        raise InsufficientSize(
            f"side {side} with jitter {max_jitter} needs {side + 2 * max_jitter} px, "
            f"image is {img.width}x{img.height}"
        )
    if max_jitter > 0 and rng is None:
        raise ValueError("max_jitter > 0 requires a generator")
    cx = (img.width - side) // 2
    cy = (img.height - side) // 2
    if max_jitter > 0:
        cx += rng.randint(-max_jitter, max_jitter)
        cy += rng.randint(-max_jitter, max_jitter)
    return Image(img.pixels[cy : cy + side, cx : cx + side])
