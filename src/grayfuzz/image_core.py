"""8-bit grayscale image values, PGM I/O, seeded Gaussian corruption and
the synthetic phantoms of the benchmark.

Everything here is a pure function over immutable values: a loaded or
constructed :class:`GrayImage` never changes, so images and histograms can
be shared freely across threads.  Each value checks its own fields when it
is built, with the one integer test ``_is_int``, the one real test
``_is_real`` and the one integer-array test ``_int_array``.

Noise reproducibility contract: deviates come from ``numpy.random.default_rng``
(PCG64) seeded with the 64-bit ``NoiseSpec.seed``, drawn as one sequential
normal stream in row-major pixel order. That generator/stream pair is a repo
constant; changing it would invalidate every recorded benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "GrayImage",
    "Histogram",
    "NoiseSpec",
    "PgmError",
    "MalformedHeaderError",
    "UnsupportedMaxvalError",
    "TruncatedRasterError",
    "RasterAboveMaxvalError",
    "PillowMissingError",
    "load_pgm",
    "save_pgm",
    "load_image",
    "histogram",
    "add_gaussian_noise",
    "round_half_up",
    "two_level_phantom",
    "bimodal_phantom",
]

LEVELS = 256  # 8-bit intensity domain [0, 255]


def round_half_up(x):
    """Round with halves going up (2.5 -> 3), the convention pinned repo-wide.

    Accepts scalars or arrays; returns int64.
    """
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


def _is_int(value) -> bool:
    # bool is an int subclass; a float such as 2.5 must not be truncated
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # True must not pass as 1.0, nor a string as the number it spells
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _int_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; a float or bool dtype is never truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must have an integer dtype, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _array_fields_equal(a, b) -> bool:
    """``__eq__`` of a dataclass holding arrays: field by field, arrays by value."""
    if type(b) is not type(a):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True, slots=True)
class GrayImage:
    """Immutable 8-bit single-channel raster.

    ``pixels`` is a read-only row-major uint8 vector of length
    ``width * height``.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if not all(_is_int(n) and n > 0 for n in (self.width, self.height)):
            raise ValueError(f"dimensions {self.width!r}x{self.height!r} are not positive integers")
        arr = np.asarray(self.pixels)
        if arr.size != self.width * self.height:
            raise ValueError(
                f"pixel count {arr.size} does not match {self.width}x{self.height}"
            )
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iuf":
                raise ValueError(f"pixel dtype {arr.dtype} is not an integer or real type")
            # NaN fails this test too, as NaN != NaN
            if arr.dtype.kind == "f" and not np.array_equal(arr, np.floor(arr)):
                raise ValueError("pixel values must be finite integers")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = arr.reshape(-1).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    __eq__ = _array_fields_equal

    @classmethod
    def from_array(cls, array2d) -> "GrayImage":
        arr = np.asarray(array2d)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[1], arr.shape[0], arr.reshape(-1))

    def to_array(self) -> np.ndarray:
        """Return the raster as a read-only (height, width) view."""
        return self.pixels.reshape(self.height, self.width)

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


@dataclass(frozen=True)
class Histogram:
    """256-bin intensity census. ``sum(counts) == total`` always.

    At bin ``v``, ``cum_counts``, ``cum_sums`` and ``cum_squares`` are the
    exact count, sum and squared sum of the values ``<= v``."""

    counts: np.ndarray
    total: int
    cum_counts: np.ndarray = field(init=False, repr=False)
    cum_sums: np.ndarray = field(init=False, repr=False)
    cum_squares: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = _int_array(self.counts, "bin counts")
        if counts.shape != (LEVELS,):
            raise ValueError("histogram needs exactly 256 bins")
        if counts.min() < 0:
            raise ValueError("bin counts must be non-negative")
        if not _is_int(self.total) or int(counts.sum()) != self.total:
            raise ValueError(f"total {self.total!r} is not the integer sum of the counts")
        levels = np.arange(LEVELS, dtype=np.int64)
        for name, values in (
            ("counts", counts),
            ("cum_counts", np.cumsum(counts)),
            ("cum_sums", np.cumsum(levels * counts)),
            ("cum_squares", np.cumsum(levels * levels * counts)),
        ):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    __eq__ = _array_fields_equal

    def occupied_range(self) -> tuple[int, int]:
        """(lowest, highest) occupied bin; raises on an empty histogram."""
        nz = np.flatnonzero(self.counts)
        if nz.size == 0:
            raise ValueError("empty histogram has no occupied bins")
        return int(nz[0]), int(nz[-1])

    def class_means(self, level: int) -> tuple[float, float]:
        """(background, foreground) mean intensity of the split at ``level``
        (background iff value <= level), from exact integer sums; an empty
        class takes the other class's mean."""
        if not (_is_int(level) and 0 <= level < LEVELS):
            raise ValueError(f"level {level!r} is not an integer in [0, 255]")
        if not self.total:
            raise ValueError("empty histogram has no class means")
        bg_count, bg_sum = int(self.cum_counts[level]), int(self.cum_sums[level])
        fg_count, fg_sum = int(self.cum_counts[-1]) - bg_count, int(self.cum_sums[-1]) - bg_sum
        bg_mean = bg_sum / bg_count if bg_count else fg_sum / fg_count
        fg_mean = fg_sum / fg_count if fg_count else bg_mean
        return bg_mean, fg_mean


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise parameters: std-dev in intensity levels plus
    the 64-bit PRNG seed that makes the corruption reproducible."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not (_is_real(self.sigma) and 0 <= self.sigma < float("inf")):  # NaN fails both
            raise ValueError(f"sigma {self.sigma!r} is not a finite non-negative number")
        if not _is_int(self.seed):
            raise ValueError(f"seed {self.seed!r} is not an integer")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


# ---------------------------------------------------------------------------
# PGM (P5) I/O
# ---------------------------------------------------------------------------

class PgmError(ValueError):
    """Base for PGM parse failures."""


class MalformedHeaderError(PgmError):
    """Magic/number tokens missing or unparseable."""


class UnsupportedMaxvalError(PgmError):
    """maxval outside [1, 255]; two-byte rasters are out of scope."""


class TruncatedRasterError(PgmError):
    """Fewer raster bytes than width*height."""


class RasterAboveMaxvalError(PgmError):
    """A raster byte exceeds the header's maxval."""


class PillowMissingError(OSError):
    """A non-PGM image needs pillow (the ``png`` extra) to be decoded."""


_WHITESPACE = b" \t\n\r\x0b\x0c"


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Comments run from '#' to end of line and count as whitespace.
    n = len(data)
    while pos < n:
        if data[pos : pos + 1] in _WHITESPACE:
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise MalformedHeaderError("unexpected end of header")
    return data[start:pos], pos


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary PGM (P5) byte string into a GrayImage.

    Header tokens may be separated by any whitespace and '#' comments, and
    the numbers are ASCII decimal digits only.  Distinct errors: malformed
    header, maxval > 255, truncated raster, raster byte above maxval.  Bytes
    after the raster are ignored: Netpbm allows several images in one file,
    and this reads the first.
    """
    magic, pos = _read_header_token(data, 0)
    if magic != b"P5":
        raise MalformedHeaderError(f"not a binary PGM (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(data, pos)
        if not token.isdigit():  # int() would also take '+' and '_'
            raise MalformedHeaderError(f"non-numeric {name} token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"non-positive dimensions {width}x{height}")
    if maxval > 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} exceeds 255")
    if maxval < 1:
        raise MalformedHeaderError(f"maxval {maxval} below 1")
    # Exactly one whitespace byte separates maxval from the raster.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeaderError("missing raster delimiter after maxval")
    pos += 1
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise TruncatedRasterError(
            f"raster holds {len(raster)} bytes, needs {width * height}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8)
    if maxval < 255 and pixels.max() > maxval:
        raise RasterAboveMaxvalError(f"raster byte {pixels.max()} exceeds maxval {maxval}")
    return GrayImage(width, height, pixels)


def save_pgm(image: GrayImage) -> bytes:
    """Serialize to canonical binary PGM: maxval fixed at 255.

    ``load_pgm(save_pgm(img)) == img`` byte-for-byte.
    """
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def load_image(path) -> GrayImage:
    """Load a grayscale image from disk.

    ``.pgm`` files go through the native parser; anything else is decoded
    with Pillow (optional dependency) and converted to 8-bit gray, which for
    an equivalent PNG yields the same GrayImage as the PGM would.
    """
    path = str(path)
    if path.lower().endswith(".pgm"):
        with open(path, "rb") as fh:
            return load_pgm(fh.read())
    try:
        from PIL import Image
    except ImportError:
        raise PillowMissingError(
            f"{path}: reading non-PGM images requires pillow (install grayfuzz[png])"
        ) from None
    with Image.open(path) as img:
        gray = img.convert("L")
        return GrayImage.from_array(np.asarray(gray, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Histogram and noise
# ---------------------------------------------------------------------------

def histogram(image: GrayImage) -> Histogram:
    """256-bin census of the image; conserves the pixel count."""
    counts = np.bincount(image.pixels, minlength=LEVELS).astype(np.int64)
    return Histogram(counts=counts, total=image.width * image.height)


def add_gaussian_noise(image: GrayImage, spec: NoiseSpec) -> GrayImage:
    """Corrupt with additive N(0, sigma^2), round-half-up, clamp to [0, 255].

    Deterministic: the same (image, spec) always yields the same output.
    """
    rng = np.random.default_rng(int(spec.seed))
    noise = rng.normal(0.0, spec.sigma, size=image.pixels.size)
    noisy = round_half_up(image.pixels.astype(np.float64) + noise)
    return GrayImage(image.width, image.height, np.clip(noisy, 0, 255))


# ---------------------------------------------------------------------------
# Synthetic phantoms (the benchmark needs known-ground-truth scenes)
# ---------------------------------------------------------------------------

def two_level_phantom(
    width: int = 256,
    height: int = 256,
    low: int = 40,
    high: int = 210,
    orientation: str = "vertical",
    split: float = 0.5,
) -> GrayImage:
    """Two flat regions separated by a straight edge.

    ``orientation`` 'vertical' splits into left/right halves at
    ``split * width``; 'horizontal' into top/bottom.
    """
    arr = np.full((height, width), low, dtype=np.uint8)
    if orientation == "vertical":
        arr[:, int(width * split):] = high
    elif orientation == "horizontal":
        arr[int(height * split):, :] = high
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return GrayImage.from_array(arr)


def bimodal_phantom(
    width: int = 256,
    height: int = 256,
    low: tuple[int, int] = (35, 115),
    high: tuple[int, int] = (140, 220),
    radius_fraction: float = 0.35,
) -> GrayImage:
    """Bright disk on a dark background, each region carrying a smooth ramp.

    The background ramps horizontally across ``low`` and the disk vertically
    across ``high``, so the histogram shows two broad lobes and no two-level
    quantization can reproduce the scene exactly.
    """
    yy, xx = np.mgrid[0:height, 0:width]
    bg = low[0] + (low[1] - low[0]) * xx / max(width - 1, 1)  # a side of 1 has no ramp
    fg = high[0] + (high[1] - high[0]) * yy / max(height - 1, 1)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= (radius_fraction * min(width, height)) ** 2
    arr = np.round(np.where(disk, fg, bg)).astype(np.uint8)
    return GrayImage.from_array(arr)
