"""Shared value types for the modulo-spike imaging pipeline.

Everything here is an immutable value: a value adopts a numpy buffer that
nothing can write to and copies any other once, read-only (`_freeze`);
configs are frozen dataclasses that validate eagerly. Instances are safe
to share across threads.

Conventions:
  * rasters are row-major, channel-interleaved arrays of shape (H, W, C)
  * radiance is stored as float32; integer digital counts are stored as
    uint16 when given as uint16, else as float32 while every count stays
    below 2^24, and as uint64 from there on, where float32 would round
  * spike frames are bit-packed LSB-first, one plane per channel, each
    plane padded to a byte boundary
  * every value holds a sample: sizes, frame counts and K are all >= 1
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """An invariant of a value type does not hold; names the failing field."""


# Field checkers: each invariant shared across the package is checked here,
# once, and raises ValidationError naming the field.

def check_positive(value, name: str) -> None:
    """0 < value <= the largest float; exact for ints of any size, and NaN fails."""
    if not 0 < value <= sys.float_info.max:
        raise ValidationError(f"{name}: must be positive and finite, got {value}")


def check_finite(value, name: str) -> None:
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValidationError(f"{name}: must be finite, got {value}")


def check_integer(value, name: str) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: must be an integer, got {value!r}")


def _check_nonnegative_int(value, name: str) -> None:
    check_integer(value, name)
    if not value >= 0:
        raise ValidationError(f"{name}: must be >= 0, got {value}")


def _check_type(value, cls: type, name: str) -> None:
    if not isinstance(value, cls):
        raise ValidationError(f"{name}: must be of type {cls.__name__}, got {type(value).__name__}")


def check_bit_depth(bit_depth: int, name: str) -> None:
    check_integer(bit_depth, name)
    if not 1 <= bit_depth <= 16:
        raise ValidationError(f"{name}: must be in 1..16, got {bit_depth}")


def check_stride(stride: int, window: int, owner: str) -> None:
    check_integer(window, f"{owner}.window")
    check_integer(stride, f"{owner}.stride")
    if not stride >= 1:
        raise ValidationError(f"{owner}.stride: must be >= 1, got {stride}")
    if not stride <= window:
        raise ValidationError(f"{owner}.stride: stride exceeds window ({stride} > {window})")


def check_geometry(height: int, width: int, channels: int, owner: str) -> None:
    """Height and width are integers >= 1 and channels are 1 or 3: a raster
    holds at least one sample, as every sensor frame does."""
    for name, size in (("height", height), ("width", width)):
        check_integer(size, f"{owner}.{name}")
        check_positive(size, f"{owner}.{name}")
    check_integer(channels, f"{owner}.channels")
    if channels not in (1, 3):
        raise ValidationError(f"{owner}.channels: must be 1 or 3, got {channels}")


def check_ndim(arr: np.ndarray, ndims: tuple[int, ...], name: str) -> None:
    if arr.ndim not in ndims:
        raise ValidationError(
            f"{name}: expected {' or '.join(map(str, ndims))} axes, got shape {arr.shape}")


def check_dims(got: tuple, want: tuple, name: str) -> None:
    if got != want:
        raise ValidationError(f"{name}: mixed dimensions, {got} mismatches {want}")


def check_bits(samples: np.ndarray, name: str) -> np.ndarray:
    """`samples` as uint8, after checking that every sample is 0 or 1; uint8
    input is returned as is, after one pass."""
    if samples.dtype == np.uint8:
        valid = samples.size == 0 or samples.max() <= 1
    else:
        valid = ((samples == 0) | (samples == 1)).all()
    if not valid:
        raise ValidationError(f"{name}: samples must be 0 or 1")
    return samples.astype(np.uint8, copy=False)


def check_codes(samples: np.ndarray, bit_depth: int, name: str) -> None:
    """Every sample is an integer in [0, 2^bit_depth): scanned only where
    the samples' type can hold a value outside that range, so uint8 codes
    of 8 bits or more take no pass."""
    if not np.issubdtype(samples.dtype, np.integer):
        raise ValidationError(f"{name}: samples must be integers")
    top, info = 1 << bit_depth, np.iinfo(samples.dtype)
    if info.min < 0 and samples.min() < 0 or info.max >= top and samples.max() >= top:
        raise ValidationError(f"{name}: samples must lie in [0, 2^{bit_depth})")


def sample_dtype(bit_depth: int) -> np.dtype:
    """Every N-bit code's type, the narrowest holding 2^N - 1: uint8 to 8 bits, else uint16."""
    return np.dtype(np.uint8 if bit_depth <= 8 else np.uint16)


def store_ints(value, *names: str) -> None:
    """Check that each named field is an integer >= 0, as every integer field
    of a value type is, then store it as a Python int: 1 << np.uint8(8) is 0."""
    for name in names:
        field = getattr(value, name)
        _check_nonnegative_int(field, f"{type(value).__name__}.{name}")
        object.__setattr__(value, name, int(field))


def _frozen(arr: np.ndarray) -> bool:
    """True when nothing can write to `arr`'s memory through numpy: it and
    every array it views are read-only, down to one that owns its data."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


def _freeze(data, dtype) -> np.ndarray:
    """`data` itself when nothing can write to it and it is an aligned,
    C-contiguous `dtype` array, which a value can adopt as is; else a
    read-only, C-contiguous copy of it as `dtype`, made in one pass. An
    adopted array stays immutable only while its owner keeps it read-only;
    the library's own producers keep no handle to what they hand over."""
    if (isinstance(data, np.ndarray) and data.dtype == dtype and data.flags.c_contiguous
            and data.flags.aligned and _frozen(data)):
        return data
    out = np.array(data, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _as_raster(data, owner: str) -> np.ndarray:
    data = np.asarray(data)
    check_ndim(data, (2, 3), f"{owner}.data")
    if data.ndim == 2:
        data = data[:, :, None]
    check_geometry(*data.shape, owner)
    return data


class _Raster:
    """The geometry and float64 samples of an (H, W, C) `data` raster."""

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def values(self) -> np.ndarray:
        """Samples as float64, for arithmetic."""
        return self.data.astype(np.float64)


@dataclass(frozen=True)
class HdrImage(_Raster):
    """Linear-radiance raster: the unknown high-dynamic-range signal.

    `data` holds nonnegative, finite samples in arbitrary radiance units,
    as float32, or integer digital counts: uint16 input stays uint16, and
    any other integer input whose largest count is 2^24 or more, past the
    integers float32 holds exactly, is stored as uint64. Every other
    raster, integer or not, is stored as float32.
    """

    data: np.ndarray  # (H, W, C), float32, uint16 or uint64, read-only

    def __post_init__(self):
        data = _as_raster(self.data, "HdrImage")
        kind = data.dtype.kind  # an integer is finite: only a signed one needs a check
        valid = kind == "u" or kind == "i" and data.min() >= 0
        # integers float32 would round (2^24 and up) are kept exactly, as uint64
        wide = valid and data.dtype.itemsize > 2 and data.max() >= 2 ** 24
        data = _freeze(data, np.uint64 if wide else
                       np.uint16 if data.dtype == np.uint16 else np.float32)
        if not valid and not 0 <= float(data.min()) <= float(data.max()) < math.inf:
            raise ValidationError("HdrImage.data: samples must be finite and nonnegative")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class ModuloFrame(_Raster):
    """N-bit wrapped observation: every sample lives in [0, 2^N).

    Samples are held in `sample_dtype(N)`, their MODQ width (uint8 up to 8
    bits: arithmetic on `data` wraps at 256 unless widened). A caller's frozen
    array of that type, uint8 too, is adopted and stays immutable only while
    the caller keeps it read-only.
    `counted_by` is the config of the spike encoder that counted the frame,
    and only `ChunkedEncoder` sets it. Each sample is then
    mod(floor(gain * count), 2^N) for a count in 0..window, which lets
    `unwrap_poisson` decode the frame by table lookup. The containers do
    not store it, so a frame read from a file has none.
    """

    data: np.ndarray  # (H, W, C) sample_dtype(bit_depth), read-only
    bit_depth: int
    counted_by: EncoderConfig | None = None

    def __post_init__(self):
        store_ints(self, "bit_depth")
        check_bit_depth(self.bit_depth, "ModuloFrame.bit_depth")
        if self.counted_by is not None:
            _check_type(self.counted_by, EncoderConfig, "ModuloFrame.counted_by")
            if self.counted_by.bit_depth != self.bit_depth:
                raise ValidationError(
                    f"ModuloFrame.counted_by.bit_depth: {self.counted_by.bit_depth} "
                    f"differs from the frame's {self.bit_depth}")
        data = _as_raster(self.data, "ModuloFrame")
        check_codes(data, self.bit_depth, "ModuloFrame.data")
        object.__setattr__(self, "data", _freeze(data, sample_dtype(self.bit_depth)))

    @property
    def modulus(self) -> int:
        return 1 << self.bit_depth


def plane_bytes(height: int, width: int) -> int:
    """Bytes occupied by one bit-packed channel plane."""
    return (height * width + 7) // 8


@dataclass(frozen=True)
class SpikeStream:
    """Sequence of synchronous binary spike frames at a fixed readout rate.

    `packed` has shape (frame_count, channels, plane_bytes): each channel
    plane is the frame's H*W bits packed row-major, LSB-first.
    """

    height: int
    width: int
    channels: int
    frame_count: int
    readout_rate_hz: int
    packed: np.ndarray  # (R, C, plane_bytes) uint8, read-only

    def __post_init__(self):
        store_ints(self, "height", "width", "channels", "frame_count", "readout_rate_hz")
        check_positive(self.frame_count, "SpikeStream.frame_count")
        check_positive(self.readout_rate_hz, "SpikeStream.readout_rate_hz")
        check_geometry(self.height, self.width, self.channels, "SpikeStream")
        packed = np.asarray(self.packed)
        check_codes(packed, 8, "SpikeStream.packed")
        packed = _freeze(packed, np.uint8)
        check_dims(packed.shape,
                   (self.frame_count, self.channels, plane_bytes(self.height, self.width)),
                   "SpikeStream.packed")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_bits(cls, bits: np.ndarray, readout_rate_hz: int) -> "SpikeStream":
        """Pack a (frame_count, H, W, C) array of {0,1} samples."""
        bits = np.asarray(bits)
        check_ndim(bits, (4,), "SpikeStream bits")
        r, h, w, c = bits.shape
        bits = check_bits(bits, "SpikeStream bits")
        # packing a contiguous copy is ~3x faster than packing the strided view
        flat = np.ascontiguousarray(np.transpose(bits, (0, 3, 1, 2))).reshape(r, c, h * w)
        packed = np.packbits(flat, axis=-1, bitorder="little")
        packed.setflags(write=False)
        return cls(height=h, width=w, channels=c, frame_count=r,
                   readout_rate_hz=readout_rate_hz, packed=packed)

    def bits(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Unpack frames [start, stop) to a (n, H, W, C) uint8 array of {0,1}."""
        stop = self.frame_count if stop is None else stop
        _check_nonnegative_int(start, "SpikeStream.bits.start")
        _check_nonnegative_int(stop, "SpikeStream.bits.stop")
        packed = self.packed[start:stop]
        flat = np.unpackbits(packed, axis=-1, count=self.height * self.width,
                             bitorder="little")
        planes = flat.reshape(packed.shape[0], self.channels, self.height, self.width)
        return np.transpose(planes, (0, 2, 3, 1))


@dataclass(frozen=True)
class SensorConfig:
    """Integrate-and-fire sensor parameters.

    A pixel accumulates `conversion_gain` times the incident integral and
    fires whenever the accumulator reaches `threshold`; each firing
    subtracts one threshold, so the residual charge carries over. Firings
    are latched into binary frames at `readout_rate_hz`. The capture of
    `total_time_s` is resolved on `micro_intervals` sub-steps, which must
    refine the readout grid exactly.
    """

    threshold: float = 1.0          # firing quantum (radiance*time units after gain)
    conversion_gain: float = 1.0    # photoelectric gain applied to the integral
    readout_rate_hz: float = 20_000.0  # a whole number of hertz
    total_time_s: float = 0.05
    micro_intervals: int = 1000
    shot_noise: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        store_ints(self, "micro_intervals", "rng_seed")
        for name in ("threshold", "conversion_gain", "readout_rate_hz", "total_time_s",
                     "micro_intervals"):
            check_positive(getattr(self, name), f"SensorConfig.{name}")
        if self.readout_rate_hz % 1:
            raise ValidationError("SensorConfig.readout_rate_hz: must be a whole number of "
                                  f"hertz, got {self.readout_rate_hz}")
        r_exact = self.readout_rate_hz * self.total_time_s
        r = round(r_exact) if r_exact <= sys.float_info.max else 0  # else inf, or an int no float holds
        if r < 1 or not math.isclose(r_exact, r, rel_tol=0, abs_tol=1e-6):
            raise ValidationError(
                "SensorConfig.readout_rate_hz*total_time_s: readout frame count "
                f"must be a positive integer, got {r_exact}")
        if self.micro_intervals % r != 0:
            raise ValidationError(
                f"SensorConfig.micro_intervals: must be divisible by readout frame "
                f"count {r}, got {self.micro_intervals}")

    @property
    def readout_frames(self) -> int:
        """Number of readout intervals R = readout_rate * total_time."""
        return int(round(self.readout_rate_hz * self.total_time_s))


@dataclass(frozen=True)
class EncoderConfig:
    """Sliding-window modulo encoder parameters (window, stride, gain, bits)."""

    window: int = 25
    stride: int = 20
    gain: float = 15.0
    bit_depth: int = 8

    def __post_init__(self):
        store_ints(self, "window", "stride", "bit_depth")
        check_stride(self.stride, self.window, "EncoderConfig")
        check_positive(self.gain, "EncoderConfig.gain")
        check_bit_depth(self.bit_depth, "EncoderConfig.bit_depth")

    @property
    def modulus(self) -> int:
        return 1 << self.bit_depth

    def prewrap_values(self) -> np.ndarray:
        """floor(gain * count) for every count 0..window, float64: the
        values an encoder with this config wraps."""
        return np.floor(self.gain * np.arange(self.window + 1, dtype=np.float64))


@dataclass(frozen=True)
class QuerySpec:
    """Ideal-domain query: window length and stride in micro-intervals.

    `digital_gain` converts the windowed irradiance integral to digital
    counts before flooring and wrapping.
    """

    window: int
    stride: int
    digital_gain: float = 1.0

    def __post_init__(self):
        store_ints(self, "window", "stride")
        check_stride(self.stride, self.window, "QuerySpec")
        check_positive(self.digital_gain, "QuerySpec.digital_gain")

