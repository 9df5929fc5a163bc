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
  * every integer field is checked once, by `check_int` against the bounds
    its owner states, and stored as a Python int; no integer setting but
    a seed exceeds the largest float
  * every real-valued setting is checked once, by `check_float` (which
    `check_int` builds on), against inclusive bounds: a positive one's
    lowest value is the least positive float
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class ValidationError(ValueError):
    """An invariant of a value type does not hold; names the failing field."""


# Field checkers: each invariant shared across the package is checked here,
# once, and raises ValidationError naming the field.

def check_float(value, name: str, low: float = -sys.float_info.max,
                high: float = sys.float_info.max) -> int | float:
    """`value`, a Python or numpy int or float but not a bool, in low..high
    (both inclusive), as a Python int or float: a string, an array or None
    would raise a raw TypeError (or ValueError) in the comparison, and
    float32 arithmetic against the largest float overflows. An int of any
    size is compared exactly, and NaN fails. A positive setting's low is
    `math.ulp(0.0)`, the least positive float. A refusal gives an int past
    every float by its size: str() of one past 4,300 digits raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name}: must be a number, got {value!r}")
    number = int(value) if isinstance(value, (int, np.integer)) else float(value)
    if not low <= number <= high:
        bits = number.bit_length() if isinstance(number, int) else 0
        shown = f"an integer of {bits} bits" if bits > 1024 else value
        raise ValidationError(f"{name}: must be in {low}..{high}, got {shown}")
    return number


def check_int(value, name: str, low: int = 0, high: float = sys.float_info.max) -> int:
    """`value`, a Python or numpy integer but not a bool, in low..high, as a
    Python int (`check_float`): 1 << np.uint8(8) is 0. The default high, the
    largest float, keeps every float conversion of the value finite."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: must be an integer, got {value!r}")
    return check_float(value, name, low, high)


def _check_type(value, cls: type, name: str) -> None:
    if not isinstance(value, cls):
        raise ValidationError(f"{name}: must be of type {cls.__name__}, got {type(value).__name__}")


def check_geometry(height, width, channels, owner: str) -> tuple[int, int, int]:
    """(height, width, channels) as Python ints, after checking that height
    and width are integers >= 1 and channels 1 or 3: a raster holds at least
    one sample, as every sensor frame does."""
    height, width = check_int(height, f"{owner}.height", 1), check_int(width, f"{owner}.width", 1)
    channels = check_int(channels, f"{owner}.channels")
    if channels not in (1, 3):
        raise ValidationError(f"{owner}.channels: must be 1 or 3, got {channels}")
    return height, width, channels


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


def store_ints(value, **bounds) -> None:
    """Check each named integer field of `value` against its bounds, a
    lowest value or a (low, high) range, and store it as a Python int
    (`check_int`). Fields are checked in the order given, so a bound may
    be an earlier field's value: it is compared only once that field passed."""
    for name, bound in bounds.items():
        bound = bound if isinstance(bound, tuple) else (bound,)
        object.__setattr__(value, name, check_int(getattr(value, name),
                                                  f"{type(value).__name__}.{name}", *bound))


def _frozen(arr: np.ndarray) -> bool:
    """True when nothing can write to `arr`'s memory through numpy: it and
    every array it views are read-only, down to one that owns its data."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


def check_real(data, name: str) -> np.ndarray:
    """`data` as an array, after refusing by its dtype alone samples that a
    cast to a number type would mangle: complex, object, text, dates."""
    data = np.asarray(data)
    if data.dtype.kind not in "biuf":
        raise ValidationError(f"{name}: samples must be real numbers, got {data.dtype}")
    return data


def _freeze(data, dtype, name: str) -> np.ndarray:
    """`data` itself when nothing can write to it and it is an aligned,
    C-contiguous `dtype` array, which a value can adopt as is; else a
    read-only, C-contiguous copy of it as `dtype`, made in one pass, after
    `check_real`. An adopted array stays immutable only while its owner
    keeps it read-only; the library's own producers keep no handle to what
    they hand over."""
    if (isinstance(data, np.ndarray) and data.dtype == dtype and data.flags.c_contiguous
            and data.flags.aligned and _frozen(data)):
        return data
    out = np.array(check_real(data, name), dtype=dtype, order="C")
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
                       np.uint16 if data.dtype == np.uint16 else np.float32, "HdrImage.data")
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
        store_ints(self, bit_depth=(1, 16))
        if self.counted_by is not None:
            _check_type(self.counted_by, EncoderConfig, "ModuloFrame.counted_by")
            if self.counted_by.bit_depth != self.bit_depth:
                raise ValidationError(
                    f"ModuloFrame.counted_by.bit_depth: {self.counted_by.bit_depth} "
                    f"differs from the frame's {self.bit_depth}")
        data = _as_raster(self.data, "ModuloFrame")
        check_codes(data, self.bit_depth, "ModuloFrame.data")
        object.__setattr__(self, "data", _freeze(data, sample_dtype(self.bit_depth),
                                                   "ModuloFrame.data"))

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
        geometry = check_geometry(self.height, self.width, self.channels, "SpikeStream")
        for name, size in zip(("height", "width", "channels"), geometry):
            object.__setattr__(self, name, size)
        store_ints(self, frame_count=1, readout_rate_hz=1)
        packed = np.asarray(self.packed)
        check_codes(packed, 8, "SpikeStream.packed")
        packed = _freeze(packed, np.uint8, "SpikeStream.packed")
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
        start = check_int(start, "SpikeStream.bits.start")
        stop = check_int(stop, "SpikeStream.bits.stop")
        packed = self.packed[start:stop]
        flat = np.unpackbits(packed, axis=-1, count=self.height * self.width,
                             bitorder="little")
        planes = flat.reshape(packed.shape[0], self.channels, self.height, self.width)
        return np.transpose(planes, (0, 2, 3, 1))


@dataclass(frozen=True, kw_only=True)
class SensorConfig:
    """Integrate-and-fire sensor parameters, given by keyword.

    A pixel accumulates the incident integral and fires whenever the
    accumulator reaches `threshold`; each firing subtracts one threshold,
    so the residual charge carries over. A pixel's spikes thus depend only
    on its integral measured in thresholds, and `threshold` alone sets that
    scale: `conversion_gain` is the constant 1.0, not a setting. Firings
    are latched into binary frames at `readout_rate_hz`. The capture of
    `total_time_s` is resolved on `micro_intervals` sub-steps, which must
    refine the readout grid exactly.
    """

    conversion_gain: ClassVar[float] = 1.0  # charge per unit of integral
    threshold: float = 1.0          # firing quantum, in radiance*time units
    readout_rate_hz: float = 20_000.0  # a whole number of hertz
    total_time_s: float = 0.05
    micro_intervals: int = 1000
    shot_noise: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        store_ints(self, micro_intervals=1, rng_seed=(0, math.inf))  # numpy takes any seed >= 0
        flag = self.shot_noise
        if not isinstance(flag, (bool, np.bool_)):  # a string such as "no" is truthy
            raise ValidationError(f"SensorConfig.shot_noise: must be a bool, got {flag!r}")
        object.__setattr__(self, "shot_noise", bool(flag))
        for name in ("threshold", "readout_rate_hz", "total_time_s"):  # stored as Python numbers
            object.__setattr__(self, name, check_float(getattr(self, name),
                                                       f"SensorConfig.{name}", math.ulp(0.0)))
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
        # MODQ stores a window as u16, so the counts fit uint16
        store_ints(self, window=(1, 2 ** 16 - 1), stride=(1, self.window), bit_depth=(1, 16))
        check_float(self.gain, "EncoderConfig.gain", math.ulp(0.0))

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
        store_ints(self, window=1, stride=(1, self.window))
        check_float(self.digital_gain, "QuerySpec.digital_gain", math.ulp(0.0))

