"""Sliding-window modulo encoding: the query phase.

`ChunkedEncoder` is the one producer of wrapped frames (`encode_stream` is
a loop over its `push`): per pixel, frame j = mod(floor(gain * spike count
over window j), 2^N), with 1-based window starts b_j = (j-1)*stride + 1.
Stride == window degenerates to the classic exposure-coupled sensor on a
fixed partition; stride < window decouples frame rate (rate/stride) from
exposure (window length). The cost is O(pixels) per spike frame for any
window, the output is bit-identical to recounting every window from
scratch (see `ChunkedEncoder` for how), and the codes are made at their
MODQ width (`sample_dtype`): one byte per sample up to 8 bits.

`ideal_window_counts` is the one ideal-domain entry point, the pre-wrap
truth: floor(gain * sum of U_k over the window) over the same windows of
the ideal per-interval integrals.

Partial trailing windows are never emitted. For a stream of R frames the
output holds floor((R - window)/stride) + 1 frames, at an effective rate
of readout_rate/stride.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .simulate import IrradianceClip
from .types import (EncoderConfig, ModuloFrame, QuerySpec, SpikeStream, ValidationError,
                    _check_type, check_bits, check_dims, check_geometry, check_float,
                    check_int, sample_dtype, store_ints)

_UNPACK_SAMPLES = 2 ** 20  # spike samples encode_stream unpacks per push: 1 MiB of {0,1} bytes


@dataclass(frozen=True)
class ModuloSequence:
    """Ordered wrapped frames plus the window/stride/gain that produced them;
    a frame's `counted_by`, when set, must be exactly that config."""

    frames: tuple[ModuloFrame, ...]
    window: int
    stride: int
    gain: float
    source_rate_hz: int = 0  # 0 when the source rate is not meaningful

    def __post_init__(self):
        store_ints(self, window=1, stride=(1, self.window), source_rate_hz=0)
        check_float(self.gain, "ModuloSequence.gain", math.ulp(0.0))
        frames = tuple(self.frames)
        check_int(len(frames), "ModuloSequence.frames", 1)
        config = self.window, self.stride, self.gain
        for i, f in enumerate(frames):  # frame 0 sets the (H, W, C, N) of the rest
            _check_type(f, ModuloFrame, f"ModuloSequence.frames[{i}]")
            if i == 0:
                dims = f.data.shape + (f.bit_depth,)
            check_dims(f.data.shape + (f.bit_depth,), dims,
                       "ModuloSequence.frames (H, W, C, bit_depth)")
            # a counting config's N is its frame's, which ModuloFrame checks
            if (by := f.counted_by) is not None and (by.window, by.stride, by.gain) != config:
                raise ValidationError(f"ModuloSequence.frames: frame {i} was counted by {by}, "
                                      "not window={}, stride={}, gain={}".format(*config))
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def effective_rate_hz(self) -> float:
        return self.source_rate_hz / self.stride


def frame_capacity(source_frames: int, window: int, stride: int) -> int:
    """Number of complete windows in a source of `source_frames` frames."""
    source_frames = check_int(source_frames, "frame_capacity.source_frames")
    window = check_int(window, "frame_capacity.window", 1)
    stride = check_int(stride, "frame_capacity.stride", 1, window)
    return max(0, (source_frames - window) // stride + 1)


def ideal_window_counts(clip: IrradianceClip, spec: QuerySpec) -> np.ndarray:
    """Pre-wrap digital counts floor(gain * windowed integral), stacked into
    a read-only (frames, H, W, C) int64 array.

    Each window is reduced on its own, plane by plane in index order, with
    float64 accumulation; that is the rounding of an axis-0 sum over a
    float64 copy of the window, without copying the clip. Every window of
    a static clip (stride-0 `u`) is the same reduction of the same values,
    so window 0 is reduced once and broadcast over the frames (stride-0
    result). A count at or past 2^63 has no int64 value: it raises
    `ValidationError` naming the gain.
    """
    k_total = clip.micro_intervals
    if spec.window > k_total:
        raise ValidationError(
            f"QuerySpec.window: window {spec.window} exceeds clip micro-intervals {k_total}")
    count = frame_capacity(k_total, spec.window, spec.stride)
    distinct = 1 if clip.u.strides[0] == 0 else count
    out = np.empty((distinct,) + clip.u.shape[1:], dtype=np.int64)
    for i in range(distinct):
        start = i * spec.stride
        total = clip.u[start:start + spec.window].sum(axis=0, dtype=np.float64)
        with np.errstate(over="ignore"):  # an infinite product is rejected below
            total *= spec.digital_gain
        if np.floor(total, out=total).max() >= 2.0 ** 63:
            raise ValidationError(
                f"QuerySpec.digital_gain: {spec.digital_gain} times window {i}'s integral "
                f"reaches 2^63 counts, past the int64 range")
        out[i] = total
    out.setflags(write=False)
    return np.broadcast_to(out, (count,) + out.shape[1:])


class ChunkedEncoder:
    """Incremental sliding-window modulo encoder.

    Accepts spike frames in arrival order and emits each wrapped frame as
    soon as the last spike frame of its window has been consumed. The
    concatenated emissions are bit-identical to encoding the whole stream
    at once.

    State is a per-pixel count of every spike pushed so far, in (C, H, W)
    layout and the narrowest unsigned type that holds `window`, and a copy
    of it taken when each open window started: 1 + ceil(window/stride)
    count planes at most, whatever the window. Window j starts after
    j*stride spike frames and closes after window + j*stride. A chunk is
    summed into the count in blocks that end at those events. At a close
    the window's count is the current count minus its start copy; the
    count may wrap, but the difference is exact, because the true count
    lies in [0, window]. That count is stacked channels-last once, and its
    code, mod(floor(gain * count), 2^N), is made from it in the frame's
    `sample_dtype(N)` by one of two rules chosen once from the config.
    While gain is whole and gain * window < 2^53, every gain * count is an
    exact float64 integer, so the code is N-bit counter arithmetic: one
    multiply by gain mod 2^N, wrapping in that type, then a mask. Any other
    gain reads a table of that type: the code of every count 0..window, as
    float64 rounds a product past 2^53, and a fractional gain floors it.
    The codes are frozen, so the emitted frame adopts them without a copy;
    it carries the config in `counted_by`.
    """

    def __init__(self, height: int, width: int, channels: int,
                 cfg: EncoderConfig, source_rate_hz: int = 0):
        height, width, channels = check_geometry(height, width, channels, "ChunkedEncoder")
        _check_type(cfg, EncoderConfig, "ChunkedEncoder.cfg")
        self._source_rate_hz = check_int(source_rate_hz, "ChunkedEncoder.source_rate_hz")
        self._shape = (height, width, channels)
        self._cfg = cfg
        self._total = np.zeros((channels, height, width), dtype=np.min_scalar_type(cfg.window))
        self._open: deque[np.ndarray] = deque()  # start copies of open windows, oldest first
        # the rule (see above): gain mod 2^N while every gain * count is exact, else a table
        self._codes = codes = sample_dtype(cfg.bit_depth)
        exact = cfg.gain % 1 == 0 and cfg.gain * cfg.window < 2 ** 53
        self._step = int(cfg.gain) % cfg.modulus if exact else None
        self._wrap = None if exact else np.mod(cfg.prewrap_values(), cfg.modulus).astype(codes)
        self._consumed = 0
        self._emitted: list[ModuloFrame] = []

    def push(self, chunk: np.ndarray) -> list[ModuloFrame]:
        """Consume a (frames, H, W, C) chunk of {0,1} samples; return the
        wrapped frames completed by it."""
        chunk = np.asarray(chunk)
        check_dims(chunk.shape[1:], self._shape, "chunk (H, W, C)")
        planes = check_bits(chunk.transpose(0, 3, 1, 2), "chunk")
        window, stride = self._cfg.window, self._cfg.stride
        out: list[ModuloFrame] = []
        start = 0
        while True:
            close = window + len(self._emitted) * stride
            event = min(close, (len(self._emitted) + len(self._open)) * stride)
            stop = min(len(planes), start + event - self._consumed)
            if stop > start:
                self._total += planes[start:stop].sum(0, dtype=self._total.dtype)
                self._consumed += stop - start
                start = stop
            if self._consumed < event:
                return out
            if self._consumed == close:
                counts = np.stack(self._total - self._open.popleft(), axis=-1)
                if self._step is None:
                    codes = np.take(self._wrap, counts)
                else:
                    codes = np.multiply(counts, self._step, dtype=self._codes)
                    codes &= self._cfg.modulus - 1
                codes.setflags(write=False)  # the frame adopts it: no second copy
                frame = ModuloFrame(data=codes, bit_depth=self._cfg.bit_depth,
                                    counted_by=self._cfg)
                out.append(frame)
                self._emitted.append(frame)
            else:
                self._open.append(self._total.copy())

    def sequence(self) -> ModuloSequence:
        """All frames emitted so far, as a ModuloSequence."""
        if self._consumed < self._cfg.window:
            raise ValidationError(
                f"stream: {self._consumed} frames is shorter than window {self._cfg.window}")
        return ModuloSequence(frames=tuple(self._emitted), window=self._cfg.window,
                              stride=self._cfg.stride, gain=self._cfg.gain,
                              source_rate_hz=self._source_rate_hz)


def encode_stream(stream: SpikeStream, cfg: EncoderConfig) -> ModuloSequence:
    """Encode a complete spike stream into wrapped frames.

    Each push unpacks as many whole frames as fit in `_UNPACK_SAMPLES`
    {0,1} bytes, and at least one, so memory stays bounded by that budget
    and window/stride, not by the stream length or the plane size.
    """
    enc = ChunkedEncoder(stream.height, stream.width, stream.channels, cfg,
                         source_rate_hz=stream.readout_rate_hz)
    step = max(1, _UNPACK_SAMPLES // (stream.height * stream.width * stream.channels))
    for start in range(0, stream.frame_count, step):
        enc.push(stream.bits(start, start + step))
    return enc.sequence()
