"""Sliding-window modulo encoding: the query phase.

Two routes produce wrapped frames:

  * `query_ideal` — windows over the ideal per-interval integrals:
    frame i = mod(floor(gain * sum of U_k over the window), 2^N), with
    1-based window starts b_i = (i-1)*stride + 1. Stride == window
    degenerates to the classic exposure-coupled sensor on a fixed
    partition; stride < window decouples frame rate (rate/stride) from
    exposure (window length).

  * `encode_stream` / `ChunkedEncoder` — the hardware-domain counterpart:
    per pixel, frame j = mod(floor(gain * spike count over window), 2^N).
    A window's count is the running spike count at its close minus the
    running count at its start, so the implementation keeps one running
    count per pixel and a copy of it for each window still open, in the
    narrowest unsigned type that holds `window`. The cost is O(pixels)
    per spike frame for any window. Each output frame is one lookup in a
    table of the wrapped code for every count 0..window. Output is
    bit-identical to recounting every window from scratch.

Partial trailing windows are never emitted. For a stream of R frames the
output holds floor((R - window)/stride) + 1 frames, at an effective rate
of readout_rate/stride.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .simulate import IrradianceClip
from .types import (EncoderConfig, ModuloFrame, QuerySpec, SpikeStream,
                    ValidationError, check_bit_depth, check_bits, check_dims,
                    check_geometry, check_positive, check_stride, store_ints)

UNPACK_STEP = 512  # spike frames unpacked per push by encode_stream


@dataclass(frozen=True)
class ModuloSequence:
    """Ordered wrapped frames plus the window/stride/gain that produced them."""

    frames: tuple[ModuloFrame, ...]
    window: int
    stride: int
    gain: float
    source_rate_hz: int = 0  # 0 when the source rate is not meaningful

    def __post_init__(self):
        store_ints(self, "window", "stride", "source_rate_hz")
        check_stride(self.stride, self.window, "ModuloSequence")
        check_positive(self.gain, "ModuloSequence.gain")
        frames = tuple(self.frames)
        for f in frames[1:]:
            check_dims(f.data.shape + (f.bit_depth,),
                       frames[0].data.shape + (frames[0].bit_depth,),
                       "ModuloSequence.frames (H, W, C, bit_depth)")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def effective_rate_hz(self) -> float:
        return self.source_rate_hz / self.stride if self.source_rate_hz else 0.0


def frame_capacity(source_frames: int, window: int, stride: int) -> int:
    """Number of complete windows in a source of `source_frames` frames."""
    check_stride(stride, window, "frame_capacity")
    if source_frames < window:
        return 0
    return (source_frames - window) // stride + 1


def ideal_window_counts(clip: IrradianceClip, spec: QuerySpec) -> np.ndarray:
    """Pre-wrap digital counts floor(gain * windowed integral), stacked into
    a (frames, H, W, C) int64 array.

    Each window is reduced on its own, plane by plane in index order, with
    float64 accumulation; that is the rounding of an axis-0 sum over a
    float64 copy of the window, without copying the clip.
    """
    k_total = clip.micro_intervals
    if spec.window > k_total:
        raise ValidationError(
            f"QuerySpec.window: window {spec.window} exceeds clip micro-intervals {k_total}")
    count = frame_capacity(k_total, spec.window, spec.stride)
    out = np.empty((count,) + clip.u.shape[1:], dtype=np.int64)
    for i in range(count):
        start = i * spec.stride
        total = clip.u[start:start + spec.window].sum(axis=0, dtype=np.float64)
        out[i] = np.floor(spec.digital_gain * total)
    return out


def query_ideal(clip: IrradianceClip, spec: QuerySpec, bit_depth: int,
                micro_rate_hz: int = 0) -> ModuloSequence:
    """Wrapped frames from the ideal representation: each window's digital
    count modulo 2^bit_depth. `micro_rate_hz` (micro-intervals per second)
    is recorded as the source rate when known."""
    check_bit_depth(bit_depth, "bit_depth")
    counts = ideal_window_counts(clip, spec)
    modulus = 1 << int(bit_depth)  # a numpy bit depth would wrap the shift
    frames = tuple(ModuloFrame(data=np.mod(c, modulus), bit_depth=bit_depth) for c in counts)
    return ModuloSequence(frames=frames, window=spec.window, stride=spec.stride,
                          gain=spec.digital_gain, source_rate_hz=micro_rate_hz)


class ChunkedEncoder:
    """Incremental sliding-window modulo encoder.

    Accepts spike frames in arrival order (optionally cross-checked with
    `start_frame`, the 1-based index of a chunk's first frame) and emits
    each wrapped frame as soon as the last spike frame of its window has
    been consumed. The concatenated emissions are bit-identical to
    encoding the whole stream at once.

    State is a per-pixel count of every spike pushed so far, in (C, H, W)
    layout and the narrowest unsigned type that holds `window`, and a copy
    of it taken when each open window started: 1 + ceil(window/stride)
    count planes at most, whatever the window. Window j starts after
    j*stride spike frames and closes after window + j*stride. A chunk is
    summed into the count in blocks that end at those events. At a close
    the window's count is the current count minus its start copy; the
    count may wrap, but the difference is exact, because the true count
    lies in [0, window]. A table built once maps each count to its wrapped
    code, mod(floor(gain * count), 2^N). Every emitted frame carries the
    config in `counted_by`.
    """

    def __init__(self, height: int, width: int, channels: int,
                 cfg: EncoderConfig, source_rate_hz: int = 0):
        check_geometry(height, width, channels, "ChunkedEncoder")
        # values may hold no samples, but an encoder needs at least one pixel
        check_positive(height, "ChunkedEncoder.height")
        check_positive(width, "ChunkedEncoder.width")
        self._shape = (height, width, channels)
        self._cfg = cfg
        self._source_rate_hz = source_rate_hz
        self._total = np.zeros((channels, height, width), dtype=np.min_scalar_type(cfg.window))
        self._open: deque[np.ndarray] = deque()  # start copies of open windows, oldest first
        self._wrap = np.mod(cfg.prewrap_values(), cfg.modulus).astype(np.uint16)
        self._consumed = 0
        self._emitted: list[ModuloFrame] = []

    @property
    def frames_consumed(self) -> int:
        return self._consumed

    def push(self, chunk: np.ndarray, start_frame: int | None = None) -> list[ModuloFrame]:
        """Consume a (frames, H, W, C) chunk of {0,1} samples; return the
        wrapped frames completed by it."""
        chunk = np.asarray(chunk)
        check_dims(chunk.shape[1:], self._shape, "chunk (H, W, C)")
        if start_frame is not None and start_frame != self._consumed + 1:
            raise ValidationError(
                f"chunk: out-of-order chunk (starts at frame {start_frame}, "
                f"expected {self._consumed + 1})")
        planes = np.moveaxis(check_bits(chunk, "chunk"), 3, 1)
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
                counts = self._total - self._open.popleft()
                frame = ModuloFrame(data=np.moveaxis(np.take(self._wrap, counts), 0, 2),
                                    bit_depth=self._cfg.bit_depth, counted_by=self._cfg)
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

    Frames are unpacked UNPACK_STEP at a time, so memory stays bounded by
    the step and window/stride, not by the stream length.
    """
    enc = ChunkedEncoder(stream.height, stream.width, stream.channels, cfg,
                         source_rate_hz=stream.readout_rate_hz)
    for start in range(0, stream.frame_count, UNPACK_STEP):
        enc.push(stream.bits(start, start + UNPACK_STEP))
    return enc.sequence()
