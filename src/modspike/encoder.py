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
    The implementation keeps an unpacked ring of the last `window` planes
    and a per-pixel running count in the narrowest unsigned type that
    holds `window`, adding each entering plane and subtracting the
    leaving one, so the cost is O(pixels) per spike frame for any window.
    Each output frame is one lookup in a table of the wrapped code for
    every count 0..window. Output is bit-identical to recounting every
    window from scratch.

Partial trailing windows are never emitted. For a stream of R frames the
output holds floor((R - window)/stride) + 1 frames, at an effective rate
of readout_rate/stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .simulate import IrradianceClip
from .types import (EncoderConfig, ModuloFrame, QuerySpec, SpikeStream,
                    ValidationError)


@dataclass(frozen=True)
class ModuloSequence:
    """Ordered wrapped frames plus the window/stride/gain that produced them."""

    frames: tuple[ModuloFrame, ...]
    window: int
    stride: int
    gain: float
    source_rate_hz: int = 0  # 0 when the source rate is not meaningful

    def __post_init__(self):
        if not 1 <= self.stride <= self.window:
            raise ValidationError(
                f"ModuloSequence.stride: need 1 <= stride <= window, got "
                f"stride={self.stride} window={self.window}")
        if not self.gain > 0:
            raise ValidationError(f"ModuloSequence.gain: must be positive, got {self.gain}")
        frames = tuple(self.frames)
        if frames:
            first = frames[0]
            for f in frames[1:]:
                if (f.height, f.width, f.channels, f.bit_depth) != (
                        first.height, first.width, first.channels, first.bit_depth):
                    raise ValidationError("ModuloSequence.frames: mixed dimensions or bit depth")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def effective_rate_hz(self) -> float:
        return self.source_rate_hz / self.stride if self.source_rate_hz else 0.0


def frame_capacity(source_frames: int, window: int, stride: int) -> int:
    """Number of complete windows in a source of `source_frames` frames."""
    if source_frames < window:
        return 0
    return (source_frames - window) // stride + 1


def _per_window(clip: IrradianceClip, spec: QuerySpec, dtype, finish) -> np.ndarray:
    """finish(float64 sum of U_k over the i-th query window) for every
    window, stacked into a (frames, H, W, C) array of `dtype`.

    Each window is reduced on its own, plane by plane in index order, with
    float64 accumulation; that is the rounding of an axis-0 sum over a
    float64 copy of the window, without copying the clip.
    """
    k_total = clip.micro_intervals
    if spec.window > k_total:
        raise ValidationError(
            f"QuerySpec.window: window {spec.window} exceeds clip micro-intervals {k_total}")
    count = frame_capacity(k_total, spec.window, spec.stride)
    out = np.empty((count,) + clip.u.shape[1:], dtype=dtype)
    for i in range(count):
        start = i * spec.stride
        out[i] = finish(clip.u[start:start + spec.window].sum(axis=0, dtype=np.float64))
    return out


def window_sums(clip: IrradianceClip, spec: QuerySpec) -> np.ndarray:
    """Raw windowed integrals: sums[i] = sum of U_k for k in the i-th query
    window, shape (frames, H, W, C) float64."""
    return _per_window(clip, spec, np.float64, lambda total: total)


def ideal_window_counts(clip: IrradianceClip, spec: QuerySpec) -> np.ndarray:
    """Pre-wrap digital counts floor(gain * windowed integral), int64."""
    return _per_window(clip, spec, np.int64,
                       lambda total: np.floor(spec.digital_gain * total))


def query_ideal(clip: IrradianceClip, spec: QuerySpec, bit_depth: int,
                micro_rate_hz: int = 0) -> ModuloSequence:
    """Wrapped frames from the ideal representation: each window's digital
    count modulo 2^bit_depth. `micro_rate_hz` (micro-intervals per second)
    is recorded as the source rate when known."""
    if not 1 <= bit_depth <= 16:
        raise ValidationError(f"bit_depth: must be in 1..16, got {bit_depth}")
    counts = ideal_window_counts(clip, spec)
    modulus = 1 << bit_depth
    frames = tuple(ModuloFrame(data=np.mod(c, modulus).astype(np.uint16),
                               bit_depth=bit_depth)
                   for c in counts)
    return ModuloSequence(frames=frames, window=spec.window, stride=spec.stride,
                          gain=spec.digital_gain, source_rate_hz=micro_rate_hz)


def readout_window(start_micro: int, length_micro: int, micro_count: int,
                   frame_count: int) -> range:
    """1-based readout frame indices whose intervals tile the query window
    starting at micro-interval `start_micro` (1-based) of length
    `length_micro`. Requires micro_count divisible by frame_count."""
    if micro_count % frame_count != 0:
        raise ValidationError(
            f"micro_count: {micro_count} not divisible by frame_count {frame_count}")
    per_frame = micro_count // frame_count
    lo = start_micro - 1
    hi = start_micro + length_micro - 1
    first = lo // per_frame + 1
    last = hi // per_frame
    return range(first, last + 1)


def _as_bits(chunk: np.ndarray) -> np.ndarray:
    """`chunk` as uint8, after checking that every sample is 0 or 1."""
    if chunk.dtype == np.uint8:
        valid = chunk.size == 0 or chunk.max() <= 1
    else:
        valid = ((chunk == 0) | (chunk == 1)).all()
    if not valid:
        raise ValidationError("chunk: samples must be 0 or 1")
    return chunk.astype(np.uint8, copy=False)


class ChunkedEncoder:
    """Incremental sliding-window modulo encoder.

    Accepts spike frames in arrival order (optionally cross-checked with
    `start_frame`, the 1-based index of a chunk's first frame) and emits
    each wrapped frame as soon as the last spike frame of its window has
    been consumed. The concatenated emissions are bit-identical to
    encoding the whole stream at once.

    State is a ring of the last `window` spike planes, unpacked and in
    (C, H, W) layout, and a per-pixel count in the narrowest unsigned type
    that holds `window`. A chunk is consumed in blocks that end where a
    window closes: each block's planes are added to the counts and the
    planes they overwrite in the ring are subtracted, so the cost is
    O(pixels) per spike frame for any window. The counts are exact,
    because the true count lies in [0, window]. A table built once maps
    each count to its wrapped code, mod(floor(gain * count), 2^N).
    """

    def __init__(self, height: int, width: int, channels: int,
                 cfg: EncoderConfig, source_rate_hz: int = 0):
        for name, size in (("height", height), ("width", width)):
            if not size >= 1:
                raise ValidationError(f"ChunkedEncoder.{name}: must be >= 1, got {size}")
        if channels not in (1, 3):
            raise ValidationError(f"ChunkedEncoder.channels: must be 1 or 3, got {channels}")
        self._shape = (height, width, channels)
        self._cfg = cfg
        self._source_rate_hz = source_rate_hz
        self._ring = np.zeros((cfg.window, channels, height, width), dtype=np.uint8)
        self._counts = np.zeros((channels, height, width), dtype=np.min_scalar_type(cfg.window))
        pre = np.floor(cfg.gain * np.arange(cfg.window + 1, dtype=np.float64))
        self._wrap = np.mod(pre, cfg.modulus).astype(np.uint16)
        self._consumed = 0
        self._emitted: list[ModuloFrame] = []

    @property
    def frames_consumed(self) -> int:
        return self._consumed

    def _next_close(self) -> int:
        """1-based index of the next spike frame that closes a window."""
        window, stride = self._cfg.window, self._cfg.stride
        if self._consumed < window:
            return window
        return self._consumed + stride - (self._consumed - window) % stride

    def _consume(self, block: np.ndarray) -> None:
        """Add a (n, C, H, W) block of at most `window` planes to the ring."""
        counts, ring = self._counts, self._ring
        first = self._consumed % len(ring)
        split = min(len(block), len(ring) - first)
        for slots, planes in ((slice(first, first + split), block[:split]),
                              (slice(0, len(block) - split), block[split:])):
            if len(planes):
                counts -= ring[slots].sum(0, dtype=counts.dtype)
                counts += planes.sum(0, dtype=counts.dtype)
                ring[slots] = planes
        self._consumed += len(block)

    def push(self, chunk: np.ndarray, start_frame: int | None = None) -> list[ModuloFrame]:
        """Consume a (frames, H, W, C) chunk of {0,1} samples; return the
        wrapped frames completed by it."""
        chunk = np.asarray(chunk)
        if chunk.ndim != 4 or chunk.shape[1:] != self._shape:
            raise ValidationError(
                f"chunk: expected shape (n, {self._shape[0]}, {self._shape[1]}, "
                f"{self._shape[2]}), got {chunk.shape}")
        if start_frame is not None and start_frame != self._consumed + 1:
            raise ValidationError(
                f"chunk: out-of-order chunk (starts at frame {start_frame}, "
                f"expected {self._consumed + 1})")
        planes = np.moveaxis(_as_bits(chunk), 3, 1)
        out: list[ModuloFrame] = []
        start = 0
        while start < len(planes):
            close = self._next_close()
            stop = min(len(planes), start + close - self._consumed)
            self._consume(planes[start:stop])
            start = stop
            if self._consumed == close:
                frame = ModuloFrame(data=np.moveaxis(np.take(self._wrap, self._counts), 0, 2),
                                    bit_depth=self._cfg.bit_depth)
                out.append(frame)
                self._emitted.append(frame)
        return out

    def sequence(self) -> ModuloSequence:
        """All frames emitted so far, as a ModuloSequence."""
        if self._consumed < self._cfg.window:
            raise ValidationError(
                f"stream: {self._consumed} frames is shorter than window {self._cfg.window}")
        return ModuloSequence(frames=tuple(self._emitted), window=self._cfg.window,
                              stride=self._cfg.stride, gain=self._cfg.gain,
                              source_rate_hz=self._source_rate_hz)


def encode_stream(stream: SpikeStream, cfg: EncoderConfig,
                  unpack_step: int = 512) -> ModuloSequence:
    """Encode a complete spike stream into wrapped frames.

    Frames are unpacked in bounded slices so memory stays O(window), not
    O(stream length).
    """
    if unpack_step < 1:
        raise ValidationError(f"unpack_step: must be >= 1, got {unpack_step}")
    if stream.frame_count < cfg.window:
        raise ValidationError(
            f"SpikeStream.frame_count: {stream.frame_count} frames is shorter "
            f"than window {cfg.window}")
    enc = ChunkedEncoder(stream.height, stream.width, stream.channels, cfg,
                         source_rate_hz=stream.readout_rate_hz)
    for start in range(0, stream.frame_count, unpack_step):
        enc.push(stream.bits(start, min(start + unpack_step, stream.frame_count)))
    return enc.sequence()


def encode_streaming_chunked(chunks: Iterable[np.ndarray] | Sequence[np.ndarray],
                             cfg: EncoderConfig,
                             source_rate_hz: int = 0) -> ModuloSequence:
    """Encode spike frames arriving as an in-order iterable of (n, H, W, C)
    chunks; equivalent bit-for-bit to `encode_stream` on the concatenation."""
    enc: ChunkedEncoder | None = None
    for chunk in chunks:
        chunk = np.asarray(chunk)
        if chunk.ndim != 4:
            raise ValidationError(f"chunk: expected (n, H, W, C), got shape {chunk.shape}")
        if enc is None:
            enc = ChunkedEncoder(chunk.shape[1], chunk.shape[2], chunk.shape[3],
                                 cfg, source_rate_hz=source_rate_hz)
        enc.push(chunk)
    if enc is None:
        raise ValidationError("chunks: no chunks supplied")
    return enc.sequence()
