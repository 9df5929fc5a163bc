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
    The implementation keeps a ring of the last `window` bit-packed
    planes and a per-pixel running count, adding each entering plane and
    subtracting the leaving one, so each output frame costs O(pixels)
    regardless of window length. Output is bit-identical to recounting
    every window from scratch.

Partial trailing windows are never emitted. For a stream of R frames the
output holds floor((R - window)/stride) + 1 frames, at an effective rate
of readout_rate/stride.
"""

from __future__ import annotations

from collections import deque
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


class ChunkedEncoder:
    """Incremental sliding-window modulo encoder.

    Accepts spike frames in arrival order (optionally cross-checked with
    `start_frame`, the 1-based index of a chunk's first frame) and emits
    each wrapped frame as soon as the last spike frame of its window has
    been consumed. The concatenated emissions are bit-identical to
    encoding the whole stream at once.
    """

    def __init__(self, height: int, width: int, channels: int,
                 cfg: EncoderConfig, source_rate_hz: int = 0):
        self._shape = (height, width, channels)
        self._cfg = cfg
        self._source_rate_hz = source_rate_hz
        self._counts = np.zeros(self._shape, dtype=np.int32)
        self._ring: deque[np.ndarray] = deque()  # packed planes, oldest first
        self._consumed = 0
        self._emitted: list[ModuloFrame] = []

    @property
    def frames_consumed(self) -> int:
        return self._consumed

    def _pack(self, frame_bits: np.ndarray) -> np.ndarray:
        flat = np.transpose(frame_bits, (2, 0, 1)).reshape(self._shape[2], -1)
        return np.packbits(flat, axis=-1, bitorder="little")

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        h, w, c = self._shape
        flat = np.unpackbits(packed, axis=-1, count=h * w, bitorder="little")
        return np.transpose(flat.reshape(c, h, w), (1, 2, 0))

    def push(self, chunk: np.ndarray, start_frame: int | None = None) -> list[ModuloFrame]:
        """Consume a (frames, H, W, C) chunk of {0,1} samples; return the
        wrapped frames completed by it."""
        chunk = np.asarray(chunk, dtype=np.uint8)
        if chunk.ndim != 4 or chunk.shape[1:] != self._shape:
            raise ValidationError(
                f"chunk: expected shape (n, {self._shape[0]}, {self._shape[1]}, "
                f"{self._shape[2]}), got {chunk.shape}")
        if start_frame is not None and start_frame != self._consumed + 1:
            raise ValidationError(
                f"chunk: out-of-order chunk (starts at frame {start_frame}, "
                f"expected {self._consumed + 1})")
        cfg = self._cfg
        out: list[ModuloFrame] = []
        for frame_bits in chunk:
            if len(self._ring) == cfg.window:
                self._counts -= self._unpack(self._ring.popleft())
            self._ring.append(self._pack(frame_bits))
            self._counts += frame_bits
            self._consumed += 1
            r = self._consumed
            if r >= cfg.window and (r - cfg.window) % cfg.stride == 0:
                pre = np.floor(cfg.gain * self._counts.astype(np.float64))
                wrapped = np.mod(pre, cfg.modulus).astype(np.uint16)
                frame = ModuloFrame(data=wrapped, bit_depth=cfg.bit_depth)
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
        chunk = np.asarray(chunk, dtype=np.uint8)
        if chunk.ndim != 4:
            raise ValidationError(f"chunk: expected (n, H, W, C), got shape {chunk.shape}")
        if enc is None:
            enc = ChunkedEncoder(chunk.shape[1], chunk.shape[2], chunk.shape[3],
                                 cfg, source_rate_hz=source_rate_hz)
        enc.push(chunk)
    if enc is None:
        raise ValidationError("chunks: no chunks supplied")
    return enc.sequence()
