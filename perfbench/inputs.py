"""Workload definitions and seeded input generators for the benchmark.

Everything here is plain numpy, so the parent process can regenerate
reference data without importing the library under test. The same seed
always yields the same arrays; a different seed moves every blob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

READOUT_HZ = 20_000
TOTAL_TIME_S = 0.05
MICRO_INTERVALS = 1000
READOUT_FRAMES = round(READOUT_HZ * TOTAL_TIME_S)
SCENE_PEAK = 1000.0
DECODE_PEAK = 4095
# steepest neighbour difference and Laplacian allowed in decode truth scenes;
# below half of the 8-bit period, so unwrapping must be exact
DECODE_MAX_STEP = 100
MU = 5000.0
PEAK_EVAL = 4095.0
# the paper's sensor: 1000x1000 @ 20 kHz read out through the 2x2 mosaic
PAPER_PIXELS = 500 * 500 * 3


@dataclass(frozen=True)
class Workload:
    """One way the library is used, with the geometry the benchmark runs."""

    name: str
    kind: str                 # "capture", "encode" or "decode"
    height: int               # scene (capture) or stream/frame height
    width: int
    channels: int
    window: int
    stride: int
    gain: int                 # integer, so references stay exact in int64
    bits: int
    frames: int = 0           # spike frames (encode) or modulo frames (decode)
    mosaic: bool = False
    translate: tuple[float, float] = (0.0, 0.0)
    rotate: float = 0.0
    threshold_factor: float = 1.0   # eta = factor * peak radiance * dt

    @property
    def motion_spec(self) -> str:
        """The motion in `modspike --motion` syntax."""
        if self.translate == (0.0, 0.0) and self.rotate == 0.0:
            return "none"
        return f"translate:{self.translate[0]:g},{self.translate[1]:g}+rotate:{self.rotate:g}"

    @property
    def sensor_pixels(self) -> int:
        """Samples per output frame: the mosaic halves each side."""
        if self.mosaic:
            return (self.height // 2) * (self.width // 2) * 3
        return self.height * self.width * self.channels

    @property
    def sensor_seconds(self) -> float:
        """Sensor time one pass covers."""
        if self.kind == "capture":
            return TOTAL_TIME_S
        if self.kind == "encode":
            return self.frames / READOUT_HZ
        return self.frames * self.stride / READOUT_HZ

    @property
    def output_frames(self) -> int:
        if self.kind == "decode":
            return self.frames
        source = self.frames if self.kind == "encode" else READOUT_FRAMES
        return (source - self.window) // self.stride + 1


WORKLOADS = {w.name: w for w in (
    # the paper's operating point: 8-bit mosaic frames at 1000 FPS
    Workload("capture_static", "capture", 160, 160, 3, window=25, stride=20,
             gain=15, bits=8, mosaic=True),
    # moving mono scene: per-plane warps and the 12-bit FFT offset search
    Workload("capture_motion", "capture", 128, 128, 1, window=50, stride=25,
             gain=160, bits=12, translate=(2.0, 1.0), rotate=1.0,
             threshold_factor=1.25),
    # sensor-side streaming encoder, one output frame per push
    Workload("encode_spikes", "encode", 128, 128, 3, window=25, stride=20,
             gain=15, bits=8, frames=25 + 124 * 20),
    # host-side unwrapping of a stored modulo sequence
    Workload("decode_hdr", "decode", 160, 160, 3, window=25, stride=20,
             gain=15, bits=8, frames=100),
)}


def _blob_params(rng: np.random.Generator, channels: int, blobs: int = 4) -> np.ndarray:
    """(channels, blobs, 4) rows of (cy, cx, sigma, amp) in relative units."""
    params = np.empty((channels, blobs, 4))
    params[..., 0:2] = rng.uniform(0.2, 0.8, (channels, blobs, 2))
    params[..., 2] = rng.uniform(0.12, 0.25, (channels, blobs))
    params[..., 3] = rng.uniform(0.3, 1.0, (channels, blobs))
    return params


def _field(params: np.ndarray, height: int, width: int, floor: float) -> np.ndarray:
    """Sum of separable Gaussian blobs on a dim floor, shape (H, W, C)."""
    y = np.arange(height, dtype=np.float64)
    x = np.arange(width, dtype=np.float64)
    out = np.full((height, width, params.shape[0]), floor)
    for c, rows in enumerate(params):
        for cy, cx, sigma, amp in rows:
            s = sigma * min(height, width)
            gy = np.exp(-(y - cy * height) ** 2 / (2 * s * s))
            gx = np.exp(-(x - cx * width) ** 2 / (2 * s * s))
            out[:, :, c] += amp * np.outer(gy, gx)
    return out


def capture_scene(w: Workload, seed: int) -> np.ndarray:
    """Smooth radiance scene of integer counts up to SCENE_PEAK, float32."""
    field = _field(_blob_params(np.random.default_rng(seed), w.channels),
                   w.height, w.width, floor=0.02)
    field /= field.max(axis=(0, 1), keepdims=True)
    return np.floor(field * SCENE_PEAK).astype(np.float32)


def sensor_threshold(w: Workload, scene: np.ndarray) -> float:
    """Firing quantum: at factor 1 the brightest pixel fires about once per
    readout interval."""
    dt = TOTAL_TIME_S / MICRO_INTERVALS
    return w.threshold_factor * float(scene.max()) * dt


def sensor_config_text(w: Workload, scene: np.ndarray) -> str:
    """Sensor config in the `key=value` file format `modspike --config` reads."""
    return (f"threshold={sensor_threshold(w, scene)!r}\n"
            f"readout_rate_hz={READOUT_HZ}\n"
            f"total_time_s={TOTAL_TIME_S!r}\n"
            f"micro_intervals={MICRO_INTERVALS}\n")


def spike_planes(w: Workload, seed: int, block: int = 256):
    """Seeded bit-packed spike planes in SPKB layout, yielded in blocks of
    (n, C, ceil(H*W/8)) uint8. Each pixel fires with its own probability,
    drawn from a smooth field in [0.02, 0.94]."""
    rng = np.random.default_rng(seed)
    field = _field(_blob_params(rng, w.channels), w.height, w.width, floor=0.02)
    field /= field.max(axis=(0, 1), keepdims=True)
    prob = 0.02 + 0.92 * field
    # fire iff a uniform byte falls below 256 * p
    limit = np.round(prob * 256).astype(np.uint16).transpose(2, 0, 1).reshape(w.channels, -1)
    for start in range(0, w.frames, block):
        n = min(block, w.frames - start)
        draws = rng.integers(0, 256, (n, w.channels, w.height * w.width), dtype=np.uint8)
        yield np.packbits(draws < limit, axis=-1, bitorder="little")


def decode_truth(w: Workload, seed: int) -> np.ndarray:
    """Smooth integer truth scenes, (frames, H, W, C) uint16, up to
    DECODE_PEAK counts. Blobs drift from frame to frame. Every scene keeps
    neighbour differences and Laplacian within DECODE_MAX_STEP and has its
    minimum in the base band, so it unwraps exactly from 8-bit frames."""
    rng = np.random.default_rng(seed)
    params = _blob_params(rng, w.channels)
    drift = rng.uniform(-0.002, 0.002, params.shape[:2] + (2,))
    out = np.empty((w.frames, w.height, w.width, w.channels), dtype=np.uint16)
    for i in range(w.frames):
        moved = params.copy()
        moved[..., 0:2] += drift * i
        field = _field(moved, w.height, w.width, floor=0.01)
        pad = np.pad(field, ((1, 1), (1, 1), (0, 0)), mode="edge")
        lap = pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:] - 4 * field
        steepest = max(np.abs(np.diff(field, axis=0)).max(),
                       np.abs(np.diff(field, axis=1)).max(), np.abs(lap).max())
        scale = min(DECODE_PEAK / field.max(), (DECODE_MAX_STEP - 4) / steepest)
        out[i] = np.floor(field * scale)
    if out.min(axis=(1, 2)).max() >= 1 << w.bits:
        raise ValueError("decode truth: a channel has no pixel in the base band")
    return out
