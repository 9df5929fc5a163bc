"""Spike-sensor front-end simulation.

The capture interval is resolved on K micro-intervals; the scene is
represented by the per-interval irradiance integrals U_k (an
`IrradianceClip`). Each pixel runs an integrate-and-fire loop over that
sequence:

    accumulator += gain * U_k          (or a Poisson draw with that mean)
    while accumulator >= threshold: fire, accumulator -= threshold

and the synchronous readout latches one bit per readout interval: 1 iff at
least one firing occurred inside it. Reset-by-subtraction keeps the
residual charge, so over any window the spike count times threshold/gain
tracks the true integral to within one quantum per pixel. When several
firings land in one readout interval they collapse to a single bit
(recorded count <= true firing count); at realistic readout rates this is
rare.

Color uses a non-Bayer macro-pixel: each 2x2 block carries one R, one G
and one B filter (one position unused), so the three samples are treated
as co-located and no demosaicing ever interpolates across pixels in
different wrap states. `mosaic_sample` applies that layout to a full-
resolution clip, producing a half-resolution 3-channel clip.

Simulation is deterministic for a fixed (clip, config, seed).

A clip's `u` need not hold K separate planes: a static scene is one
read-only plane broadcast over K with a stride-0 leading axis, so its
memory does not grow with the capture length. Every function here
accepts either form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import (HdrImage, SensorConfig, SpikeStream, ValidationError, _freeze,
                    check_geometry, check_ndim, check_positive)


def _frozen(arr: np.ndarray) -> bool:
    """True when nothing can write to `arr`'s memory through numpy: it and
    every array it views are read-only, down to one that owns its data."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


@dataclass(frozen=True)
class IrradianceClip:
    """Per-micro-interval irradiance integrals, shape (K, H, W, C).

    `u` may be a stride-0 broadcast over K (a static scene: one plane
    repeated K times). A float32 array that is read-only all the way down
    its `.base` chain is kept as given, without a copy and without forcing
    contiguity; any other input is copied once, so later writes by the
    caller never reach the clip.
    """

    u: np.ndarray  # (K, H, W, C) float32, read-only, nonnegative

    def __post_init__(self):
        u = self.u
        if not (_frozen(u) and u.dtype == np.float32):
            u = _freeze(u, np.float32)
        check_ndim(u, (4,), "IrradianceClip.u")
        check_positive(u.shape[0], "IrradianceClip.micro_intervals")
        check_geometry(*u.shape[1:], "IrradianceClip")
        # a broadcast axis repeats one sample: check it once
        distinct = u[tuple(slice(0, 1) if step == 0 else slice(None) for step in u.strides)]
        if u.size and float(distinct.min()) < 0:
            raise ValidationError("IrradianceClip.u: integrals must be nonnegative")
        object.__setattr__(self, "u", u)

    @property
    def micro_intervals(self) -> int:
        return self.u.shape[0]

    @property
    def height(self) -> int:
        return self.u.shape[1]

    @property
    def width(self) -> int:
        return self.u.shape[2]

    @property
    def channels(self) -> int:
        return self.u.shape[3]


@dataclass(frozen=True)
class MosaicLayout:
    """2x2 macro-pixel filter assignment; the remaining position is unused."""

    red: tuple[int, int] = (0, 0)
    green: tuple[int, int] = (0, 1)
    blue: tuple[int, int] = (1, 0)

    def __post_init__(self):
        cells = {(0, 0), (0, 1), (1, 0), (1, 1)}
        taken = [self.red, self.green, self.blue]
        for name, pos in zip(("red", "green", "blue"), taken):
            if tuple(pos) not in cells:
                raise ValidationError(f"MosaicLayout.{name}: position {pos} outside the 2x2 block")
        if len({tuple(p) for p in taken}) != 3:
            raise ValidationError("MosaicLayout: red/green/blue positions must be distinct")

    @property
    def unused(self) -> tuple[int, int]:
        cells = {(0, 0), (0, 1), (1, 0), (1, 1)}
        cells -= {tuple(self.red), tuple(self.green), tuple(self.blue)}
        return cells.pop()


@dataclass(frozen=True)
class Motion:
    """Global affine scene motion over the clip: total translation in pixels
    (dx along width, dy along height) and total rotation about the image
    center, both reached linearly by the last micro-interval."""

    translate_px: tuple[float, float] = (0.0, 0.0)
    rotate_deg: float = 0.0

    @property
    def is_identity(self) -> bool:
        return self.translate_px == (0.0, 0.0) and self.rotate_deg == 0.0


def _warp(plane: np.ndarray, motion: Motion, frac: float) -> np.ndarray:
    """Bilinear global-affine warp of one channel plane by `frac` of the
    total motion; borders replicate the nearest sample. scipy.ndimage is
    imported on the first warp."""
    from scipy import ndimage

    h, w = plane.shape
    dy = motion.translate_px[1] * frac
    dx = motion.translate_px[0] * frac
    theta = np.deg2rad(motion.rotate_deg * frac)
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # inverse map: input = R(-theta) @ (output - center - shift) + center
    inv = np.array([[cos_t, sin_t], [-sin_t, cos_t]])
    shift = np.array([dy, dx])
    offset = center - inv @ (center + shift)
    return ndimage.affine_transform(plane, inv, offset=offset, order=1, mode="nearest")


def synthesize_clip(base: HdrImage, motion: Motion, cfg: SensorConfig) -> IrradianceClip:
    """Build the per-interval integrals of a moving scene.

    Interval k holds warp(base, motion at k/(K-1)) * (T/K); identity motion
    yields the single plane base * T/K broadcast over K (stride-0 `u`).
    """
    k_total = cfg.micro_intervals
    dt = cfg.total_time_s / k_total
    base_arr = base.values()
    if motion.is_identity:
        plane = (base_arr * dt).astype(np.float32)
        plane.setflags(write=False)
        return IrradianceClip(u=np.broadcast_to(plane, (k_total,) + plane.shape))
    u = np.empty((k_total,) + base_arr.shape, dtype=np.float32)
    for k in range(k_total):
        frac = k / (k_total - 1) if k_total > 1 else 0.0
        for c in range(base_arr.shape[2]):
            warped = _warp(base_arr[:, :, c], motion, frac)
            u[k, :, :, c] = np.maximum(warped, 0.0) * dt
    u.setflags(write=False)
    return IrradianceClip(u=u)


def integrate_and_fire(clip: IrradianceClip, cfg: SensorConfig) -> SpikeStream:
    """Run the per-pixel integrate-and-fire loop and latch binary readouts.

    The clip's K micro-intervals must split evenly over the R readout
    intervals implied by the config. With `shot_noise` the per-interval
    drive is a Poisson draw with mean gain*U_k, seeded by `rng_seed`.

    Reset-by-subtraction takes `floor_divide(acc, threshold)` quanta out of
    each accumulator. While every accumulator lies in [0, 2*threshold), that
    quotient is 0 below the threshold and exactly 1 at or above it (fmod is
    exact there), so a compare and a subtraction give the same bits at a
    fraction of the cost; any other step (an accumulator at or above
    2*threshold, a negative one left by a huge quotient, NaN) runs the
    division itself.
    """
    r_frames = cfg.readout_frames
    k_total = clip.micro_intervals
    if k_total % r_frames != 0:
        raise ValidationError(
            f"IrradianceClip.micro_intervals: {k_total} not divisible by "
            f"readout frame count {r_frames}")
    sub = k_total // r_frames
    rng = np.random.default_rng(cfg.rng_seed)
    eta = float(cfg.threshold)
    q = float(cfg.conversion_gain)
    shape = (clip.height, clip.width, clip.channels)
    acc = np.zeros(shape, dtype=np.float64)
    drive = np.empty(shape, dtype=np.float64)
    hit = np.empty(shape, dtype=bool)
    bits = np.zeros((r_frames,) + shape, dtype=np.uint8)
    nonnegative = True  # no accumulator below zero
    for r in range(r_frames):
        fired = bits[r].view(bool)
        for j in range(sub):
            np.multiply(clip.u[r * sub + j], q, out=drive, dtype=np.float64)
            if cfg.shot_noise:
                drive[...] = rng.poisson(drive)
            acc += drive
            if cfg.reset_to_zero:
                np.greater_equal(acc, eta, out=hit)
                acc[hit] = 0.0
            elif nonnegative and acc.max() < 2 * eta:
                np.greater_equal(acc, eta, out=hit)
                acc -= np.multiply(hit, eta, out=drive)
            else:
                n = np.floor_divide(acc, eta)
                acc -= n * eta
                np.greater(n, 0, out=hit)
                nonnegative = not acc.min() < 0
            fired |= hit
    return SpikeStream.from_bits(bits, readout_rate_hz=int(round(cfg.readout_rate_hz)))


def mosaic_sample(full: IrradianceClip, layout: MosaicLayout = MosaicLayout()) -> IrradianceClip:
    """Sample a full-resolution clip through the 2x2 macro-pixel layout.

    Output channel c takes, in every block, the single pixel under filter
    c; the unused position is dropped. Shape becomes (K, H/2, W/2, 3). A
    static clip (stride-0 `u`) is sampled once and stays one plane.
    """
    if full.height % 2 or full.width % 2:
        raise ValidationError(
            f"IrradianceClip: mosaic sampling needs even dimensions, got "
            f"{full.height}x{full.width}")
    static = full.u.strides[0] == 0
    src = full.u[:1] if static else full.u
    out = np.empty((src.shape[0], full.height // 2, full.width // 2, 3), dtype=np.float32)
    for c, pos in enumerate((layout.red, layout.green, layout.blue)):
        src_c = c if full.channels == 3 else 0
        out[:, :, :, c] = src[:, pos[0]::2, pos[1]::2, src_c]
    out.setflags(write=False)
    if static:
        out = np.broadcast_to(out, (full.micro_intervals,) + out.shape[1:])
    return IrradianceClip(u=out)
