"""Spike-sensor front-end simulation.

The capture interval is resolved on K micro-intervals; the scene is
represented by the per-interval irradiance integrals U_k (an
`IrradianceClip`). Each pixel runs an integrate-and-fire loop over that
sequence:

    accumulator += U_k                 (or a Poisson draw with that mean)
    while accumulator >= threshold: fire, accumulator -= threshold

and the synchronous readout latches one bit per readout interval: 1 iff at
least one firing occurred inside it. Reset-by-subtraction keeps the
residual charge, so over any window the spike count times threshold
tracks the true integral to within one quantum per pixel. When several
firings land in one readout interval they collapse to a single bit
(recorded count <= true firing count); at realistic readout rates this is
rare.

Color uses a non-Bayer macro-pixel: each 2x2 block carries one R, one G
and one B filter (one position unused), so the three samples are treated
as co-located and no demosaicing ever interpolates across pixels in
different wrap states. `mosaic_sample` applies that layout to a full-
resolution clip, producing a half-resolution 3-channel clip.

Simulation is deterministic for a fixed (clip, config, seed). The warp of a
moving scene is the one step that runs on several threads, one per usable
core; its output does not depend on how many.

A clip's `u` need not hold K separate planes: a static scene is one
read-only plane broadcast over K with a stride-0 leading axis, so its
memory does not grow with the capture length. Every function here
accepts either form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .types import (HdrImage, SensorConfig, SpikeStream, ValidationError, _freeze, _frozen,
                    check_float, check_geometry, check_int, check_ndim, plane_bytes)

MOSAIC_POSITIONS = ((0, 0), (0, 1), (1, 0))  # (row, col) of R, G, B in a 2x2 block; (1, 1) unused


@dataclass(frozen=True)
class IrradianceClip:
    """Per-micro-interval irradiance integrals, shape (K, H, W, C).

    `u` may be a stride-0 broadcast over K (a static scene: one plane
    repeated K times). A float32 array that is read-only all the way down
    its `.base` chain is kept as given, without a copy and without forcing
    contiguity; any other input is copied once, so later writes by the
    caller never reach the clip.
    """

    u: np.ndarray  # (K, H, W, C) float32, read-only, finite, nonnegative

    def __post_init__(self):
        u = self.u
        if not (_frozen(u) and u.dtype == np.float32):
            u = _freeze(u, np.float32, "IrradianceClip.u")
        check_ndim(u, (4,), "IrradianceClip.u")
        check_int(u.shape[0], "IrradianceClip.micro_intervals", 1)
        check_geometry(*u.shape[1:], "IrradianceClip")
        # a broadcast axis repeats one sample: check it once
        distinct = u[tuple(slice(0, 1) if step == 0 else slice(None) for step in u.strides)]
        if not 0 <= float(distinct.min()) <= float(distinct.max()) < math.inf:
            raise ValidationError("IrradianceClip.u: integrals must be finite and nonnegative")
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
class Motion:
    """Global affine scene motion over the clip: total translation in pixels
    (dx along width, dy along height) and total rotation about the image
    center, both reached linearly by the last micro-interval."""

    translate_px: tuple[float, float] = (0.0, 0.0)
    rotate_deg: float = 0.0

    def __post_init__(self):
        if np.shape(self.translate_px) != (2,):
            raise ValidationError(
                f"Motion.translate_px: expected 2 components (dx, dy), got {self.translate_px!r}")
        translate = tuple(check_float(value, "Motion.translate_px") for value in self.translate_px)
        object.__setattr__(self, "translate_px", translate)
        object.__setattr__(self, "rotate_deg", check_float(self.rotate_deg, "Motion.rotate_deg"))

    @property
    def is_identity(self) -> bool:
        return self.translate_px == (0.0, 0.0) and self.rotate_deg == 0.0


# Planes are warped in blocks of about this many output samples: whole
# planes while a plane fits, else bands of rows of one plane. Each warp
# thread allocates scratch for one block once, six float64-sized arrays
# of at most 512 KiB, reuses it for every block it takes and holds two
# fresh gathers of that size at a time, so its memory grows with neither
# the clip length nor the plane size. Larger blocks mean fewer numpy
# calls, each of which the threads take the GIL to start: on a 2-core
# host 2**16 warped a 128^2 clip 10-15% faster than 2**15.
_WARP_BLOCK_SAMPLES = 2 ** 16

# Integrate-and-fire runs a band of rows at a time holding about this
# many samples over all channels: its float64 accumulator, drive and
# scratch, 256 KiB each, stay in a core's cache through every step.
_FIRE_TILE_SAMPLES = 2 ** 15


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _inverse_map(motion: Motion, frac: float, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and offset that take an output pixel (y, x) to its source
    position at `frac` of the total motion, from scalar expressions per
    plane: vectorizing them over planes could change their roundings."""
    dy = motion.translate_px[1] * frac
    dx = motion.translate_px[0] * frac
    theta = np.deg2rad(motion.rotate_deg * frac)
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # inverse map: input = R(-theta) @ (output - center - shift) + center
    inv = np.array([[cos_t, sin_t], [-sin_t, cos_t]])
    shift = np.array([dy, dx])
    return inv, center - inv @ (center + shift)


def _source_axis(coord: np.ndarray, floor: np.ndarray, index: np.ndarray, n: int) -> None:
    """Split source coordinates along an axis of `n` samples into the index
    of the sample at or below each, clamped to [-1, n-1], written to
    `index`, and the linear weights of it and of the next sample, written
    over `coord` and into `floor`.

    The weights come from the unclamped coordinate; clamping the indices
    makes the borders replicate the nearest sample. A floor beyond the
    int64 range casts as a C cast does on the host (index -1 on x86-64),
    so the result matches scipy there too.
    """
    np.floor(coord, out=floor)
    np.subtract(1.0, np.subtract(coord, floor, out=coord), out=coord)
    # numpy's error state is per thread: set it in the thread that casts
    with np.errstate(invalid="ignore"):
        np.copyto(index, floor, casting="unsafe")
    np.clip(index, -1, n - 1, out=index)
    np.subtract(1.0, coord, out=floor)


def _warp_clip(base: np.ndarray, motion: Motion, dt: float, out: np.ndarray) -> None:
    """Write plane k of a moving scene into `out[k]`: the bilinear warp of
    the (H, W, C) float64 `base` by the motion at k/(K-1), times `dt`.

    Each warped sample is the float64 value SciPy's
    `ndimage.affine_transform(order=1, mode="nearest")` gives, from the
    same operations in the same order, so the clip is bit-identical to
    warping each plane and channel with it. A block of planes shares its
    gather indices and weights across channels. A plane larger than a
    block is warped in bands of rows, a block each.

    Blocks are split into one share per usable core, at most one per
    block; the calling thread runs the first and a thread pool the rest.
    Each share writes only its own samples, the same whichever thread runs
    it, so `out` does not depend on the share count. A failure in any share
    is raised here once all have stopped, the calling thread's first.
    """
    k_total = out.shape[0]
    h, w, channels = base.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mats, offsets = map(np.array, zip(*(
            _inverse_map(motion, k / (k_total - 1) if k_total > 1 else 0.0, h, w)
            for k in range(k_total))))
    if not np.isfinite(offsets).all():
        raise ValidationError(
            f"Motion.translate_px: {motion.translate_px} rotated by up to "
            f"{motion.rotate_deg} degrees overflows the warp's float64 source coordinates")
    # An edge-replicated border lets the clamped indices -1..n-1 and their
    # +1 neighbours address the padded plane directly. Adding 0.0 turns
    # -0.0 samples into +0.0, as the interpolation sum (which starts at
    # +0.0) does; with nonnegative samples and weights the sum then needs
    # no clamp at 0. Channels are gathered from contiguous planes.
    padded = np.pad(base, ((1, 1), (1, 1), (0, 0)), mode="edge")
    planes = np.ascontiguousarray(np.moveaxis(padded, 2, 0)).reshape(channels, -1)
    planes += 0.0
    row = w + 2
    yy, xx = np.arange(h, dtype=np.float64)[:, None], np.arange(w, dtype=np.float64)
    block = max(1, _WARP_BLOCK_SAMPLES // (h * w))  # planes a block holds
    band = min(h, max(1, _WARP_BLOCK_SAMPLES // w))  # its rows: h unless a plane is larger
    starts = [(k0, r0) for k0 in range(0, k_total, block) for r0 in range(0, h, band)]
    workers = min(_usable_cores(), len(starts))

    def warp_blocks(first: int) -> None:
        # one block's scratch, filled in place by every step below
        size = min(block, k_total) * band * w
        scratch = np.empty((4, size))
        indices = np.empty((2, size), dtype=np.intp)
        for k0, r0 in starts[first::workers]:
            n, r = min(block, k_total - k0), min(band, h - r0)
            wy0, wy1, wx0, wx1 = scratch[:, :n * r * w].reshape(4, n, r, w)
            idx, ix = indices[:, :n * r * w].reshape(2, n, r, w)
            m, off = mats[k0:k0 + n, :, :, None, None], offsets[k0:k0 + n, :, None, None]
            # source coordinates (offset + y*m0) + x*m1
            for axis, coord, floor, index, length in ((0, wy0, wy1, idx, h), (1, wx0, wx1, ix, w)):
                np.add(off[:, axis], np.multiply(yy[r0:r0 + r], m[:, axis, 0], out=coord),
                       out=coord)
                np.add(coord, np.multiply(xx, m[:, axis, 1], out=floor), out=coord)
                _source_axis(coord, floor, index, length)
            idx *= row  # flat index into a padded plane: (iy + 1) * row + (ix + 1)
            idx += ix
            idx += row + 1
            for c, plane in enumerate(planes):
                # ((p00*wy0)*wx0 + (p01*wy0)*wx1) + (p10*wy1)*wx0 + (p11*wy1)*wx1.
                # Gathering with out= would gather into a private copy and copy back.
                t = np.take(plane, idx)
                t *= wy0
                t *= wx0
                for shift, wy, wx in ((1, wy0, wx1), (row, wy1, wx0), (row + 1, wy1, wx1)):
                    part = np.take(plane[shift:], idx)
                    part *= wy
                    part *= wx
                    t += part
                np.multiply(t, dt, out=out[k0:k0 + n, r0:r0 + r, :, c])

    from concurrent.futures import ThreadPoolExecutor  # loads logging: only motion needs it
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        shares = [pool.submit(warp_blocks, first) for first in range(1, workers)]
        warp_blocks(0)
    for share in shares:
        share.result()


def synthesize_clip(base: HdrImage, motion: Motion, cfg: SensorConfig) -> IrradianceClip:
    """Build the per-interval integrals of a moving scene.

    Interval k holds warp(base, motion at k/(K-1)) * (T/K) as float32. The
    warp is bilinear and global-affine, and its borders replicate the
    nearest sample. It is computed with numpy alone, a block of planes (or
    a band of rows of a large plane) at a time on one thread per usable
    core, bit-identical to SciPy's
    `ndimage.affine_transform(order=1, mode="nearest")` on the float64
    base whatever the thread count. Identity motion yields the single
    plane base * T/K broadcast over K (stride-0 `u`) and starts no
    thread.
    """
    k_total = cfg.micro_intervals
    dt = cfg.total_time_s / k_total
    base_arr = base.values()
    if motion.is_identity:
        base_arr *= dt  # in place: a fresh copy, and one float64 plane fewer at the peak
        plane = base_arr.astype(np.float32)
        plane.setflags(write=False)
        return IrradianceClip(u=np.broadcast_to(plane, (k_total,) + plane.shape))
    u = np.empty((k_total,) + base_arr.shape, dtype=np.float32)
    _warp_clip(base_arr, motion, dt, u)
    u.setflags(write=False)
    return IrradianceClip(u=u)


@np.errstate(over="ignore")  # an infinite drive is rejected where it would go wrong
def integrate_and_fire(clip: IrradianceClip, cfg: SensorConfig) -> SpikeStream:
    """Run the per-pixel integrate-and-fire loop and latch binary readouts.

    The clip's K micro-intervals must split evenly over the R readout
    intervals implied by the config. The per-interval drive is the clip's
    own integral U_k (the sensor's conversion gain is 1), or with
    `shot_noise` a Poisson draw with mean U_k, seeded by `rng_seed`.

    The state is channel-first, (C, rows, W) float64, and runs one tile at
    a time: a band of rows holding about `_FIRE_TILE_SAMPLES` samples over
    all channels, taken through every micro-interval before the next band.
    Every band but the last fills whole bytes of each channel plane, so a
    readout's fired bits pack straight into `SpikeStream.packed`. A static
    clip's drive is computed once per tile. With `shot_noise` the tile is
    the whole plane, drawn over (H, W, C) as a plane-at-a-time loop draws
    it, so the random stream does not depend on the tiling.

    Reset-by-subtraction takes `floor_divide(acc, threshold)` quanta out of
    each accumulator. While every accumulator of a tile lies in [0,
    2*threshold), that quotient is 0 below the threshold and exactly 1 at
    or above it (fmod is exact there), so a compare and a subtraction give
    the same bits at a fraction of the cost; any other step of the tile (an
    accumulator at or above 2*threshold, a negative one left by a huge
    quotient) runs the division itself.

    A drive it cannot represent raises `ValidationError` naming its cause:
    the clip for a shot-noise mean past the Poisson range, the threshold
    for an accumulator past float64 in thresholds (checked on the division
    path, which an infinite quotient takes).
    """
    r_frames = cfg.readout_frames
    k_total, h, w, channels = clip.u.shape
    if k_total % r_frames != 0:
        raise ValidationError(
            f"IrradianceClip.micro_intervals: {k_total} not divisible by "
            f"readout frame count {r_frames}")
    sub = k_total // r_frames
    rng = np.random.default_rng(cfg.rng_seed) if cfg.shot_noise else None  # imports numpy.random
    eta = float(cfg.threshold)
    u = np.moveaxis(clip.u, 3, 1)  # (K, C, H, W)
    static = u.strides[0] == 0 and not cfg.shot_noise
    packed = np.empty((r_frames, channels, plane_bytes(h, w)), dtype=np.uint8)
    align = 8 // math.gcd(w, 8)  # rows a band grows by to keep whole bytes
    band = (h if cfg.shot_noise else
            max(align, _FIRE_TILE_SAMPLES // (channels * w) // align * align))
    for top in range(0, h, band):
        tile = u[:, :, top:top + band]
        acc = np.zeros(tile.shape[1:])
        drive, scratch = np.empty((2,) + acc.shape)
        fired, hit = np.empty((2,) + acc.shape, dtype=bool)
        first = top * w // 8
        if static:
            np.copyto(drive, tile[0])
        nonnegative = True  # no accumulator of the tile below zero
        for r in range(r_frames):
            for j in range(sub):
                k = r * sub + j
                if cfg.shot_noise:
                    try:
                        draw = rng.poisson(clip.u[k])
                    except ValueError:  # numpy's "lam value too large"
                        raise ValidationError("IrradianceClip.u: an integral is past the "
                                              "Poisson range") from None
                    np.copyto(drive, np.moveaxis(draw, 2, 0))
                elif not static:
                    np.copyto(drive, tile[k])
                acc += drive
                hits = hit if j else fired  # the first sub-step writes the latch
                if nonnegative and acc.max() < 2 * eta:
                    np.greater_equal(acc, eta, out=hits)
                    np.copyto(scratch, hits)  # cheaper than multiplying the bools
                    scratch *= eta
                    acc -= scratch
                else:
                    if not acc.max() / eta < math.inf:
                        raise ValidationError(f"SensorConfig.threshold: the irradiance is past "
                                              f"float64 in thresholds of {eta}")
                    n = np.floor_divide(acc, eta)
                    acc -= n * eta
                    np.greater(n, 0, out=hits)
                    nonnegative = not acc.min() < 0
                if j:
                    fired |= hit
            bits = np.packbits(fired.reshape(channels, -1), axis=-1, bitorder="little")
            packed[r, :, first:first + bits.shape[1]] = bits
    packed.setflags(write=False)
    return SpikeStream(height=h, width=w, channels=channels, frame_count=r_frames,
                       readout_rate_hz=int(cfg.readout_rate_hz), packed=packed)


def mosaic_sample(full: IrradianceClip) -> IrradianceClip:
    """Sample a full-resolution clip through the 2x2 macro-pixel layout.

    Output channel c takes, in every block, the pixel at MOSAIC_POSITIONS[c];
    the unused position is dropped. Shape becomes (K, H/2, W/2, 3). A
    static clip (stride-0 `u`) is sampled once and stays one plane.
    """
    if full.height % 2 or full.width % 2:
        raise ValidationError(
            f"IrradianceClip: mosaic sampling needs even dimensions, got "
            f"{full.height}x{full.width}")
    static = full.u.strides[0] == 0
    src = full.u[:1] if static else full.u
    out = np.stack([src[:, y::2, x::2, c if full.channels == 3 else 0]
                    for c, (y, x) in enumerate(MOSAIC_POSITIONS)], axis=-1)
    out.setflags(write=False)
    if static:
        out = np.broadcast_to(out, (full.micro_intervals,) + out.shape[1:])
    return IrradianceClip(u=out)
