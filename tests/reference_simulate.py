"""Reference front end: the integrate-and-fire loop and windowed sums as
they ran before the simulator reused its buffers, and the moving-scene
synthesis as it ran on scipy.ndimage.

`integrate_and_fire` divides every accumulator by the threshold with
`np.floor_divide` at every micro-interval; `window_sums` reduces each
window of a float64 copy of the whole clip; `synthesize_clip` warps each
plane and channel with `ndimage.affine_transform`. The library must
reproduce all three bit for bit.
"""

import numpy as np
from scipy import ndimage

from modspike import (HdrImage, IrradianceClip, Motion, QuerySpec, SensorConfig,
                      SpikeStream, ValidationError)
from modspike.encoder import frame_capacity


def _warp(plane: np.ndarray, motion: Motion, frac: float) -> np.ndarray:
    """Bilinear global-affine warp of one channel plane by `frac` of the
    total motion; borders replicate the nearest sample."""
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
    """The moving-scene path only: one warp per micro-interval and channel."""
    k_total = cfg.micro_intervals
    dt = cfg.total_time_s / k_total
    base_arr = base.values()
    u = np.empty((k_total,) + base_arr.shape, dtype=np.float32)
    for k in range(k_total):
        frac = k / (k_total - 1) if k_total > 1 else 0.0
        for c in range(base_arr.shape[2]):
            warped = _warp(base_arr[:, :, c], motion, frac)
            u[k, :, :, c] = np.maximum(warped, 0.0) * dt
    u.setflags(write=False)
    return IrradianceClip(u=u)


def integrate_and_fire(clip: IrradianceClip, cfg: SensorConfig) -> SpikeStream:
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
    bits = np.zeros((r_frames,) + shape, dtype=np.uint8)
    for r in range(r_frames):
        fired = np.zeros(shape, dtype=bool)
        for j in range(sub):
            drive = q * clip.u[r * sub + j].astype(np.float64)
            if cfg.shot_noise:
                drive = rng.poisson(drive).astype(np.float64)
            acc += drive
            n = np.floor_divide(acc, eta)
            acc -= n * eta
            fired |= n > 0
        bits[r] = fired
    return SpikeStream.from_bits(bits, readout_rate_hz=int(round(cfg.readout_rate_hz)))


def window_sums(clip: IrradianceClip, spec: QuerySpec) -> np.ndarray:
    k_total = clip.micro_intervals
    if spec.window > k_total:
        raise ValidationError(
            f"QuerySpec.window: window {spec.window} exceeds clip micro-intervals {k_total}")
    count = frame_capacity(k_total, spec.window, spec.stride)
    u = clip.u.astype(np.float64)
    out = np.empty((count,) + u.shape[1:], dtype=np.float64)
    for i in range(count):
        start = i * spec.stride
        out[i] = u[start:start + spec.window].sum(axis=0)
    return out
