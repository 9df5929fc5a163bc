"""Reference front end: the integrate-and-fire loop and windowed sums as
they ran before the simulator reused its buffers.

`integrate_and_fire` divides every accumulator by the threshold with
`np.floor_divide` at every micro-interval; `window_sums` reduces each
window of a float64 copy of the whole clip. The library must reproduce
both bit for bit.
"""

import numpy as np

from modspike import IrradianceClip, QuerySpec, SensorConfig, SpikeStream, ValidationError
from modspike.encoder import frame_capacity


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
            if cfg.reset_to_zero:
                hit = acc >= eta
                acc[hit] = 0.0
                fired |= hit
            else:
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
