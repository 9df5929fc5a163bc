import itertools
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import reference_simulate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modspike import (HdrImage, IrradianceClip, Motion, QuerySpec,
                      SensorConfig, ValidationError, ideal_window_counts,
                      integrate_and_fire, mosaic_sample, query_ideal, simulate,
                      synthesize_clip)


def _clip_from_planes(planes):
    """Stack (K, H, W) planes into a single-channel clip."""
    return IrradianceClip(u=np.asarray(planes, dtype=np.float32)[:, :, :, None])


def fire_oracle(drives, eta):
    """Scalar reference integrate-and-fire: per-interval true firing counts,
    reset by subtraction, same float64 operation order as the simulator."""
    acc = np.float64(0.0)
    counts = []
    for d in drives:
        acc = acc + np.float64(d)
        n = np.floor_divide(acc, np.float64(eta))
        acc = acc - n * np.float64(eta)
        counts.append(int(n))
    return counts


# --------------------------------------------------------- synthesize_clip

def test_static_scene_gives_equal_intervals():
    base = HdrImage(data=np.full((4, 4), 32.0, dtype=np.float32))
    cfg = SensorConfig(readout_rate_hz=10, total_time_s=1.0, micro_intervals=40)
    clip = synthesize_clip(base, Motion(), cfg)
    expected = np.float32(32.0 * 1.0 / 40)
    assert clip.u.shape == (40, 4, 4, 1)
    assert np.all(clip.u == expected)


def test_static_scene_intervals_sum_to_total_integral():
    base = HdrImage(data=np.full((3, 3), 8.0, dtype=np.float32))
    # T/K = 1/64 is exactly representable, so the telescoped sum is exact
    cfg = SensorConfig(readout_rate_hz=16, total_time_s=1.0, micro_intervals=64)
    clip = synthesize_clip(base, Motion(), cfg)
    total = clip.u.astype(np.float64).sum(axis=0)[:, :, 0]
    assert np.array_equal(total, np.full((3, 3), 8.0))


def test_translation_moves_edge_monotonically():
    h, w = 8, 40
    scene = np.full((h, w), 10.0, dtype=np.float32)
    scene[:, : w // 2] = 100.0  # bright left half, edge mid-image
    base = HdrImage(data=scene)
    cfg = SensorConfig(readout_rate_hz=10, total_time_s=1.0, micro_intervals=300)
    motion = Motion(translate_px=(3.0, 0.0))  # 1 px per 100 intervals
    clip = synthesize_clip(base, motion, cfg)

    def edge_pos(plane):
        profile = plane.mean(axis=0)
        mid = 0.5 * (profile.max() + profile.min())
        above = np.nonzero(profile >= mid)[0]
        return above.max()  # rightmost bright column

    positions = [edge_pos(clip.u[k, :, :, 0]) for k in range(clip.micro_intervals)]
    diffs = np.diff(positions)
    assert np.all(diffs >= 0)
    assert positions[-1] - positions[0] == 3


# ------------------------------------------------------- integrate_and_fire

def test_constant_pixel_emits_exact_quanta():
    # total drive = 10 quanta spread over K = R = 40 intervals (dyadic values)
    k = 40
    per_interval = 10.0 / k  # 0.25, exact in binary
    clip = _clip_from_planes(np.full((k, 2, 2), per_interval))
    cfg = SensorConfig(threshold=1.0, conversion_gain=1.0, readout_rate_hz=40,
                       total_time_s=1.0, micro_intervals=k)
    stream = integrate_and_fire(clip, cfg)
    counts = stream.bits().sum(axis=0)
    assert np.all(counts == 10)


def test_zero_irradiance_gives_all_zero_stream():
    clip = _clip_from_planes(np.zeros((20, 3, 3)))
    cfg = SensorConfig(readout_rate_hz=20, total_time_s=1.0, micro_intervals=20)
    stream = integrate_and_fire(clip, cfg)
    assert stream.bits().sum() == 0


def test_overdriven_pixel_collapses_to_one_bit_per_interval():
    # 2 quanta per readout interval: every interval fires twice but records
    # a single bit, so the recorded count underestimates by 2x
    r = 16
    clip = _clip_from_planes(np.full((r, 1, 1), 2.0))
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=r, total_time_s=1.0,
                       micro_intervals=r)
    stream = integrate_and_fire(clip, cfg)
    recorded = int(stream.bits().sum())
    true_fires = sum(fire_oracle([2.0] * r, 1.0))
    assert recorded == r
    assert true_fires == 2 * r
    assert recorded < true_fires


def test_quantum_conservation_against_oracle():
    rng = np.random.default_rng(42)
    k, h, w = 96, 5, 4
    # keep every micro-interval drive below threshold: no binary collapse
    u = rng.uniform(0.0, 0.9, size=(k, h, w)).astype(np.float32)
    clip = _clip_from_planes(u)
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=96, total_time_s=1.0,
                       micro_intervals=k)
    stream = integrate_and_fire(clip, cfg)
    counts = stream.bits().sum(axis=0)[:, :, 0]
    integrals = u.astype(np.float64).sum(axis=0)
    # eta/q * recorded spikes tracks the integral to within one quantum
    assert np.all(np.abs(counts * 1.0 - integrals) <= 1.0)
    # and the recorded bits equal the oracle's firing pattern exactly
    for i in range(h):
        for j in range(w):
            oracle = fire_oracle(u[:, i, j].astype(np.float64), 1.0)
            assert counts[i, j] == sum(1 for n in oracle if n > 0)


def test_recorded_never_exceeds_true_firings():
    rng = np.random.default_rng(9)
    r, sub = 12, 4
    k = r * sub
    u = rng.uniform(0.0, 1.5, size=(k, 3, 3)).astype(np.float32)
    clip = _clip_from_planes(u)
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=r, total_time_s=1.0,
                       micro_intervals=k)
    stream = integrate_and_fire(clip, cfg)
    bits = stream.bits()[:, :, :, 0]
    for i in range(3):
        for j in range(3):
            fires = fire_oracle(u[:, i, j].astype(np.float64), 1.0)
            per_readout = [sum(fires[t * sub:(t + 1) * sub]) for t in range(r)]
            recorded = bits[:, i, j]
            assert all(int(b) <= n for b, n in zip(recorded, per_readout))
            assert all(int(b) == (1 if n > 0 else 0)
                       for b, n in zip(recorded, per_readout))


def test_shot_noise_is_seed_deterministic():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.0, 2.0, size=(30, 4, 4)).astype(np.float32)
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=30, total_time_s=1.0,
                       micro_intervals=30, shot_noise=True, rng_seed=77)
    a = integrate_and_fire(_clip_from_planes(u), cfg)
    b = integrate_and_fire(_clip_from_planes(u), cfg)
    assert np.array_equal(a.packed, b.packed)
    c = integrate_and_fire(_clip_from_planes(u),
                           SensorConfig(threshold=1.0, readout_rate_hz=30,
                                        total_time_s=1.0, micro_intervals=30,
                                        shot_noise=True, rng_seed=78))
    assert not np.array_equal(a.packed, c.packed)


def test_reset_to_zero_discards_residual():
    # drive 1.5 quanta per interval: reset-to-zero throws away the surplus,
    # reset-by-subtraction banks it into an extra firing every 2 intervals
    k = 8
    clip = _clip_from_planes(np.full((k, 1, 1), 1.5))
    base = dict(threshold=1.0, readout_rate_hz=8, total_time_s=1.0,
                micro_intervals=k)
    keep = integrate_and_fire(clip, SensorConfig(**base))
    zero = integrate_and_fire(clip, SensorConfig(**base, reset_to_zero=True))
    assert keep.bits().sum() == zero.bits().sum() == k  # bits saturate anyway
    oracle_true = sum(fire_oracle([1.5] * k, 1.0))
    assert oracle_true == 12  # banked residuals fire extra


def test_spikes_fire_only_in_readouts_covering_the_drive():
    # readout r (0-based) latches micro-intervals [r*sub, (r+1)*sub): a drive
    # of one quantum per interval on [a, b) fires exactly the readouts whose
    # intervals overlap it, and the emptied accumulator fires no later
    k, r = 40, 10
    sub = k // r
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=r, total_time_s=1.0, micro_intervals=k)
    for a, b in ((0, 1), (3, 4), (3, 5), (4, 8), (7, 21), (13, 14), (39, 40), (0, 40)):
        u = np.zeros((k, 1, 1))
        u[a:b] = 1.0
        fired = integrate_and_fire(_clip_from_planes(u), cfg).bits()[:, 0, 0, 0]
        oracle = [int(a < (j + 1) * sub and j * sub < b) for j in range(r)]
        assert fired.tolist() == oracle


def test_micro_intervals_must_divide_readout():
    clip = _clip_from_planes(np.zeros((30, 2, 2)))
    cfg = SensorConfig(readout_rate_hz=4, total_time_s=1.0, micro_intervals=8)
    with pytest.raises(ValidationError, match="divisible"):
        integrate_and_fire(clip, cfg)


# ------------------------------------------------------------ mosaic_sample

def test_mosaic_uniform_scene_equal_channels():
    clip = _clip_from_planes(np.full((5, 4, 4), 3.0))
    out = mosaic_sample(clip)
    assert out.u.shape == (5, 2, 2, 3)
    assert np.all(out.u == np.float32(3.0))


def test_mosaic_selects_assigned_positions():
    block = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    clip = _clip_from_planes(block[None, :, :])
    out = mosaic_sample(clip)  # default: R at (0,0), G at (0,1), B at (1,0)
    assert out.u[0, 0, 0, 0] == 1.0
    assert out.u[0, 0, 0, 1] == 2.0
    assert out.u[0, 0, 0, 2] == 3.0


def test_mosaic_full_4x4_hand_selected():
    rng = np.random.default_rng(4)
    u = rng.uniform(0, 10, size=(3, 4, 4, 3)).astype(np.float32)
    out = mosaic_sample(IrradianceClip(u=u))  # R at (0,0), G at (0,1), B at (1,0)
    for bi in range(2):
        for bj in range(2):
            assert np.array_equal(out.u[:, bi, bj, 0], u[:, 2 * bi, 2 * bj, 0])
            assert np.array_equal(out.u[:, bi, bj, 1], u[:, 2 * bi, 2 * bj + 1, 1])
            assert np.array_equal(out.u[:, bi, bj, 2], u[:, 2 * bi + 1, 2 * bj, 2])


def test_mosaic_rejects_odd_dimensions():
    clip = _clip_from_planes(np.zeros((2, 3, 4)))
    with pytest.raises(ValidationError, match="even"):
        mosaic_sample(clip)


def test_irradiance_clip_rejects_negative_integrals():
    with pytest.raises(ValidationError, match="nonnegative"):
        IrradianceClip(u=np.full((2, 2, 2, 1), -1.0, dtype=np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("static", [False, True])
def test_irradiance_clip_rejects_nonfinite_integrals(bad, static):
    u = np.full((1 if static else 3, 2, 2, 1), 0.5, dtype=np.float32)
    u[-1, 1, 0, 0] = bad
    if static:
        u.setflags(write=False)
        u = np.broadcast_to(u, (3, 2, 2, 1))
    with pytest.raises(ValidationError, match="IrradianceClip.u: integrals must be finite"):
        IrradianceClip(u=u)


# ------------------------------------------------ parity with the reference

def _random_clip(seed, k, h, w, c, scale, static, decades=1):
    """Float32 clip with samples below `scale`, spread evenly over
    `decades` decades; `static` broadcasts one plane over k (a stride-0 `u`)."""
    rng = np.random.default_rng(seed)
    shape = (1 if static else k, h, w, c)
    u = rng.uniform(0, 1, shape) * 10.0 ** rng.integers(1 - decades, 1, shape) * scale
    u = u.astype(np.float32)
    if static:
        u.setflags(write=False)
        u = np.broadcast_to(u, (k, h, w, c))
    return IrradianceClip(u=u)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 12), sub=st.integers(1, 4),
       h=st.integers(1, 4), w=st.integers(1, 4), c=st.sampled_from([1, 3]),
       scale=st.sampled_from([0.5, 1.0, 1.9, 3.0, 40.0]),
       threshold=st.sampled_from([1.0, 0.3, 0.7, 0.05]),
       gain=st.sampled_from([1.0, 1.3, 0.1]),
       static=st.booleans(), shot_noise=st.booleans(), reset_to_zero=st.booleans())
# drives up to 40 thresholds per step: the floor_divide fallback runs
@example(seed=0, r=6, sub=2, h=2, w=3, c=3, scale=40.0, threshold=1.0, gain=1.0,
         static=True, shot_noise=False, reset_to_zero=False)
@example(seed=1, r=8, sub=3, h=3, w=2, c=1, scale=3.0, threshold=0.3, gain=1.3,
         static=False, shot_noise=True, reset_to_zero=False)
def test_integrate_and_fire_matches_reference(seed, r, sub, h, w, c, scale, threshold,
                                              gain, static, shot_noise, reset_to_zero):
    clip = _random_clip(seed, r * sub, h, w, c, scale * threshold / gain, static)
    cfg = SensorConfig(threshold=threshold, conversion_gain=gain, readout_rate_hz=r,
                       total_time_s=1.0, micro_intervals=r * sub, shot_noise=shot_noise,
                       rng_seed=seed, reset_to_zero=reset_to_zero)
    got = integrate_and_fire(clip, cfg)
    want = reference_simulate.integrate_and_fire(clip, cfg)
    assert got.packed.tobytes() == want.packed.tobytes()


def test_integrate_and_fire_matches_reference_after_negative_residual():
    # floor_divide's quotient for 5e16/0.3 overshoots, leaving the
    # accumulator at -8: the next steps must divide again (quotient -27)
    # rather than treat the pixel as below threshold
    eta = 0.3
    first = np.float64(np.float32(5e16))
    assert first - np.floor_divide(first, eta) * eta < 0
    k = 40
    u = np.full((k, 1, 2, 1), 0.25, dtype=np.float32)
    u[0, 0, 0, 0] = 5e16
    clip = IrradianceClip(u=u)
    cfg = SensorConfig(threshold=eta, readout_rate_hz=k, total_time_s=1.0,
                       micro_intervals=k)
    got = integrate_and_fire(clip, cfg)
    want = reference_simulate.integrate_and_fire(clip, cfg)
    assert got.packed.tobytes() == want.packed.tobytes()
    assert want.bits()[1:, 0, 0, 0].any()


def test_integrate_and_fire_nan_accumulator_matches_reference():
    # clips are finite, but a huge integral times a huge gain is an
    # infinite drive, and floor_divide turns that accumulator into NaN
    u = np.full((12, 2, 2, 1), 0.4, dtype=np.float32)
    u[3, 1, 1, 0] = 3e38
    clip = IrradianceClip(u=u)
    cfg = SensorConfig(threshold=1e300, conversion_gain=1e300, readout_rate_hz=12,
                       total_time_s=1.0, micro_intervals=12)
    with np.errstate(over="ignore", invalid="ignore"):
        got = integrate_and_fire(clip, cfg)
        want = reference_simulate.integrate_and_fire(clip, cfg)
    assert got.packed.tobytes() == want.packed.tobytes()
    assert not want.bits()[4:, 1, 1, 0].any() and want.bits()[2:, 0, 0, 0].any()


# ----------------------------------- integrate-and-fire over several tiles

def _fires_like_reference(clip, cfg):
    got = integrate_and_fire(clip, cfg)
    want = reference_simulate.integrate_and_fire(clip, cfg)
    assert got.packed.tobytes() == want.packed.tobytes()


# planes larger than one tile at the module's tile size: 211 x 101 x 3 runs
# as bands of 104, 104 and 3 rows (an odd width needs bands of 8 rows to
# fill whole bytes), 331 x 157 x 1 as 208 and 123; neither H*W is a
# multiple of 8, so the last byte of every plane is part-filled
@pytest.mark.parametrize("h, w, c", [(211, 101, 3), (331, 157, 1)])
@pytest.mark.parametrize("static, sub, reset_to_zero, shot_noise", [
    (True, 1, False, False), (False, 3, False, False), (True, 3, True, False),
    (False, 1, True, False), (True, 2, False, True), (False, 1, False, True)])
# drives below 0.9 thresholds keep every accumulator below 2 thresholds, so
# each step compares; below 1.9, nearly every band divides at every step
@pytest.mark.parametrize("scale", [0.9, 1.9])
def test_integrate_and_fire_matches_reference_over_several_tiles(h, w, c, static, sub,
                                                                 reset_to_zero, shot_noise,
                                                                 scale):
    assert h * w * c > 1.5 * simulate._FIRE_TILE_SAMPLES and h * w % 8
    r = 4
    clip = _random_clip(h + sub, r * sub, h, w, c, scale, static)
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=r, total_time_s=1.0,
                       micro_intervals=r * sub, shot_noise=shot_noise, rng_seed=h,
                       reset_to_zero=reset_to_zero)
    _fires_like_reference(clip, cfg)


def test_each_tile_switches_to_division_on_its_own():
    # only the bottom band's drives reach 40 thresholds: that band divides
    # at every step, the two bands above it compare at every step
    h, w, c, k = 211, 101, 3, 6
    u = np.full((1, h, w, c), 0.5, dtype=np.float32)
    u[:, -3:] = 40.0
    u.setflags(write=False)
    clip = IrradianceClip(u=np.broadcast_to(u, (k, h, w, c)))
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=k, total_time_s=1.0, micro_intervals=k)
    shapes, floor_divide = [], np.floor_divide

    def divide(acc, eta):
        shapes.append(acc.shape)
        return floor_divide(acc, eta)

    with mock.patch.object(np, "floor_divide", divide):
        got = integrate_and_fire(clip, cfg)
    assert shapes == [(c, 3, w)] * k
    assert got.packed.tobytes() == reference_simulate.integrate_and_fire(clip, cfg).packed.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), sub=st.integers(1, 3),
       h=st.integers(1, 19), w=st.integers(1, 19), c=st.sampled_from([1, 3]),
       tile=st.sampled_from([1, 8, 24, 100]),
       scale=st.sampled_from([0.5, 1.9, 40.0]), threshold=st.sampled_from([1.0, 0.3]),
       static=st.booleans(), shot_noise=st.booleans(), reset_to_zero=st.booleans())
def test_integrate_and_fire_matches_reference_over_small_tiles(seed, r, sub, h, w, c, tile,
                                                               scale, threshold, static,
                                                               shot_noise, reset_to_zero):
    # a small tile size makes bands of a few rows on planes of a few pixels
    clip = _random_clip(seed, r * sub, h, w, c, scale * threshold, static, decades=2)
    cfg = SensorConfig(threshold=threshold, readout_rate_hz=r, total_time_s=1.0,
                       micro_intervals=r * sub, shot_noise=shot_noise, rng_seed=seed,
                       reset_to_zero=reset_to_zero)
    with mock.patch.object(simulate, "_FIRE_TILE_SAMPLES", tile):
        _fires_like_reference(clip, cfg)


def test_integrate_and_fire_memory_is_the_packed_stream_and_a_few_tiles():
    # 200 readouts of a static 256^2 x 3 clip: one byte per bit would be
    # R*H*W*C = 39 MB; the packed stream is 4.9 MB, written as it is made
    # and kept without a copy, and each band of rows holds a few buffers
    # of at most _FIRE_TILE_SAMPLES float64 samples
    r = 200
    clip = _random_clip(0, r, 256, 256, 3, 1.5, static=True)
    cfg = SensorConfig(threshold=1.0, readout_rate_hz=r, total_time_s=1.0, micro_intervals=r)
    tracemalloc.start()
    try:
        stream = integrate_and_fire(clip, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = 2 ** 15 * 8
    assert peak < stream.packed.nbytes + 8 * tile, (peak, stream.packed.nbytes)
    assert simulate._FIRE_TILE_SAMPLES <= 2 ** 15


@pytest.mark.parametrize("shape", [(0, 4, 1), (4, 0, 3), (0, 0, 3)])
def test_integrate_and_fire_of_an_empty_plane(shape):
    cfg = SensorConfig(readout_rate_hz=5, total_time_s=1.0, micro_intervals=10)
    stream = integrate_and_fire(IrradianceClip(u=np.zeros((10,) + shape, np.float32)), cfg)
    assert stream.packed.shape == (5, shape[2], 0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       window_stride=st.integers(1, 64).flatmap(
           lambda window: st.tuples(st.just(window), st.integers(1, window))),
       h=st.integers(1, 4), w=st.integers(1, 4), c=st.sampled_from([1, 3]),
       extra=st.integers(0, 40), static=st.booleans(),
       gain=st.sampled_from([1.0, 15.0, 0.37, 1e6]))
# one-sample planes: numpy reduces such a window pairwise, not plane by plane
@example(seed=3, window_stride=(64, 17), h=1, w=1, c=1, extra=30, static=False, gain=15.0)
@example(seed=4, window_stride=(64, 64), h=1, w=1, c=1, extra=0, static=True, gain=15.0)
def test_ideal_window_counts_match_reference(seed, window_stride, h, w, c, extra, static,
                                             gain):
    window, stride = window_stride
    clip = _random_clip(seed, window + extra, h, w, c, 1e4, static, decades=12)
    spec = QuerySpec(window=window, stride=stride, digital_gain=gain)
    counts = np.floor(gain * reference_simulate.window_sums(clip, spec)).astype(np.int64)
    got = ideal_window_counts(clip, spec)
    assert got.dtype == np.int64
    assert np.array_equal(got, counts)
    seq = query_ideal(clip, spec, bit_depth=8)
    assert len(seq) == len(counts)
    for frame, count in zip(seq.frames, counts):
        assert np.array_equal(frame.data, np.mod(count, 256))


# one component: small, fractional, past the border of any test plane,
# or so large that the source coordinate leaves the int64 range
_MOTION_PX = st.one_of(st.floats(-3.0, 3.0), st.floats(-40.0, 40.0),
                       st.sampled_from([0.0, 1e6, -1e6, 1e300, -1e300]))


def _warp_threads(workers):
    """Patch the core count the warp sees; it still starts at most one
    thread per block."""
    return mock.patch.object(simulate, "_usable_cores", return_value=workers)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 9), w=st.integers(1, 9),
       c=st.sampled_from([1, 3]), k=st.integers(1, 40),
       dx=_MOTION_PX, dy=_MOTION_PX, rotate=st.floats(-800.0, 800.0),
       decades=st.integers(1, 34), zeros=st.booleans(),
       block_samples=st.sampled_from([None, 1, 9, 50]))
# shapes 1x1, 1xN and Nx1; K = 1
@example(seed=1, h=1, w=1, c=1, k=5, dx=0.7, dy=-0.2, rotate=30.0, decades=1, zeros=False,
         block_samples=None)
@example(seed=2, h=1, w=7, c=3, k=1, dx=2.5, dy=1.0, rotate=0.0, decades=4, zeros=True,
         block_samples=None)
@example(seed=3, h=6, w=1, c=1, k=9, dx=0.0, dy=3.5, rotate=-370.0, decades=34, zeros=False,
         block_samples=None)
# every coordinate out of range, in int64 and past it
@example(seed=4, h=5, w=4, c=3, k=7, dx=1e6, dy=-1e6, rotate=45.0, decades=34, zeros=True,
         block_samples=None)
@example(seed=5, h=4, w=6, c=1, k=6, dx=1e300, dy=-1e300, rotate=0.0, decades=8, zeros=False,
         block_samples=None)
# the same in small blocks: more blocks than threads, and fewer
@example(seed=1, h=1, w=1, c=1, k=5, dx=0.7, dy=-0.2, rotate=30.0, decades=1, zeros=False,
         block_samples=1)
@example(seed=2, h=1, w=7, c=3, k=1, dx=2.5, dy=1.0, rotate=0.0, decades=4, zeros=True,
         block_samples=9)
@example(seed=3, h=6, w=1, c=1, k=9, dx=0.0, dy=3.5, rotate=-370.0, decades=34, zeros=False,
         block_samples=50)
@example(seed=4, h=5, w=4, c=3, k=7, dx=1e6, dy=-1e6, rotate=45.0, decades=34, zeros=True,
         block_samples=9)
@example(seed=5, h=4, w=6, c=1, k=6, dx=1e300, dy=-1e300, rotate=0.0, decades=8, zeros=False,
         block_samples=50)
# 128^2 planes with the library's block size: the last block holds one plane
@example(seed=6, h=128, w=128, c=1, k=13, dx=2.0, dy=1.0, rotate=1.0, decades=4, zeros=False,
         block_samples=None)
def test_moving_clip_matches_reference(seed, h, w, c, k, dx, dy, rotate, decades, zeros,
                                       block_samples):
    rng = np.random.default_rng(seed)
    # up to 1e30, spread over `decades` decades; `zeros` adds -0.0 and 0.0
    data = rng.uniform(0, 1, (h, w, c)) * 10.0 ** rng.integers(31 - decades, 31, (h, w, c))
    if zeros:
        data[rng.uniform(size=data.shape) < 0.3] = -0.0
        data[rng.uniform(size=data.shape) < 0.1] = 0.0
    base = HdrImage(data=data.astype(np.float32))
    motion = Motion(translate_px=(dx, dy), rotate_deg=rotate)
    assume(not motion.is_identity)  # the static path broadcasts one plane, unwarped
    cfg = SensorConfig(readout_rate_hz=10, total_time_s=0.1, micro_intervals=k)
    samples = simulate._WARP_BLOCK_SAMPLES if block_samples is None else block_samples
    want = reference_simulate.synthesize_clip(base, motion, cfg)
    # the float64 warp matches too: the float32 store would hide most
    # changes to its rounding order
    want_planes = np.empty((k, h, w, c))
    for i in range(k):
        for j in range(c):
            want_planes[i, :, :, j] = np.maximum(reference_simulate._warp(
                base.values()[:, :, j], motion, i / (k - 1) if k > 1 else 0.0), 0.0)
    # the bytes do not depend on how many threads share the blocks
    for workers in (1, 2, 3):
        planes = np.empty((k, h, w, c))
        with mock.patch.object(simulate, "_WARP_BLOCK_SAMPLES", samples), _warp_threads(workers):
            got = synthesize_clip(base, motion, cfg)
            simulate._warp_clip(base.values(), motion, 1.0, planes)
        assert got.u.shape == want.u.shape
        assert got.u.tobytes() == want.u.tobytes(), workers
        assert planes.tobytes() == want_planes.tobytes(), workers


def _bounded(call, seconds=60):
    """Return `call()` run on a daemon thread, or raise its error; fail if
    it has not finished within `seconds`."""
    outcome = []

    def target():
        try:
            outcome.append((call(), None))
        except BaseException as exc:
            outcome.append((None, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


class _InjectedFault(Exception):
    pass


@pytest.mark.parametrize("in_worker", [False, True])
@pytest.mark.parametrize("nth", [1, 7, 40])
def test_a_failing_warp_thread_raises_and_returns_no_clip(in_worker, nth):
    # 40 one-plane blocks over two threads: each thread splits 40 axes. The
    # nth split in the calling thread or in the other one fails; the error
    # reaches the caller once both threads have stopped
    calls = itertools.count(1)
    source_axis = simulate._source_axis
    caller = []

    def failing(*args):
        if (threading.current_thread() is not caller[0]) == in_worker and next(calls) == nth:
            raise _InjectedFault(nth)
        return source_axis(*args)

    def warp():
        caller.append(threading.current_thread())
        return synthesize_clip(scene, Motion(translate_px=(1.0, 2.0), rotate_deg=3.0), cfg)

    cfg = SensorConfig(readout_rate_hz=10, total_time_s=0.1, micro_intervals=40)
    scene = HdrImage(data=np.ones((4, 4), np.float32))
    running = threading.active_count()
    with (mock.patch.object(simulate, "_source_axis", failing), _warp_threads(2),
          mock.patch.object(simulate, "_WARP_BLOCK_SAMPLES", 16)):
        with pytest.raises(_InjectedFault):
            _bounded(warp)
    assert threading.active_count() == running


def test_more_warp_threads_than_cores_switching_often_give_the_same_clip():
    # 64 one-plane blocks over 8 threads on any host, with the interpreter
    # switching threads as often as it can: every block is written once,
    # by the thread that owns it
    cfg = SensorConfig(readout_rate_hz=10, total_time_s=0.1, micro_intervals=64)
    scene = HdrImage(data=np.random.default_rng(7).uniform(0, 900, (8, 8, 3))
                     .astype(np.float32))
    motion = Motion(translate_px=(2.5, -1.5), rotate_deg=20.0)
    with mock.patch.object(simulate, "_WARP_BLOCK_SAMPLES", 64):
        with _warp_threads(1):
            want = synthesize_clip(scene, motion, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _warp_threads(8):
                got = _bounded(lambda: synthesize_clip(scene, motion, cfg))
        finally:
            sys.setswitchinterval(interval)
    assert got.u.tobytes() == want.u.tobytes()


def test_out_of_int64_coordinates_cast_quietly_in_every_thread():
    # numpy's error state is per thread, and a new thread starts from the
    # default: the cast of a floor past the int64 range must be silenced in
    # the thread that casts it
    cfg = SensorConfig(readout_rate_hz=10, total_time_s=0.1, micro_intervals=6)
    scene = HdrImage(data=np.arange(24, dtype=np.float32).reshape(4, 6))
    motion = Motion(translate_px=(1e300, -1e300))
    with (warnings.catch_warnings(), _warp_threads(2),
          mock.patch.object(simulate, "_WARP_BLOCK_SAMPLES", 24)):
        warnings.simplefilter("error")
        clip = synthesize_clip(scene, motion, cfg)
    assert clip.u.tobytes() == reference_simulate.synthesize_clip(scene, motion, cfg).u.tobytes()


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0, 3)])
def test_moving_clip_of_zero_size_scene(shape):
    cfg = SensorConfig(readout_rate_hz=5, total_time_s=1.0, micro_intervals=10)
    clip = synthesize_clip(HdrImage(data=np.zeros(shape, np.float32)),
                           Motion(translate_px=(1.0, 0.5), rotate_deg=3.0), cfg)
    assert clip.u.shape == (10,) + shape[:2] + (shape[2] if len(shape) == 3 else 1,)


@pytest.mark.parametrize("translate, rotate", [((1.7e308, 1.7e308), 45.0),
                                                ((1.7e308, -1.7e308), -45.0),
                                                ((-1.7e308, 1.7e308), 135.0)])
def test_overflowing_motion_is_rejected_by_name(translate, rotate):
    # finite components whose rotated translation overflows float64 in the
    # inverse map: the error names the motion, not the clip, and no
    # RuntimeWarning escapes on the way
    cfg = SensorConfig(readout_rate_hz=10, total_time_s=0.1, micro_intervals=5)
    scene = HdrImage(data=np.ones((4, 4), np.float32))
    with (warnings.catch_warnings(), _warp_threads(2),
          mock.patch.object(simulate, "_WARP_BLOCK_SAMPLES", 16)):
        warnings.simplefilter("error")
        # rejected before any thread starts warping
        with (mock.patch.object(simulate, "_source_axis", side_effect=AssertionError),
              pytest.raises(ValidationError, match=r"Motion\.translate_px")):
            synthesize_clip(scene, Motion(translate_px=translate, rotate_deg=rotate), cfg)
        # unrotated, the same translation maps finitely and still warps
        clip = synthesize_clip(scene, Motion(translate_px=translate), cfg)
    assert np.isfinite(clip.u).all()


def _warp_peak_above_clip(k, workers):
    scene = HdrImage(data=np.random.default_rng(0).uniform(0, 900, (256, 256))
                     .astype(np.float32))
    cfg = SensorConfig(readout_rate_hz=k, total_time_s=1.0, micro_intervals=k)
    tracemalloc.start()
    try:
        with _warp_threads(workers):
            clip = synthesize_clip(scene, Motion(translate_px=(3.0, -2.0), rotate_deg=5.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - clip.u.nbytes


@pytest.mark.parametrize("workers", [1, 2])
def test_warp_memory_does_not_grow_with_clip_length(workers):
    # each thread warps a block of planes at a time, in scratch it allocates
    # once: past the clip itself the memory is set by the thread count and
    # the plane size, not by K. A 256^2 plane is a block of its own, so a
    # thread holds six float64-sized scratch planes and the two gathers in
    # flight; the float64 scene and its padded copy are shared
    plane = 256 * 256 * 8
    bound = workers * 9 * plane + 2.1 * plane
    short, long = _warp_peak_above_clip(4, workers), _warp_peak_above_clip(32, workers)
    assert short <= bound and long <= bound, (short, long, bound)
    if workers == 1:
        assert long < short + plane // 2, (short, long)


# -------------------------------------------- IrradianceClip memory and ownership

def test_static_clip_and_mosaic_stay_one_plane():
    scene = HdrImage(data=np.random.default_rng(0).uniform(0, 900, (128, 128, 3))
                     .astype(np.float32))
    cfg = SensorConfig(threshold=0.05, readout_rate_hz=20000, total_time_s=0.05,
                       micro_intervals=1000)
    plane_bytes = 128 * 128 * 3 * 4
    tracemalloc.start()
    try:
        clip = synthesize_clip(scene, Motion(), cfg)
        mosaic = mosaic_sample(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full clip would be 1000 planes; float64 temporaries for the one plane
    # computed is 4 planes' worth
    assert peak < 6 * plane_bytes, peak
    for c in (clip, mosaic):
        assert c.u.strides[0] == 0
        assert not c.u.flags.writeable
    assert mosaic.u.shape == (1000, 64, 64, 3)
    one_plane = IrradianceClip(u=clip.u[:1].copy())
    assert one_plane.u.strides[0] != 0
    assert np.array_equal(mosaic.u[999], mosaic_sample(one_plane).u[0])


@pytest.mark.parametrize("motion", [Motion(), Motion(translate_px=(1.0, 0.5))])
def test_synthesized_and_mosaic_clips_are_read_only(motion):
    scene = HdrImage(data=np.full((4, 6, 3), 10.0, dtype=np.float32))
    cfg = SensorConfig(readout_rate_hz=5, total_time_s=1.0, micro_intervals=10)
    clip = synthesize_clip(scene, motion, cfg)
    for c in (clip, mosaic_sample(clip)):
        assert not c.u.flags.writeable
        with pytest.raises(ValueError):
            c.u[0, 0, 0, 0] = 1.0


def test_clip_keeps_a_fully_read_only_array_without_copying():
    u = np.ones((3, 2, 2, 1), dtype=np.float32)
    u.setflags(write=False)
    assert IrradianceClip(u=u).u is u
    strided = u[::2]  # a read-only view of read-only memory: no contiguity forced
    assert IrradianceClip(u=strided).u is strided


@pytest.mark.parametrize("make_view", [
    lambda a: a,
    lambda a: a.view(),
    lambda a: a[::2],
    lambda a: np.broadcast_to(a[:1], a.shape),
], ids=["array", "view", "strided", "broadcast"])
@pytest.mark.parametrize("read_only_view", [False, True])
def test_clip_does_not_follow_writes_to_the_callers_memory(make_view, read_only_view):
    caller = np.ones((4, 2, 2, 1), dtype=np.float32)
    given_u = make_view(caller)
    if read_only_view and given_u.flags.writeable:
        given_u = given_u.view()
        given_u.setflags(write=False)
    clip = IrradianceClip(u=given_u)
    assert not clip.u.flags.writeable
    caller[...] = 7.0
    assert np.all(clip.u == 1.0)


def test_clip_converts_other_dtypes_once_and_freezes():
    u = np.full((2, 2, 2, 1), 0.5)
    clip = IrradianceClip(u=u)
    assert clip.u.dtype == np.float32 and not clip.u.flags.writeable
    u[...] = 3.0
    assert np.all(clip.u == np.float32(0.5))


def test_broadcast_clip_rejects_negative_plane():
    plane = np.full((1, 2, 2, 1), -1.0, dtype=np.float32)
    plane.setflags(write=False)
    with pytest.raises(ValidationError, match="nonnegative"):
        IrradianceClip(u=np.broadcast_to(plane, (50, 2, 2, 1)))
