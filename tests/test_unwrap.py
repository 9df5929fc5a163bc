import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import reference_unwrap
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modspike
from modspike import (ChunkedEncoder, EncoderConfig, GradientField, ModuloFrame, divergence,
                      gradient, lar, unwrap_poisson)
from modspike import unwrap as unwrap_module


def wrap_frame(img, bit_depth=8):
    img = np.asarray(img)
    return ModuloFrame(data=np.mod(img, 1 << bit_depth).astype(np.uint16),
                       bit_depth=bit_depth)


def residuals(result):
    """(l_grad, l_lap): the consistency report of an `UnwrapResult`."""
    return result.l_grad, result.l_lap


def wrap_counts(result, frame):
    """The (H, W, C) int64 wrap counts (hdr - frame) / 2^N, after checking
    in exact integers that hdr - frame is a nonnegative multiple of 2^N: the
    zeroth-order residual is 0. Every count is below 2^47, so int64 holds
    the float32 `hdr` below 2^24 and the uint64 one past it exactly."""
    hdr = result.hdr.data.astype(np.int64)
    assert np.array_equal(hdr, result.hdr.data)  # whole counts, each held as it is
    diff = hdr - frame.data
    assert diff.min() >= 0 and not np.any(diff & (frame.modulus - 1))
    return diff >> frame.bit_depth


def centered_gradient_curl(frame):
    """(H-1, W-1, C) loop sums of the centered wrapped gradient around every
    plaquette; nonzero entries mean the measurement field is not integrable."""
    m = frame.modulus
    gf = gradient(frame.values())
    gx = lar(gf.gx, m)
    gy = lar(gf.gy, m)
    return gx[:-1, :-1] + gy[:-1, 1:] - gx[1:, :-1] - gy[:-1, :-1]


# ------------------------------------------------------------ unwrap_poisson

def test_unwrap_identity_when_nothing_wraps(scene_maker):
    rng = np.random.default_rng(0)
    img = scene_maker(rng, 24, 24, peak=200, max_step=40)
    frame = wrap_frame(img)
    result = unwrap_poisson(frame)
    assert np.all(wrap_counts(result, frame) == 0)
    assert np.array_equal(result.hdr.values()[:, :, 0], img)
    assert result.converged


def test_unwrap_12bit_horizontal_ramp():
    img = np.tile(8 * np.arange(512, dtype=np.int64), (4, 1))  # 0..4088
    frame = wrap_frame(img)
    result = unwrap_poisson(frame)
    assert np.array_equal(result.hdr.values()[:, :, 0], img)
    counts = wrap_counts(result, frame)
    assert result.converged
    assert counts.max() == 4088 // 256


def test_unwrap_gaussian_bump_recovers_all_bands():
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    bump = np.floor(1000.0 * np.exp(-((yy - 32.0) ** 2 + (xx - 32.0) ** 2)
                                    / (2 * 10.0 ** 2))).astype(np.int64)
    assert np.abs(np.diff(bump, axis=1)).max() < 128  # within half a period
    frame = wrap_frame(bump)
    result = unwrap_poisson(frame)
    assert np.array_equal(result.hdr.values()[:, :, 0], bump)
    counts = wrap_counts(result, frame)
    assert counts.max() == 3  # peak 1000 sits in the 4th band
    assert set(np.unique(counts)) == {0, 1, 2, 3}
    assert result.converged


def test_unwrap_exact_recovery_random_scenes(scene_maker):
    rng = np.random.default_rng(5)
    for trial in range(12):
        h = int(rng.integers(16, 48))
        w = int(rng.integers(16, 48))
        peak = float(rng.uniform(300, 4095))
        img = scene_maker(rng, h, w, peak=peak)
        result = unwrap_poisson(wrap_frame(img))
        assert np.array_equal(result.hdr.values()[:, :, 0], img)
        assert residuals(result) == (0.0, 0.0)
        assert result.converged


def test_unwrap_output_congruent_to_input(scene_maker):
    rng = np.random.default_rng(6)
    img = scene_maker(rng, 20, 28, peak=3000)
    frame = wrap_frame(img)
    result = unwrap_poisson(frame)
    diff = result.hdr.values() - frame.values()
    assert np.array_equal(np.mod(diff, 256), np.zeros_like(diff))
    counts = wrap_counts(result, frame)
    assert np.array_equal(result.hdr.values(), frame.values() + counts * 256.0)
    assert counts.min() >= 0


def test_unwrap_wrapped_gradient_fidelity(scene_maker):
    rng = np.random.default_rng(7)
    img = scene_maker(rng, 24, 24, peak=2500)
    frame = wrap_frame(img)
    result = unwrap_poisson(frame)
    gh = gradient(result.hdr.values())
    gm = gradient(frame.values())
    assert np.array_equal(lar(gh.gx, 256), lar(gm.gx, 256))
    assert np.array_equal(lar(gh.gy, 256), lar(gm.gy, 256))


def test_unwrap_flags_half_period_violations():
    rng = np.random.default_rng(8)
    img = rng.integers(0, 1000, size=(16, 16))  # steps far beyond 128
    frame = wrap_frame(img)
    assert np.any(np.abs(centered_gradient_curl(frame)) > 0)
    result = unwrap_poisson(frame)
    assert result.l_grad > 1e-3
    assert not result.converged


def test_unwrap_canonicalizes_scene_with_no_base_band_pixel(scene_maker):
    # every pixel wrapped at least once: congruence cannot tell the true
    # scene from its base-band representative, which is what comes back
    rng = np.random.default_rng(14)
    img = scene_maker(rng, 20, 20, peak=800) + 300  # min 300 >= 256
    result = unwrap_poisson(wrap_frame(img))
    assert np.array_equal(result.hdr.values()[:, :, 0], img - 256)
    assert result.converged  # self-consistent, just shifted by a period


def test_unwrap_multichannel_independent(scene_maker):
    rng = np.random.default_rng(9)
    planes = [scene_maker(rng, 20, 20, peak=p) for p in (500, 1500, 3000)]
    img = np.stack(planes, axis=-1)
    result = unwrap_poisson(wrap_frame(img))
    assert np.array_equal(result.hdr.values(), img.astype(np.float64))
    for c, plane in enumerate(planes):
        single = unwrap_poisson(wrap_frame(plane))
        assert np.array_equal(result.hdr.values()[:, :, c],
                              single.hdr.values()[:, :, 0])


def test_unwrap_degenerate_shapes():
    single = unwrap_poisson(wrap_frame(np.array([[300]])))
    assert single.hdr.values()[0, 0, 0] == 44.0  # congruence-blind base band
    assert single.converged
    row = np.arange(0, 640, 5)[None, :]  # 1 x 128 strip, wraps twice
    result = unwrap_poisson(wrap_frame(row))
    assert np.array_equal(result.hdr.values()[0, :, 0], row[0])
    assert result.converged


def test_unwrap_timing_512(scene_maker):
    import time
    rng = np.random.default_rng(10)
    img = scene_maker(rng, 512, 512, peak=4095)
    frame = wrap_frame(img)
    start = time.perf_counter()
    result = unwrap_poisson(frame)
    elapsed = time.perf_counter() - start
    assert np.array_equal(result.hdr.values()[:, :, 0], img)
    assert elapsed < 2.0


def test_offset_search_matches_exhaustive_scan():
    # the histogram/correlation shortcut must reproduce the literal
    # objective sum |lar(diff + c)| at every unit offset, on both code paths
    from modspike.unwrap import _offset_objective
    rng = np.random.default_rng(13)
    for modulus in (64, 4096):  # dense kernel path, then FFT path
        diff = rng.normal(scale=5 * modulus, size=(9, 7))
        got = _offset_objective(diff, modulus)
        scan = np.array([np.abs(lar(diff + c, modulus)).sum()
                         for c in range(modulus)])
        assert np.allclose(got, scan, rtol=0, atol=1e-6 * diff.size * modulus)
        assert got.argmin() == scan.argmin()


def test_floor_mod_equals_np_mod_bit_for_bit():
    # the snap's residues come from x - m*floor(x/m), not np.mod; every
    # value np.mod can see must give the same bits, signed zeros and the
    # negative subnormals whose quotient underflows to -0.0 included
    from modspike.unwrap import _floor_mod
    rng = np.random.default_rng(17)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                        np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny,
                        1e-20, -1e-20, 0.5, -0.5, 2.0 ** 70, -2.0 ** 70])
    # random magnitudes from the subnormals up to 2^70, both signs
    spread = np.ldexp(rng.uniform(0.5, 1.0, 4000), rng.integers(-1074, 71, 4000))
    spread *= rng.choice([-1.0, 1.0], spread.size)
    for bits in range(1, 17):
        modulus = 1 << bits
        multiples = modulus * np.concatenate([np.arange(-4.0, 5.0), [1e3, -1e3],
                                              np.ldexp(1.0, np.arange(10, 71 - bits, 10)),
                                              -np.ldexp(1.0, np.arange(10, 71 - bits, 10))])
        sides = [multiples, np.nextafter(multiples, np.inf), np.nextafter(multiples, -np.inf),
                 multiples + 0.5, multiples - 0.5, multiples + modulus / 2]
        x = np.concatenate([special, spread] + sides)
        got = _floor_mod(x, modulus)
        assert np.array_equal(got.view(np.int64), np.mod(x, modulus).view(np.int64)), modulus


def test_snap_rounds_ties_away_from_zero_like_the_reference():
    # a fifth of the pixels sit exactly halfway between two wrap counts, on
    # both sides of zero: the channel-batched snap rounds them away from
    # zero, as the per-channel float reference does
    from modspike.unwrap import _snap
    modulus = 256
    rng = np.random.default_rng(23)
    obs = rng.integers(0, modulus, size=(3, 9, 11)).astype(np.int32)
    halves = 0.5 * (rng.uniform(size=obs.shape) < 0.2)
    estimate = obs + modulus * (rng.integers(-5, 6, size=obs.shape) + halves)
    want = np.stack([reference_unwrap.snap_channel(estimate[c], obs[c], modulus)
                     for c in range(3)])
    got = _snap(estimate.copy(), obs, modulus)
    assert got.dtype == np.int32 and np.array_equal(got, want)


@pytest.mark.parametrize("curl, bound", [(False, 1.25e6), (True, 1.9e6)],
                         ids=["integrated", "solved"])
def test_poisson_decoder_warm_memory_peak(scene_maker, curl, bound):
    # a 160^2 x 3 8-bit frame without provenance, as `modspike unwrap`
    # reads it from MODQ: past the first call (caches built), the decoder
    # peaks at 1.08 MB when the frame is integrated and at 1.54 MB when one
    # plaquette of curl sends it through the cosine-basis solve. One more
    # float64 raster of the frame (0.61 MB) kept alive through the report
    # fails either bound
    rng = np.random.default_rng(21)
    img = np.stack([scene_maker(rng, 160, 160, peak=4095) for _ in range(3)], axis=2)
    frame = wrap_frame(img)
    if curl:
        frame = with_one_curl_plaquette(frame)
        img = reference_unwrap.unwrap_poisson(frame).hdr.values()
    unwrap_poisson(frame)
    tracemalloc.start()
    try:
        result = unwrap_poisson(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.decoder == "poisson" and np.array_equal(result.hdr.values(), img)
    assert wrap_counts(result, frame).shape == img.shape
    assert peak <= bound, peak


def test_unwrap_returns_counts_float32_cannot_hold():
    # a 16-bit strip climbing past 2^24 counts unwraps exactly, and hdr
    # holds every count as it is: float32 would round 270 of them off the
    # frame's residue class
    img = 30011 * np.arange(1100, dtype=np.int64)[None, :]  # peak ~3.3e7
    frame = wrap_frame(img, bit_depth=16)
    result = unwrap_poisson(frame)
    assert np.count_nonzero((img[0].astype(np.float32).astype(np.int64) - img[0]) % 65536) == 270
    assert np.array_equal(wrap_counts(result, frame)[0, :, 0], img[0] // 65536)
    assert result.hdr.data.dtype == np.uint64
    assert np.array_equal(result.hdr.data[0, :, 0].astype(np.int64), img[0])
    assert residuals(result) == (0.0, 0.0)
    assert result.converged


def test_16_bit_ramp_past_2_24_returns_every_sample():
    # float32 rounded 19 of these 600 samples, l_mod read 0.032 and the
    # frame did not converge, although every wrap count was right
    img = np.linspace(0, 17_970_600, 600).astype(np.int64)[None, :]
    frame = wrap_frame(img, bit_depth=16)
    result = unwrap_poisson(frame)
    assert np.count_nonzero(img.astype(np.float32).astype(np.int64) != img) == 19
    assert np.count_nonzero(result.hdr.data[:, :, 0].astype(np.int64) != img) == 0
    wrap_counts(result, frame)
    assert result.converged


def _parity_scene(seed, bit_depth, shape, channels, smooth):
    """Integer scene below 2^24 counts: a separable sum of random walks
    with steps within a quarter period, or uniform noise far beyond it."""
    rng = np.random.default_rng(seed)
    modulus = 1 << bit_depth
    h, w = shape
    if not smooth:
        return rng.integers(0, min(2 ** 24, 64 * modulus), size=(h, w, channels))
    step = modulus // 4
    rows = np.cumsum(rng.integers(-step, step + 1, size=(h, 1, channels)), axis=0)
    cols = np.cumsum(rng.integers(-step, step + 1, size=(1, w, channels)), axis=1)
    img = rows + cols
    return np.minimum(img - img.min(axis=(0, 1), keepdims=True), 2 ** 24 - 1)


def _climbing_scene(seed, bit_depth, shape, channels):
    """Integer scene with no 2^24 clamp: a separable sum of walks that rise
    by a quarter to half a period every step, so a long 16-bit strip climbs
    past 2^24 counts with no curl."""
    rng = np.random.default_rng(seed)
    modulus = 1 << bit_depth
    h, w = shape
    steps = (modulus // 4, modulus // 2)
    return (np.cumsum(rng.integers(*steps, size=(h, 1, channels)), axis=0)
            + np.cumsum(rng.integers(*steps, size=(1, w, channels)), axis=1))


_sides = st.integers(2, 40)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       bit_depth=st.integers(1, 16),
       shape=st.one_of(st.just((1, 1)), st.tuples(st.just(1), _sides),
                       st.tuples(_sides, st.just(1)), st.tuples(_sides, _sides)),
       channels=st.sampled_from([1, 3]),
       smooth=st.booleans())
@example(seed=1, bit_depth=11, shape=(17, 23), channels=3, smooth=True)  # curl-free: integrated
@example(seed=2, bit_depth=11, shape=(9, 31), channels=1, smooth=False)
@example(seed=3, bit_depth=12, shape=(23, 17), channels=3, smooth=True)  # curl-free: integrated
@example(seed=7, bit_depth=11, shape=(17, 23), channels=3, smooth=False)  # curl: dense offset search
@example(seed=8, bit_depth=12, shape=(23, 17), channels=3, smooth=False)  # curl: FFT offset search
@example(seed=4, bit_depth=12, shape=(1, 40), channels=1, smooth=False)
@example(seed=5, bit_depth=16, shape=(40, 1), channels=3, smooth=True)
@example(seed=6, bit_depth=1, shape=(1, 1), channels=1, smooth=True)
# seven offsets tie exactly: an FFT-only offset search picks 19, not the first, 12
@example(seed=500, bit_depth=7, shape=(2, 7), channels=1, smooth=False)
def test_unwrap_matches_float_reference(seed, bit_depth, shape, channels, smooth):
    img = _parity_scene(seed, bit_depth, shape, channels, smooth)
    frame = wrap_frame(img, bit_depth)
    want = reference_unwrap.unwrap_poisson(frame)
    got = unwrap_poisson(frame)
    assert got.hdr.data.tobytes() == want.hdr.data.tobytes()
    assert np.array_equal(wrap_counts(got, frame), want.rollover_map)
    assert want.l_mod == 0.0 and residuals(got) == residuals(want)
    assert got.converged == want.converged


@pytest.fixture
def solver_calls(monkeypatch):
    """Steps of the Poisson decoder in the order they run: "solve" for the
    cosine-basis solve, "objective" for each plane's offset objective, and
    "circulant" for each fetch of the circulant matrices, which only the
    dense objective makes (the FFT objective does without)."""
    calls = []
    for name, label in (("_cosine_solve", "solve"), ("_offset_objective", "objective"),
                        ("_offset_matrices", "circulant")):
        def spy(*args, _real=getattr(unwrap_module, name), _label=label):
            calls.append(_label)
            return _real(*args)
        monkeypatch.setattr(unwrap_module, name, spy)
    return calls


def assert_matches_float_reference(frame):
    """Every `UnwrapResult` field equals the float reference's, and `hdr`
    is frame + 2^N times the reference's wrap counts exactly. The reference
    rounds its `hdr` to float32, so the two `hdr`s are compared byte for
    byte only below 2^24 counts. Returns the library's result."""
    want = reference_unwrap.unwrap_poisson(frame)
    got = unwrap_poisson(frame)
    if got.hdr.data.max() < 2 ** 24:
        assert got.hdr.data.tobytes() == want.hdr.data.tobytes()
    assert np.array_equal(wrap_counts(got, frame), want.rollover_map)
    assert got.decoder == want.decoder == "poisson"
    assert want.l_mod == 0.0 and residuals(got) == residuals(want)
    assert got.converged == want.converged == (residuals(got) == (0.0, 0.0))
    return got


def with_one_curl_plaquette(frame):
    """`frame` with the top-left sample of its last channel recoded so that
    the one plaquette that sample touches carries curl, or None when no code
    does that (its two neighbours hold the same code)."""
    m = frame.modulus
    data = frame.data.astype(np.int64)
    right, below = data[0, 1, -1], data[1, 0, -1]
    codes = np.arange(m)
    loop = lar(right - codes, m) - lar(below - codes, m)  # the curl's terms that hold it
    curled = np.flatnonzero(loop != loop[data[0, 0, -1]])
    if not curled.size:
        return None
    data[0, 0, -1] = curled[0]
    return ModuloFrame(data.astype(np.uint16), frame.bit_depth)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       bit_depth=st.integers(1, 16),
       shape=st.one_of(st.just((1, 1)), st.tuples(st.just(1), _sides),
                       st.tuples(_sides, st.just(1)), st.tuples(_sides, _sides)),
       channels=st.sampled_from([1, 3]))
@example(seed=0, bit_depth=1, shape=(1, 1), channels=1)
@example(seed=1, bit_depth=8, shape=(1, 40), channels=3)
@example(seed=2, bit_depth=16, shape=(40, 1), channels=1)
@example(seed=3, bit_depth=11, shape=(17, 23), channels=3)
@example(seed=4, bit_depth=12, shape=(40, 40), channels=3)
def test_curl_free_frames_match_the_float_reference(seed, bit_depth, shape, channels):
    # a wrap field with no curl has one integral; whatever way the decoder
    # computes it, every field of the result is the solve-and-snap answer
    frame = wrap_frame(_parity_scene(seed, bit_depth, shape, channels, smooth=True), bit_depth)
    assert not np.any(centered_gradient_curl(frame))
    assert_matches_float_reference(frame)


@pytest.mark.parametrize("shape, channels", [((1, 1100), 1), ((1100, 1), 3), ((3, 900), 3)])
def test_curl_free_frames_past_2_24_match_the_float_reference(shape, channels):
    # 16-bit steps just under half a period climb past 2^24 counts, which
    # hdr holds exactly where the reference's float32 rounds them
    img = _climbing_scene(41, 16, shape, channels)
    assert img.max() >= 2 ** 24
    frame = wrap_frame(img, bit_depth=16)
    assert not np.any(centered_gradient_curl(frame))
    got = assert_matches_float_reference(frame)
    assert got.hdr.data.dtype == np.uint64
    assert np.array_equal(got.hdr.data.astype(np.int64), img)


def test_a_count_of_2_24_plus_1_is_returned_exactly():
    # a 1701^2 raised-cosine product peaking at 2^24 + 1, which float32
    # would round to 2^24, off the frame's residue class: one sample in 2.9
    # million, which used to clear converged with l_mod = 1/n = 3.5e-7
    n = 1701
    b = (1 - np.cos(2 * np.pi * np.arange(n) / (n - 1))) / 2
    v = np.floor((2 ** 24 + 1) * np.outer(b, b)).astype(np.int64)[:, :, None]
    assert v.max() == 2 ** 24 + 1
    frame = wrap_frame(v, bit_depth=16)
    result = unwrap_poisson(frame)
    assert result.decoder == "poisson"
    assert np.array_equal(wrap_counts(result, frame), v >> 16)
    assert result.hdr.data.dtype == np.uint64
    assert np.array_equal(result.hdr.data.astype(np.int64), v)
    assert residuals(result) == (0.0, 0.0)
    assert result.converged


_strips = st.integers(2, 1100)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       bit_depth=st.integers(1, 16),
       shape=st.one_of(st.just((1, 1)), st.tuples(st.just(1), _strips),
                       st.tuples(_strips, st.just(1)), st.tuples(_sides, _sides)),
       channels=st.sampled_from([1, 3]),
       scene=st.sampled_from(["noise", "walk", "climb"]))
@example(seed=41, bit_depth=16, shape=(1, 1100), channels=1, scene="climb")  # past 2^24
@example(seed=41, bit_depth=16, shape=(1100, 1), channels=3, scene="climb")  # past 2^24
@example(seed=41, bit_depth=16, shape=(40, 40), channels=3, scene="noise")  # curl: solved
@example(seed=6, bit_depth=1, shape=(1, 1), channels=1, scene="walk")
def test_hdr_is_the_frame_plus_its_wraps_at_any_count(seed, bit_depth, shape, channels, scene):
    # hdr = frame + 2^N * wraps holds exactly whatever the decode, right or
    # wrong, so the zeroth-order residual is 0 on every frame
    img = (_climbing_scene(seed, bit_depth, shape, channels) if scene == "climb"
           else _parity_scene(seed, bit_depth, shape, channels, smooth=scene == "walk"))
    frame = wrap_frame(img, bit_depth)
    got = unwrap_poisson(frame)
    wrap_counts(got, frame)
    assert got.hdr.data.dtype == (np.uint64 if got.hdr.data.max() >= 2 ** 24 else np.float32)


@pytest.mark.parametrize("channels", [1, 3])
def test_straight_edge_is_curl_free_and_matches_the_float_reference(channels):
    # README's scene 200 + 800*[x >= 32] + 3y breaks the half-period
    # condition along a straight edge and leaves no curl: the decode
    # converges while half the pixels are off by a period
    yy, xx = np.mgrid[0:64, 0:64]
    img = np.repeat((200 + 800 * (xx >= 32) + 3 * yy)[:, :, None], channels, axis=2)
    frame = wrap_frame(img)
    assert not np.any(centered_gradient_curl(frame))
    got = assert_matches_float_reference(frame)
    assert got.converged
    assert np.count_nonzero(got.hdr.values() != img) == img.size // 2


# every power of two up to 300, one either side of it, and 300
_SCAN_HEIGHTS = sorted({h for k in range(9) for h in (2 ** k - 1, 2 ** k, 2 ** k + 1)} - {0}
                       | {300})


def assert_scan_is_cumsum(seed, height, width, channels, dtype):
    from modspike.unwrap import _scan_rows
    field = np.random.default_rng(seed).integers(-1, 2, size=(height, width, channels),
                                                 dtype=np.int8)
    got = _scan_rows(field.astype(dtype))
    assert got.dtype == dtype and got.shape == field.shape
    assert np.array_equal(got, np.cumsum(field, axis=0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), height=st.integers(1, 300),
       width=st.integers(1, 12), channels=st.sampled_from([1, 3]),
       dtype=st.sampled_from([np.int16, np.int32]))
def test_doubling_scan_equals_cumsum_down_the_rows(seed, height, width, channels, dtype):
    # wrap indicators are -1, 0 or 1, so no partial sum leaves the scan's type
    assert_scan_is_cumsum(seed, height, width, channels, dtype)


@pytest.mark.parametrize("height", _SCAN_HEIGHTS)
def test_doubling_scan_at_every_power_of_two_height(height):
    # the steps double up to the last power of two below the height; one row
    # more or less moves the last step's reach across the end
    for channels, width in ((1, 1), (3, 5)):
        assert_scan_is_cumsum(height, height, width, channels, np.int16)


@pytest.mark.parametrize("width, dtype", [(2 ** 15, "int16"), (2 ** 15 + 1, "int32")])
def test_integral_is_int16_while_every_partial_sum_fits(width, dtype, monkeypatch):
    # |P| <= H + W - 2 for indicators of -1, 0 or 1: a 1 x 32768 frame is
    # scanned in int16, one pixel wider in int32. Steps of 127 down an 8-bit
    # ramp wrap on every other pixel, so P climbs to ~W/2.
    scans = []

    def spy(a, _real=unwrap_module._scan_rows):
        scans.append(a.dtype.name)
        return _real(a)

    monkeypatch.setattr(unwrap_module, "_scan_rows", spy)
    frame = wrap_frame(127 * np.arange(width - 1, -1, -1)[None, :, None])
    got = assert_matches_float_reference(frame)
    assert scans == [dtype] and got.converged
    assert wrap_counts(got, frame).max() == 127 * (width - 1) // 256


def test_integrated_frame_is_decoded_in_its_own_layout(scene_maker, monkeypatch):
    # every kernel of an integrated frame works on C-contiguous arrays of the
    # frame's (H, W, C) shape, and no transposing copy or `np.stack` runs; a
    # frame with curl makes its channel-first copies for the solve and stacks
    # its wrap counts back channels-last once
    seen, numpy_calls = [], []
    for name in ("_forward_differences", "_divergence", "_lar_pow2", "_difference",
                 "_integrate_wraps", "_scan_rows"):
        def spy(*args, _real=getattr(unwrap_module, name), _name=name, **kwargs):
            seen.append((_name, {(a.shape, a.flags.c_contiguous)
                                 for a in args if isinstance(a, np.ndarray)}))
            return _real(*args, **kwargs)
        monkeypatch.setattr(unwrap_module, name, spy)

    class Numpy:
        def __getattr__(self, name):
            if name in ("transpose", "moveaxis", "swapaxes", "rollaxis", "ascontiguousarray",
                        "asfortranarray", "einsum", "stack"):
                numpy_calls.append(name)
            return getattr(np, name)

    monkeypatch.setattr(unwrap_module, "np", Numpy())
    rng = np.random.default_rng(34)
    frame = wrap_frame(np.stack([scene_maker(rng, 24, 20, peak=4095) for _ in range(3)], 2))
    result = unwrap_poisson(frame)
    assert result.decoder == "poisson"
    names = [name for name, _ in seen]
    assert "_integrate_wraps" in names and "_scan_rows" in names
    assert numpy_calls == []
    assert all(arrays == {((24, 20, 3), True)} for _, arrays in seen)
    unwrap_poisson(with_one_curl_plaquette(frame))
    assert numpy_calls.count("stack") == 1


@pytest.mark.parametrize("bit_depth", [2, 8, 11, 12, 16])
@pytest.mark.parametrize("shape, channels", [((2, 2), 1), ((9, 13), 3)])
def test_one_plaquette_of_curl_takes_the_solve(bit_depth, shape, channels, solver_calls):
    candidates = (with_one_curl_plaquette(wrap_frame(
        _parity_scene(seed, bit_depth, shape, channels, smooth=True), bit_depth))
        for seed in range(20))
    frame = next(f for f in candidates if f is not None)
    assert np.count_nonzero(centered_gradient_curl(frame)) == 1
    assert_matches_float_reference(frame)
    assert solver_calls.count("solve") == 1


@pytest.mark.parametrize("bit_depth, search", [(11, ["objective", "circulant"]),
                                               (12, ["objective"])])
def test_offset_search_runs_only_on_frames_with_curl(bit_depth, search, solver_calls):
    # a frame with curl takes the cosine-basis solve and one offset search
    # per channel: the dense circulant objective up to 2^11, the FFT one
    # above; a curl-free frame is integrated and runs neither
    noise = wrap_frame(_parity_scene(7, bit_depth, (17, 23), 3, smooth=False), bit_depth)
    assert np.any(centered_gradient_curl(noise))
    unwrap_poisson(noise)
    assert solver_calls == ["solve"] + 3 * search
    solver_calls.clear()
    smooth = wrap_frame(_parity_scene(7, bit_depth, (17, 23), 3, smooth=True), bit_depth)
    assert unwrap_poisson(smooth).decoder == "poisson"
    assert solver_calls == []


def run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports this modspike."""
    src = str(Path(modspike.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip()


def test_offset_matrices_built_lazily_and_read_only():
    from modspike.unwrap import _offset_matrices
    assert run_fresh("import modspike, modspike.unwrap as u; "
                     "print(u._offset_matrices.cache_info().currsize, "
                     "u._lattice_table.cache_info().currsize)") == "0 0"
    for matrix in _offset_matrices(256):
        assert matrix.shape == (256, 256)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


def test_cached_offset_objective_equals_per_call_gathers():
    from modspike.unwrap import _offset_objective
    rng = np.random.default_rng(15)
    for bit_depth in range(1, 12):
        modulus = 1 << bit_depth
        diff = rng.normal(scale=5 * modulus, size=(11, 13))
        assert np.array_equal(_offset_objective(diff, modulus),
                              reference_unwrap.offset_objective(diff, modulus))


def test_import_modspike_leaves_scipy_unloaded():
    # scipy.fft serves only poisson_solve, and the library never imports
    # scipy.ndimage; `modspike encode` needs neither
    assert run_fresh("import sys, modspike, modspike.cli; "
                     "print(sorted(m for m in ('scipy.fft', 'scipy.ndimage') "
                     "if m in sys.modules))") == "[]"


def test_only_frames_with_curl_load_scipy_fft(tmp_path):
    # a curl-free frame is integrated without the cosine-basis solve, both
    # through the library and through `modspike unwrap` of a MODQ file;
    # the first frame with curl imports scipy.fft for its solve
    code = ("import contextlib, io, sys, numpy as np, modspike as ms, modspike.cli\n"
            "def loaded():\n"
            "    return 'scipy.fft' in sys.modules\n"
            "ramps = np.add.outer(40 * np.arange(30), 30 * np.arange(20))\n"
            "smooth = ms.ModuloFrame(np.mod(ramps, 256).astype(np.uint16)[:, :, None], 8)\n"
            "ms.unwrap_poisson(smooth)\n"
            "library = loaded()\n"
            f"path = {str(tmp_path / 'smooth.modq')!r}\n"
            "ms.write_modulo(path, ms.ModuloSequence((smooth, smooth), 25, 20, 15.0))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    modspike.cli.main(['unwrap', '--in', path, '--out-dir', {str(tmp_path)!r}])\n"
            "cli = loaded()\n"
            "noise = np.random.default_rng(0).integers(0, 256, (16, 16, 1)).astype(np.uint16)\n"
            "ms.unwrap_poisson(ms.ModuloFrame(noise, 8))\n"
            "print(library, cli, loaded())")
    assert run_fresh(code) == "False False True"


def test_moving_capture_pass_loads_no_scipy(tmp_path):
    # motion warps and SSIM are numpy-only, and encoder-counted frames
    # decode on the count lattice without a Poisson solve
    code = ("import contextlib, io, sys, modspike.cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    modspike.cli.main(['pipeline', '--out-dir', {str(tmp_path)!r}, "
            "'--height', '24', '--width', '24', '--motion', 'translate:2,1+rotate:3'])\n"
            "print('frame_0_ssim_linear=' in out.getvalue(), "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code) == "True []"


def test_noise_free_capture_leaves_numpy_random_unloaded():
    # only shot noise draws from a generator, and building the first one
    # imports numpy.random, about 6 MiB of resident memory and 13-18 ms in a
    # fresh interpreter on a 2-core x86-64 host
    code = ("import sys, numpy as np, modspike as ms\n"
            "clip = ms.IrradianceClip(u=np.full((4, 8, 8, 3), 0.5, np.float32))\n"
            "for noise in (False, True):\n"
            "    ms.integrate_and_fire(clip, ms.SensorConfig(readout_rate_hz=4, total_time_s=1.0, "
            "micro_intervals=4, shot_noise=noise))\n"
            "    print('numpy.random' in sys.modules)")
    assert run_fresh(code).split() == ["False", "True"]


# ------------------------------------------------------------ lattice decoder

def recount(bits, cfg):
    """floor(gain * count) of every window, recounted from scratch."""
    return [np.floor(cfg.gain * bits[j:j + cfg.window].sum(axis=0, dtype=np.int64))
            for j in range(0, len(bits) - cfg.window + 1, cfg.stride)]


def lattice_decodes(cfg):
    """Whether codes identify values: distinct codes for every count, and
    values below 2^(31+N), the range of the Poisson decoder's int32 wrap
    counts."""
    values = np.floor(cfg.gain * np.arange(cfg.window + 1, dtype=np.float64))
    return (values[-1] < 2.0 ** (31 + cfg.bit_depth)
            and np.unique(np.mod(values, cfg.modulus)).size == values.size)


def assert_same_result(got, want, frame):
    assert got.hdr.data.tobytes() == want.hdr.data.tobytes()
    assert np.array_equal(wrap_counts(got, frame), wrap_counts(want, frame))
    assert residuals(got) == residuals(want)
    assert got.converged == want.converged and got.decoder == want.decoder


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), window=st.integers(1, 300), data=st.data(),
       bit_depth=st.integers(1, 16), channels=st.sampled_from([1, 3]),
       gain=st.one_of(st.sampled_from([15.0, 160.0, 16.0, 0.1, 1e300, 1.0]),
                      st.floats(0.5, 5000.0)))
@example(seed=0, window=25, data=None, bit_depth=8, channels=3, gain=15.0)  # capture_static
@example(seed=1, window=50, data=None, bit_depth=12, channels=1, gain=160.0)  # capture_motion
@example(seed=2, window=25, data=None, bit_depth=8, channels=1, gain=16.0)  # 16c: not injective
@example(seed=3, window=300, data=None, bit_depth=16, channels=1, gain=0.1)
@example(seed=4, window=300, data=None, bit_depth=16, channels=1, gain=1e300)
@example(seed=5, window=1, data=None, bit_depth=1, channels=1, gain=1.0)
@example(seed=6, window=3, data=None, bit_depth=8, channels=1, gain=2.0 ** 30 + 1)  # > 2^24
@example(seed=7, window=200, data=None, bit_depth=16, channels=1, gain=2.0 ** 40 + 1)  # > 2^47
def test_lattice_decode_matches_recount(seed, window, data, bit_depth, channels, gain):
    rng = np.random.default_rng(seed)
    if data is None:  # explicit examples: fixed geometry and stride
        stride, (h, w), extra = max(1, window * 4 // 5), (6, 5), 2
    else:
        stride = data.draw(st.integers(1, window))
        h, w = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        extra = data.draw(st.integers(0, 2))
    cfg = EncoderConfig(window=window, stride=stride, gain=gain, bit_depth=bit_depth)
    # a random, non-smooth count field: each pixel fires at its own density
    density = rng.uniform(0.0, 1.0, size=(h, w, channels))
    bits = (rng.uniform(size=(window + extra * stride, h, w, channels)) < density)
    bits = bits.astype(np.uint8)
    frames = ChunkedEncoder(h, w, channels, cfg).push(bits)
    wants = recount(bits, cfg)
    assert len(frames) == len(wants) == extra + 1
    for frame, want in zip(frames, wants):
        assert frame.counted_by == cfg
        got = unwrap_poisson(frame)
        plain = unwrap_poisson(ModuloFrame(frame.data, bit_depth))
        assert plain.decoder == "poisson"
        if not lattice_decodes(cfg):
            assert_same_result(got, plain, frame)
            continue
        want = want.astype(np.int64)
        assert got.decoder == "lattice"
        assert got.hdr.data.dtype == (np.uint64 if want.max() >= 2 ** 24 else np.float32)
        assert np.array_equal(got.hdr.data.astype(np.int64), want)
        assert np.array_equal(wrap_counts(got, frame), want >> bit_depth)
        assert residuals(got) == defined_residuals(want, cfg.modulus)
        image = np.mod(np.floor(gain * np.arange(window + 1)), cfg.modulus)
        off_image = np.setdiff1d(np.arange(cfg.modulus), image)
        if off_image.size:  # one code no count produces: back to Poisson
            codes = frame.data.copy()
            codes.flat[rng.integers(codes.size)] = off_image[rng.integers(off_image.size)]
            stray = ModuloFrame(codes, bit_depth, counted_by=cfg)
            assert_same_result(unwrap_poisson(stray),
                               unwrap_poisson(ModuloFrame(codes, bit_depth)), stray)


def test_codes_0_and_255_decode_past_the_uint8_range():
    # 8-bit codes are stored as uint8, so code + 256 * wraps must be formed
    # in a wider type: in uint8, 0 + 256 would read back as 0
    codes = np.array([[[0, 255, 0], [255, 0, 255]], [[255, 0, 0], [0, 255, 255]]], np.uint8)
    plain = ModuloFrame(codes, 8)
    poisson = unwrap_poisson(plain)
    want = reference_unwrap.unwrap_poisson(plain)
    assert poisson.decoder == "poisson" and poisson.converged
    assert poisson.hdr.data.tobytes() == want.hdr.data.tobytes()
    assert np.array_equal(poisson.hdr.values(), codes + 256.0 * wrap_counts(poisson, plain))
    assert poisson.hdr.values().max() == 256
    # 257 * c has code c and wrap count c: code 255 holds 65535 counts
    cfg = EncoderConfig(window=255, stride=255, gain=257.0, bit_depth=8)
    counted = ModuloFrame(codes, 8, counted_by=cfg)
    lattice = unwrap_poisson(counted)
    assert lattice.decoder == "lattice"
    assert np.array_equal(lattice.hdr.values(), 257.0 * codes)
    assert np.array_equal(wrap_counts(lattice, counted), codes)


def test_lattice_table_is_cached_read_only_and_skips_collisions():
    from modspike.unwrap import _lattice_table
    table = _lattice_table(EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8))
    assert _lattice_table(EncoderConfig(window=25, stride=20, gain=15.0)) is table
    assert not table.flags.writeable
    assert np.count_nonzero(table >= 0) == 26
    # each code holds its count's pre-wrap value, in int16 as 4 * 375 + 128
    # fits: 15 * 17 = 255 never wrapped, 15 * 25 = 375 wrapped once to code 119
    assert table.dtype == np.int16
    assert table[15 * 17 % 256] == 255 and table[15 * 25 % 256] == 375
    assert _lattice_table(EncoderConfig(window=25, stride=20, gain=16.0)) is None
    assert _lattice_table(EncoderConfig(window=300, stride=1, gain=1e300,
                                        bit_depth=16)) is None


@pytest.mark.parametrize("bit_depth", [1, 8, 16])
def test_lattice_table_range_ends_below_2_to_the_31_plus_n(bit_depth):
    # one count at the largest gain the lattice takes: its value 2^(31+N) - 1
    # is the top of the table; a gain one past the bound goes to Poisson
    from modspike.unwrap import _lattice_table
    top = 2.0 ** (31 + bit_depth)
    table = _lattice_table(EncoderConfig(1, 1, top - 1, bit_depth))
    assert table.dtype == np.int64 and table.max() == top - 1
    assert _lattice_table(EncoderConfig(1, 1, top + 1, bit_depth)) is None


def test_frame_without_provenance_never_takes_the_lattice():
    # codes inside the encoder's image are not evidence of provenance: a
    # hand-built or file-read frame always goes through the Poisson decoder
    data = np.mod(15 * np.arange(12).reshape(3, 4), 256).astype(np.uint16)
    assert unwrap_poisson(ModuloFrame(data, 8)).decoder == "poisson"
    cfg = EncoderConfig(window=25, stride=20)
    assert unwrap_poisson(ModuloFrame(data, 8, counted_by=cfg)).decoder == "lattice"


# ------------------------------------------------------------- residual report

def test_unwrap_result_holds_two_residuals_and_names_its_decoder():
    # the zeroth-order residual is 0 by construction, so no field holds it
    fields = dataclasses.fields(modspike.UnwrapResult)
    assert [f.name for f in fields] == ["hdr", "l_grad", "l_lap", "converged", "decoder"]
    assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields)
    assert not hasattr(modspike, "ConsistencyResiduals")


def direct_residuals(hdr, frame):
    """The report's definition, (l_mod, l_grad, l_lap), evaluated in
    float64 on the returned hdr."""
    modulus = frame.modulus
    gf = gradient(frame.values())
    centered = GradientField(gx=lar(gf.gx, modulus), gy=lar(gf.gy, modulus))
    return reference_unwrap.reconstruction_residuals(hdr.values(), frame.values(),
                                                     centered, modulus)


def defined_residuals(values, modulus):
    """(l_grad, l_lap) by definition, summed exactly in int64: m times the
    mean |wraps| of the plain gradient and Laplacian of the integer
    reconstruction `values`, with wraps(x) = (x - lar(x)) / m."""
    v = np.asarray(values, np.int64)
    gf = gradient(v)
    return tuple(float(modulus * int(np.abs((d - lar(d, modulus)) // modulus).sum())) / d.size
                 for d in (np.stack([gf.gx, gf.gy]), divergence(gradient(v))))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The unwrapper's kernel calls in the order they run: ("differences",
    dtype) for each pair of forward differences, "split" for each lar with
    an int8 wrap split, "lar" for each plain lar, "wraps" for each wrap
    field taken alone and "integrate" for each integration of a wrap
    field."""
    calls = []
    labels = {"_forward_differences": lambda a: ("differences", a.dtype.name),
              "_lar_pow2": lambda values, modulus, wraps=False: "split" if wraps else "lar",
              "_wraps": lambda values, modulus, out=None: "wraps",
              "_integrate_wraps": lambda wx, wy: "integrate"}
    for name, label in labels.items():
        def spy(*args, _real=getattr(unwrap_module, name), _label=label, **kwargs):
            calls.append(_label(*args, **kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(unwrap_module, name, spy)
    return calls


def report_calls(dtype):
    """`kernel_calls` of a report that differences a reconstruction of `dtype`."""
    return [("differences", dtype), "wraps", "wraps", "wraps"]


@pytest.mark.parametrize("route, decoder, kernels", [
    ("lattice", "lattice", report_calls("int16")),
    ("integrated", "poisson", [("differences", "int16"), "split", "split",
                               "integrate", "wraps"]),
    ("solved", "poisson", [("differences", "int16"), "split", "split", "integrate"]
     + report_calls("int16")),
])
def test_every_route_reports_the_one_definition(route, decoder, kernels, scene_maker,
                                                kernel_calls):
    # a lattice frame runs no Poisson front end, an integrated frame takes
    # no differences of its reconstruction, and each reports the plain
    # gradient and Laplacian of hdr against lar of the frame's
    rng = np.random.default_rng(34)
    if route == "lattice":
        cfg = EncoderConfig(window=25, stride=25, gain=15.0, bit_depth=8)
        bits = (rng.uniform(size=(25, 9, 7, 3)) < rng.uniform(size=(9, 7, 3))).astype(np.uint8)
        frame = ChunkedEncoder(9, 7, 3, cfg).push(bits)[0]
    else:
        frame = wrap_frame(np.stack([scene_maker(rng, 24, 20, peak=4095) for _ in range(3)], 2))
        if route == "solved":
            frame = with_one_curl_plaquette(frame)
    result = unwrap_poisson(frame)
    assert result.decoder == decoder and kernel_calls == kernels
    assert (0.0, *residuals(result)) == direct_residuals(result.hdr, frame)


def extreme_frames(bit_depth, channels, shape=(12, 10)):
    """Frames whose front-end fields reach their widest: a checkerboard of
    codes 0 and m - 1 (neighbour differences of +-(m - 1)), and f(y) + f(x + 1)
    with f stepping by m/2 - 1 and -m/2 in turn, whose centered gradient
    flips between m/2 - 1 and -m/2 on every step, so the divergence reaches
    +-2(m - 1); that frame negated, and that frame with one plaquette of curl."""
    m = 1 << bit_depth
    h, w = shape
    n = np.arange(max(h, w + 1))
    f = np.where(n % 2, m // 2 - 1, 0) - n // 2
    checker = (np.indices(shape).sum(0) % 2) * (m - 1)
    steep = np.mod(f[:h, None] + f[None, 1:w + 1], m)
    frames = [wrap_frame(np.repeat(img[:, :, None], channels, 2), bit_depth)
              for img in (checker, steep, m - 1 - steep)]
    return frames + [with_one_curl_plaquette(frames[1])]


@pytest.mark.parametrize("bit_depth", [13, 14])
@pytest.mark.parametrize("channels", [1, 3])
def test_frames_at_the_front_end_width_boundary_match_the_float_reference(bit_depth, channels):
    # int16 holds the front end up to 2^13: there the widest field,
    # 2(m - 1) + m/2 = 20478, fits; at 2^14 it would be 40958
    m = 1 << bit_depth
    frames = extreme_frames(bit_depth, channels)
    gf = gradient(frames[0].values())
    assert np.abs(gf.gx).max() == np.abs(gf.gy).max() == m - 1
    centered = gradient(frames[1].values())
    div = divergence(GradientField(lar(centered.gx, m), lar(centered.gy, m)))
    assert div.max() == 2 * (m - 1) and div.min() == -2 * (m - 1)
    assert np.count_nonzero(centered_gradient_curl(frames[3])) == 1
    for frame in frames:
        assert_matches_float_reference(frame)


@pytest.mark.parametrize("bit_depth, dtype", [(1, "int16"), (8, "int16"), (13, "int16"),
                                              (14, "int32"), (16, "int32")])
def test_front_end_is_int16_up_to_13_bits(bit_depth, dtype, kernel_calls):
    unwrap_poisson(extreme_frames(bit_depth, 3)[1])
    assert kernel_calls[0] == ("differences", dtype)


@pytest.mark.parametrize("peak, dtype", [(8159, "int16"), (8160, "int32"),
                                         (2 ** 29 - 257, "int32"), (2 ** 29 - 1, "int64"),
                                         (2 ** 30 + 3, "int64"), (2 ** 31 + 5, "int64")])
def test_report_leaves_int32_before_a_laplacian_could_overflow(peak, dtype, kernel_calls):
    # a dark pixel ringed by four at `peak` has Laplacian 4 * peak, which
    # wraps(x) = (x + m/2) >> N offsets by m/2 = 128: the report is int16
    # while that stays below 2^15, int32 while it stays below 2^31, and
    # switches just above each; at 2^30 the int32 reconstruction's Laplacian
    # alone would pass 2^31, and past 2^31 the reconstruction itself is int64
    values = np.full((3, 3, 1), peak, np.int64)
    values[1, 1] = 0
    assert (4 * peak + 128 < 2 ** 15) == (dtype == "int16")
    assert (4 * peak + 128 < 2 ** 31) == (dtype != "int64")
    cfg = EncoderConfig(window=1, stride=1, gain=float(peak), bit_depth=8)
    frame = ModuloFrame(np.mod(values, 256).astype(np.uint16), 8, counted_by=cfg)
    result = unwrap_poisson(frame)
    assert result.decoder == "lattice"
    assert kernel_calls == report_calls(dtype)
    assert np.array_equal(wrap_counts(result, frame), values >> 8)
    assert residuals(result) == defined_residuals(values, 256)
    assert result.l_lap > 0


@pytest.mark.parametrize("window, gain, dtype", [(41, 199.0, "int16"), (40, 204.0, "int32")])
def test_lattice_values_take_the_narrowest_type_the_report_holds(window, gain, dtype,
                                                                 kernel_calls):
    # the top value is 199 * 41 = 8159, whose widest report field
    # 4 * 8159 + 128 = 32764 fits int16, or 204 * 40 = 8160, which passes it;
    # a dark pixel ringed by four at the top reaches that field
    cfg = EncoderConfig(window=window, stride=window, gain=gain, bit_depth=8)
    top = int(np.floor(gain * window))
    assert lattice_decodes(cfg) and (4 * top + 128 < 2 ** 15) == (dtype == "int16")
    counts = np.random.default_rng(window).integers(0, window + 1, (6, 7, 3))
    counts[1:4, 2:5] = window
    counts[2, 3] = 0
    bits = (np.arange(window)[:, None, None, None] < counts).astype(np.uint8)
    frame = ChunkedEncoder(6, 7, 3, cfg).push(bits)[0]
    want = recount(bits, cfg)[0].astype(np.int64)
    assert divergence(gradient(want)).max() == 4 * top
    result = unwrap_poisson(frame)
    assert result.decoder == "lattice"
    assert kernel_calls == report_calls(dtype)
    assert result.hdr.data.tobytes() == want.astype(np.float32).tobytes()
    assert np.array_equal(wrap_counts(result, frame), want >> 8)
    assert residuals(result) == defined_residuals(want, 256)


@pytest.mark.parametrize("top, dtype", [(30, "int16"), (31, "int32")])
def test_poisson_reconstruction_takes_the_narrowest_type_the_report_holds(top, dtype,
                                                                          kernel_calls):
    # wrap counts up to 30 bound an 8-bit reconstruction by 31 * 256 - 1 =
    # 7935, whose widest report field 4 * 7935 + 128 = 31868 fits int16; one
    # more wrap passes 2^15. A plateau at that bound, reached by steps within
    # half a period, with one plaquette of curl so the report takes differences
    peak = (top + 1) * 256 - 1
    assert (4 * peak + 128 < 2 ** 15) == (dtype == "int16")
    ramp = np.minimum(np.add.outer(100 * np.arange(9), 120 * np.arange(70)), peak)
    frame = with_one_curl_plaquette(wrap_frame(np.stack([ramp[::-1], ramp[:, ::-1], ramp], 2)))
    got = assert_matches_float_reference(frame)
    assert wrap_counts(got, frame).max() == top
    assert kernel_calls[-4:] == report_calls(dtype)


def test_residuals_of_a_multichannel_frame_are_the_channel_means():
    rng = np.random.default_rng(31)
    img = rng.integers(0, 1000, size=(16, 12, 3))  # steps far beyond 128: curl
    frame = wrap_frame(img)
    result = unwrap_poisson(frame)
    planes = [wrap_frame(img[:, :, c]) for c in range(3)]
    singles = [unwrap_poisson(plane) for plane in planes]
    for c, (single, plane) in enumerate(zip(singles, planes)):
        assert single.l_grad > 0
        assert np.array_equal(wrap_counts(result, frame)[:, :, c],
                              wrap_counts(single, plane)[:, :, 0])
    for got, parts in zip(residuals(result), zip(*map(residuals, singles))):
        assert got == pytest.approx(sum(parts) / 3, rel=1e-12)
    assert not result.converged


def test_lattice_residual_report_equals_its_definition():
    # the lattice decode skips the Poisson solve but reports the same
    # residuals: plain gradient and Laplacian of hdr against lar of the frame's
    cfg = EncoderConfig(window=25, stride=5, gain=15.0, bit_depth=8)
    rng = np.random.default_rng(32)
    density = rng.uniform(0.0, 1.0, size=(9, 7, 3))
    bits = (rng.uniform(size=(40, 9, 7, 3)) < density).astype(np.uint8)
    frames = ChunkedEncoder(9, 7, 3, cfg).push(bits)
    assert len(frames) == 4
    for frame in frames:
        result = unwrap_poisson(frame)
        assert result.decoder == "lattice"
        assert result.l_grad > 0  # counts up to 375 jump past half a period
        assert (0.0, *residuals(result)) == direct_residuals(result.hdr, frame)


def test_integrated_residual_report_equals_its_definition(scene_maker, solver_calls):
    # an integrated frame reports the plain gradient and Laplacian of hdr
    # against lar of the frame's, as a solved or lattice frame does
    yy, xx = np.mgrid[0:64, 0:64]
    edge = 200 + 800 * (xx >= 32) + 3 * yy  # README's straight edge
    rng = np.random.default_rng(33)
    smooth = np.stack([scene_maker(rng, 48, 40, peak=4095) for _ in range(3)], axis=2)
    # separable 8-bit walk with steps within a quarter period: no curl, but
    # second differences up to a full period, which lar can mismeasure
    steps = np.random.default_rng(0).integers(-64, 65, size=(2, 12))
    walk = np.cumsum(steps[0])[:, None] + np.cumsum(steps[1])[None, :]
    reports = []
    for img in (edge, smooth, walk):
        frame = wrap_frame(img)
        result = unwrap_poisson(frame)
        assert result.decoder == "poisson"
        assert (0.0, *residuals(result)) == direct_residuals(result.hdr, frame)
        reports.append(residuals(result))
    assert solver_calls == []
    assert reports[0] == reports[1] == (0.0, 0.0)
    assert reports[2][0] == 0.0 and reports[2][1] > 0  # no curl, yet a Laplacian off by a period


def test_residuals_certify_consistency_not_correctness():
    # a straight 210-count edge breaks the half-period condition without
    # curl: the Poisson decode is off by a period on the dark side and still
    # converges, while the exact lattice decode of the same frame does not
    cfg = EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8)
    img = np.zeros((6, 8), dtype=np.int64)
    img[:, 4:] = 15 * 14
    data = wrap_frame(img).data
    poisson = unwrap_poisson(ModuloFrame(data, 8))
    assert residuals(poisson) == (0.0, 0.0) and poisson.converged
    assert np.array_equal(poisson.hdr.values()[:, :, 0] - img, 256 * (img == 0))
    lattice = unwrap_poisson(ModuloFrame(data, 8, counted_by=cfg))
    assert lattice.decoder == "lattice"
    assert np.array_equal(lattice.hdr.values()[:, :, 0], img)
    # one jump of 210 per row where lar measures -46: a mismatch of 256
    assert lattice.l_grad == 256 * 6 / (2 * 6 * 8)
    assert not lattice.converged

