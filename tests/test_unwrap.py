import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import reference_unwrap
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modspike
from modspike import (ChunkedEncoder, EncoderConfig, GradientField, HdrImage, ModuloFrame,
                      gradient, lar, mu_law, mu_law_inverse, unwrap_poisson)


def wrap_frame(img, bit_depth=8):
    img = np.asarray(img)
    return ModuloFrame(data=np.mod(img, 1 << bit_depth).astype(np.uint16),
                       bit_depth=bit_depth)


def centered_gradient_curl(frame):
    """Loop sums of the centered wrapped gradient around every plaquette;
    nonzero entries mean the measurement field is not integrable."""
    m = frame.modulus
    gf = gradient(frame.values()[:, :, 0])
    gx = lar(gf.gx, m)
    gy = lar(gf.gy, m)
    return gx[:-1, :-1] + gy[:-1, 1:] - gx[1:, :-1] - gy[:-1, :-1]


# ------------------------------------------------------------ unwrap_poisson

def test_unwrap_identity_when_nothing_wraps(scene_maker):
    rng = np.random.default_rng(0)
    img = scene_maker(rng, 24, 24, peak=200, max_step=40)
    result = unwrap_poisson(wrap_frame(img))
    assert np.all(result.rollover_map == 0)
    assert np.array_equal(result.hdr.values()[:, :, 0], img)
    assert result.converged


def test_unwrap_12bit_horizontal_ramp():
    img = np.tile(8 * np.arange(512, dtype=np.int64), (4, 1))  # 0..4088
    result = unwrap_poisson(wrap_frame(img))
    assert np.array_equal(result.hdr.values()[:, :, 0], img)
    assert result.residuals.l_mod == 0.0
    assert result.converged
    assert result.rollover_map.max() == 4088 // 256


def test_unwrap_gaussian_bump_recovers_all_bands():
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    bump = np.floor(1000.0 * np.exp(-((yy - 32.0) ** 2 + (xx - 32.0) ** 2)
                                    / (2 * 10.0 ** 2))).astype(np.int64)
    assert np.abs(np.diff(bump, axis=1)).max() < 128  # within half a period
    result = unwrap_poisson(wrap_frame(bump))
    assert np.array_equal(result.hdr.values()[:, :, 0], bump)
    assert result.rollover_map.max() == 3  # peak 1000 sits in the 4th band
    assert set(np.unique(result.rollover_map)) == {0, 1, 2, 3}
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
        assert result.residuals.as_tuple() == (0.0, 0.0, 0.0)
        assert result.converged


def test_unwrap_output_congruent_to_input(scene_maker):
    rng = np.random.default_rng(6)
    img = scene_maker(rng, 20, 28, peak=3000)
    frame = wrap_frame(img)
    result = unwrap_poisson(frame)
    diff = result.hdr.values() - frame.values()
    assert np.array_equal(np.mod(diff, 256), np.zeros_like(diff))
    assert np.array_equal(result.hdr.values(),
                          frame.values() + result.rollover_map * 256.0)
    assert result.rollover_map.min() >= 0


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
    assert result.residuals.l_grad > 1e-3
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


def test_poisson_decoder_warm_memory_peak(scene_maker):
    # a 160^2 x 3 8-bit frame without provenance, as `modspike unwrap`
    # reads it from MODQ: past the first call (caches built), the decoder's
    # peak stays within 6.8 MB, about 11 float64 rasters of the frame
    rng = np.random.default_rng(21)
    img = np.stack([scene_maker(rng, 160, 160, peak=4095) for _ in range(3)], axis=2)
    frame = wrap_frame(img)
    unwrap_poisson(frame)
    tracemalloc.start()
    try:
        result = unwrap_poisson(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.decoder == "poisson" and np.array_equal(result.hdr.values(), img)
    assert result.rollover_map.flags.c_contiguous and result.rollover_map.shape == img.shape
    assert peak <= 6.8e6


def test_unwrap_reports_counts_float32_cannot_hold():
    # a 16-bit strip climbing past 2^24 counts unwraps exactly, but the
    # float32 samples returned round 270 of them off the frame's residue
    # class; the zeroth-order residual must see what is returned
    img = 30011 * np.arange(1100, dtype=np.int64)[None, :]  # peak ~3.3e7
    frame = wrap_frame(img, bit_depth=16)
    result = unwrap_poisson(frame)
    assert np.array_equal(result.rollover_map[0, :, 0], img[0] // 65536)
    assert np.array_equal(result.hdr.data[0, :, 0], img[0].astype(np.float32))
    stored = result.hdr.data[0, :, 0].astype(np.int64)
    assert np.count_nonzero((stored - img[0]) % 65536) == 270
    assert result.residuals.l_mod > 0
    assert not result.converged


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


_sides = st.integers(2, 40)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       bit_depth=st.integers(1, 16),
       shape=st.one_of(st.just((1, 1)), st.tuples(st.just(1), _sides),
                       st.tuples(_sides, st.just(1)), st.tuples(_sides, _sides)),
       channels=st.sampled_from([1, 3]),
       smooth=st.booleans())
@example(seed=1, bit_depth=11, shape=(17, 23), channels=3, smooth=True)  # dense offset search
@example(seed=2, bit_depth=11, shape=(9, 31), channels=1, smooth=False)
@example(seed=3, bit_depth=12, shape=(23, 17), channels=3, smooth=True)  # FFT offset search
@example(seed=4, bit_depth=12, shape=(1, 40), channels=1, smooth=False)
@example(seed=5, bit_depth=16, shape=(40, 1), channels=3, smooth=True)
@example(seed=6, bit_depth=1, shape=(1, 1), channels=1, smooth=True)
def test_unwrap_matches_float_reference(seed, bit_depth, shape, channels, smooth):
    img = _parity_scene(seed, bit_depth, shape, channels, smooth)
    frame = wrap_frame(img, bit_depth)
    want = reference_unwrap.unwrap_poisson(frame)
    got = unwrap_poisson(frame)
    assert got.hdr.data.tobytes() == want.hdr.data.tobytes()
    assert got.rollover_map.dtype == want.rollover_map.dtype == np.int32
    assert np.array_equal(got.rollover_map, want.rollover_map)
    assert got.residuals.as_tuple() == want.residuals.as_tuple()
    assert got.converged == want.converged


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


@pytest.mark.parametrize("counted_by", [None, EncoderConfig(window=25, stride=20)])
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0, 3)])
def test_unwrap_zero_size_frame(counted_by, shape):
    frame = ModuloFrame(np.zeros(shape, np.uint16), 8, counted_by=counted_by)
    result = unwrap_poisson(frame)
    assert result.decoder == ("poisson" if counted_by is None else "lattice")
    want = shape if len(shape) == 3 else shape + (1,)
    assert result.hdr.data.shape == result.rollover_map.shape == want
    assert result.rollover_map.dtype == np.int32
    assert result.residuals.as_tuple() == (0.0, 0.0, 0.0) and result.converged


# ------------------------------------------------------------ lattice decoder

def recount(bits, cfg):
    """floor(gain * count) of every window, recounted from scratch."""
    return [np.floor(cfg.gain * bits[j:j + cfg.window].sum(axis=0, dtype=np.int64))
            for j in range(0, len(bits) - cfg.window + 1, cfg.stride)]


def lattice_decodes(cfg):
    """Whether codes identify values: distinct codes for every count, and
    wrap counts that fit the int32 rollover map."""
    values = np.floor(cfg.gain * np.arange(cfg.window + 1, dtype=np.float64))
    return (values[-1] < 2.0 ** (31 + cfg.bit_depth)
            and np.unique(np.mod(values, cfg.modulus)).size == values.size)


def assert_same_result(got, want):
    assert got.hdr.data.tobytes() == want.hdr.data.tobytes()
    assert got.rollover_map.dtype == want.rollover_map.dtype == np.int32
    assert np.array_equal(got.rollover_map, want.rollover_map)
    assert got.residuals.as_tuple() == want.residuals.as_tuple()
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
            assert_same_result(got, plain)
            continue
        want = want.astype(np.int64)
        assert got.decoder == "lattice"
        assert np.array_equal(got.hdr.data, want.astype(np.float32))
        assert np.array_equal(got.rollover_map, want >> bit_depth)
        image = np.mod(np.floor(gain * np.arange(window + 1)), cfg.modulus)
        off_image = np.setdiff1d(np.arange(cfg.modulus), image)
        if off_image.size:  # one code no count produces: back to Poisson
            codes = frame.data.copy()
            codes.flat[rng.integers(codes.size)] = off_image[rng.integers(off_image.size)]
            stray = ModuloFrame(codes, bit_depth, counted_by=cfg)
            assert_same_result(unwrap_poisson(stray),
                               unwrap_poisson(ModuloFrame(codes, bit_depth)))


def test_lattice_table_is_cached_read_only_and_skips_collisions():
    from modspike.unwrap import _lattice_table
    table = _lattice_table(EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8))
    assert _lattice_table(EncoderConfig(window=25, stride=20, gain=15.0)) is table
    assert not table.flags.writeable
    assert np.count_nonzero(table >= 0) == 26 and table[15 * 17 % 256] == 15 * 17
    assert _lattice_table(EncoderConfig(window=25, stride=20, gain=16.0)) is None
    assert _lattice_table(EncoderConfig(window=300, stride=1, gain=1e300,
                                        bit_depth=16)) is None


def test_frame_without_provenance_never_takes_the_lattice():
    # codes inside the encoder's image are not evidence of provenance: a
    # hand-built or file-read frame always goes through the Poisson decoder
    data = np.mod(15 * np.arange(12).reshape(3, 4), 256).astype(np.uint16)
    assert unwrap_poisson(ModuloFrame(data, 8)).decoder == "poisson"
    cfg = EncoderConfig(window=25, stride=20)
    assert unwrap_poisson(ModuloFrame(data, 8, counted_by=cfg)).decoder == "lattice"


# ------------------------------------------------------------- residual report

def direct_residuals(hdr, frame):
    """The report's definition, evaluated in float64 on the returned hdr."""
    modulus = frame.modulus
    gf = gradient(frame.values())
    centered = GradientField(gx=lar(gf.gx, modulus), gy=lar(gf.gy, modulus))
    return reference_unwrap.reconstruction_residuals(hdr.values(), frame.values(),
                                                     centered, modulus)


def test_residuals_of_a_multichannel_frame_are_the_channel_means():
    rng = np.random.default_rng(31)
    img = rng.integers(0, 1000, size=(16, 12, 3))  # steps far beyond 128: curl
    result = unwrap_poisson(wrap_frame(img))
    singles = [unwrap_poisson(wrap_frame(img[:, :, c])) for c in range(3)]
    for c, single in enumerate(singles):
        assert single.residuals.l_grad > 0
        assert np.array_equal(result.rollover_map[:, :, c], single.rollover_map[:, :, 0])
    for got, parts in zip(result.residuals.as_tuple(),
                          zip(*(s.residuals.as_tuple() for s in singles))):
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
        assert result.residuals.l_grad > 0  # counts up to 375 jump past half a period
        assert result.residuals.as_tuple() == direct_residuals(result.hdr, frame).as_tuple()


def test_residuals_certify_consistency_not_correctness():
    # a straight 210-count edge breaks the half-period condition without
    # curl: the Poisson decode is off by a period on the dark side and still
    # converges, while the exact lattice decode of the same frame does not
    cfg = EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8)
    img = np.zeros((6, 8), dtype=np.int64)
    img[:, 4:] = 15 * 14
    data = wrap_frame(img).data
    poisson = unwrap_poisson(ModuloFrame(data, 8))
    assert poisson.residuals.as_tuple() == (0.0, 0.0, 0.0) and poisson.converged
    assert np.array_equal(poisson.hdr.values()[:, :, 0] - img, 256 * (img == 0))
    lattice = unwrap_poisson(ModuloFrame(data, 8, counted_by=cfg))
    assert lattice.decoder == "lattice"
    assert np.array_equal(lattice.hdr.values()[:, :, 0], img)
    # one jump of 210 per row where lar measures -46: a mismatch of 256
    assert lattice.residuals.l_grad == 256 * 6 / (2 * 6 * 8)
    assert not lattice.converged


# --------------------------------------------------------------------- mu-law

def test_mu_law_endpoints():
    img = HdrImage(data=np.array([[0.0, 4095.0]], dtype=np.float32))
    mapped = mu_law(img, mu=5000.0, peak=4095.0)
    assert mapped.values()[0, 0, 0] == 0.0
    assert math.isclose(mapped.values()[0, 1, 0], 1.0, rel_tol=1e-6)


def test_mu_law_midpoint_against_high_precision_oracle():
    img = HdrImage(data=np.array([[0.5]], dtype=np.float32))
    mapped = mu_law(img, mu=5000.0, peak=1.0)
    with mpmath.workdps(50):
        expected = float(mpmath.log(1 + 5000 * mpmath.mpf("0.5"))
                         / mpmath.log(1 + 5000))
    assert math.isclose(float(mapped.values()[0, 0, 0]), expected, rel_tol=1e-7)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 4095.0, allow_nan=False))
def test_mu_law_round_trip(value):
    img = HdrImage(data=np.full((2, 2), value, dtype=np.float32))
    back = mu_law_inverse(mu_law(img, mu=5000.0, peak=4095.0),
                          mu=5000.0, peak=4095.0)
    orig = float(img.values()[0, 0, 0])
    got = float(back.values()[0, 0, 0])
    assert math.isclose(got, orig, rel_tol=1e-6, abs_tol=1e-6)


def test_mu_law_rejects_bad_parameters():
    img = HdrImage(data=np.ones((2, 2), dtype=np.float32))
    with pytest.raises(Exception, match="mu"):
        mu_law(img, mu=0.0)
    with pytest.raises(Exception, match="peak"):
        mu_law(img, peak=-1.0)
