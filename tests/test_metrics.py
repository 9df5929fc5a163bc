import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from modspike import (HdrImage, ValidationError, bandwidth_report, mu_law, mu_law_inverse,
                      psnr_linear, psnr_mu, ssim_linear)
from modspike.metrics import _ssim_kernel, _windowed_mean


def img(arr):
    return HdrImage(data=np.asarray(arr, dtype=np.float32))


def ssim_oracle(x, y, peak):
    """Direct windowed SSIM: explicit Gaussian weights, one window at a
    time, no separable filtering tricks."""
    half = 5
    t = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2 * 1.5 ** 2))
    w = np.outer(g, g)
    w /= w.sum()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    h, wd = x.shape
    vals = []
    for i in range(half, h - half):
        for j in range(half, wd - half):
            px = x[i - half:i + half + 1, j - half:j + half + 1]
            py = y[i - half:i + half + 1, j - half:j + half + 1]
            mx = (w * px).sum()
            my = (w * py).sum()
            vx = (w * px * px).sum() - mx * mx
            vy = (w * py * py).sum() - my * my
            cov = (w * px * py).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


# -------------------------------------------------------------- psnr_linear

def test_psnr_identical_is_infinite():
    a = img(np.random.default_rng(0).uniform(0, 100, (8, 8)))
    assert psnr_linear(a, a, peak=100.0) == float("inf")


def test_psnr_half_peak_offset():
    a = img(np.zeros((8, 8)))
    b = img(np.full((8, 8), 50.0))
    assert math.isclose(psnr_linear(a, b, peak=100.0), 10 * math.log10(4),
                        rel_tol=1e-12)


def test_psnr_matches_mse_formula():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 4095, (16, 16, 3))
    y = rng.uniform(0, 4095, (16, 16, 3))
    mse = np.mean((x - y) ** 2)
    expected = 10 * math.log10(4095.0 ** 2 / mse)
    assert math.isclose(psnr_linear(img(x), img(y), 4095.0), expected,
                        rel_tol=1e-9)


def test_psnr_symmetric():
    rng = np.random.default_rng(2)
    x = img(rng.uniform(0, 10, (8, 8)))
    y = img(rng.uniform(0, 10, (8, 8)))
    assert psnr_linear(x, y, 10.0) == psnr_linear(y, x, 10.0)


def test_psnr_dimension_mismatch():
    with pytest.raises(Exception, match="mismatch"):
        psnr_linear(img(np.zeros((8, 8))), img(np.zeros((9, 8))), 1.0)


# -------------------------------------------------------------- ssim_linear

def test_ssim_self_is_exactly_one():
    rng = np.random.default_rng(3)
    a = img(rng.uniform(0, 4095, (16, 16)))
    assert ssim_linear(a, a, 4095.0) == 1.0


def test_ssim_matches_direct_window_oracle():
    rng = np.random.default_rng(4)
    a = img(rng.uniform(0, 1, (16, 16)))
    b = img(rng.uniform(0, 1, (16, 16)))
    got = ssim_linear(a, b, 1.0)
    # oracle scores the stored (float32-rounded) samples
    expected = ssim_oracle(a.values()[:, :, 0], b.values()[:, :, 0], 1.0)
    assert math.isclose(got, expected, rel_tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(11, 90), w=st.integers(11, 90),
       decades=st.integers(1, 30), transposed=st.booleans())
def test_windowed_mean_matches_scipy_correlate1d(seed, h, w, decades, transposed):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(0, 1, (h, w)) * 10.0 ** rng.integers(-decades, 1, (h, w))
    if transposed:  # a strided view, as a channel of an (H, W, C) image is
        plane = plane.T
    kernel = _ssim_kernel()
    want = correlate1d(correlate1d(plane, kernel, axis=0, mode="constant"),
                       kernel, axis=1, mode="constant")[5:-5, 5:-5]
    got = _windowed_mean(plane, kernel)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_ssim_inverted_checkerboard_strongly_negative():
    yy, xx = np.mgrid[0:16, 0:16]
    board = ((yy + xx) % 2).astype(np.float64)
    score = ssim_linear(img(board), img(1.0 - board), 1.0)
    assert score < -0.5
    assert math.isclose(score, ssim_oracle(board, 1.0 - board, 1.0), rel_tol=1e-9)


def test_ssim_brightness_shift_scores_below_identity():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 0.7, (16, 16))
    assert ssim_linear(img(x), img(x + 0.3), 1.0) < 1.0


def test_ssim_rejects_small_images():
    with pytest.raises(Exception, match="11"):
        ssim_linear(img(np.zeros((8, 8))), img(np.zeros((8, 8))), 1.0)


def test_ssim_range():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = img(rng.uniform(0, 1, (12, 12)))
        y = img(rng.uniform(0, 1, (12, 12)))
        assert -1.0 <= ssim_linear(x, y, 1.0) <= 1.0


# ------------------------------------------------------- the range of `peak`

def _edge(ok, lo, hi):
    """The adjacent float64s p < q in [lo, hi] where `ok` changes, for an
    `ok` that changes once there: bisection over the bit patterns of
    positive floats, which sort as their values do."""
    a, b = (int(v) for v in np.array([lo, hi]).view(np.int64))
    while b - a > 1:
        mid = (a + b) // 2
        if ok(float(np.int64(mid).view(np.float64))) == ok(lo):
            a = mid
        else:
            b = mid
    return tuple(float(v) for v in np.array([a, b]).view(np.float64))


# Each bound is where the formula's own float64 arithmetic leaves the
# finite, nonzero range: peak*peak for PSNR (about 1.6e-162 and 1.3e154),
# c1*c2 = (0.01*peak)**2 * (0.03*peak)**2 for SSIM (about 7.2e-80 and
# 6.7e78), each as (bad, good) or (good, bad) around the edge.
_PSNR_LOW, _PSNR_HIGH = (_edge(lambda p: 0 < p * p < math.inf, *span)
                         for span in ((1e-200, 1.0), (1.0, 1e200)))
_SSIM_LOW, _SSIM_HIGH = (_edge(lambda p: 0 < (0.01 * p) ** 2 * (0.03 * p) ** 2 < math.inf, *span)
                         for span in ((1e-100, 1.0), (1.0, 1e100)))


@pytest.mark.parametrize("good, bad", [_PSNR_LOW[::-1], _PSNR_HIGH])
def test_psnr_takes_every_peak_whose_square_is_a_finite_nonzero_float(good, bad):
    # mse 1: the ratio peak^2/mse is the square itself
    zeros, ones = img(np.zeros((8, 8))), img(np.ones((8, 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psnr_linear(zeros, ones, good) == 10.0 * np.log10(good * good)
        assert psnr_linear(zeros, zeros, good) == math.inf
        for a, b in ((zeros, ones), (zeros, zeros)):
            with pytest.raises(ValidationError, match="^peak: "):
                psnr_linear(a, b, bad)


@pytest.mark.parametrize("good, bad", [_SSIM_LOW[::-1], _SSIM_HIGH])
def test_ssim_takes_every_peak_whose_constants_are_finite_nonzero_floats(good, bad):
    # identical images score exactly 1 at the last good peak, however flat
    rng = np.random.default_rng(8)
    images = [img(np.zeros((12, 12))), img(np.full((12, 12), 700.0)),
              img(rng.uniform(0, 4095, (12, 12)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in images:
            assert ssim_linear(a, a, good) == 1.0
            with pytest.raises(ValidationError, match="^peak: "):
                ssim_linear(a, a, bad)
        assert -1.0 <= ssim_linear(images[1], images[2], good) <= 1.0


@pytest.mark.parametrize("metric, peak", [
    (psnr_linear, 1e155), (psnr_linear, 1e-200), (psnr_linear, 10 ** 200),
    (psnr_linear, 10 ** 400), (ssim_linear, 1e80), (ssim_linear, 1e-80),
    (ssim_linear, 1e160), (ssim_linear, 10 ** 400)],
    ids=["psnr-1e155", "psnr-1e-200", "psnr-int-10**200", "psnr-int-10**400",
         "ssim-1e80", "ssim-1e-80", "ssim-1e160", "ssim-int-10**400"])
def test_metrics_reject_a_peak_their_arithmetic_cannot_hold(metric, peak):
    # past the bounds PSNR read inf for different images, SSIM nan for
    # identical ones, and a huge peak raised a raw OverflowError
    zeros = img(np.zeros((12, 12)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (zeros, img(np.ones((12, 12)))):
            with pytest.raises(ValidationError, match="^peak: "):
                metric(zeros, b, peak)


@pytest.mark.parametrize("peak, values", [(1e150, (1.0, 1.0 + 2.0 ** -23)),
                                          (1e-160, (0.0, 1000.0))])
def test_psnr_rejects_a_peak_whose_ratio_to_the_error_leaves_the_floats(peak, values):
    # peak^2 holds, but peak^2/mse overflows (it read inf, the sentinel of
    # identical images) or underflows (it read -inf with a RuntimeWarning)
    a, b = (img(np.full((8, 8), v)) for v in values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^peak: "):
            psnr_linear(a, b, peak)
        assert math.isfinite(psnr_linear(a, b, 1.0))


# ------------------------------------------------------------------- psnr_mu

def test_psnr_mu_identical_is_infinite():
    a = img(np.random.default_rng(7).uniform(0, 4095, (8, 8)))
    assert psnr_mu(a, a, mu=5000.0, peak=4095.0) == float("inf")


def test_psnr_mu_is_compositional():
    rng = np.random.default_rng(8)
    x = img(rng.uniform(0, 4095, (12, 12)))
    y = img(rng.uniform(0, 4095, (12, 12)))
    direct = psnr_mu(x, y, mu=5000.0, peak=4095.0)
    composed = psnr_linear(mu_law(x, 5000.0, 4095.0), mu_law(y, 5000.0, 4095.0), 1.0)
    assert direct == composed


def test_psnr_mu_monotone_in_noise():
    rng = np.random.default_rng(9)
    base = rng.uniform(100, 4000, (16, 16))
    noise = rng.normal(size=(16, 16))
    scores = []
    for scale in (1.0, 4.0, 16.0, 64.0):
        noisy = np.clip(base + scale * noise, 0, None)
        scores.append(psnr_mu(img(base), img(noisy), mu=5000.0, peak=4095.0))
    assert all(b <= a for a, b in zip(scores, scores[1:]))


def test_psnr_mu_small_mu_approaches_normalized_linear():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 4095, (10, 10))
    y = rng.uniform(0, 4095, (10, 10))
    tiny = psnr_mu(img(x), img(y), mu=1e-6, peak=4095.0)
    linear = psnr_linear(img(x / 4095.0), img(y / 4095.0), 1.0)
    assert math.isclose(tiny, linear, rel_tol=1e-4)


# ---------------------------------------------------------- bandwidth_report

def test_bandwidth_raw_20_gbps():
    rep = bandwidth_report(1000, 1000, 1, 20000, 8, 20, mosaic=False)
    assert rep.raw_bps == 20_000_000_000
    assert rep.raw_gbps == 20.0


def test_bandwidth_mosaic_6_gbps_and_70_percent():
    rep = bandwidth_report(1000, 1000, 1, 20000, 8, 20, mosaic=True)
    assert rep.raw_bps == 20_000_000_000
    assert rep.modulo_bps == 6_000_000_000
    assert rep.reduction_ratio == 0.7
    assert rep.modulo_gbps == 6.0


def test_bandwidth_non_mosaic_uses_channels():
    # a 3-channel sensor reads 3 raw planes, as integrate_and_fire emits them
    rep = bandwidth_report(100, 100, 3, 1000, 8, 10, mosaic=False)
    assert rep.raw_bps == 100 * 100 * 3 * 1000
    assert rep.modulo_bps == 100 * 100 * 3 * 8 * 1000 // 10


def test_bandwidth_exact_integer_arithmetic():
    rep = bandwidth_report(1000, 1000, 1, 20000, 8, 20, mosaic=True)
    assert isinstance(rep.raw_bps, int)
    assert isinstance(rep.modulo_bps, int)


def test_bandwidth_rejects_bad_dims():
    with pytest.raises(Exception, match="even"):
        bandwidth_report(999, 1000, 1, 20000, 8, 20, mosaic=True)
    with pytest.raises(Exception, match="height"):
        bandwidth_report(0, 1000, 1, 20000, 8, 20, mosaic=False)


@pytest.mark.parametrize("bad, field", [({"bit_depth": 17}, "bit_depth"),
                                        ({"channels": 2}, "channels"),
                                        ({"height": 1000.5}, "height"),  # raw_bps was a float
                                        ({"stride": 2.5}, "stride")])
def test_bandwidth_rejects_what_no_sensor_can_have(bad, field):
    args = {"height": 1000, "width": 1000, "channels": 1, "readout_rate_hz": 20000,
            "bit_depth": 8, "stride": 20, "mosaic": False}
    with pytest.raises(ValidationError, match=field):
        bandwidth_report(**{**args, **bad})


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


@pytest.mark.parametrize("call, name", [
    (lambda big: mu_law(big, peak=1e-310), "peak"),  # samples / peak overflows
    (lambda big: mu_law(big, peak=10 ** 400), "peak"),  # no float64 holds the peak
    (lambda big: mu_law(big, mu=1e308), "mu"),  # mu * x overflows
    (lambda big: mu_law(big, mu=1e-300, peak=1e-300), "mu"),  # the float32 store overflows
    (lambda big: mu_law_inverse(img(np.ones((4, 4))), peak=1e308), "peak"),  # store
    (lambda big: mu_law_inverse(img(np.ones((4, 4))), peak=1e300, mu=1.0), "peak"),  # x * peak
    (lambda big: mu_law_inverse(big, mu=5000.0), "mu"),  # expm1(y * log1p(mu)) overflows
    (lambda big: mu_law_inverse(img(np.full((4, 4), 1750.0)), mu=0.5), "mu"),  # ... / mu
    (lambda big: psnr_mu(big, big, peak=1e-310), "peak"),
    (lambda big: psnr_mu(big, big, mu=1e308), "mu"),
], ids=["mu_law-peak-divide", "mu_law-peak-int", "mu_law-mu-multiply", "mu_law-store",
        "inverse-peak-store", "inverse-peak-multiply", "inverse-mu-expm1",
        "inverse-mu-divide", "psnr_mu-peak", "psnr_mu-mu"])
def test_mu_law_rejects_parameters_that_leave_the_finite_range(call, name):
    # these overflowed with a RuntimeWarning and then blamed HdrImage.data
    big = img(np.full((4, 4), 1e6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{name}: "):
            call(big)


def test_mu_law_takes_extreme_parameters_its_arithmetic_holds():
    big = img(np.full((4, 4), 1e6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1e306 / peak-normalized samples, times a small mu, fit float32 once mapped
        mapped = mu_law(big, mu=1e-10, peak=1e-300)
        assert math.isclose(float(mapped.values().max()), math.log1p(1e296) / math.log1p(1e-10),
                            rel_tol=1e-6)
        assert mu_law_inverse(img(np.ones((4, 4))), mu=1.0, peak=1e38).values().max() == \
            np.float32(1e38)
        assert psnr_mu(big, big, peak=1e-300, mu=1e-10) == math.inf
