"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with -s to see them inline)."""

import functools
import math
import time

import numpy as np

from modspike import (ChunkedEncoder, EncoderConfig, HdrImage, IrradianceClip,
                      ModuloFrame, QuerySpec, SensorConfig, SpikeStream, divergence,
                      encode_stream, frame_capacity, gradient,
                      ideal_window_counts, integrate_and_fire, lar,
                      mu_law, mu_law_inverse, bandwidth_report, poisson_solve,
                      psnr_linear, psnr_mu, ssim_linear,
                      synthesize_clip, unwrap_poisson, Motion)
from scipy.ndimage import gaussian_filter

from conftest import smooth_integer_scene


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return deco


@criterion("1 bandwidth reproduction (20 Gbps -> 6 Gbps, 70%)")
def test_criterion_1_bandwidth():
    raw_only = bandwidth_report(1000, 1000, 1, 20000, 8, 20, mosaic=False)
    assert raw_only.raw_bps == 20_000_000_000
    report = bandwidth_report(1000, 1000, 1, 20000, 8, 20, mosaic=True)
    assert report.raw_bps == 20_000_000_000
    assert report.modulo_bps == 6_000_000_000
    assert report.reduction_ratio == 0.7
    assert report.raw_gbps == 20.0 and report.modulo_gbps == 6.0


@criterion("2 rate decoupling (1000 Hz effective, frame-count law)")
def test_criterion_2_rate_decoupling():
    cfg = EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8)
    rng = np.random.default_rng(0)
    for total in (25, 44, 45, 65, 84, 85, 105, 205):
        bits = rng.integers(0, 2, size=(total, 2, 3, 1), dtype=np.uint8)
        stream = SpikeStream.from_bits(bits, readout_rate_hz=20000)
        seq = encode_stream(stream, cfg)
        assert seq.effective_rate_hz == 1000.0
        assert len(seq) == (total - 25) // 20 + 1
        assert len(seq) == frame_capacity(total, 25, 20)


@criterion("3 wrapped-gradient/Laplacian identity, 1000 random images")
def test_criterion_3_lar_identity_suite():
    rng = np.random.default_rng(1)
    modulus = 256
    start = time.perf_counter()
    for _ in range(1000):
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        img = rng.integers(0, 2 ** 14, size=(h, w))
        wrapped = np.mod(img, modulus)
        gi, gw = gradient(img), gradient(wrapped)
        assert np.array_equal(lar(gw.gx, modulus), lar(gi.gx, modulus))
        assert np.array_equal(lar(gw.gy, modulus), lar(gi.gy, modulus))
        assert np.array_equal(lar(divergence(gradient(wrapped)), modulus),
                              lar(divergence(gradient(img)), modulus))
    assert time.perf_counter() - start < 10.0


@criterion("4 exact unwrap on 100 smooth 12-bit scenes, 512x512 < 2 s")
def test_criterion_4_exact_unwrap():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h = int(rng.integers(16, 65))
        w = int(rng.integers(16, 65))
        peak = float(rng.uniform(300, 4095))
        img = smooth_integer_scene(rng, h, w, peak=peak, max_step=120)
        frame = ModuloFrame(data=np.mod(img, 256).astype(np.uint16), bit_depth=8)
        result = unwrap_poisson(frame)
        assert np.array_equal(result.hdr.values()[:, :, 0], img)
        assert (result.l_grad, result.l_lap) == (0.0, 0.0)
        assert result.converged
    big = smooth_integer_scene(rng, 512, 512, peak=4095, max_step=120)
    frame = ModuloFrame(data=np.mod(big, 256).astype(np.uint16), bit_depth=8)
    start = time.perf_counter()
    result = unwrap_poisson(frame)
    elapsed = time.perf_counter() - start
    assert np.array_equal(result.hdr.values()[:, :, 0], big)
    assert elapsed < 2.0


@criterion("5 spike count tracks integral within one quantum; collapse demo")
def test_criterion_5_spike_count_approximation():
    # constant irradiance, at most one firing per readout interval
    k = 120
    eta = 1.0
    value = 0.8125  # drive per interval, dyadic, < eta
    clip = IrradianceClip(u=np.full((k, 4, 4, 1), value, dtype=np.float32))
    cfg = SensorConfig(threshold=eta, readout_rate_hz=k, total_time_s=1.0,
                       micro_intervals=k)
    stream = integrate_and_fire(clip, cfg)
    bits = stream.bits()[:, :, :, 0]
    for start in range(0, k - 25 + 1, 20):  # every encoder window
        counts = bits[start:start + 25].sum(axis=0)
        integral = value * 25
        assert np.all(np.abs(counts * eta - integral) <= eta)

    # overdriven pixel: two quanta per interval collapse to one bit
    over = IrradianceClip(u=np.full((k, 1, 1, 1), 2.0, dtype=np.float32))
    recorded = int(integrate_and_fire(over, cfg).bits().sum())
    true_firings = 2 * k  # exactly two resets per interval at drive 2*eta
    assert recorded == k
    assert recorded < true_firings


@criterion("6 simulate->encode bridges to ideal query within gain")
def test_criterion_6_bridge_equivalence():
    rng = np.random.default_rng(3)
    gain = 15.0
    enc_cfg = EncoderConfig(window=25, stride=20, gain=gain, bit_depth=8)
    for _ in range(20):
        h = int(rng.integers(8, 20))
        w = int(rng.integers(8, 20))
        scene = smooth_integer_scene(rng, h, w, peak=rng.uniform(200, 2000),
                                     max_step=60).astype(np.float32)
        k = 65  # readout frames = micro-intervals
        eta = float(scene.max()) / k / 0.9  # strictly below one quantum/interval
        cfg = SensorConfig(threshold=eta, readout_rate_hz=k, total_time_s=1.0,
                           micro_intervals=k)
        clip = synthesize_clip(HdrImage(data=scene), Motion(), cfg)
        stream = integrate_and_fire(clip, cfg)
        seq = encode_stream(stream, enc_cfg)

        digital_gain = gain / cfg.threshold
        spec = QuerySpec(window=25, stride=20, digital_gain=digital_gain)
        ideal_pre = ideal_window_counts(clip, spec)
        assert len(seq) == ideal_pre.shape[0]

        bits = stream.bits().astype(np.int64)
        for j, frame in enumerate(seq.frames):
            counts = bits[j * 20:j * 20 + 25].sum(axis=0)
            hw_pre = np.floor(gain * counts).astype(np.int64)
            diff = np.abs(hw_pre - ideal_pre[j])
            assert np.all(diff <= gain)
            same_band = (hw_pre // 256) == (ideal_pre[j] // 256)
            wrapped_diff = frame.values().astype(np.int64) - np.mod(ideal_pre[j], 256)
            assert np.array_equal(wrapped_diff[same_band],
                                  (hw_pre - ideal_pre[j])[same_band])
            assert np.all(np.abs(wrapped_diff[same_band]) <= gain)


@criterion("7 chunked streaming equals single-shot encode, 200 trials")
def test_criterion_7_streaming_equivalence():
    rng = np.random.default_rng(4)
    cfg = EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8)
    for _ in range(200):
        total = int(rng.integers(25, 80))
        bits = rng.integers(0, 2, size=(total, 3, 3, 1), dtype=np.uint8)
        stream = SpikeStream.from_bits(bits, readout_rate_hz=20000)
        cuts = np.sort(rng.integers(0, total + 1, size=int(rng.integers(0, 6))))
        bounds = [0] + list(cuts) + [total]
        enc = ChunkedEncoder(3, 3, 1, cfg)
        for a, b in zip(bounds, bounds[1:]):
            enc.push(bits[a:b])
        split = enc.sequence()
        whole = encode_stream(stream, cfg)
        assert len(split) == len(whole)
        for a, b in zip(whole.frames, split.frames):
            assert np.array_equal(a.data, b.data)


@criterion("8 spectral solver inverts the Laplacian to 1e-6 of range")
def test_criterion_8_solver_check():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = gaussian_filter(rng.normal(size=(64, 64)), 4.0) * 100
        sol = poisson_solve(divergence(gradient(x)))
        err = np.max(np.abs(sol - (x - x.mean())))
        assert err <= 1e-6 * (x.max() - x.min())


@criterion("9 metric identities, oracles, mu-law round trip")
def test_criterion_9_metric_sanity():
    rng = np.random.default_rng(6)
    a = HdrImage(data=rng.uniform(0, 4095, (16, 16)).astype(np.float32))
    b = HdrImage(data=rng.uniform(0, 4095, (16, 16)).astype(np.float32))
    # identities
    assert psnr_linear(a, a, 4095.0) == float("inf")
    assert ssim_linear(a, a, 4095.0) == 1.0
    assert psnr_mu(a, a, mu=5000.0, peak=4095.0) == float("inf")
    # PSNR against the plain MSE formula
    mse = float(np.mean((a.values() - b.values()) ** 2))
    assert math.isclose(psnr_linear(a, b, 4095.0),
                        10 * math.log10(4095.0 ** 2 / mse), rel_tol=1e-9)
    # brightness shift scores below identity
    shifted = HdrImage(data=(a.values()[:, :, 0] + 200.0).astype(np.float32))
    assert ssim_linear(a, shifted, 4095.0) < 1.0
    # mu-law round trip at the default compression setting
    values = np.concatenate([[0.0, 1.0, 4095.0],
                             rng.uniform(0, 4095, 500)]).astype(np.float32)
    img = HdrImage(data=values.reshape(-1, 1))
    back = mu_law_inverse(mu_law(img, mu=5000.0, peak=4095.0),
                          mu=5000.0, peak=4095.0)
    orig = img.values()
    rel = np.abs(back.values() - orig) / np.maximum(np.abs(orig), 1e-6)
    assert np.all(rel <= 1e-6)
