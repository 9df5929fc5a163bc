"""Quality metrics, the mu-law tone map and bandwidth accounting.

PSNR and SSIM are evaluated in the linear radiance domain against an
explicit peak; the tone-mapped variant applies the mu-law compression to
both images first and scores them against peak 1. Identical inputs score
infinite PSNR (a documented sentinel, not an error) and SSIM exactly 1.

Bandwidth figures are exact bit counts per second: a raw spike stream
costs height*width*channels*rate bits/s (one plane for a mosaic sensor),
while the encoded output costs pixels*channels*bits*rate/stride. The
mosaic layout halves each spatial dimension and yields three channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import (HdrImage, ValidationError, check_bit_depth, check_dims, check_geometry,
                    check_integer, check_positive)

DEFAULT_MU = 5000.0
DEFAULT_PEAK = float(2 ** 12 - 1)  # 12-bit ground truth convention
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_peak(peak, value=None, name: str = "peak") -> float:
    """`value` (peak * peak when not given), a constant a metric squares or
    multiplies out of `peak` (or `mu`), if a finite, nonzero float64; past
    that PSNR reads inf, SSIM nan. `peak` is checked first, so its square
    is taken only of a number."""
    check_positive(peak, name)
    value = peak * peak if value is None else value
    if not 0 < value <= float(np.finfo(np.float64).max):  # exact for an int, too
        raise ValidationError(f"{name}: {peak} takes the metric out of the float64 range")
    return value


def psnr_linear(a: HdrImage, b: HdrImage, peak: float) -> float:
    """10*log10(peak^2 / MSE); +inf when the images are identical."""
    check_dims(a.data.shape, b.data.shape, "HdrImage")
    _check_peak(peak)
    mse = float(np.mean((a.values() - b.values()) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(_check_peak(peak, peak * peak / mse))


def _ssim_kernel() -> np.ndarray:
    half = SSIM_WINDOW // 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


def _correlate_valid(x: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate `x` with the odd, symmetric `kernel` along `axis`, keeping
    only the centers whose window lies inside `x`. Sums in the order
    SciPy's `ndimage.correlate1d` uses for a symmetric kernel of half-width h,
    x[c]*k[h] + sum over j = h..1 of (x[c-j] + x[c+j])*k[h-j], so every
    value is bit-identical to it."""
    half = len(kernel) // 2
    n = x.shape[axis]

    def tap(j):  # the sample j away from each kept center
        return x[(slice(None),) * axis + (slice(half + j, n - half + j),)]

    out = tap(0) * kernel[half]
    for j in range(half, 0, -1):
        out += (tap(-j) + tap(j)) * kernel[half - j]
    return out


def _windowed_mean(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Kernel-weighted mean of every full-support window of `plane`."""
    return _correlate_valid(_correlate_valid(plane, kernel, 0), kernel, 1)


def ssim_linear(a: HdrImage, b: HdrImage, peak: float) -> float:
    """Mean structural similarity over an 11x11 Gaussian window (sigma 1.5,
    stability constants 0.01/0.03 of peak), channels averaged. The windowed
    means are computed with numpy alone, bit-identical to SciPy's
    `ndimage.correlate1d`."""
    check_dims(a.data.shape, b.data.shape, "HdrImage")
    _check_peak(peak)
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise ValidationError(
            f"HdrImage: SSIM needs at least {SSIM_WINDOW}x{SSIM_WINDOW}, got "
            f"{a.height}x{a.width}")
    kernel = _ssim_kernel()
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    _check_peak(peak, c1 * c2)
    xs = a.values()
    ys = b.values()
    scores = []
    for c in range(a.channels):
        x = xs[:, :, c]
        y = ys[:, :, c]
        mu_x = _windowed_mean(x, kernel)
        mu_y = _windowed_mean(y, kernel)
        var_x = _windowed_mean(x * x, kernel) - mu_x * mu_x
        var_y = _windowed_mean(y * y, kernel) - mu_y * mu_y
        cov = _windowed_mean(x * y, kernel) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))


def _in_range(x: np.ndarray, name: str, value, dtype=np.float64) -> np.ndarray:
    """`x`, samples >= 0 scaled by `name` = `value`, if none passes what `dtype` holds."""
    if not x.max() <= float(np.finfo(dtype).max):
        raise ValidationError(f"{name}: {value} takes the samples past {np.dtype(dtype).name}")
    return x


def mu_law(hdr: HdrImage, mu: float = DEFAULT_MU, peak: float = DEFAULT_PEAK) -> HdrImage:
    """Logarithmic tone map log(1 + mu*x)/log(1 + mu) of the peak-normalized
    image; `peak` or `mu` must keep every step finite."""
    mu, peak = float(_check_peak(mu, mu, "mu")), float(_check_peak(peak, peak))
    with np.errstate(over="ignore"):  # mu * x past float64 reads inf, which the store rejects
        x = np.log1p(mu * _in_range(hdr.values() / peak, "peak", peak)) / np.log1p(mu)
    return HdrImage(data=_in_range(x, "mu", mu, np.float32))


def mu_law_inverse(mapped: HdrImage, mu: float = DEFAULT_MU,
                   peak: float = DEFAULT_PEAK) -> HdrImage:
    """Exact algebraic inverse of `mu_law`: x = (exp(y*log(1+mu)) - 1)/mu,
    then denormalize by peak; `mu` or `peak` must keep every step finite."""
    mu, peak = float(_check_peak(mu, mu, "mu")), float(_check_peak(peak, peak))
    with np.errstate(over="ignore"):  # x * peak past float64 reads inf, which the store rejects
        x = _in_range(np.expm1(mapped.values() * np.log1p(mu)) / mu, "mu", mu) * peak
    return HdrImage(data=_in_range(x, "peak", peak, np.float32))


def psnr_mu(a: HdrImage, b: HdrImage, mu: float = DEFAULT_MU,
            peak: float = DEFAULT_PEAK) -> float:
    """PSNR of the mu-law tone-mapped images against unit peak; `peak`
    normalizes the linear inputs before compression."""
    return psnr_linear(mu_law(a, mu=mu, peak=peak), mu_law(b, mu=mu, peak=peak), 1.0)


@dataclass(frozen=True)
class BandwidthReport:
    """Exact bit rates of the raw spike stream and the encoded output."""

    raw_bps: int
    modulo_bps: int | float
    reduction_ratio: float

    @property
    def raw_gbps(self) -> float:
        return self.raw_bps / 1e9

    @property
    def modulo_gbps(self) -> float:
        return self.modulo_bps / 1e9


def bandwidth_report(height: int, width: int, channels: int, readout_rate_hz: int,
                     bit_depth: int, stride: int, mosaic: bool) -> BandwidthReport:
    """Bandwidth of raw spike transmission vs. sliding-window modulo output.

    Raw baseline: binary frames of every channel (of one full-resolution
    plane with `mosaic`) at the readout rate. Encoded: N-bit frames at
    rate/stride; with `mosaic` the encoder sees 3 half-resolution channels.
    """
    for name, v in (("readout_rate_hz", readout_rate_hz), ("stride", stride)):
        check_integer(v, name)
        check_positive(v, name)
    check_bit_depth(bit_depth, "bit_depth")
    check_geometry(height, width, channels, "bandwidth_report")
    if mosaic and (height % 2 or width % 2):
        raise ValidationError(
            f"height/width: mosaic needs even dimensions, got {height}x{width}")
    raw_bps = height * width * (1 if mosaic else channels) * readout_rate_hz
    if mosaic:
        pixels_bits = (height // 2) * (width // 2) * 3 * bit_depth
    else:
        pixels_bits = height * width * channels * bit_depth
    total = pixels_bits * readout_rate_hz
    modulo_bps = total // stride if total % stride == 0 else total / stride
    reduction = (raw_bps - modulo_bps) / raw_bps
    return BandwidthReport(raw_bps=raw_bps, modulo_bps=modulo_bps,
                           reduction_ratio=reduction)
