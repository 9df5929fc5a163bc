"""Float-domain reference for `modspike.unwrap_poisson`.

This is the unwrapper as it ran entirely in float64: operators on float
input, the offset-search gathers rebuilt on every call, and a residual
report on the float64 values (its zeroth-order check does not see the
float32 rounding of counts past 2^24). The library's integer-domain
unwrapper must reproduce it bit for bit on every scene below 2^24 counts.

`poisson_solve` is a frozen copy of the library's solver as it stood
before the channel-batched decoder: per-channel mean projection, then the
cosine-basis solve over axes (0, 1) of the (H, W[, C]) raster.
`gradient`, `divergence`, `laplacian` and `lar` are frozen copies of the
public operators as they stood before they shared their kernels with the
unwrapper. The parity gates compare against these copies, so they do not
move with the library.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from modspike import GradientField, HdrImage, ModuloFrame

RESIDUAL_TOL = 1e-6  # the float decoder's convergence tolerance, frozen with it


@dataclass(frozen=True)
class ReferenceResult:
    """`modspike.UnwrapResult`'s fields, plus the zeroth-order residual
    `l_mod`: the mean centered remainder of hdr - frame, measured here in
    float64 and not by construction."""

    hdr: HdrImage
    rollover_map: np.ndarray
    l_mod: float
    l_grad: float
    l_lap: float
    converged: bool
    decoder: str


def _work_dtype(*arrays: np.ndarray) -> np.dtype:
    dtype = np.result_type(*arrays)
    if np.issubdtype(dtype, np.integer):
        return np.promote_types(dtype, np.int32)
    return np.dtype(np.float64)


def gradient(img) -> GradientField:
    arr = np.asarray(img)
    assert arr.ndim in (2, 3)
    arr = arr.astype(_work_dtype(arr), copy=False)
    gx = np.zeros_like(arr)
    gy = np.zeros_like(arr)
    gx[:, :-1] = arr[:, 1:] - arr[:, :-1]
    gy[:-1, :] = arr[1:, :] - arr[:-1, :]
    return GradientField(gx=gx, gy=gy)


def divergence(gf: GradientField) -> np.ndarray:
    gx = np.asarray(gf.gx)
    gy = np.asarray(gf.gy)
    assert gx.shape == gy.shape and gx.ndim in (2, 3)
    dtype = _work_dtype(gx, gy)
    gx = gx.astype(dtype, copy=False)
    gy = gy.astype(dtype, copy=False)
    div = np.zeros_like(gx)
    div[:, :1] += gx[:, :1]
    div[:, 1:] += gx[:, 1:] - gx[:, :-1]
    div[:1, :] += gy[:1, :]
    div[1:, :] += gy[1:, :] - gy[:-1, :]
    return div


def laplacian(img) -> np.ndarray:
    return divergence(gradient(img))


def lar(values, modulus):
    assert 0 < modulus < np.inf
    arr = np.asarray(values)
    if (np.issubdtype(arr.dtype, np.integer) and isinstance(modulus, (int, np.integer))
            and modulus & (modulus - 1) == 0):
        half = int(modulus) // 2
        out = np.add(arr, half, dtype=_work_dtype(arr))
        out &= int(modulus) - 1
        out -= half
        return out
    arr = arr.astype(np.float64, copy=False)
    half = modulus / 2.0
    return np.mod(arr + half, modulus) - half


def poisson_solve(rhs) -> np.ndarray:
    arr = np.asarray(rhs)
    assert arr.ndim in (2, 3)
    arr = arr.astype(np.float64, copy=False)
    h, w = arr.shape[:2]
    if h * w <= 1:
        return np.zeros_like(arr)
    compat = arr - arr.mean(axis=(0, 1), keepdims=True)
    spec = dctn(compat, type=2, norm="ortho", axes=(0, 1))
    lam_y = 2.0 * np.cos(np.pi * np.arange(h) / h) - 2.0
    lam_x = 2.0 * np.cos(np.pi * np.arange(w) / w) - 2.0
    lam = lam_y[:, None] + lam_x[None, :]
    lam[0, 0] = 1.0  # placeholder; the DC mode is zeroed below
    if arr.ndim == 3:
        lam = lam[:, :, None]
    spec = spec / lam
    spec[0, 0] = 0.0
    return idctn(spec, type=2, norm="ortho", axes=(0, 1))


def round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def offset_objective(diff: np.ndarray, modulus: int) -> np.ndarray:
    e = np.mod(diff.ravel(), modulus)
    bins = np.minimum(np.floor(e).astype(np.int64), modulus - 1)
    frac = e - bins
    hist = np.bincount(bins, minlength=modulus).astype(np.float64)
    fsum = np.bincount(bins, weights=frac, minlength=modulus)
    b = np.arange(modulus)
    kernel = np.where(b < modulus // 2, b, modulus - b).astype(np.float64)
    sign = np.where(b < modulus // 2, 1.0, -1.0)
    if modulus <= 2048:
        idx = (np.arange(modulus)[:, None] + b[None, :]) % modulus  # [c, j] -> (j+c) mod m
        return kernel[idx] @ hist + sign[idx] @ fsum
    spec_h = np.fft.rfft(hist)
    spec_f = np.fft.rfft(fsum)
    return (np.fft.irfft(np.conj(spec_h) * np.fft.rfft(kernel), n=modulus)
            + np.fft.irfft(np.conj(spec_f) * np.fft.rfft(sign), n=modulus))


def snap_channel(estimate: np.ndarray, observed: np.ndarray, modulus: int) -> np.ndarray:
    diff = estimate - observed
    offset = int(np.argmin(offset_objective(diff, modulus)))
    rollover = round_half_away((diff + offset) / modulus).astype(np.int64)
    rollover -= rollover.min()
    return rollover


def reconstruction_residuals(hdr_values: np.ndarray, obs: np.ndarray,
                             centered: GradientField, modulus: int) -> tuple[float, float, float]:
    """(l_mod, l_grad, l_lap) of the float64 reconstruction `hdr_values`."""
    l_mod = float(np.mean(np.abs(lar(hdr_values - obs, modulus))))
    gh = gradient(hdr_values)
    l_grad = float(np.mean(np.abs(np.stack([gh.gx - centered.gx,
                                            gh.gy - centered.gy]))))
    l_lap = float(np.mean(np.abs(laplacian(hdr_values)
                                 - lar(laplacian(obs), modulus))))
    return l_mod, l_grad, l_lap


def unwrap_poisson(frame: ModuloFrame, tol: float = RESIDUAL_TOL) -> ReferenceResult:
    modulus = frame.modulus
    obs = frame.values()
    gf = gradient(obs)
    centered = GradientField(gx=lar(gf.gx, modulus), gy=lar(gf.gy, modulus))
    estimate = poisson_solve(divergence(centered))
    rollover = np.empty(obs.shape, dtype=np.int32)
    for c in range(obs.shape[2]):
        rollover[:, :, c] = snap_channel(estimate[:, :, c], obs[:, :, c], modulus)
    hdr_values = obs + rollover.astype(np.float64) * modulus
    hdr = HdrImage(data=hdr_values.astype(np.float32))
    residuals = reconstruction_residuals(hdr_values, obs, centered, modulus)
    return ReferenceResult(hdr, rollover, *residuals, converged=max(residuals) < tol,
                           decoder="poisson")
