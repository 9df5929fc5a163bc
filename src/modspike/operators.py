"""Discrete differential operators, the least-absolute-remainder map, and a
Neumann Poisson solver.

The discretization is fixed so the three operators close algebraically:

  * gradient  — forward differences, last row/column zero-padded
  * divergence — backward differences (negative adjoint of the gradient)
  * laplacian  = divergence(gradient(.)), exactly the 5-point stencil with
    reflecting (Neumann) boundaries

With that choice the Laplacian is diagonalized by the type-II cosine basis:
the 1-D eigenvalues are 2*cos(pi*k/n) - 2, so `poisson_solve` inverts it
spectrally up to floating point. The solution is gauged to mean zero; the
constant is resolved downstream by congruence snapping.

`poisson_solve` first projects its right-hand side onto the compatible
subspace by removing each channel's mean, taken over axes (0, 1) of the
caller's (H, W[, C]) layout. The unwrapper's solve skips that projection
and transforms a channel-first (C, H, W) array instead: its right-hand
side is the divergence of an integer gradient field, which sums to
exactly 0 per channel by telescoping, so the mean it would subtract is
exactly 0.0. Both layouts give the same bytes; a float right-hand side
keeps the projection, because taking its mean in another order can
change the solution's last bits.

All functions are pure, operate on (H, W) or (H, W, C) rasters, process
channels independently, and are deterministic for a fixed input. Float
input is computed in float64. `gradient`, `divergence` and `laplacian` keep
integer input in integers: a signed type of at least 32 bits (the input's
own type when it is already that; unsigned types go one size up, and
uint64 falls back to float64). The results equal the float64 results
exactly as long as the differences fit the type: for int32 input, keep
magnitudes below 2^29. `lar` keeps integer input in integers when the
modulus is a power of two, which every `ModuloFrame` modulus is; any other
modulus takes the float64 path. `poisson_solve` always works in float64.

A key arithmetic fact used throughout: the least absolute remainder of a
sum depends only on the residues of its terms, so wrapping an integer
raster modulo m leaves the centered remainders of its gradient and
Laplacian unchanged. That identity is what makes wrapped frames usable as
first- and second-order measurements of the unwrapped scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import check_dims, check_ndim, check_positive


@dataclass(frozen=True)
class GradientField:
    """Per-axis forward differences; gx zero on the last column, gy on the
    last row."""

    gx: np.ndarray
    gy: np.ndarray


@dataclass(frozen=True)
class LaplacianField:
    """divergence(gradient(.)) raster; entries sum to zero by telescoping."""

    lap: np.ndarray


def _work_dtype(*arrays: np.ndarray) -> np.dtype:
    """Signed integer type of at least 32 bits for all-integer input, else
    float64."""
    dtype = np.result_type(*arrays)
    if np.issubdtype(dtype, np.integer):
        return np.promote_types(dtype, np.int32)
    return np.dtype(np.float64)


def _as_raster(img, dtype=None) -> np.ndarray:
    arr = np.asarray(img)
    check_ndim(arr, (2, 3), "raster")
    return arr.astype(dtype or _work_dtype(arr), copy=False)


def gradient(img) -> GradientField:
    """Forward differences along width (gx) and height (gy)."""
    arr = _as_raster(img)
    gx = np.zeros_like(arr)
    gy = np.zeros_like(arr)
    gx[:, :-1] = arr[:, 1:] - arr[:, :-1]
    gy[:-1, :] = arr[1:, :] - arr[:-1, :]
    return GradientField(gx=gx, gy=gy)


def divergence(gf: GradientField) -> np.ndarray:
    """Backward-difference divergence, the negative adjoint of `gradient`.

    divergence(gradient(x)) equals the 5-point Neumann Laplacian of x.
    """
    gx = np.asarray(gf.gx)
    gy = np.asarray(gf.gy)
    check_dims(gx.shape, gy.shape, "GradientField gx, gy")
    check_ndim(gx, (2, 3), "GradientField")
    dtype = _work_dtype(gx, gy)
    gx = gx.astype(dtype, copy=False)
    gy = gy.astype(dtype, copy=False)
    div = np.zeros_like(gx)
    div[:, :1] += gx[:, :1]  # slices, not indices: a zero-size raster has no row 0
    div[:, 1:] += gx[:, 1:] - gx[:, :-1]
    div[:1, :] += gy[:1, :]
    div[1:, :] += gy[1:, :] - gy[:-1, :]
    return div


def laplacian(img) -> LaplacianField:
    """5-point Neumann Laplacian, computed as divergence(gradient(img))."""
    return LaplacianField(lap=divergence(gradient(img)))


def lar(values, modulus: float):
    """Least absolute remainder: map each value to its representative in
    [-modulus/2, modulus/2).

    Depends only on the residue class mod `modulus`, and is exact for
    integer-valued float64 input. Integer input with an integer power-of-two
    modulus stays integer: ((x + m/2) & (m - 1)) - m/2 in two's complement.
    """
    check_positive(modulus, "modulus")
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
    """Least-squares solve of laplacian(x) = rhs under Neumann boundaries.

    The right-hand side is projected onto the compatible subspace by
    removing its per-channel mean; the returned x has mean exactly zero
    (the constant mode is gauged out). Solved by diagonalizing the 5-point
    Neumann Laplacian in the type-II cosine basis. scipy.fft is imported
    on the first call.
    """
    arr = _as_raster(rhs, np.float64)
    if arr.shape[0] * arr.shape[1] <= 1:
        return np.zeros_like(arr)
    return _cosine_solve(arr - arr.mean(axis=(0, 1), keepdims=True), (0, 1))


def _cosine_solve(compat: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """The mean-zero x with laplacian(x) = compat over the (rows, columns)
    `axes` of a float64 array that already sums to zero over them, channel
    by channel: `poisson_solve`'s projected rhs, or the unwrapper's
    integer divergence, which needs no projection. Solved in place:
    `compat` is overwritten and returned.
    """
    from scipy.fft import dctn, idctn

    h, w = compat.shape[axes[0]], compat.shape[axes[1]]
    if h * w <= 1:
        compat.fill(0.0)
        return compat
    spec = dctn(compat, type=2, norm="ortho", axes=axes, overwrite_x=True)
    lam_y = 2.0 * np.cos(np.pi * np.arange(h) / h) - 2.0
    lam_x = 2.0 * np.cos(np.pi * np.arange(w) / w) - 2.0
    lam = lam_y[:, None] + lam_x[None, :]
    lam[0, 0] = 1.0  # placeholder; the DC mode is zeroed below
    spec /= lam.reshape(lam.shape + (1,) * (spec.ndim - 1 - axes[1]))
    spec[(slice(None),) * axes[0] + (0, 0)] = 0.0
    return idctn(spec, type=2, norm="ortho", axes=axes, overwrite_x=True)
