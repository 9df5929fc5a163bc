"""Discrete differential operators, the least-absolute-remainder map, and a
Neumann Poisson solver.

The discretization is fixed so the two operators close algebraically:

  * gradient  — forward differences, last row/column zero-padded
  * divergence — backward differences (negative adjoint of the gradient)

so the Laplacian is divergence(gradient(.)), exactly the 5-point stencil
with reflecting (Neumann) boundaries. With that choice it is diagonalized
by the type-II cosine basis: the 1-D eigenvalues are 2*cos(pi*k/n) - 2, so
`poisson_solve` inverts it spectrally up to floating point. The solution
is gauged to mean zero; the constant is resolved downstream by congruence
snapping.

`gradient`, `divergence` and `poisson_solve` are float64 layout adapters
over the private kernels `_forward_differences`, `_divergence` and
`_cosine_solve`; `_lar_pow2` (which can also split off the wrap indicators
that `_wraps` computes alone) is `lar` in place over signed integers, for
a power-of-two modulus. The unwrapper runs these kernels, in its own int16
and int32 work types for all but the solve; nothing in the library calls
a public operator. The difference kernels work over axes (0, 1) of
C-contiguous (H, W[, C]) arrays and take each difference in one pass over
the flat array; the entries it gets wrong, across a line's end, are ones
the kernel zeroes or overwrites.
`_cosine_solve` takes the (rows, columns) `axes` it works over: (0, 1)
for `poisson_solve`, (1, 2) for the unwrapper's channel-first (C, H, W)
copy.

The public functions are pure, process channels independently, and are
deterministic. They compute in float64 and return float64 for any real
input, so a divergence is summed as dx + (gy[i] - gy[i-1]) and holds no
-0.0. Bool, integer and float samples are taken; complex, object, text and
date samples are refused with `ValidationError` naming the argument, and so
are integer samples at or past +-2^50. Inside that bound every gradient,
divergence and Laplacian of integers is exact in float64, and so is `lar`
for any power-of-two modulus up to 2^53.

A key arithmetic fact used throughout: the least absolute remainder of a
sum depends only on the residues of its terms, so wrapping an integer
raster modulo m leaves the centered remainders of its gradient and
Laplacian unchanged. That identity is what makes wrapped frames usable as
first- and second-order measurements of the unwrapped scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import ValidationError, check_dims, check_float, check_ndim, check_real


@dataclass(frozen=True)
class GradientField:
    """Per-axis forward differences; gx zero on the last column, gy on the
    last row."""

    gx: np.ndarray
    gy: np.ndarray


_EXACT = 2 ** 50


def _real(values, name: str) -> np.ndarray:
    """`values` as an array of real numbers (`check_real`), integers strictly
    inside +-2^50, where float64 holds every sum the operators take; scanned
    only where the type can hold a value past that."""
    arr = check_real(values, name)
    if arr.dtype.kind in "iu" and np.iinfo(arr.dtype).max >= _EXACT and not (
            -_EXACT < arr.min(initial=0) and arr.max(initial=0) < _EXACT):
        raise ValidationError(f"{name}: integer samples must lie strictly inside +-2^50")
    return arr


def _as_raster(img, name: str = "raster") -> np.ndarray:
    """`img`'s (H, W[, C]) samples as the C-contiguous float64 array the
    kernels take (`img` itself when it is one), after `_real`."""
    arr = _real(img, name)
    check_ndim(arr, (2, 3), name)
    return np.ascontiguousarray(arr, dtype=np.float64)


def _step(a: np.ndarray, axis: int):
    """(s, first, last) for `axis` of C-contiguous `a`: the flat distance
    between neighbours along it, and the index of its first and last line."""
    lead = (slice(None),) * axis
    return math.prod(a.shape[axis + 1:]), lead + (slice(None, 1),), lead + (slice(-1, None),)


def _difference(a: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference of C-contiguous `a` in its own type along `axis`,
    zero on the last line, where the flat pass crosses a line's end."""
    s, _, last = _step(a, axis)
    flat, g = a.reshape(-1), np.empty(a.shape, a.dtype)
    np.subtract(flat[s:], flat[:flat.size - s], out=g.reshape(-1)[:flat.size - s])
    g[last] = 0
    return g


def _forward_differences(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_difference` along the columns (gx) and rows (gy) of (H, W[, C]) `a`."""
    return _difference(a, 1), _difference(a, 0)


def _divergence(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Backward-difference divergence of C-contiguous (H, W[, C]) (gx, gy),
    as dx + (gy[i] - gy[i-1]), into a fresh array.
    Spends gx, whose storage takes the row differences once dx is out: no
    difference is written over its own input, so numpy buffers no overlap."""
    (sx, x_first, _), (sy, y_first, _) = _step(gx, 1), _step(gx, 0)
    fx, fy = gx.reshape(-1), gy.reshape(-1)
    div = np.empty(gx.shape, gx.dtype)
    np.subtract(fx[sx:], fx[:fx.size - sx], out=div.reshape(-1)[sx:])
    div[x_first] = gx[x_first]
    np.subtract(fy[sy:], fy[:fy.size - sy], out=fx[sy:])
    gx[y_first] = gy[y_first]
    div += gx
    return div


def _wraps(values: np.ndarray, modulus: int, out: np.ndarray | None = None) -> np.ndarray:
    """The wrap indicators wraps(x) = (x - lar(x)) / m = (x + m/2) >> N of
    signed integers x, for a power-of-two modulus m = 2^N, shifted in x's
    type into `out`, else over x. Either way `values` is left at x + m/2."""
    values += modulus // 2
    return np.right_shift(values, modulus.bit_length() - 1, out=values if out is None else out)


def _lar_pow2(values: np.ndarray, modulus: int, wraps: bool = False) -> np.ndarray | None:
    """lar(values, modulus) in place over signed integers, for a power-of-two
    modulus: ((x + m/2) & (m - 1)) - m/2. With `wraps`, returns
    `_wraps(values)` as int8."""
    split = _wraps(values, modulus, np.empty(values.shape, np.int8)) if wraps else None
    if split is None:  # else `_wraps` has added m/2
        values += modulus // 2
    values &= modulus - 1
    values -= modulus // 2
    return split


def gradient(img) -> GradientField:
    """Forward differences along width (gx) and height (gy)."""
    return GradientField(*_forward_differences(_as_raster(img)))


def divergence(gf: GradientField) -> np.ndarray:
    """Backward-difference divergence, the negative adjoint of `gradient`.

    divergence(gradient(x)) equals the 5-point Neumann Laplacian of x.
    """
    gx = _real(gf.gx, "GradientField.gx")
    check_ndim(gx, (2, 3), "GradientField.gx")
    gy = _as_raster(gf.gy, "GradientField.gy")
    check_dims(gx.shape, gy.shape, "GradientField gx, gy")
    # the kernel spends a fresh float64 copy of gx, cast in the same pass;
    # adding 0 turns its -0.0 into 0.0, so no dx is -0.0 and no dx + dy is
    return _divergence(np.add(gx, 0, dtype=np.float64, order="C"), gy)


def lar(values, modulus: float):
    """Least absolute remainder: map each value to its representative in
    [-modulus/2, modulus/2), as float64.

    Depends only on the residue class mod `modulus`. Exact for integer
    values and modulus while |value| + modulus/2 < 2^52 (2^53 for an even
    modulus), so for every integer sample `_real` takes and any
    power-of-two modulus up to 2^53; a modulus past 2^53, where float64
    rounds, raises.
    """
    check_float(modulus, "modulus", math.ulp(0.0), 2 ** 53)
    arr = _real(values, "values").astype(np.float64, copy=False)
    half = modulus / 2.0
    return np.mod(arr + half, modulus) - half


def poisson_solve(rhs) -> np.ndarray:
    """Least-squares solve of divergence(gradient(x)) = rhs under Neumann
    boundaries.

    The right-hand side is projected onto the compatible subspace by
    removing its per-channel mean; the returned x has mean exactly zero
    (the constant mode is gauged out). Solved by diagonalizing the 5-point
    Neumann Laplacian in the type-II cosine basis. scipy.fft is imported
    on the first call.
    """
    arr = _as_raster(rhs)
    if arr.shape[0] * arr.shape[1] <= 1:
        return np.zeros_like(arr)
    return _cosine_solve(arr - arr.mean(axis=(0, 1), keepdims=True), (0, 1))


def _cosine_solve(compat: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """The mean-zero x with divergence(gradient(x)) = compat over the
    (rows, columns) `axes` of a float64 array that already sums to zero
    over them, channel by channel: `poisson_solve`'s projected rhs, or the
    unwrapper's integer divergence, which needs no projection. Solved in place:
    `compat` is overwritten and returned.
    """
    from scipy.fft import dctn, idctn

    h, w = compat.shape[axes[0]], compat.shape[axes[1]]
    spec = dctn(compat, type=2, norm="ortho", axes=axes, overwrite_x=True)
    lam_y = 2.0 * np.cos(np.pi * np.arange(h) / h) - 2.0
    lam_x = 2.0 * np.cos(np.pi * np.arange(w) / w) - 2.0
    lam = lam_y[:, None] + lam_x[None, :]
    lam[0, 0] = 1.0  # placeholder; the DC mode is zeroed below
    spec /= lam.reshape(lam.shape + (1,) * (spec.ndim - 1 - axes[1]))
    spec[(slice(None),) * axes[0] + (0, 0)] = 0.0
    return idctn(spec, type=2, norm="ortho", axes=axes, overwrite_x=True)
