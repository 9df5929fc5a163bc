"""Iteration-free unwrapping of modulo frames, plus the numeric primitives
used to reason about wrapped measurements.

`unwrap_poisson` has two decoders. A frame counted by a spike encoder
(`ModuloFrame.counted_by`) can only hold the codes of floor(gain * c) for
counts c in 0..window. When those window + 1 values have distinct codes
mod 2^N, the lattice decoder reads each pixel's value from a code -> value
table: exact for any scene, with no half-period condition. Every other
frame (no provenance, codes that do not identify values, or a code the
encoder cannot produce) goes through the Poisson decoder, which recovers
the scene in three steps:

  1. centered gradient: lar(gradient(frame), 2^N), in int32 — identical
     to the centered gradient of the unwrapped scene wherever
     neighboring-pixel differences stay within half a period (the Itoh
     condition); its divergence is an int32 field too;
  2. least-squares integration: the cosine-basis Poisson solve of that
     divergence, the one float64 step, gives a mean-zero estimate of the
     scene up to an additive constant per channel;
  3. congruence snapping: an exhaustive search over the 2^N unit offsets
     picks the constant whose shifted estimate best agrees with the
     observation modulo 2^N, the per-pixel wrap counts are rounded out
     (ties away from zero), and the map is re-based so its minimum is
     zero — anchoring the scene to the base band under the assumption
     that at least one pixel never wrapped.

Both decoders work on one channel-first (C, H, W) int32 copy of the
frame, so each step is a few contiguous passes over all channels, most
in place. The snap is channel-batched except for the offset search, which
runs per plane: its residues come from x - m*floor(x/m), equal to np.mod
bit for bit at a fraction of its cost. The output is byte-identical to
the per-channel float64 decoder in tests/reference_unwrap.py.

Both decoders share the front end and the residual report below. The
reconstruction is congruent to the input by construction; the
zeroth-order residual (mean centered remainder of hdr - frame) checks
that the float32 samples actually returned still are, which fails only
once counts pass 2^24. Because congruence also forces the *wrapped*
gradients of output and input to agree bit-exactly, a wrapped-both-sides
comparison carries no information about reconstruction quality; the
first/second-order residuals therefore compare the reconstruction's plain
gradient and Laplacian against the centered measurements lar(grad frame)
and lar(lap frame). Under the half-period condition these are literal
zeros for integer scenes; measurement fields with curl (half-period
violations) leave a nonzero mismatch and clear `converged`. All three
residuals are computed in integers, the first/second-order ones from the
wrap counts: with hdr = frame + 2^N * rollover, each mismatch is 2^N
times a small integer field built from the rollover map and the wrap
indicators the front end split off, so no int64 copy of the scene is
made. They certify consistency with the observation and with the
half-period model, not correctness: a straight edge that breaks the
half-period condition leaves a curl-free field, so the Poisson decoder
can be off by 2^N on one side and still converge, while the exact
lattice decode of that scene does not converge.

Also here: the invertible mu-law tone map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import _cosine_solve, lar
from .types import EncoderConfig, HdrImage, ModuloFrame, check_positive

RESIDUAL_TOL = 1e-6
DEFAULT_MU = 5000.0
DEFAULT_PEAK = float(2 ** 12 - 1)  # 12-bit ground truth convention


@dataclass(frozen=True)
class ConsistencyResiduals:
    """Mean absolute consistency residuals at zeroth/first/second order."""

    l_mod: float
    l_grad: float
    l_lap: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l_mod, self.l_grad, self.l_lap)

    def max(self) -> float:
        return max(self.as_tuple())


@dataclass(frozen=True)
class UnwrapResult:
    """Reconstruction plus per-pixel wrap counts and consistency report.

    hdr = frame + rollover_map * 2^N holds elementwise, exactly, whenever
    float32 stores those counts exactly, which every count below 2^24 is.
    Past that hdr holds the nearest float32 values, and residuals.l_mod
    reports the samples no longer congruent to the frame.

    `converged` means every residual is below tolerance: the result is
    consistent with the observation and with the half-period model. It
    does not certify correctness. `decoder` names the path that ran,
    "lattice" (table lookup on an encoder-counted frame, exact) or
    "poisson".
    """

    hdr: HdrImage
    rollover_map: np.ndarray  # (H, W, C) int32, >= 0
    residuals: ConsistencyResiduals
    converged: bool
    decoder: str = "poisson"


def _circulant(v: np.ndarray) -> np.ndarray:
    """Read-only (n, n) matrix whose row c is v[(j + c) mod n] over j."""
    out = np.lib.stride_tricks.sliding_window_view(np.concatenate([v, v[:-1]]), v.size).copy()
    out.setflags(write=False)
    return out


def _offset_kernels(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """|lar(b)| and the sign of lar(b) for every residue b in [0, modulus)."""
    b = np.arange(modulus)
    return (np.where(b < modulus // 2, b, modulus - b).astype(np.float64),
            np.where(b < modulus // 2, 1.0, -1.0))


@functools.cache
def _offset_matrices(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Circulant matrices of both offset kernels. Built on first use of a
    modulus and kept; only the power-of-two moduli up to 2048 get here, so
    at most 11 entries, 2 * 32 MiB at m = 2048."""
    kernel, sign = _offset_kernels(modulus)
    return _circulant(kernel), _circulant(sign)


def _floor_mod(x: np.ndarray, modulus: int) -> np.ndarray:
    """np.mod(x, modulus) bit for bit, for float64 x and a power-of-two
    modulus, as x - modulus * floor(x / modulus): four vectorized passes
    instead of np.mod's fmod call per element (about 27 ns each).

    Dividing and multiplying by a power of two are exact, so the one
    rounding is that of the final sum, which np.mod's fmod-then-add
    rounds the same way. The exception is a negative subnormal x whose
    quotient underflows to -0.0: the identity leaves x, np.mod gives
    the modulus.
    """
    e = x / modulus
    np.floor(e, out=e)
    e *= -modulus
    e += x
    if e.size and e.min() < 0:
        e[e < 0] = modulus
    return e


def _offset_objective(diff: np.ndarray, modulus: int) -> np.ndarray:
    """Objective(c) = sum_p |lar(diff_p + c, modulus)| for every integer
    offset c in [0, modulus), for a power-of-two modulus.

    Computed exactly from a residue histogram: splitting each residue into
    integer bin and fractional part makes the objective a circular
    cross-correlation of the histogram with the centered-distance kernel.
    """
    e = _floor_mod(diff.ravel(), modulus)
    bins = e.astype(np.intp)  # e >= 0: truncation is floor
    np.minimum(bins, modulus - 1, out=bins)  # e may round up to the modulus
    e -= bins
    hist = np.bincount(bins, minlength=modulus).astype(np.float64)
    fsum = np.bincount(bins, weights=e, minlength=modulus)
    if modulus <= 2048:
        kernel, sign = _offset_matrices(modulus)
        return kernel @ hist + sign @ fsum
    kernel, sign = _offset_kernels(modulus)
    spec_h = np.fft.rfft(hist)
    spec_f = np.fft.rfft(fsum)
    return (np.fft.irfft(np.conj(spec_h) * np.fft.rfft(kernel), n=modulus)
            + np.fft.irfft(np.conj(spec_f) * np.fft.rfft(sign), n=modulus))


def _snap(estimate: np.ndarray, obs: np.ndarray, modulus: int) -> np.ndarray:
    """(C, H, W) int32 wrap counts: align each channel's mean-zero estimate
    with the observation at the offset that minimizes its objective (first
    minimum: smallest offset), round out the per-pixel multiples of the
    modulus (ties away from zero) and re-base each channel's map to a
    minimum of zero. Consumes `estimate`."""
    diff = estimate
    diff -= obs
    offsets = [np.argmin(_offset_objective(d, modulus)) for d in diff]
    diff += np.array(offsets, dtype=np.float64)[:, None, None]
    diff /= modulus
    negative = diff < 0
    np.abs(diff, out=diff)
    diff += 0.5
    rollover = diff.astype(np.int32)  # truncation is floor here
    np.negative(rollover, out=rollover, where=negative)
    if rollover.size:
        rollover -= rollover.min(axis=(1, 2), keepdims=True)  # base-band anchor; also >= 0
    return rollover


@functools.lru_cache(maxsize=32)
def _lattice_table(cfg: EncoderConfig) -> np.ndarray | None:
    """Read-only code -> pre-wrap value table of an encoder config, int64,
    with -1 at codes no count produces; None when codes do not identify
    values.

    The values are `cfg.prewrap_values()`, the expression the encoder wraps.
    The table is built only when their codes mod 2^N are distinct and the
    largest value's wrap count fits the int32 rollover map. Built on first
    use of a config and kept; at most 32 entries of 2^N * 8 bytes.
    """
    values = cfg.prewrap_values()
    if not values[-1] < 2.0 ** (31 + cfg.bit_depth):  # values rise with the count
        return None
    table = np.full(cfg.modulus, -1, dtype=np.int64)
    table[np.mod(values, cfg.modulus).astype(np.int64)] = values
    if np.count_nonzero(table >= 0) < values.size:
        return None
    table.setflags(write=False)
    return table


def _lattice_rollover(frame: ModuloFrame, codes: np.ndarray) -> np.ndarray | None:
    """The (C, H, W) int32 wrap counts of an encoder-counted frame, read
    from its channel-first int32 `codes`, or None when the frame has no
    provenance, its config's codes do not identify values, or it holds a
    code the encoder cannot produce."""
    if frame.counted_by is None:
        return None
    table = _lattice_table(frame.counted_by)
    if table is None:
        return None
    values = np.take(table, codes)
    if values.size and values.min() < 0:
        return None
    values >>= frame.bit_depth
    return values.astype(np.int32)


def _forward_differences(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gradient` of a channel-first (C, H, W) signed integer array, in its
    own type: forward differences along W and H, zero on the last column
    and row."""
    gx = np.zeros_like(a)
    gy = np.zeros_like(a)
    np.subtract(a[:, :, 1:], a[:, :, :-1], out=gx[:, :, :-1])
    np.subtract(a[:, 1:], a[:, :-1], out=gy[:, :-1])
    return gx, gy


def _divergence(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """`divergence` of a channel-first integer field, written over gx."""
    np.subtract(gx[:, :, 1:], gx[:, :, :-1], out=gx[:, :, 1:])  # numpy buffers the overlap
    gx += gy
    gx[:, 1:] -= gy[:, :-1]
    return gx


def _wrap_split(values: np.ndarray, modulus: int) -> np.ndarray:
    """Replace integer `values` by lar(values, modulus) in place and return
    their wrap indicators (values - lar(values)) / modulus as int8."""
    values += modulus // 2
    wraps = np.right_shift(values, modulus.bit_length() - 1,
                           out=np.empty(values.shape, np.int8))
    values &= modulus - 1
    values -= modulus // 2
    return wraps


def _channels_last(a: np.ndarray) -> np.ndarray:
    """C-contiguous (H, W, C) copy of a (C, H, W) array, one plane at a
    time: several times faster than numpy's transposing copy."""
    out = np.empty(a.shape[1:] + a.shape[:1], a.dtype)
    for c, plane in enumerate(a):
        out[:, :, c] = plane
    return out


def unwrap_poisson(frame: ModuloFrame, tol: float = RESIDUAL_TOL) -> UnwrapResult:
    """Recover the scene congruent to `frame`: by table lookup for an
    encoder-counted frame whose codes identify its values, else via
    least-squares integration of the centered wrapped gradient plus
    congruence snapping."""
    modulus = frame.modulus
    obs = np.ascontiguousarray(frame.data.transpose(2, 0, 1), dtype=np.int32)  # (C, H, W)
    gx, gy = _forward_differences(obs)
    wraps = (_wrap_split(gx, modulus), _wrap_split(gy, modulus))
    div = _divergence(gx, gy)
    del gx, gy  # each buffer is dropped once spent: the peak sets the fresh pages per frame
    rollover = _lattice_rollover(frame, obs)
    if rollover is not None:
        decoder = "lattice"
    else:
        decoder = "poisson"
        rollover = _snap(_cosine_solve(div.astype(np.float64), (1, 2)), obs, modulus)
    div_wraps = _wrap_split(div, modulus)
    del div, obs
    top = int(rollover.max()) if rollover.size else 0
    rollover_map = _channels_last(rollover)
    hdr_values = np.multiply(rollover_map, modulus,
                             dtype=np.int32 if (top + 1) * modulus <= 2 ** 31 else np.int64)
    hdr_values += frame.data
    hdr = HdrImage(data=hdr_values)
    del hdr_values
    residuals = _reconstruction_residuals(hdr, frame, rollover, top, wraps, div_wraps)
    return UnwrapResult(hdr=hdr, rollover_map=rollover_map, residuals=residuals,
                        converged=residuals.max() < tol, decoder=decoder)


def _mean_abs(*parts: np.ndarray, scale: int = 1) -> float:
    """Mean absolute value of `scale` times integer arrays of one size,
    summed exactly; 0 when they hold no samples."""
    n = len(parts) * parts[0].size
    return float(scale * sum(int(np.abs(p).sum()) for p in parts)) / n if n else 0.0


def _reconstruction_residuals(hdr: HdrImage, frame: ModuloFrame, rollover: np.ndarray,
                              top: int, wraps: tuple[np.ndarray, np.ndarray],
                              div_wraps: np.ndarray) -> ConsistencyResiduals:
    """Quality report for a congruence-snapped reconstruction, from its
    channel-first wrap counts (see the module docstring).

    The zeroth-order check reads the stored float32 samples; below 2^24
    every count is stored exactly and the check is 0. With hdr = frame +
    m * rollover and gradient(frame) = centered + m * wraps, the other two
    mismatches are m times small integer fields: gradient(hdr) - centered
    = m * (gradient(rollover) + wraps), and divergence(gradient(hdr)) -
    lar(div) = m * (divergence of that field + div_wraps), with div_wraps
    = (div - lar(div)) / m. lar(div) is lar(laplacian(frame)): the two
    are congruent.
    """
    modulus = frame.modulus
    l_mod = 0.0
    if (top + 1) * modulus > 2 ** 24:
        l_mod = _mean_abs(lar(hdr.data.astype(np.int64) - frame.data, modulus))
    if top >= 2 ** 28:  # int32 differences of differences could overflow
        rollover = rollover.astype(np.int64)
    gx, gy = _forward_differences(rollover)
    gx += wraps[0]
    gy += wraps[1]
    l_grad = _mean_abs(gx, gy, scale=modulus)
    lap = _divergence(gx, gy)
    lap += div_wraps
    return ConsistencyResiduals(l_mod=l_mod, l_grad=l_grad, l_lap=_mean_abs(lap, scale=modulus))


def mu_law(hdr: HdrImage, mu: float = DEFAULT_MU, peak: float = DEFAULT_PEAK) -> HdrImage:
    """Logarithmic tone map log(1 + mu*x)/log(1 + mu) of the peak-normalized
    image."""
    check_positive(mu, "mu")
    check_positive(peak, "peak")
    x = hdr.values() / peak
    return HdrImage(data=np.log1p(mu * x) / np.log1p(mu))


def mu_law_inverse(mapped: HdrImage, mu: float = DEFAULT_MU,
                   peak: float = DEFAULT_PEAK) -> HdrImage:
    """Exact algebraic inverse of `mu_law`: x = (exp(y*log(1+mu)) - 1)/mu,
    then denormalize by peak."""
    check_positive(mu, "mu")
    check_positive(peak, "peak")
    y = mapped.values()
    x = np.expm1(y * np.log1p(mu)) / mu
    return HdrImage(data=x * peak)
