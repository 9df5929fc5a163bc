"""Iteration-free unwrapping of modulo frames, plus the numeric primitives
used to reason about wrapped measurements.

`unwrap_poisson` has two decoders. A frame counted by a spike encoder
(`ModuloFrame.counted_by`) can only hold the codes of floor(gain * c) for
counts c in 0..window. When those window + 1 values have distinct codes
mod 2^N, the lattice decoder reads each pixel's value from a code -> value
table: exact for any scene, with no half-period condition. Every other
frame (no provenance, codes that do not identify values, or a code the
encoder cannot produce) goes through the Poisson decoder, which recovers
the scene in three steps, per channel:

  1. centered gradient: lar(gradient(frame), 2^N), in int32 — identical
     to the centered gradient of the unwrapped scene wherever
     neighboring-pixel differences stay within half a period (the Itoh
     condition); its divergence is an int32 field too;
  2. least-squares integration: poisson_solve(divergence(.)), the one
     float64 step, gives a mean-zero estimate of the scene up to an
     additive constant;
  3. congruence snapping: an exhaustive search over the 2^N unit offsets
     picks the constant whose shifted estimate best agrees with the
     observation modulo 2^N, the per-pixel wrap counts are rounded out
     (ties away from zero), and the map is re-based so its minimum is
     zero — anchoring the scene to the base band under the assumption
     that at least one pixel never wrapped. The scene values, its
     gradient and its Laplacian are int64.

Both decoders share the residual report below. The reconstruction is
congruent to the input by construction; the zeroth-order residual (mean
centered remainder of hdr - frame) checks that the float32 samples
actually returned still are, which fails only once counts pass 2^24.
Because congruence also forces the *wrapped* gradients of output and
input to agree bit-exactly, a wrapped-both-sides comparison carries no
information about reconstruction quality; the first/second-order
residuals therefore compare the reconstruction's plain gradient and
Laplacian against the centered measurements lar(grad frame) and
lar(lap frame). Under the half-period condition these are literal
zeros for integer scenes; measurement fields with curl (half-period
violations) leave a nonzero mismatch and clear `converged`. All three
residuals are computed in integers. They certify consistency with the
observation and with the half-period model, not correctness: a straight
edge that breaks the half-period condition leaves a curl-free field, so
the Poisson decoder can be off by 2^N on one side and still converge,
while the exact lattice decode of that scene does not converge.

Also here: the literal wrapped-domain consistency residuals for scoring
arbitrary candidate reconstructions, the sinusoidal embedding of the
wrap phase, and the invertible mu-law tone map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import GradientField, divergence, gradient, laplacian, lar, poisson_solve
from .types import (EncoderConfig, HdrImage, ModuloFrame, check_bit_depth, check_dims,
                    check_positive)

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


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


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


def _offset_objective(diff: np.ndarray, modulus: int) -> np.ndarray:
    """Objective(c) = sum_p |lar(diff_p + c, modulus)| for every integer
    offset c in [0, modulus).

    Computed exactly from a residue histogram: splitting each residue into
    integer bin and fractional part makes the objective a circular
    cross-correlation of the histogram with the centered-distance kernel.
    """
    e = np.mod(diff.ravel(), modulus)
    bins = np.minimum(np.floor(e).astype(np.int64), modulus - 1)
    frac = e - bins
    hist = np.bincount(bins, minlength=modulus).astype(np.float64)
    fsum = np.bincount(bins, weights=frac, minlength=modulus)
    if modulus <= 2048:
        kernel, sign = _offset_matrices(modulus)
        return kernel @ hist + sign @ fsum
    kernel, sign = _offset_kernels(modulus)
    spec_h = np.fft.rfft(hist)
    spec_f = np.fft.rfft(fsum)
    return (np.fft.irfft(np.conj(spec_h) * np.fft.rfft(kernel), n=modulus)
            + np.fft.irfft(np.conj(spec_f) * np.fft.rfft(sign), n=modulus))


def _snap_channel(estimate: np.ndarray, observed: np.ndarray, modulus: int) -> np.ndarray:
    """Wrap counts for one channel: align the mean-zero estimate with the
    observation and round out the per-pixel multiples of the modulus."""
    diff = estimate - observed
    offset = int(np.argmin(_offset_objective(diff, modulus)))  # first minimum: smallest c
    rollover = _round_half_away((diff + offset) / modulus).astype(np.int64)
    if rollover.size:
        rollover -= rollover.min()  # base-band anchor; also enforces >= 0
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


def _lattice_decode(frame: ModuloFrame) -> np.ndarray | None:
    """The int64 pre-wrap values of an encoder-counted frame, or None when
    the frame has no provenance, its config's codes do not identify values,
    or it holds a code the encoder cannot produce."""
    if frame.counted_by is None:
        return None
    table = _lattice_table(frame.counted_by)
    if table is None:
        return None
    values = np.take(table, frame.data)
    if values.size and values.min() < 0:
        return None
    return values


def unwrap_poisson(frame: ModuloFrame, tol: float = RESIDUAL_TOL) -> UnwrapResult:
    """Recover the scene congruent to `frame`: by table lookup for an
    encoder-counted frame whose codes identify its values, else via
    least-squares integration of the centered wrapped gradient plus
    congruence snapping."""
    modulus = frame.modulus
    obs = frame.data.astype(np.int32)
    gf = gradient(obs)
    centered = GradientField(gx=lar(gf.gx, modulus), gy=lar(gf.gy, modulus))
    div = divergence(centered)
    hdr_values = _lattice_decode(frame)
    if hdr_values is not None:
        decoder = "lattice"
        rollover = (hdr_values >> frame.bit_depth).astype(np.int32)
    else:
        decoder = "poisson"
        estimate = poisson_solve(div)
        rollover = np.empty(obs.shape, dtype=np.int32)
        for c in range(obs.shape[2]):
            rollover[:, :, c] = _snap_channel(estimate[:, :, c], obs[:, :, c], modulus)
        hdr_values = obs + rollover.astype(np.int64) * modulus
    hdr = HdrImage(data=hdr_values)
    residuals = _reconstruction_residuals(hdr, hdr_values, obs, centered, div, modulus)
    return UnwrapResult(hdr=hdr, rollover_map=rollover, residuals=residuals,
                        converged=residuals.max() < tol, decoder=decoder)


def _mean_abs(*parts: np.ndarray) -> float:
    """Mean absolute value over integer arrays of one size, summed exactly;
    0 when they hold no samples."""
    n = len(parts) * parts[0].size
    return float(sum(int(np.abs(p).sum()) for p in parts)) / n if n else 0.0


def _reconstruction_residuals(hdr: HdrImage, hdr_values: np.ndarray, obs: np.ndarray,
                              centered: GradientField, div: np.ndarray,
                              modulus: int) -> ConsistencyResiduals:
    """Quality report for a congruence-snapped reconstruction.

    The zeroth-order check reads the stored float32 samples, so counts
    that float32 rounds off the congruence class show up there. Congruence
    makes the wrapped gradients of hdr and frame identical by construction,
    so the informative first/second-order checks compare the
    reconstruction's plain differential fields against the centered
    measurements; they vanish exactly when the measurement field was
    integrable (half-period condition) and stay nonzero when it carried
    curl. lar(div) is lar(laplacian(frame)): the two are congruent.
    """
    l_mod = _mean_abs(lar(hdr.data.astype(np.int64) - obs, modulus))
    gh = gradient(hdr_values)
    l_grad = _mean_abs(gh.gx - centered.gx, gh.gy - centered.gy)
    l_lap = _mean_abs(divergence(gh) - lar(div, modulus))
    return ConsistencyResiduals(l_mod=l_mod, l_grad=l_grad, l_lap=l_lap)


def consistency_residuals(hdr: HdrImage, frame: ModuloFrame) -> ConsistencyResiduals:
    """Mean absolute wrapped disagreement between a reconstruction and the
    observation at zeroth (value), first (gradient) and second (Laplacian)
    order. Invariant under shifting hdr by any multiple of 2^N."""
    check_dims(hdr.data.shape, frame.data.shape, "HdrImage, ModuloFrame")
    modulus = frame.modulus
    a = hdr.values()
    b = frame.values()
    l_mod = float(np.mean(np.abs(lar(a - b, modulus))))
    ga, gb = gradient(a), gradient(b)
    l_grad = float(np.mean(np.abs(np.stack([lar(ga.gx, modulus) - lar(gb.gx, modulus),
                                            lar(ga.gy, modulus) - lar(gb.gy, modulus)]))))
    l_lap = float(np.mean(np.abs(lar(laplacian(a).lap, modulus)
                                 - lar(laplacian(b).lap, modulus))))
    return ConsistencyResiduals(l_mod=l_mod, l_grad=l_grad, l_lap=l_lap)


def cyclic_encode(hdr: HdrImage, bit_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Sinusoidal embedding of the wrap phase: (sin 2*pi*phi, cos 2*pi*phi)
    with phi = mod(hdr, 2^N) / 2^N. Periodic in steps of 2^N by construction."""
    check_bit_depth(bit_depth, "bit_depth")
    modulus = 1 << bit_depth
    phase = np.mod(hdr.values(), modulus) / modulus
    return np.sin(2.0 * np.pi * phase), np.cos(2.0 * np.pi * phase)


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
