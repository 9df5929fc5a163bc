"""Iteration-free unwrapping of modulo frames.

`unwrap_poisson` has two decoders. A frame counted by a spike encoder
(`ModuloFrame.counted_by`) can only hold the codes of floor(gain * c) for
counts c in 0..window. When those window + 1 values have distinct codes
mod 2^N, the lattice decoder reads each pixel's pre-wrap value from a
code -> value table: exact for any scene, with no half-period condition;
its wrap counts are those values shifted right by N. Every other frame
(no provenance, codes that do not identify values, or a code the encoder
cannot produce) goes through the Poisson decoder, which recovers the
scene in three steps:

  1. centered gradient: lar(gradient(frame), 2^N), in integers — identical
     to the centered gradient of the unwrapped scene wherever
     neighboring-pixel differences stay within half a period (the Itoh
     condition); its divergence is an integer field too;
  2. least-squares integration: integrate the wrap field when it has no curl,
     else the cosine-basis solve. Without curl the int8 wrap indicators
     (gradient(frame) = centered + 2^N * wraps) are summed along the first
     row and down each column: that is the least-squares solution exactly,
     and gives step 3's wrap counts directly. With curl the cosine-basis
     Poisson solve of the divergence, the one float64 step, gives a mean-zero
     estimate of the scene up to an additive constant per channel;
  3. congruence snapping: an exhaustive search over the 2^N unit offsets
     picks the constant whose shifted estimate best agrees with the
     observation modulo 2^N, the per-pixel wrap counts are rounded out
     (ties away from zero), and the map is re-based so its minimum is
     zero — anchoring the scene to the base band under the assumption
     that at least one pixel never wrapped. The integrated wrap counts
     are re-based the same way.

The lattice lookup runs first, on the frame's (H, W, C) codes, and its
result is the integer reconstruction itself. A frame it declines is
decoded in that layout too, with the `operators` kernels over axes (0, 1): codes in
int16 up to 13 bits (the front end's widest field stays below 2.5 * m),
int32 above, int8 wrap indicators, and their integral down the rows as a
doubling scan in int16 while H + W - 2 < 2^15. Only the solve and the
snap of a frame with curl run on channel-first (C, H, W) copies. The snap
is channel-batched except for the offset search, which runs per plane:
its residues come from x - m*floor(x/m), equal to np.mod bit for bit at a
fraction of its cost. The output is byte-identical to the per-channel
float64 decoder in tests/reference_unwrap.py, but for the `hdr` of a
frame past 2^24 counts, which the reference rounds to float32.

The residual report is defined once, on the integer reconstruction
v = frame + m * rollover that becomes `hdr`, held in the first of int16,
int32 and int64 that holds its widest field, 4 * max(v) + m/2
(`_width`). `hdr` stores v exactly (as float32 below 2^24 counts, else
as uint64), so the zeroth-order residual, the mean centered remainder
of hdr - frame, is 0 by construction and never computed; the field stays
for the `l_mod=` key of `modspike unwrap`. Congruence forces
lar(gradient(v)) = lar(gradient(frame)), so comparing wrapped
derivatives of output and input says nothing; the
first- and second-order residuals compare v's plain gradient and
Laplacian against those centered measurements instead (the Itoh
condition applied to the output): m * mean|wraps(gradient(v))| and
m * mean|wraps(divergence(gradient(v)))|, with wraps(x) = (x - lar(x)) / m.
Under the half-period condition both are literal zeros for integer
scenes; fields with curl leave a nonzero mismatch and clear `converged`. An integrated
frame takes no differences of v: its wrap counts integrate the wrap
indicators exactly, so its gradient mismatch is 0 and its Laplacian
mismatch is m times the wraps of the frame's divergence. The residuals
certify consistency with the observation and with the half-period model,
not correctness: a straight edge that breaks the half-period condition
leaves a curl-free field, so the Poisson decoder can be off by 2^N on one
side and still converge, while the exact lattice decode of that scene
does not converge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import (_cosine_solve, _difference, _divergence, _forward_differences, _lar_pow2,
                        _wraps, lar)
from .types import EncoderConfig, HdrImage, ModuloFrame


@dataclass(frozen=True)
class ConsistencyResiduals:
    """Mean absolute consistency residuals at zeroth/first/second order;
    `unwrap_poisson` returns its reconstruction exactly, so l_mod is 0."""

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

    hdr = frame + rollover_map * 2^N holds elementwise, exactly, at any
    count: `hdr.data` is float32 while every count stays below 2^24 and
    uint64 from there on (`HdrImage`), so residuals.l_mod is always 0.

    `converged` means every residual is exactly 0: the result is
    consistent with the observation and with the half-period model. Each
    residual is a scale times an integer sum over the samples, so one
    inconsistent sample in any number makes it nonzero. It does not
    certify correctness. `decoder` names the path that ran,
    "lattice" (a code -> value lookup on an encoder-counted frame, exact) or
    "poisson" (the least-squares integral of the centered gradient,
    snapped onto the observation), however that integral was computed:
    summed in integers when the wrap field has no curl, else by the
    cosine-basis solve.
    """

    hdr: HdrImage
    rollover_map: np.ndarray  # (H, W, C) int32, >= 0, whatever the reconstruction's width
    residuals: ConsistencyResiduals
    converged: bool
    decoder: str = "poisson"


def _circulant(v: np.ndarray) -> np.ndarray:
    """Read-only (n, n) matrix whose row c is v[(j + c) mod n] over j."""
    out = np.lib.stride_tricks.sliding_window_view(np.concatenate([v, v[:-1]]), v.size).copy()
    out.setflags(write=False)
    return out


def _offset_kernels(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """|lar(b)| and the sign of lar(b), +1 at 0, for each residue b in [0, modulus)."""
    centered = lar(np.arange(modulus), modulus)
    return np.abs(centered).astype(np.float64), np.where(centered >= 0, 1.0, -1.0)


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
    if e.min() < 0:
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
    diff += np.copysign(0.5, diff)
    rollover = diff.astype(np.int32)  # truncation toward zero: ties round away from it
    rollover -= rollover.min(axis=(1, 2), keepdims=True)  # base-band anchor; also >= 0
    return rollover


def _width(top: int, modulus: int) -> type:
    """The first of int16, int32 and int64 that holds 4 * top + m/2: the
    residual report's widest field (the Laplacian of values in [0, top],
    offset by m/2), so the type a reconstruction up to `top` is built in."""
    return next(t for t in (np.int16, np.int32, np.int64)
                if 4 * top + modulus // 2 <= np.iinfo(t).max)


@functools.lru_cache(maxsize=32)
def _lattice_table(cfg: EncoderConfig) -> np.ndarray | None:
    """Read-only code -> value table of an encoder config, in the `_width`
    of its largest value, with -1 at codes no count produces; None when
    codes do not identify values.

    Each pre-wrap value v of `cfg.prewrap_values()`, the expression the
    encoder wraps, sits at its code v mod 2^N. The table is built only when
    those codes are distinct and the largest wrap count floor(v / 2^N) fits
    int32. Built on first use of a config and kept; at most 32 entries of
    at most 2^N * 8 bytes.
    """
    values = cfg.prewrap_values()
    if not values[-1] < 2.0 ** (31 + cfg.bit_depth):  # values rise with the count
        return None
    table = np.full(cfg.modulus, -1, dtype=_width(int(values[-1]), cfg.modulus))
    table[np.mod(values, cfg.modulus).astype(np.int64)] = values
    if np.count_nonzero(table >= 0) < values.size:
        return None
    table.setflags(write=False)
    return table


def _lattice_values(frame: ModuloFrame) -> np.ndarray | None:
    """The (H, W, C) pre-wrap values of an encoder-counted frame, read
    straight off its codes in the table's type, or None when the frame has
    no provenance, its config's codes do not identify values, or it holds a
    code the encoder cannot produce."""
    table = None if frame.counted_by is None else _lattice_table(frame.counted_by)
    if table is None:
        return None
    values = np.take(table, frame.data)
    return None if values.min() < 0 else values


def _scan_rows(a: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=0) in a's type, as a doubling (Hillis-Steele) scan; spends `a`."""
    b, s = np.empty_like(a), 1
    while s < len(a):
        b[:s] = a[:s]
        np.add(a[s:], a[:-s], out=b[s:])
        a, b, s = b, a, 2 * s
    return a


def _integrate_wraps(wx: np.ndarray, wy: np.ndarray) -> np.ndarray | None:
    """The (H, W, C) int32 wrap counts of a frame whose wrap indicators
    (gradient(frame) = centered + m * (wx, wy)) have no curl, or None when
    some plaquette has.

    Without curl the indicators are the gradient of one integer field P,
    and the centered gradient is that of u = frame - m * P exactly, so the
    least-squares integral is u up to a constant: the cosine-basis solve
    returns u - mean(u) up to rounding, every pixel of estimate - frame
    shares one residue, and the snap rounds it onto k = -P. P is summed
    along the first row, then down the rows, in int16 while |P| <= H + W - 2
    fits; max(P) - P (>= 0, as P[0, 0] = 0), k re-based to a minimum of zero,
    goes straight into the int32 map. wx is zero on the last column and wy on
    the last row, so the curl test compares whole arrays.
    """
    if not np.array_equal(_difference(wx, 0), _difference(wy, 1)):
        return None
    h, w, c = wx.shape
    p = np.empty(wx.shape, np.int16 if h + w - 2 < 2 ** 15 else np.int32)
    p[:1, :1] = 0
    np.cumsum(wx[:1, :-1], axis=1, dtype=p.dtype, out=p[:1, 1:])
    p[1:] = wy[:-1]
    p, k = _scan_rows(p), np.empty(wx.shape, np.int32)
    top = p.max(axis=0).max(axis=0)  # over whole rows, then (W, C)
    np.subtract(np.tile(top, w), p.reshape(h, w * c), out=k.reshape(h, w * c), dtype=np.int32)
    return k


def unwrap_poisson(frame: ModuloFrame) -> UnwrapResult:
    """Recover the scene congruent to `frame`: by table lookup for an
    encoder-counted frame whose codes identify its values, else via
    least-squares integration of the centered wrapped gradient plus
    congruence snapping."""
    modulus = frame.modulus
    values = _lattice_values(frame)
    decoder = "poisson" if values is None else "lattice"
    div_wraps = None  # set only on an integrated frame
    if values is None:
        # int16 while the front end's widest field, div(centered gradient) + m/2 < 2.5 * m, fits
        obs = frame.data.astype(np.int16 if 5 * modulus // 2 < 2 ** 15 else np.int32)
        gx, gy = _forward_differences(obs)
        wraps = (_lar_pow2(gx, modulus, wraps=True), _lar_pow2(gy, modulus, wraps=True))
        div = _divergence(gx, gy)
        del gx, gy  # each buffer is dropped once spent: the peak sets the fresh pages per frame
        rollover_map = _integrate_wraps(*wraps)
        del wraps
        if rollover_map is None:  # solved channel-first; the estimate replaces div, spent
            div = _cosine_solve(div.transpose(2, 0, 1).astype(np.float64, order="C"), (1, 2))
            rollover_map = np.stack(_snap(div, obs.transpose(2, 0, 1), modulus), axis=-1)
        else:
            div_wraps = _wraps(div, modulus)  # over div, spent
        del div, obs
        peak = (int(rollover_map.max()) + 1) * modulus - 1  # bounds every value
        values = np.multiply(rollover_map, modulus, dtype=_width(peak, modulus))
        values += frame.data
    else:  # shifted in the values' own type, whose int64 values pass int32, then stored
        rollover_map = np.right_shift(values, modulus.bit_length() - 1,
                                      out=np.empty(values.shape, np.int32))
    hdr = HdrImage(data=values)  # frame + m * rollover_map exactly: l_mod is 0 by construction
    if div_wraps is None:
        l_grad, l_lap = _reconstruction_residuals(values, modulus)
    else:  # the wrap counts integrate the wrap indicators: gradient(hdr) is centered
        l_grad, l_lap = 0.0, _mean_abs(div_wraps, scale=modulus)
    residuals = ConsistencyResiduals(l_mod=0.0, l_grad=l_grad, l_lap=l_lap)
    return UnwrapResult(hdr=hdr, rollover_map=rollover_map, residuals=residuals,
                        converged=not residuals.max(), decoder=decoder)


def _mean_abs(*parts: np.ndarray, scale: int = 1) -> float:
    """Mean absolute value of `scale` times integer arrays of one size,
    summed exactly over the parts not all zero."""
    total = sum(int(np.abs(p).sum()) for p in parts if np.count_nonzero(p))
    return float(scale * total) / (len(parts) * parts[0].size)


def _reconstruction_residuals(values: np.ndarray, modulus: int) -> tuple[float, float]:
    """(l_grad, l_lap) of the integer reconstruction `values`, (H, W, C):
    m * mean|wraps(gradient(values))| and m * mean|wraps(lap(values))|,
    with lap = divergence(gradient(.)) and wraps(x) = (x - lar(x)) / m =
    (x + m/2) >> N.

    values is congruent to the frame, so lar(gradient(values)) and
    lar(lap(values)) are lar(gradient(frame)) and lar(lap(frame)),
    and m * wraps(x) is the mismatch x - lar(x) between a derivative of the
    reconstruction and its centered measurement. The fields take the dtype
    of `values`, which must hold 4 * max(values) + m/2: `_width` picks
    that width once, for the reconstruction itself.
    """
    gx, gy = _forward_differences(values)
    lap = _divergence(gx.copy(), gy)
    for field in (gx, gy, lap):
        _wraps(field, modulus)
    return _mean_abs(gx, gy, scale=modulus), _mean_abs(lap, scale=modulus)
