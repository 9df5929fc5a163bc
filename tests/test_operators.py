import tracemalloc

import numpy as np
import pytest
import reference_unwrap
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.ndimage import gaussian_filter

from modspike import GradientField, ValidationError, divergence, gradient, lar, poisson_solve
from modspike.operators import _divergence, _forward_differences, _lar_pow2, _wraps

int_rasters = arrays(
    np.int64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
    elements=st.integers(0, 2 ** 14),
)


def neumann_stencil(x):
    """Reference 5-point Laplacian with reflecting boundaries, by loops."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < h and 0 <= nj < w:
                    out[i, j] += x[ni, nj] - x[i, j]
    return out


# ---------------------------------------------------------------- gradient

def test_gradient_constant_is_zero():
    gf = gradient(np.full((5, 7), 3.25))
    assert np.all(gf.gx == 0) and np.all(gf.gy == 0)


def test_gradient_row_example():
    gf = gradient(np.array([[0.0, 5.0, 7.0]]))
    assert np.array_equal(gf.gx, [[5.0, 2.0, 0.0]])
    assert np.array_equal(gf.gy, [[0.0, 0.0, 0.0]])


def test_gradient_ramp():
    img = np.tile(np.arange(4.0), (4, 1))  # img[i, j] = j
    gf = gradient(img)
    assert np.array_equal(gf.gx[:, :-1], np.ones((4, 3)))
    assert np.all(gf.gx[:, -1] == 0)
    assert np.all(gf.gy == 0)


def test_gradient_zero_padding_invariant():
    rng = np.random.default_rng(0)
    gf = gradient(rng.normal(size=(6, 9, 3)))
    assert np.all(gf.gx[:, -1] == 0)
    assert np.all(gf.gy[-1, :] == 0)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (6, 7), (6, 7, 3)])
def test_gradient_padding_ignores_leftover_memory(dtype, shape):
    # the differences go into uninitialized float64 buffers: right after
    # three freed float64 buffers of the same size held nonzero values (the
    # float64 copy of integer input takes one), the padded last column and
    # row must still read zero
    img = np.random.default_rng(3).integers(0, 1000, size=shape).astype(dtype)
    want = reference_unwrap.gradient(img)
    stale = [np.full(shape, 77.0) for _ in range(3)]
    del stale
    got = gradient(img)
    assert got.gx.tobytes() == want.gx.astype(np.float64).tobytes()
    assert got.gy.tobytes() == want.gy.astype(np.float64).tobytes()


# -------------------------------------------------------------- divergence

def test_divergence_of_zero_field():
    gf = gradient(np.zeros((4, 4)))
    assert np.all(divergence(gf) == 0)


def test_divergence_of_ramp_hand_computed():
    # img = [0, 1, 2, 3]: gx = [1, 1, 1, 0]; the backward difference gives
    # the Neumann boundary pattern [1, 0, 0, -1]
    div = divergence(gradient(np.arange(4.0)[None, :]))
    assert np.array_equal(div, [[1.0, 0.0, 0.0, -1.0]])


def test_divergence_gradient_matches_stencil_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 8))
    assert np.allclose(divergence(gradient(x)), neumann_stencil(x), atol=1e-12)


def test_adjointness_of_gradient_and_divergence():
    # <grad x, g> == <x, -div g> makes div(grad(.)) symmetric
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 5))
    gx = rng.normal(size=(6, 5))
    gy = rng.normal(size=(6, 5))
    gx[:, -1] = 0
    gy[-1, :] = 0
    gf = gradient(x)
    lhs = np.sum(gf.gx * gx) + np.sum(gf.gy * gy)
    rhs = -np.sum(x * divergence(GradientField(gx=gx, gy=gy)))
    assert np.isclose(lhs, rhs, atol=1e-10)


def test_divergence_makes_one_float64_copy_of_an_integer_field():
    # the cast and the -0.0-clearing + 0 are one pass: gx's copy, gy's cast
    # and the result, where int32 input used to peak at 4 rasters
    gx, gy = (np.arange(160 * 160 * 3, dtype=np.int32).reshape(160, 160, 3) % 97 for _ in "xy")
    field = GradientField(gx=gx, gy=gy)
    raster = gx.size * 8
    divergence(field)  # warm
    tracemalloc.start()
    try:
        div = divergence(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * raster, peak / raster
    assert np.array_equal(div, divergence(GradientField(gx.astype(float), gy.astype(float))))


# --------------------------------------------------------------- laplacian

def test_laplacian_constant_is_zero():
    assert np.all(divergence(gradient(np.full((6, 6), 2.0))) == 0)


def test_laplacian_quadratic_second_difference():
    img = (np.arange(5.0) ** 2)[None, :]  # j^2 on a 1x5 strip
    lap = divergence(gradient(img))
    assert np.array_equal(lap[0, 1:4], [2.0, 2.0, 2.0])


def test_laplacian_sums_to_zero():
    rng = np.random.default_rng(11)
    lap = divergence(gradient(rng.normal(size=(16, 16)) * 100))
    assert abs(lap.sum()) < 1e-9


# --------------------------------------------------------------------- lar

def test_lar_scalar_examples():
    assert lar(300.0, 256) == 44.0
    assert lar(200.0, 256) == -56.0
    assert lar(-128.0, 256) == -128.0
    assert lar(128.0, 256) == -128.0  # half-open interval [-m/2, m/2)
    for scalar in (np.int64(300), 300, 300.0, np.uint8(44)):  # a scalar in, a float64 scalar out
        assert type(lar(scalar, 256)) is np.float64 and lar(scalar, 256) == 44


def test_lar_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        lar(1.0, 0)


@pytest.mark.parametrize("values, modulus", [
    (3.0, 2 ** 54), (-3.0, 2 ** 55), (3.0, 2 ** 70), (np.array([3], np.uint64), 2 ** 70),
    (3, 2 ** 53 + 2), (3.0, 1e300)])
def test_float_lar_refuses_a_modulus_past_2_53(values, modulus):
    # x + m/2 rounds there: lar(3.0, 2**54) returned 4.0, lar(3.0, 2**70) 0.0
    with pytest.raises(ValidationError, match="modulus"):
        lar(values, modulus)
    assert lar(3.0, 2 ** 53) == 3 and lar(-3.0, 2 ** 53) == -3  # the widest one it takes


@given(st.integers(1, 2 ** 52), st.integers(-2 ** 52, 2 ** 52))
@example(2 ** 52, 0).via("the widest modulus the bound admits")
@example(3, 2 ** 52).via("the widest value, clamped to 2^52 - 3")
def test_float_lar_matches_python_ints_within_its_exact_bound(modulus, x):
    x = max(modulus - 2 ** 52, min(x, 2 ** 52 - modulus))  # |x| + modulus <= 2^52
    assert lar(float(x), modulus) == (x + modulus // 2) % modulus - modulus // 2
    assert lar(float(x), float(modulus)) == (x + modulus // 2) % modulus - modulus // 2


@given(arrays(np.float64,
              array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=16),
              elements=st.floats(-1e6, 1e6)),
       st.sampled_from([2, 16, 256, 4096]))
def test_lar_range(values, modulus):
    out = lar(values, modulus)
    assert np.all(out >= -modulus / 2)
    assert np.all(out < modulus / 2)


def test_lar_fixes_gradient_exactly_within_half_period():
    # differences inside [-m/2, m/2) are their own centered remainder;
    # a difference at +m/2 or beyond gets remapped
    img = np.array([[0.0, 100.0, 227.0]])
    gf = gradient(img)
    assert np.array_equal(lar(gf.gx, 256), gf.gx)
    edge = gradient(np.array([[0.0, 128.0]]))
    assert lar(edge.gx, 256)[0, 0] == -128.0
    big = gradient(np.array([[0.0, 200.0]]))
    assert lar(big.gx, 256)[0, 0] == -56.0


@settings(max_examples=60, deadline=None)
@given(int_rasters)
def test_wrapped_gradient_residue_identity(img):
    modulus = 256
    wrapped = np.mod(img, modulus)
    gi, gw = gradient(img), gradient(wrapped)
    assert np.array_equal(lar(gw.gx, modulus), lar(gi.gx, modulus))
    assert np.array_equal(lar(gw.gy, modulus), lar(gi.gy, modulus))


@settings(max_examples=60, deadline=None)
@given(int_rasters)
def test_wrapped_laplacian_residue_identity(img):
    modulus = 256
    wrapped = np.mod(img, modulus)
    assert np.array_equal(lar(divergence(gradient(wrapped)), modulus),
                          lar(divergence(gradient(img)), modulus))


@settings(max_examples=25, deadline=None)
@given(int_rasters)
def test_poisson_of_wrapped_laplacian_bit_identical(img):
    modulus = 256
    wrapped = np.mod(img, modulus)
    a = poisson_solve(lar(divergence(gradient(wrapped)), modulus))
    b = poisson_solve(lar(divergence(gradient(img)), modulus))
    assert np.array_equal(a, b)


# ------------------------------------------------------- integer rasters

# unwrap_poisson's front end holds a frame's codes in int16 while its widest
# field, the divergence of the centered gradient plus m/2, stays below
# 2.5 * m < 2^15 (up to 13 bits), and in int32 above
_FRONT_END = [(bits, np.int16 if 5 * (1 << bits) // 2 < 2 ** 15 else np.int32)
              for bits in range(1, 17)]
_raster_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 3]))


@pytest.mark.parametrize("bits, dtype", _FRONT_END, ids=[f"{b}bit" for b, _ in _FRONT_END])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), shape=_raster_shapes)
def test_front_end_kernels_match_the_float_operators(bits, dtype, data, shape):
    # the integer facts the unwrapper relies on, on the kernels it runs and
    # in the type it runs them in: the kernels' gradient, Laplacian, centered
    # gradient with its wrap indicators, divergence and its wraps equal the
    # public float64 operators' on the same codes
    m = 1 << bits
    codes = data.draw(arrays(dtype, shape, elements=st.integers(0, m - 1)))
    want = gradient(codes)
    gx, gy = _forward_differences(codes)
    assert gx.dtype == gy.dtype == dtype
    assert np.array_equal(gx, want.gx) and np.array_equal(gy, want.gy)
    assert np.array_equal(_divergence(gx.copy(), gy), divergence(want))
    centered = GradientField(lar(want.gx, m), lar(want.gy, m))
    for field, got, want_centered in ((want.gx, gx, centered.gx), (want.gy, gy, centered.gy)):
        plain = got.copy()
        assert _lar_pow2(plain, m) is None and np.array_equal(plain, want_centered)
        wraps = _lar_pow2(got, m, wraps=True)
        assert wraps.dtype == np.int8 and got.dtype == dtype
        assert np.array_equal(got, want_centered)
        assert np.array_equal(wraps, (field - want_centered) / m)
    div, want_div = _divergence(gx, gy), divergence(centered)
    assert div.dtype == dtype and np.array_equal(div, want_div)
    plain = div.copy()
    _lar_pow2(plain, m)
    assert np.array_equal(plain, lar(want_div, m))
    assert np.array_equal(_wraps(div, m), (want_div - lar(want_div, m)) / m)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), bits=st.integers(1, 16), shape=_raster_shapes,
       top=st.one_of(st.integers(0, 2 ** 12), st.integers(0, (2 ** 31 - 1 - 2 ** 15) // 4)))
def test_report_kernels_match_the_float_operators(data, bits, shape, top):
    # the residual report's facts, in the type `_width` picks for a
    # reconstruction up to `top` (int16 or int32 here): the kernels'
    # gradient and Laplacian and the wraps of each equal the float64 ones
    from modspike.unwrap import _width
    m = 1 << bits
    dtype = _width(top, m)
    assert dtype in (np.int16, np.int32)
    values = data.draw(arrays(dtype, shape, elements=st.integers(0, top)))
    want = gradient(values)
    gx, gy = _forward_differences(values)
    lap = _divergence(gx.copy(), gy)
    for got, field in ((gx, want.gx), (gy, want.gy), (lap, divergence(want))):
        assert got.dtype == dtype and np.array_equal(got, field)
        assert np.array_equal(_wraps(got, m), (field - lar(field, m)) / m)


# every (bit depth, type) the front end or `_width` can pair: int16 while it
# holds m/2, int32 at every depth
_LAR_TYPES = [(bits, t) for t in (np.int16, np.int32) for bits in range(1, 17)
              if (1 << bits) // 2 <= np.iinfo(t).max]


@pytest.mark.parametrize("bits, dtype", _LAR_TYPES,
                         ids=[f"{b}bit-{np.dtype(t).name}" for b, t in _LAR_TYPES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lar_kernels_match_float_lar_wherever_x_plus_half_fits(bits, dtype, data):
    # `_lar_pow2` and `_wraps` add m/2 in the input's type: every signed
    # value up to the type's top minus m/2 gives float lar's answer
    m, info = 1 << bits, np.iinfo(dtype)
    values = data.draw(arrays(dtype, st.integers(1, 40),
                              elements=st.integers(info.min, info.max - m // 2)))
    centered = lar(values, m)
    got = values.copy()
    _lar_pow2(got, m)
    assert got.dtype == dtype and np.array_equal(got, centered)
    shifted = values.copy()
    split = _wraps(shifted, m)
    assert split is shifted and np.array_equal(split, (values - centered) / m)


_BOUND = 2 ** 50


def _int_gradient(rows):
    """Forward differences of a list of rows of Python ints, zero-padded."""
    h, w = len(rows), len(rows[0])
    gx = [[rows[i][j + 1] - rows[i][j] if j + 1 < w else 0 for j in range(w)] for i in range(h)]
    gy = [[rows[i + 1][j] - rows[i][j] if i + 1 < h else 0 for j in range(w)] for i in range(h)]
    return gx, gy


def _int_divergence(gx, gy):
    """Backward-difference divergence of lists of rows of Python ints."""
    return [[gx[i][j] - (gx[i][j - 1] if j else 0) + gy[i][j] - (gy[i - 1][j] if i else 0)
             for j in range(len(gx[0]))] for i in range(len(gx))]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_public_operators_are_exact_inside_2_50_and_refuse_it(dtype):
    # inside +-2^50 every sum the operators take stays below 2^53, where
    # float64 holds integers exactly: each result equals Python-int
    # arithmetic. At 2^50 each operator refuses the samples
    top, low = _BOUND - 1, 0 if dtype is np.uint64 else -(_BOUND - 1)
    rows = [[top, low, top, 0], [low, top, 1, low], [top, top, low, top]]
    img = np.array(rows, dtype)
    gx, gy = _int_gradient(rows)
    got = gradient(img)
    assert got.gx.dtype == got.gy.dtype == np.float64
    assert got.gx.tolist() == gx and got.gy.tolist() == gy
    assert divergence(gradient(img)).tolist() == _int_divergence(gx, gy)
    field = GradientField(img, img[::-1])
    assert divergence(field).tolist() == _int_divergence(rows, rows[::-1])
    for m in (1, 2, 3, 100, 256, 2 ** 16, 2 ** 52, 2 ** 53):
        assert lar(img, m).tolist() == [[(x + m // 2) % m - m // 2 for x in row] for row in rows]
    assert poisson_solve(img).tobytes() == poisson_solve(img.astype(np.float64)).tobytes()
    for edge in ([_BOUND] if dtype is np.uint64 else [_BOUND, -_BOUND]):
        bad = img.copy()
        bad[1, 2] = edge
        for call in (lambda: gradient(bad), lambda: poisson_solve(bad),
                     lambda: divergence(GradientField(bad, img)),
                     lambda: divergence(GradientField(img, bad)), lambda: lar(bad, 256)):
            with pytest.raises(ValidationError, match=r"strictly inside \+-2\^50"):
                call()


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int16, np.int32, np.int64, np.uint8,
                                   np.uint16, np.uint32, np.uint64, np.float16, np.float32,
                                   np.float64])
def test_public_operators_compute_in_float64_for_any_real_input(dtype):
    top = 1 if dtype is bool else 100
    x = np.random.default_rng(4).integers(0, top + 1, (5, 6, 3)).astype(dtype)
    f = x.astype(np.float64)
    pairs = [(gradient(x).gx, gradient(f).gx), (gradient(x).gy, gradient(f).gy),
             (divergence(GradientField(x, x)), divergence(GradientField(f, f))),
             (divergence(gradient(x)), divergence(gradient(f))),
             (lar(x, 16), lar(f, 16)), (poisson_solve(x), poisson_solve(f))]
    for got, want in pairs:
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


_op_sides = st.integers(1, 12)


def _same_samples(got, want, finite):
    """Byte-identical for finite input; otherwise NaN where the frozen copy
    has NaN and byte-identical elsewhere (a NaN's sign bit may differ)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if finite:
        assert got.tobytes() == want.tobytes()
    else:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def _inside(*arrays):
    """True when no integer sample lies at or past +-2^50."""
    return all(a.dtype.kind == "f" or -_BOUND < a.min(initial=0) and a.max(initial=0) < _BOUND
               for a in arrays)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       dtype=st.sampled_from([np.float64, np.int64, np.int32, np.uint16, np.uint8]),
       shape=st.one_of(st.tuples(st.just(1), _op_sides), st.tuples(_op_sides, st.just(1)),
                       st.tuples(_op_sides, _op_sides)),
       channels=st.sampled_from([(), (1,), (3,)]),
       finite=st.booleans(),
       modulus=st.sampled_from([1, 2, 256, 1 << 16, np.int64(8), 100, 256.0]))
def test_public_operators_match_frozen_copies(data, dtype, shape, channels, finite, modulus):
    # integer samples are drawn over the type's whole range. Inside +-2^50
    # the result is the frozen copy's, run on the samples as int64 (whose
    # sums there are exact), cast to float64; past it the operator refuses
    floats = st.floats(-1e300, 1e300) if finite else st.floats()  # no overflow when finite
    elements = st.one_of(st.sampled_from([0.0, -0.0]), floats) if dtype is np.float64 else None
    img, gx, gy = (data.draw(arrays(dtype, shape + channels, elements=elements))
                   for _ in range(3))
    finite = finite or dtype is not np.float64
    before = [a.copy() for a in (img, gx, gy)]
    field = GradientField(gx=gx, gy=gy)
    ref = reference_unwrap
    r_img, r_gx, r_gy = (a.astype(np.int64) if a.dtype.kind in "iu" else a for a in (img, gx, gy))
    cases = [(_inside(img), lambda: gradient(img).gx, lambda: ref.gradient(r_img).gx),
             (_inside(img), lambda: gradient(img).gy, lambda: ref.gradient(r_img).gy),
             (_inside(gx, gy), lambda: divergence(field),
              lambda: ref.divergence(GradientField(r_gx, r_gy))),
             (_inside(img), lambda: divergence(gradient(img)), lambda: ref.laplacian(r_img)),
             (_inside(img), lambda: lar(img, modulus), lambda: ref.lar(r_img, modulus))]
    with np.errstate(all="ignore"):
        for exact, got, want in cases:
            if exact:
                _same_samples(got(), want().astype(np.float64), finite)
            else:
                with pytest.raises(ValidationError, match="2\\^50"):
                    got()
    for a, b in zip((img, gx, gy), before):
        assert a.tobytes() == b.tobytes()  # the in-place kernels work on copies


def _strided_views(a):
    """Views of `a`'s samples that are not C-contiguous: a transposed copy
    transposed back, every other channel (or column) of a wider array, and
    a copy walked backwards along both axes."""
    transposed = np.ascontiguousarray(np.swapaxes(a, 0, 1)).swapaxes(0, 1)
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1] + 1,), a.dtype)
    wide[..., 1::2] = a
    backwards = np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1]
    return {"transposed": transposed, "channel-sliced": wide[..., 1::2],
            "negative-stride": backwards}


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.int16, np.uint8]),
       shape=st.one_of(st.tuples(st.just(1), _op_sides), st.tuples(_op_sides, st.just(1)),
                       st.tuples(_op_sides, _op_sides),
                       st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda s: 0 in s)),
       channels=st.sampled_from([(), (1,), (3,)]),
       modulus=st.sampled_from([2, 256, 100]))
def test_operators_on_strided_views_match_contiguous_copies(data, dtype, shape, channels,
                                                            modulus):
    # the kernels take flat passes over C-contiguous arrays, so the public
    # operators hand them contiguous float64 copies of any other layout; a
    # view is refused exactly where its contiguous copy is (int64 samples
    # at or past +-2^50)
    floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
    elements = st.one_of(st.sampled_from([0.0, -0.0]), floats) \
        if np.issubdtype(dtype, np.floating) else None
    img, gx, gy = (data.draw(arrays(dtype, shape + channels, elements=elements))
                   for _ in range(3))
    want = _outcomes(img, gx, gy, modulus)
    assert all(w is ValidationError or w[0] == np.float64 for w in want)
    assert dtype is np.int64 or ValidationError not in want
    for kind, (v_img, v_gx, v_gy) in zip(_strided_views(img), zip(
            *(_strided_views(a).values() for a in (img, gx, gy)))):
        assert min(shape) < 2 or not v_img.flags.c_contiguous
        assert _outcomes(v_img, v_gx, v_gy, modulus) == want, kind


def _outcomes(img, gx, gy, modulus):
    """(dtype, shape, bytes) of each public operator's result on these
    samples, or ValidationError where it refuses them."""
    out = []
    for call in (lambda: gradient(img).gx, lambda: gradient(img).gy,
                 lambda: divergence(GradientField(gx, gy)), lambda: divergence(gradient(img)),
                 lambda: lar(img, modulus)):
        try:
            got = call()
        except ValidationError:
            out.append(ValidationError)
        else:
            out.append((got.dtype, got.shape, got.tobytes()))
    return out


def test_float_input_keeps_float64_path():
    rng = np.random.default_rng(16)
    x = (rng.normal(size=(5, 6, 3)) * 300).astype(np.float32)
    gf = gradient(x)
    assert gf.gx.dtype == gf.gy.dtype == np.float64
    assert divergence(gf).dtype == np.float64
    assert divergence(gradient(x)).dtype == np.float64
    x64 = x.astype(np.float64)
    assert np.array_equal(lar(x, 256), np.mod(x64 + 128.0, 256) - 128.0)
    ints = np.arange(-50, 50).reshape(10, 10)
    for modulus in (100, 256.0):  # not a power of two, or not an integer
        out = lar(ints, modulus)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.mod(ints + modulus / 2.0, modulus) - modulus / 2.0)


def test_uint64_input_past_2_50_is_refused():
    # uint64 input used to take the float64 path and round past 2^53: lar
    # of 2^53 + 1 gave 0. Now 2^63 is refused, and smaller samples give
    # the float path's result
    values = np.array([[5, 300, 2 ** 63]], np.uint64)
    for call in (lambda: gradient(values), lambda: poisson_solve(values),
                 lambda: divergence(GradientField(values, values)), lambda: lar(values, 256),
                 lambda: lar(np.array([2 ** 53 + 1], np.uint64), 256)):
        with pytest.raises(ValidationError, match="2\\^50"):
            call()
    small = values[:, :2]
    assert lar(small, 256).dtype == np.float64
    assert np.array_equal(lar(small, 256), lar(small.astype(np.float64), 256))
    assert np.array_equal(divergence(gradient(small)), divergence(gradient(small.astype(float))))


def test_int32_gradient_no_longer_overflows():
    # int32 input was differenced in int32: gx of [2^30, -2^30, 2^30] read
    # -2^31 where +2^31 is due
    gf = gradient(np.array([[2 ** 30, -2 ** 30, 2 ** 30]], np.int32))
    assert gf.gx.tolist() == [[-2 ** 31, 2 ** 31, 0]]


# ----------------------------------------------------------- poisson solve

def test_poisson_zero_rhs():
    assert np.all(poisson_solve(np.zeros((8, 8))) == 0)


def test_poisson_degenerate_single_pixel():
    assert np.array_equal(poisson_solve(np.array([[5.0]])), [[0.0]])


def test_poisson_recovers_smooth_field():
    rng = np.random.default_rng(5)
    x = gaussian_filter(rng.normal(size=(32, 32)), 3.0) * 50
    sol = poisson_solve(divergence(gradient(x)))
    err = np.max(np.abs(sol - (x - x.mean())))
    assert err <= 1e-6 * (x.max() - x.min())


def test_poisson_recovers_discrete_eigenfunction():
    h, w = 24, 17
    mode = np.cos(np.pi * 3 * (np.arange(h) + 0.5) / h)[:, None] * np.ones((1, w))
    lam = 2.0 * np.cos(np.pi * 3 / h) - 2.0
    assert np.allclose(divergence(gradient(mode)), lam * mode, atol=1e-12)
    sol = poisson_solve(divergence(gradient(mode)))
    assert np.allclose(sol, mode - mode.mean(), atol=1e-10)


def test_poisson_recovers_axis_cosine_mode():
    h, w = 20, 20
    img = np.cos(np.pi * np.arange(h) / h)[:, None] * np.ones((1, w))
    sol = poisson_solve(divergence(gradient(img)))
    assert np.allclose(sol, img - img.mean(), atol=1e-10)


def test_poisson_output_mean_zero():
    rng = np.random.default_rng(6)
    sol = poisson_solve(rng.normal(size=(15, 11)) * 1e3)
    assert abs(sol.mean()) < 1e-9


def test_poisson_channels_independent():
    rng = np.random.default_rng(9)
    rhs = rng.normal(size=(12, 10, 3))
    joint = poisson_solve(rhs)
    for c in range(3):
        assert np.allclose(joint[:, :, c], poisson_solve(rhs[:, :, c]), atol=1e-12)


_solve_sides = st.integers(2, 200)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.one_of(st.tuples(st.just(1), _solve_sides), st.tuples(_solve_sides, st.just(1)),
                       st.tuples(_solve_sides, _solve_sides)),
       channels=st.sampled_from([None, 1, 3]),
       mean=st.floats(-1e6, 1e6), scale=st.floats(1e-3, 1e6))
@example(seed=0, shape=(200, 200), channels=3, mean=1234.5678, scale=1e3)
@example(seed=1, shape=(1, 200), channels=None, mean=-0.1, scale=1.0)
@example(seed=2, shape=(200, 1), channels=1, mean=1e6, scale=1e-3)
@example(seed=3, shape=(160, 160), channels=3, mean=0.0, scale=50.0)
def test_poisson_solve_matches_frozen_reference(seed, shape, channels, mean, scale):
    # byte parity of the public solver with its frozen copy: the mean is
    # taken over (H, W) of the caller's layout, each channel its own
    rng = np.random.default_rng(seed)
    full = shape if channels is None else shape + (channels,)
    rhs = rng.normal(0.0, scale, full) + mean * rng.uniform(0.5, 1.5, full[2:])
    before = rhs.copy()
    got = poisson_solve(rhs)
    want = reference_unwrap.poisson_solve(rhs)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert rhs.tobytes() == before.tobytes()  # the in-place solve works on a copy
