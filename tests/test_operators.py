import numpy as np
import pytest
import reference_unwrap
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.ndimage import gaussian_filter

from modspike import (GradientField, ValidationError, divergence, gradient, laplacian, lar,
                      poisson_solve)

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
    # the differences go into uninitialized buffers: right after two freed
    # buffers of the same size held nonzero values, the padded last column
    # and row must still read zero
    img = np.random.default_rng(3).integers(0, 1000, size=shape).astype(dtype)
    want = reference_unwrap.gradient(img)
    stale = [np.full(shape, 77, dtype) for _ in range(2)]
    del stale
    got = gradient(img)
    assert got.gx.tobytes() == want.gx.tobytes()
    assert got.gy.tobytes() == want.gy.tobytes()


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


# --------------------------------------------------------------- laplacian

def test_laplacian_constant_is_zero():
    assert np.all(laplacian(np.full((6, 6), 2.0)) == 0)


def test_laplacian_quadratic_second_difference():
    img = (np.arange(5.0) ** 2)[None, :]  # j^2 on a 1x5 strip
    lap = laplacian(img)
    assert np.array_equal(lap[0, 1:4], [2.0, 2.0, 2.0])


def test_laplacian_sums_to_zero():
    rng = np.random.default_rng(11)
    lap = laplacian(rng.normal(size=(16, 16)) * 100)
    assert abs(lap.sum()) < 1e-9


def test_laplacian_equals_divergence_of_gradient():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(9, 13))
    assert np.array_equal(laplacian(x), divergence(gradient(x)))


# --------------------------------------------------------------------- lar

def test_lar_scalar_examples():
    assert lar(300.0, 256) == 44.0
    assert lar(200.0, 256) == -56.0
    assert lar(-128.0, 256) == -128.0
    assert lar(128.0, 256) == -128.0  # half-open interval [-m/2, m/2)
    for scalar in (np.int64(300), 300, -300.0):  # a scalar in, a numpy scalar out
        assert type(lar(scalar, 256)) is type(reference_unwrap.lar(scalar, 256))


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
    assert np.array_equal(lar(laplacian(wrapped), modulus),
                          lar(laplacian(img), modulus))


@settings(max_examples=25, deadline=None)
@given(int_rasters)
def test_poisson_of_wrapped_laplacian_bit_identical(img):
    modulus = 256
    wrapped = np.mod(img, modulus)
    a = poisson_solve(lar(laplacian(wrapped), modulus))
    b = poisson_solve(lar(laplacian(img), modulus))
    assert np.array_equal(a, b)


# ------------------------------------------------------- integer rasters

@settings(max_examples=60, deadline=None)
@given(int_rasters, st.sampled_from([np.int32, np.int64, np.uint16]),
       st.booleans())
def test_integer_operators_stay_integer_and_match_float(img, dtype, three_channels):
    if three_channels:
        img = np.stack([img, img[::-1], img[:, ::-1]], axis=-1)
    ints, floats = img.astype(dtype), img.astype(np.float64)
    gi, gf = gradient(ints), gradient(floats)
    pairs = ((gi.gx, gf.gx), (gi.gy, gf.gy), (divergence(gi), divergence(gf)),
             (laplacian(ints), laplacian(floats)))
    for got, want in pairs:
        assert np.issubdtype(got.dtype, np.signedinteger)
        assert got.dtype.itemsize >= 4
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(arrays(st.sampled_from([np.int32, np.int64, np.uint16]),
              array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
              elements=st.integers(0, 2 ** 15)),
       st.integers(0, 16), st.integers(-2 ** 30, 2 ** 30))
def test_integer_lar_power_of_two_matches_float(values, bits, shift):
    modulus = 1 << bits
    if values.dtype != np.uint16:
        values = values + values.dtype.type(shift // 2)
    got = lar(values, modulus)
    assert np.issubdtype(got.dtype, np.signedinteger)
    assert np.array_equal(got, lar(values.astype(np.float64), modulus))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32])
def test_integer_lar_of_any_power_of_two_modulus_matches_python_ints(dtype):
    # a modulus of 2^32 (2^64) leaves every int32 (int64) work value in
    # [-m/2, m/2) as it is, rather than overflowing m/2; uint64 input takes
    # the float64 path
    info = np.iinfo(dtype)
    values = np.array(sorted({info.min, info.min + 1, min(info.max, -1) if info.min else 0,
                              0, 1, info.max - 1, info.max}), dtype)
    for bits in range(30, 71):
        m = 1 << bits
        want = [(int(x) + m // 2) % m - m // 2 for x in values]
        got = lar(values, m)
        assert np.issubdtype(got.dtype, np.signedinteger) and got.tolist() == want
        assert int(lar(values[-1], m)) == want[-1]  # a scalar takes the same path


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


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       dtype=st.sampled_from([np.float64, np.int64, np.int32, np.uint16, np.uint8]),
       shape=st.one_of(st.tuples(st.just(1), _op_sides), st.tuples(_op_sides, st.just(1)),
                       st.tuples(_op_sides, _op_sides)),
       channels=st.sampled_from([(), (1,), (3,)]),
       finite=st.booleans(),
       modulus=st.sampled_from([1, 2, 256, 1 << 16, np.int64(8), 100, 256.0]))
def test_public_operators_match_frozen_copies(data, dtype, shape, channels, finite, modulus):
    floats = st.floats(-1e300, 1e300) if finite else st.floats()  # no overflow when finite
    elements = st.one_of(st.sampled_from([0.0, -0.0]), floats) if dtype is np.float64 else None
    img, gx, gy = (data.draw(arrays(dtype, shape + channels, elements=elements))
                   for _ in range(3))
    finite = finite or dtype is not np.float64
    before = [a.copy() for a in (img, gx, gy)]
    field = GradientField(gx=gx, gy=gy)
    with np.errstate(all="ignore"):
        got, want = gradient(img), reference_unwrap.gradient(img)
        pairs = [(got.gx, want.gx), (got.gy, want.gy),
                 (divergence(field), reference_unwrap.divergence(field)),
                 (laplacian(img), reference_unwrap.laplacian(img)),
                 (lar(img, modulus), reference_unwrap.lar(img, modulus))]
    for got, want in pairs:
        _same_samples(got, want, finite)
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
    # operators hand them contiguous copies of any other layout
    floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
    elements = st.one_of(st.sampled_from([0.0, -0.0]), floats) \
        if np.issubdtype(dtype, np.floating) else None
    img, gx, gy = (data.draw(arrays(dtype, shape + channels, elements=elements))
                   for _ in range(3))
    want = [gradient(img).gx, gradient(img).gy, divergence(GradientField(gx, gy)),
            laplacian(img), lar(img, modulus)]
    for kind, (v_img, v_gx, v_gy) in zip(_strided_views(img), zip(
            *(_strided_views(a).values() for a in (img, gx, gy)))):
        assert min(shape) < 2 or not v_img.flags.c_contiguous
        got = [gradient(v_img).gx, gradient(v_img).gy, divergence(GradientField(v_gx, v_gy)),
               laplacian(v_img), lar(v_img, modulus)]
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), kind


def test_float_input_keeps_float64_path():
    rng = np.random.default_rng(16)
    x = (rng.normal(size=(5, 6, 3)) * 300).astype(np.float32)
    gf = gradient(x)
    assert gf.gx.dtype == gf.gy.dtype == np.float64
    assert divergence(gf).dtype == np.float64
    assert laplacian(x).dtype == np.float64
    x64 = x.astype(np.float64)
    assert np.array_equal(lar(x, 256), np.mod(x64 + 128.0, 256) - 128.0)
    ints = np.arange(-50, 50).reshape(10, 10)
    for modulus in (100, 256.0):  # not a power of two, or not an integer
        out = lar(ints, modulus)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.mod(ints + modulus / 2.0, modulus) - modulus / 2.0)


def test_uint64_input_takes_the_float64_path():
    # no signed integer type holds every uint64 value, so lar takes the
    # float64 path, as gradient, divergence and laplacian do
    values = np.array([[5, 300, 2 ** 63]], np.uint64)
    floats = values.astype(np.float64)
    assert laplacian(values).dtype == np.float64
    assert np.array_equal(lar(values, 256), lar(floats, 256))
    assert lar(values, 256).dtype == np.float64


# ----------------------------------------------------------- poisson solve

def test_poisson_zero_rhs():
    assert np.all(poisson_solve(np.zeros((8, 8))) == 0)


def test_poisson_degenerate_single_pixel():
    assert np.array_equal(poisson_solve(np.array([[5.0]])), [[0.0]])


def test_poisson_recovers_smooth_field():
    rng = np.random.default_rng(5)
    x = gaussian_filter(rng.normal(size=(32, 32)), 3.0) * 50
    sol = poisson_solve(laplacian(x))
    err = np.max(np.abs(sol - (x - x.mean())))
    assert err <= 1e-6 * (x.max() - x.min())


def test_poisson_recovers_discrete_eigenfunction():
    h, w = 24, 17
    mode = np.cos(np.pi * 3 * (np.arange(h) + 0.5) / h)[:, None] * np.ones((1, w))
    lam = 2.0 * np.cos(np.pi * 3 / h) - 2.0
    assert np.allclose(laplacian(mode), lam * mode, atol=1e-12)
    sol = poisson_solve(laplacian(mode))
    assert np.allclose(sol, mode - mode.mean(), atol=1e-10)


def test_poisson_recovers_axis_cosine_mode():
    h, w = 20, 20
    img = np.cos(np.pi * np.arange(h) / h)[:, None] * np.ones((1, w))
    sol = poisson_solve(laplacian(img))
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
