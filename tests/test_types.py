import dataclasses
import math

import numpy as np
import pytest

from modspike import (ChunkedEncoder, EncoderConfig, GradientField, HdrImage, IrradianceClip,
                      ModuloFrame, ModuloSequence, Motion, QuerySpec, SensorConfig,
                      SpikeStream, ValidationError, bandwidth_report, divergence, frame_capacity,
                      gradient, ideal_window_counts, lar, mu_law_inverse, plane_bytes,
                      poisson_solve)


def test_hdr_image_basic():
    img = HdrImage(data=np.ones((4, 5), dtype=np.float32))
    assert (img.height, img.width, img.channels) == (4, 5, 1)
    assert img.data.shape == (4, 5, 1)
    assert not img.data.flags.writeable


def test_hdr_image_uint16_view_preserved():
    data = np.arange(12, dtype=np.uint16).reshape(3, 4)
    img = HdrImage(data=data)
    assert img.data.dtype == np.uint16
    assert np.array_equal(img.data[:, :, 0], data)


def test_hdr_image_rejects_negative_and_nonfinite():
    with pytest.raises(ValidationError, match="nonneg"):
        HdrImage(data=np.array([[-1.0]], dtype=np.float32))
    with pytest.raises(ValidationError, match="finite"):
        HdrImage(data=np.array([[np.nan]], dtype=np.float32))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_hdr_image_rejects_negative_integers(dtype):
    # integers are checked for sign before their float32 cast
    with pytest.raises(ValidationError, match="HdrImage.data"):
        HdrImage(data=np.array([[5, -1]], dtype=dtype))
    img = HdrImage(data=np.array([[5, 0]], dtype=dtype))
    assert img.data.dtype == np.float32 and img.data.tolist() == [[[5.0], [0.0]]]


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64])
def test_hdr_image_keeps_counts_float32_would_round_as_uint64(dtype):
    # below 2^24 an integer raster is float32, with the bytes it always had;
    # from 2^24 on, where float32 rounds, every count is kept as uint64
    below = np.array([[0, 7], [2 ** 24 - 1, 5]], dtype)
    img = HdrImage(data=below)
    assert img.data.tobytes() == below.astype(np.float32).tobytes()
    top = np.iinfo(dtype).max
    past = np.array([[0, 2 ** 24 + 1], [top, 5]], dtype)
    img = HdrImage(data=past)
    assert img.data.dtype == np.uint64 and not img.data.flags.writeable
    assert img.data[:, :, 0].tolist() == [[0, 2 ** 24 + 1], [top, 5]]
    assert HdrImage(data=np.array([[2 ** 24]], dtype)).data.dtype == np.uint64
    if np.iinfo(dtype).min < 0:  # a negative count next to one past 2^24 is still refused
        with pytest.raises(ValidationError, match="HdrImage.data"):
            HdrImage(data=np.array([[top, -1]], dtype))


def test_hdr_image_rejects_bad_channels():
    with pytest.raises(ValidationError, match="channels"):
        HdrImage(data=np.zeros((2, 2, 2), dtype=np.float32))


def test_modulo_frame_range_enforced():
    ModuloFrame(data=np.array([[255]], dtype=np.int64), bit_depth=8)
    with pytest.raises(ValidationError, match="2\\^8"):
        ModuloFrame(data=np.array([[256]], dtype=np.int64), bit_depth=8)
    with pytest.raises(ValidationError):
        ModuloFrame(data=np.array([[-1]], dtype=np.int64), bit_depth=8)


def test_modulo_frame_bit_depth_bounds():
    with pytest.raises(ValidationError, match="bit_depth"):
        ModuloFrame(data=np.zeros((1, 1), dtype=np.int64), bit_depth=17)


def test_spike_stream_round_trip_bits():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(5, 6, 7, 3), dtype=np.uint8)
    stream = SpikeStream.from_bits(bits, readout_rate_hz=20000)
    assert stream.frame_count == 5
    assert np.array_equal(stream.bits(), bits)
    assert not stream.packed.flags.writeable


def test_spike_stream_bits_range_slicing():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(12, 5, 5, 1), dtype=np.uint8)
    stream = SpikeStream.from_bits(bits, readout_rate_hz=100)
    assert np.array_equal(stream.bits(3, 9), bits[3:9])
    assert np.array_equal(stream.bits(10), bits[10:])


# (build a value from an array, the array it stores, stored dtype, shape)
_ADOPTERS = {
    "hdr-f32": (lambda a: HdrImage(data=a), lambda v: v.data, np.float32, (3, 4, 3)),
    "hdr-u16": (lambda a: HdrImage(data=a), lambda v: v.data, np.uint16, (3, 4, 3)),
    # N-bit codes are stored in the narrowest type that holds 2^N - 1
    "modulo": (lambda a: ModuloFrame(data=a, bit_depth=8), lambda v: v.data, np.uint8,
               (3, 4, 3)),
    "modulo-12bit": (lambda a: ModuloFrame(data=a, bit_depth=12), lambda v: v.data,
                     np.uint16, (3, 4, 3)),
    "spikes": (lambda a: SpikeStream(height=3, width=3, channels=1, frame_count=2,
                                     readout_rate_hz=100, packed=a),
               lambda v: v.packed, np.uint8, (2, 1, 2)),
}


def _frozen(a):
    a.setflags(write=False)
    return a


def _source(kind, dtype, shape):
    """(array a value is built from, the array that owns its memory)."""
    n = int(np.prod(shape))
    if kind == "unaligned":  # a frozen uint8 buffer viewed at an odd offset
        owner = _frozen(np.zeros(n * np.dtype(dtype).itemsize + 1, np.uint8))
        return owner[1:].view(dtype).reshape(shape), owner
    if kind == "strided":
        owner = np.ones(shape[:-1] + (2 * shape[-1],), dtype)
        return _frozen(owner)[..., ::2], owner
    owner = np.ones(shape, np.int64 if kind == "dtype" else dtype)
    if kind == "writable":
        return owner, owner
    if kind == "view":  # read-only, but its base is not
        return _frozen(owner[:]), owner
    return _frozen(owner), owner  # "frozen" and "dtype"


@pytest.mark.parametrize("value, kind", [
    (value, kind) for value, (_, _, dtype, _) in _ADOPTERS.items()
    for kind in ("frozen", "writable", "view", "strided", "dtype", "unaligned")
    if kind != "unaligned" or dtype != np.uint8])  # a byte is aligned at any offset
def test_values_adopt_a_frozen_array_and_copy_any_other(value, kind):
    make, stored, dtype, shape = _ADOPTERS[value]
    arr, owner = _source(kind, dtype, shape)
    want = np.array(arr)
    kept = stored(make(arr))
    assert kept.flags.c_contiguous and kept.flags.aligned and not kept.flags.writeable
    assert kept.shape == shape and np.array_equal(kept, want)
    if kind == "frozen":
        assert kept is arr
        return
    # an HdrImage stores every dtype but uint16 as float32
    assert kept is not arr and kept.dtype == (
        np.float32 if (value, kind) == ("hdr-u16", "dtype") else dtype)
    owner.setflags(write=True)  # the caller's memory changes later
    owner.view(np.uint8)[...] = 7
    assert np.array_equal(kept, want)


def test_adopted_arrays_are_still_checked():
    code = np.array([[256]], np.uint16)
    with pytest.raises(ValidationError, match="2\\^8"):
        ModuloFrame(data=_frozen(code), bit_depth=8)
    with pytest.raises(ValidationError, match="finite"):
        HdrImage(data=_frozen(np.array([[np.nan]], np.float32)))


def test_frozen_buffers_reject_writes():
    img = HdrImage(data=np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 5.0
    frame = ModuloFrame(data=np.zeros((2, 2), dtype=np.int64), bit_depth=8)
    with pytest.raises(ValueError):
        frame.data[0, 0, 0] = 1


def test_spike_stream_rejects_nonbinary():
    with pytest.raises(ValidationError, match="0 or 1"):
        SpikeStream.from_bits(np.full((1, 2, 2, 1), 2, dtype=np.uint8),
                              readout_rate_hz=100)


def test_encoder_config_default_regime_is_valid():
    cfg = EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8)
    assert cfg.modulus == 256


def test_encoder_config_stride_exceeds_window():
    with pytest.raises(ValidationError, match="stride exceeds window"):
        EncoderConfig(window=10, stride=20)


def test_sensor_config_threshold_must_be_positive():
    with pytest.raises(ValidationError, match="threshold"):
        SensorConfig(threshold=0.0)


def test_sensor_config_micro_interval_divisibility():
    # R = 20000 * 0.05 = 1000 readout frames
    SensorConfig(readout_rate_hz=20000, total_time_s=0.05, micro_intervals=2000)
    with pytest.raises(ValidationError, match="divisible"):
        SensorConfig(readout_rate_hz=20000, total_time_s=0.05, micro_intervals=1500)
    with pytest.raises(ValidationError, match="micro_intervals"):
        SensorConfig(readout_rate_hz=20000, total_time_s=0.05, micro_intervals=500)


def test_query_spec_bounds():
    QuerySpec(window=25, stride=20)
    with pytest.raises(ValidationError, match="stride"):
        QuerySpec(window=10, stride=11)


_IMG = HdrImage(data=np.ones((2, 2), dtype=np.float32))
_CLIP = IrradianceClip(u=np.ones((8, 2, 2, 1), dtype=np.float32))
_FRAME = ModuloFrame(np.zeros((2, 2), np.uint8), 8)


@pytest.mark.parametrize("fn, bad, field", [
    (gradient, (np.zeros(5),), "raster"),
    (poisson_solve, (np.zeros(5),), "raster"),
    (divergence, (GradientField(gx=np.zeros(5), gy=np.zeros(5)),), "GradientField"),
    (divergence, (GradientField(gx=np.zeros((2, 2)), gy=np.zeros((3, 2))),), "GradientField"),
    (lar, (np.zeros(3), 0), "modulus"),
    (ideal_window_counts, (_CLIP, QuerySpec(window=9, stride=1)), "QuerySpec.window"),
    (ChunkedEncoder(2, 2, 1, EncoderConfig(window=2, stride=1)).push,
     (np.zeros((1, 2, 3, 1), np.uint8),), "chunk \\(H, W, C\\): mixed dimensions"),
    (mu_law_inverse, (_IMG, 0), "mu"),
    (SpikeStream.from_bits, (np.full((1, 2, 2, 1), 0.5), 100), "0 or 1"),
    (SpikeStream.from_bits, (np.full((1, 2, 2, 1), 0.999), 100), "0 or 1"),
    (SpikeStream.from_bits, (np.full((1, 2, 2, 1), np.nan), 100), "0 or 1"),
    (SpikeStream, (-1, 5, 1, 2, 100, np.zeros((2, 1, 0), dtype=np.uint8)), "SpikeStream.height"),
    (SpikeStream, (5, -1, 1, 2, 100, np.zeros((2, 1, 0), dtype=np.uint8)), "SpikeStream.width"),
    (ModuloSequence, ((), 4, 0, 1.0), "ModuloSequence.stride"),
    (frame_capacity, (10, 5, 0), "stride"),
    (frame_capacity, (10, 0, 1), "frame_capacity.stride: stride exceeds window"),
    (frame_capacity, (10, -3, 1), "frame_capacity.stride: stride exceeds window"),
    (ModuloFrame, (np.zeros((2, 2), np.uint16), 8, EncoderConfig(bit_depth=12)),
     "counted_by.bit_depth"),
    (ModuloFrame, (np.zeros((2, 2), np.uint16), 8, "W25/P20"), "counted_by"),
    (EncoderConfig, (25, 20, math.inf), "EncoderConfig.gain"),
    (SensorConfig, (math.inf,), "SensorConfig.threshold"),
    (SensorConfig, (1.0, math.inf), "SensorConfig.conversion_gain"),
    (SensorConfig, (1.0, 1.0, math.inf), "SensorConfig.readout_rate_hz"),
    (SensorConfig, (1.0, 1.0, 20_000.0, math.inf), "SensorConfig.total_time_s"),
    (Motion, ((math.nan, 0.0),), "Motion.translate_px"),
    (Motion, ((0.0, -math.inf),), "Motion.translate_px"),
    (Motion, ((1.0,),), "Motion.translate_px"),
    (Motion, ((1.0, 2.0, 3.0),), "Motion.translate_px"),
    (Motion, ((0.0, 0.0), math.inf), "Motion.rotate_deg"),
    (Motion, ((0.0, 0.0), math.nan), "Motion.rotate_deg"),
    (SensorConfig, (1.0, 1.0, 20_000.0, 0.05, 1000, False, -1), "SensorConfig.rng_seed"),
    (SensorConfig, (1.0, 1.0, 20_000.0, 0.05, 1000, False, 1.5), "SensorConfig.rng_seed"),
    (SensorConfig, (1.0, 1.0, 20_000.0, 0.05, 1000.0), "SensorConfig.micro_intervals"),
    (EncoderConfig, (2.5, 1), "EncoderConfig.window"),
    (EncoderConfig, (25, 20.0), "EncoderConfig.stride"),
    (EncoderConfig, (25, 20, 15.0, 8.0), "EncoderConfig.bit_depth"),
    (QuerySpec, (2.5, 1), "QuerySpec.window"),
    (ModuloFrame, (np.zeros((2, 2), np.uint16), 8.0), "ModuloFrame.bit_depth"),
    (ModuloSequence, ((), 4, 1.5, 1.0), "ModuloSequence.stride"),
    (frame_capacity, (10, 2.5, 1), "frame_capacity.window"),
    (SpikeStream, (2, 3, 1, 2, 20000.5, np.zeros((2, 1, 1), np.uint8)),
     "SpikeStream.readout_rate_hz"),
    (SpikeStream, (2, 3, 1, 2.0, 20000, np.zeros((2, 1, 1), np.uint8)), "SpikeStream.frame_count"),
    (SpikeStream, (2.0, 3, 1, 2, 20000, np.zeros((2, 1, 1), np.uint8)), "SpikeStream.height"),
    (ModuloSequence, ((), 4, 4, 1.0, 0.5), "ModuloSequence.source_rate_hz"),
    (ModuloFrame, (np.zeros((2, 2)), 8), "ModuloFrame.data: samples must be integers"),
    # each used to be stored as another byte: -1 as 255, 300 as 44, 1.7 as 1
    (SpikeStream, (1, 1, 1, 1, 10, np.array([[[-1]]])), r"SpikeStream.packed: .* \[0, 2\^8\)"),
    (SpikeStream, (1, 1, 1, 1, 10, np.array([[[300]]])), r"SpikeStream.packed: .* \[0, 2\^8\)"),
    (SpikeStream, (1, 1, 1, 1, 10, np.array([[[1.7]]])), "SpikeStream.packed: .* integers"),
    # each used to raise AttributeError: 'str' object has no attribute 'data'
    (ModuloSequence, (("x", _FRAME), 4, 2, 1.0), r"ModuloSequence.frames\[0\]: .* ModuloFrame"),
    (ModuloSequence, ((_FRAME, "x"), 4, 2, 1.0), r"ModuloSequence.frames\[1\]: .* ModuloFrame"),
], ids=["gradient-1d", "poisson_solve-1d", "divergence-1d", "divergence-mixed",
        "lar-modulus-0", "ideal_window_counts-window-9", "push-chunk-dims",
        "mu_law_inverse-mu-0", "from_bits-0.5", "from_bits-0.999", "from_bits-nan",
        "spike_stream-height-neg", "spike_stream-width-neg",
        "modulo_sequence-stride-0", "frame_capacity-stride-0", "frame_capacity-window-0",
        "frame_capacity-window-neg", "modulo_frame-counted-by-bits", "modulo_frame-counted-by-type",
        "encoder_config-gain-inf", "sensor_config-threshold-inf",
        "sensor_config-conversion-gain-inf", "sensor_config-readout-rate-inf",
        "sensor_config-total-time-inf", "motion-translate-nan", "motion-translate-neg-inf",
        "motion-translate-1-component", "motion-translate-3-components", "motion-rotate-inf",
        "motion-rotate-nan", "sensor_config-seed-neg", "sensor_config-seed-float",
        "sensor_config-micro-intervals-float", "encoder_config-window-float",
        "encoder_config-stride-float", "encoder_config-bits-float", "query_spec-window-float",
        "modulo_frame-bits-float", "modulo_sequence-stride-float", "frame_capacity-window-float",
        "spike_stream-rate-float", "spike_stream-frames-float",
        "spike_stream-height-float", "modulo_sequence-source-rate-float",
        "modulo_frame-data-float", "spike_stream-packed-neg", "spike_stream-packed-300",
        "spike_stream-packed-float", "modulo_sequence-frame-0-str",
        "modulo_sequence-frame-1-str"])
def test_bad_input_raises_validation_error_naming_the_field(fn, bad, field):
    with pytest.raises(ValidationError, match=field):
        fn(*bad)


# every value and the two consumers of a bare geometry, built at (H, W, C)
_SIZED = {
    "HdrImage": lambda h, w, c: HdrImage(np.zeros((h, w, c), np.float32)),
    "ModuloFrame": lambda h, w, c: ModuloFrame(np.zeros((h, w, c), np.uint16), 8),
    "SpikeStream": lambda h, w, c: SpikeStream(h, w, c, 2, 100,
                                               np.zeros((2, c, plane_bytes(h, w)), np.uint8)),
    "IrradianceClip": lambda h, w, c: IrradianceClip(np.zeros((10, h, w, c), np.float32)),
    "ChunkedEncoder": lambda h, w, c: ChunkedEncoder(h, w, c, EncoderConfig()),
    "bandwidth_report": lambda h, w, c: bandwidth_report(h, w, c, 20000, 8, 20, mosaic=False),
}


@pytest.mark.parametrize("owner", list(_SIZED))
@pytest.mark.parametrize("shape, field", [((0, 4, 1), "height"), ((4, 0, 3), "width"),
                                          ((0, 0, 3), "height")])
def test_a_geometry_without_samples_is_rejected_by_name(owner, shape, field):
    # a sensor frame always has pixels: a zero height or width is refused
    # where the value is built, so no layer needs an empty-raster path
    with pytest.raises(ValidationError, match=rf"^{owner}\.{field}: must be positive"):
        _SIZED[owner](*shape)
    _SIZED[owner](1, 1, shape[2])  # one sample is enough


def test_integer_fields_accept_numpy_integers():
    cfg = EncoderConfig(window=np.int64(25), stride=np.int32(20), bit_depth=np.int16(8))
    assert cfg.modulus == 256 and frame_capacity(np.int64(45), cfg.window, cfg.stride) == 2
    assert SensorConfig(micro_intervals=np.int64(2000), rng_seed=np.uint64(2**63)).rng_seed


def test_numpy_integer_fields_are_stored_as_python_ints():
    # numpy 2 keeps a uint8's type in arithmetic: 1 << np.uint8(8) is 0, and
    # window + 1 overflows at 255
    u8 = np.uint8
    assert EncoderConfig(bit_depth=u8(8)).modulus == 256
    assert ModuloFrame(np.zeros((4, 4), np.uint16), u8(8)).modulus == 256
    assert EncoderConfig(window=u8(255), stride=u8(20)).prewrap_values().size == 256
    values = [
        EncoderConfig(window=u8(25), stride=u8(20), bit_depth=u8(8)),
        QuerySpec(window=u8(4), stride=u8(2)),
        SensorConfig(micro_intervals=np.int64(2000), rng_seed=np.uint64(2 ** 63)),
        ModuloFrame(np.zeros((2, 2), np.uint16), u8(8)),
        ModuloSequence((ModuloFrame(np.zeros((2, 2), np.uint16), 8),), u8(4), u8(2), 1.0,
                       np.uint16(20_000)),
        SpikeStream(u8(200), u8(200), u8(1), u8(1), np.uint16(20_000),
                    np.zeros((1, 1, 5000), np.uint8)),
    ]
    for value in values:
        for field in dataclasses.fields(value):
            if field.type == "int":
                assert type(getattr(value, field.name)) is int, (value, field.name)


def test_positive_fields_refuse_huge_ints_and_accept_finite_motion():
    # the upper bound is the largest float, compared exactly: no float
    # conversion of 10**400, and no int that no float holds
    with pytest.raises(ValidationError, match="SpikeStream.readout_rate_hz"):
        SpikeStream(1, 1, 1, 10, 10**400, np.zeros((10, 1, 1), np.uint8))
    assert SpikeStream(1, 1, 1, 10, 10**300, np.zeros((10, 1, 1), np.uint8))
    with pytest.raises(ValidationError, match="Motion.rotate_deg"):
        Motion(rotate_deg=-10**400)
    motion = Motion(translate_px=[1e300, -1e300], rotate_deg=-1e6)
    assert motion.translate_px == (1e300, -1e300) and not motion.is_identity
    assert Motion(translate_px=np.zeros(2)).is_identity


@pytest.mark.parametrize("build, field", [
    (lambda: EncoderConfig(gain=10**400), "EncoderConfig.gain"),
    (lambda: QuerySpec(window=4, stride=2, digital_gain=10**400), "QuerySpec.digital_gain"),
    (lambda: Motion(translate_px=(10**400, 0)), "Motion.translate_px"),
    (lambda: Motion(rotate_deg=10**400), "Motion.rotate_deg"),
    (lambda: lar(3.0, 10**400), "modulus"),
], ids=["encoder-gain", "digital-gain", "translate", "rotate", "lar-modulus"])
def test_numbers_past_the_float_range_are_refused_where_they_enter(build, field):
    # an int of any size used to pass as positive and finite, and then the
    # encoder, the ideal counts, the warp or lar raised a raw OverflowError
    with pytest.raises(ValidationError, match=field):
        build()


@pytest.mark.parametrize("start, stop, field", [
    (0.5, None, "SpikeStream.bits.start"), (-3, None, "SpikeStream.bits.start"),
    (0, -1, "SpikeStream.bits.stop"), (0, 2.0, "SpikeStream.bits.stop"),
])
def test_spike_stream_bits_takes_nonnegative_integer_bounds(start, stop, field):
    stream = SpikeStream.from_bits(np.ones((4, 2, 2, 1), dtype=np.uint8), readout_rate_hz=100)
    with pytest.raises(ValidationError, match=field):
        stream.bits(start, stop)
    # a stop past the last frame stays allowed: chunked readers ask for whole steps
    assert stream.bits(np.int64(2), 100).shape == (2, 2, 2, 1)


@pytest.mark.parametrize("rate, seconds, field", [
    (10 ** 400, 0.05, "SensorConfig.readout_rate_hz"),
    (20_000, 10 ** 400, "SensorConfig.total_time_s"),
    (10 ** 300, 1e10, "SensorConfig.readout_rate_hz\\*total_time_s"),
    (10 ** 300, 10 ** 300, "SensorConfig.readout_rate_hz\\*total_time_s"),
], ids=["rate-1e400", "time-1e400", "float-product", "int-product"])
def test_sensor_config_rejects_a_rate_or_time_past_float_range(rate, seconds, field):
    # an int of any size is positive and finite, but the readout frame count
    # is computed in floats: past their range it raised a raw OverflowError
    with pytest.raises(ValidationError, match=field):
        SensorConfig(readout_rate_hz=rate, total_time_s=seconds)


@pytest.mark.parametrize("rate, seconds, micro", [(1.4, 5.0, 7), (0.5, 2.0, 1)])
def test_sensor_config_requires_a_whole_number_of_hertz(rate, seconds, micro):
    with pytest.raises(ValidationError, match="SensorConfig.readout_rate_hz"):
        SensorConfig(readout_rate_hz=rate, total_time_s=seconds, micro_intervals=micro)
    assert SensorConfig(readout_rate_hz=20_000.0).readout_frames == 1000  # the CLI's value
