import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modspike import (ChunkedEncoder, EncoderConfig, IrradianceClip, ModuloFrame,
                      ModuloSequence, QuerySpec, SpikeStream, ValidationError, encode_stream,
                      encoder, frame_capacity, ideal_window_counts)


def naive_encode(bits, cfg):
    """Reference encoder: recount every window from scratch."""
    total = bits.shape[0]
    out = []
    for j in range(frame_capacity(total, cfg.window, cfg.stride)):
        start = j * cfg.stride
        count = bits[start:start + cfg.window].astype(np.int64).sum(axis=0)
        pre = np.floor(cfg.gain * count.astype(np.float64))
        out.append(np.mod(pre, cfg.modulus).astype(np.uint16))
    return out


def random_stream(rng, frames, h=5, w=4, c=1, rate=20000):
    bits = rng.integers(0, 2, size=(frames, h, w, c), dtype=np.uint8)
    return SpikeStream.from_bits(bits, readout_rate_hz=rate)


def coupled_forward(clip, exposure, gain, bit_depth):
    """Exposure-coupled reference: full back-to-back exposures on a fixed
    partition of the capture, one wrapped frame per exposure."""
    frames = []
    for i in range(clip.micro_intervals // exposure):
        integral = clip.u[i * exposure:(i + 1) * exposure].astype(np.float64).sum(axis=0)
        frames.append(np.mod(np.floor(gain * integral), 1 << bit_depth))
    return frames


def constant_clip(value, k, h=3, w=3, c=1):
    return IrradianceClip(u=np.full((k, h, w, c), value, dtype=np.float32))


# ------------------------------------------------------- ideal_window_counts

def test_ideal_window_positions():
    clip = constant_clip(1.0, k=100)
    counts = ideal_window_counts(clip, QuerySpec(window=25, stride=20, digital_gain=1.0))
    assert len(counts) == 4  # floor((100-25)/20)+1, windows start at 1,21,41,61


def test_ideal_constant_wraps_to_44():
    # windowed digital sum 300 = 25 intervals of 12 counts -> mod 256 = 44
    clip = constant_clip(12.0, k=100)
    counts = ideal_window_counts(clip, QuerySpec(window=25, stride=20, digital_gain=1.0))
    assert np.all(counts == 300) and np.all(np.mod(counts, 256) == 44)


def test_ideal_stride_equals_window_matches_coupled_model():
    rng = np.random.default_rng(13)
    u = rng.integers(0, 8, size=(60, 4, 5, 1)).astype(np.float32)
    clip = IrradianceClip(u=u)
    counts = ideal_window_counts(clip, QuerySpec(window=15, stride=15, digital_gain=3.0))
    oracle = coupled_forward(clip, exposure=15, gain=3.0, bit_depth=8)
    assert len(counts) == len(oracle)
    for count, ref in zip(counts, oracle):
        assert np.array_equal(np.mod(count, 256), ref)


def test_ideal_rejects_window_beyond_clip():
    clip = constant_clip(1.0, k=10)
    with pytest.raises(ValidationError, match="window"):
        ideal_window_counts(clip, QuerySpec(window=11, stride=1))


@settings(max_examples=60, deadline=None)
@given(geometry=st.integers(1, 12).flatmap(
           lambda w: st.tuples(st.just(w), st.integers(1, w))),
       extra=st.integers(0, 30))
def test_ideal_windows_cover_the_documented_micro_intervals(geometry, extra):
    # a unit impulse at interval k (0-based) counts in window i exactly when
    # i*stride <= k < i*stride + window, i.e. windows start at b_i = (i-1)*stride + 1
    window, stride = geometry
    k_total = window + extra
    u = np.zeros((k_total, 1, k_total, 1), dtype=np.float32)
    u[np.arange(k_total), 0, np.arange(k_total), 0] = 1.0  # impulse at k in column k
    counts = ideal_window_counts(IrradianceClip(u=u), QuerySpec(window=window, stride=stride))
    assert len(counts) == frame_capacity(k_total, window, stride) == extra // stride + 1
    starts = stride * np.arange(len(counts))[:, None]
    k = np.arange(k_total)[None, :]
    assert np.array_equal(counts[:, 0, :, 0], ((starts <= k) & (k < starts + window)))


@pytest.mark.parametrize("window, stride, gain, bit_depth", [
    (25, 20, 15.0, 8), (7, 3, 2.5, 4), (4, 4, 1.0, 1),
])
def test_ideal_counts_of_a_binary_clip_wrap_to_the_encoder(window, stride, gain, bit_depth):
    # when each interval's integral is one spike or none, the ideal counts
    # and the hardware route count the same windows and wrap the same values
    rng = np.random.default_rng(window)
    bits = rng.integers(0, 2, size=(3 * window + 2, 4, 5, 3), dtype=np.uint8)
    counts = ideal_window_counts(IrradianceClip(u=bits.astype(np.float32)),
                                 QuerySpec(window=window, stride=stride, digital_gain=gain))
    cfg = EncoderConfig(window=window, stride=stride, gain=gain, bit_depth=bit_depth)
    want = encode_stream(SpikeStream.from_bits(bits, readout_rate_hz=20000), cfg)
    assert len(counts) == len(want)
    for count, b in zip(counts, want.frames):
        assert np.array_equal(np.mod(count, 1 << bit_depth), b.values())


def _one_pixel_clip(value, k, static):
    """A (k, 2, 2, 1) clip, zero but for one pixel of `value`; `static`
    broadcasts one read-only plane over k."""
    plane = np.zeros((1, 2, 2, 1), np.float32)
    plane[0, 1, 0, 0] = value
    plane.setflags(write=False)
    return IrradianceClip(u=np.broadcast_to(plane, (k, 2, 2, 1)) if static
                          else np.repeat(plane, k, axis=0))


@pytest.mark.parametrize("static", [False, True])
@pytest.mark.parametrize("value, gain", [
    (1e30, 1.0),           # a count far past int64
    (2.0 ** 62, 1.0),      # two intervals of 2^62: exactly 2^63
    (3e38, 1e300),         # gain times integral overflows float64
])
def test_counts_past_int64_are_rejected_by_name(static, value, gain):
    # floor(gain * integral) at or past 2^63 has no int64 count: the cast
    # wrapped it to -2^63, which wraps to code 0
    clip = _one_pixel_clip(value, 4, static)
    spec = QuerySpec(window=2, stride=1, digital_gain=gain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"QuerySpec\.digital_gain"):
            ideal_window_counts(clip, spec)


@pytest.mark.parametrize("static", [False, True])
def test_the_largest_count_below_2_63_is_kept(static):
    # 2^63 * (1 - 2^-53) is the largest float64 below 2^63: it floors to
    # an int64 count exactly
    clip = _one_pixel_clip(2.0 ** 62, 4, static)
    counts = ideal_window_counts(clip, QuerySpec(window=2, stride=1,
                                                 digital_gain=1.0 - 2.0 ** -53))
    assert counts.shape == (3, 2, 2, 1)
    assert (counts[:, 1, 0, 0] == 2 ** 63 - 2 ** 10).all()
    assert (counts[:, 0, 0, 0] == 0).all()


def test_static_ideal_counts_hold_one_window():
    # a static 250^2 x 3 clip of K = 1000: one float64 window sum and its
    # int64 count, not one count plane per output frame (51 here, 76.5 MB)
    plane = np.random.default_rng(27).uniform(0, 50, (1, 250, 250, 3)).astype(np.float32)
    plane.setflags(write=False)
    clip = IrradianceClip(u=np.broadcast_to(plane, (1000, 250, 250, 3)))
    spec = QuerySpec(window=50, stride=19, digital_gain=3.0)
    count_plane = 250 * 250 * 3 * 8
    tracemalloc.start()
    try:
        counts = ideal_window_counts(clip, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (51, 250, 250, 3) and counts.strides[0] == 0
    assert not counts.flags.writeable
    assert peak <= 3 * count_plane, peak
    want = np.floor(3.0 * clip.u[:50].sum(axis=0, dtype=np.float64))
    assert np.array_equal(counts[50], want)


# -------------------------------------------------------------- encode_stream

def test_encode_all_zero_stream():
    stream = SpikeStream.from_bits(np.zeros((30, 3, 3, 1), dtype=np.uint8),
                                   readout_rate_hz=1000)
    seq = encode_stream(stream, EncoderConfig())
    assert len(seq) == 1
    assert np.all(seq.frames[0].data == 0)


def test_encode_gain_saturates_at_255():
    bits = np.zeros((25, 1, 1, 1), dtype=np.uint8)
    bits[:17, 0, 0, 0] = 1  # 17 set bits * 15 = 255, just below the wrap
    stream = SpikeStream.from_bits(bits, readout_rate_hz=1000)
    seq = encode_stream(stream, EncoderConfig(window=25, stride=20, gain=15.0,
                                              bit_depth=8))
    assert seq.frames[0].data[0, 0, 0] == 255


def test_encode_gain_wraps_past_256():
    bits = np.zeros((25, 1, 1, 1), dtype=np.uint8)
    bits[:18, 0, 0, 0] = 1  # 18 * 15 = 270 -> one rollover -> 14
    stream = SpikeStream.from_bits(bits, readout_rate_hz=1000)
    seq = encode_stream(stream, EncoderConfig(window=25, stride=20, gain=15.0,
                                              bit_depth=8))
    assert seq.frames[0].data[0, 0, 0] == 14


def test_encode_matches_naive_recount():
    rng = np.random.default_rng(2)
    cfg = EncoderConfig(window=7, stride=3, gain=2.5, bit_depth=4)
    stream = random_stream(rng, frames=40, c=3)
    seq = encode_stream(stream, cfg)
    oracle = naive_encode(stream.bits(), cfg)
    assert len(seq) == len(oracle)
    for frame, ref in zip(seq.frames, oracle):
        assert np.array_equal(frame.data, ref)


@settings(max_examples=80, deadline=None)
@given(geometry=st.integers(1, 12).flatmap(
           lambda window: st.tuples(st.just(window), st.integers(1, window))),
       extra=st.integers(0, 30), h=st.integers(1, 3), w=st.integers(1, 3),
       c=st.sampled_from([1, 3]), step=st.integers(0, 45), spare=st.floats(0.0, 0.99),
       seed=st.integers(0, 2 ** 32 - 1))
@example(geometry=(5, 2), extra=9, h=2, w=3, c=3, step=1, spare=0.0, seed=0)  # 1 frame a push
@example(geometry=(3, 1), extra=4, h=3, w=3, c=1, step=0, spare=0.5, seed=3)  # below a frame
@example(geometry=(9, 7), extra=20, h=1, w=2, c=1, step=3, spare=0.5, seed=1)  # step < stride
@example(geometry=(4, 3), extra=25, h=3, w=1, c=3, step=11, spare=0.9, seed=2)  # step > window
def test_encode_stream_chunks_equal_one_push(geometry, extra, h, w, c, step, spare, seed):
    # a budget of `step` frames and a fraction of one more unpacks `step`
    # whole frames a push, and one when it is below a frame; wherever the
    # pushes split the windows, the frames equal one push of the stream
    window, stride = geometry
    cfg = EncoderConfig(window=window, stride=stride, gain=2.5, bit_depth=4)
    total = window + extra
    stream = random_stream(np.random.default_rng(seed), frames=total, h=h, w=w, c=c)
    budget = int((step + spare) * h * w * c)
    pushed = []
    push = ChunkedEncoder.push

    def recording(self, chunk):
        pushed.append(len(chunk))
        return push(self, chunk)

    with (mock.patch.object(encoder, "_UNPACK_SAMPLES", budget),
          mock.patch.object(ChunkedEncoder, "push", recording)):
        got = encode_stream(stream, cfg)
    step = max(1, step)
    assert pushed == [min(step, total - start) for start in range(0, total, step)]
    enc = ChunkedEncoder(h, w, c, cfg, source_rate_hz=stream.readout_rate_hz)
    enc.push(stream.bits())
    want = enc.sequence()
    assert (got.window, got.stride, got.gain, got.source_rate_hz) == (
        want.window, want.stride, want.gain, want.source_rate_hz)
    assert len(got) == len(want) == frame_capacity(total, window, stride)
    for a, b in zip(got.frames, want.frames):
        assert a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes() and a.counted_by == b.counted_by == cfg


def test_encode_stream_memory_is_its_output_and_a_few_planes():
    # 100 spike frames of 500^2 x 3: each push unpacks one frame (a plane
    # of 750,000 samples is within the budget), not the whole stream (75 MB)
    rng = np.random.default_rng(28)
    packed = rng.integers(0, 256, (100, 3, 500 * 500 // 8), dtype=np.uint8)
    stream = SpikeStream(height=500, width=500, channels=3, frame_count=100,
                         readout_rate_hz=20000, packed=packed)
    sample_plane = 500 * 500 * 3
    tracemalloc.start()
    try:
        seq = encode_stream(stream, EncoderConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(f.data.nbytes for f in seq.frames)
    assert all(f.data.dtype == np.uint8 for f in seq.frames)  # 8-bit codes: one byte each
    assert len(seq) == 4 and output == 4 * sample_plane
    assert peak - output <= 16 * sample_plane, peak - output


def test_encode_rejects_short_stream():
    stream = SpikeStream.from_bits(np.zeros((10, 2, 2, 1), dtype=np.uint8),
                                   readout_rate_hz=100)
    with pytest.raises(ValidationError, match="shorter"):
        encode_stream(stream, EncoderConfig(window=25, stride=20))


def test_frame_capacity_of_a_source_shorter_than_the_window():
    assert frame_capacity(4, 5, 1) == 0
    assert frame_capacity(5, 5, 1) == 1


def test_effective_rate_and_frame_count_law():
    cfg = EncoderConfig(window=25, stride=20)
    for total in (25, 44, 45, 105, 333):
        rng = np.random.default_rng(total)
        stream = random_stream(rng, frames=total, h=2, w=2)
        seq = encode_stream(stream, cfg)
        assert len(seq) == (total - 25) // 20 + 1
        assert seq.effective_rate_hz == 20000 / 20


def test_prewrap_count_is_monotone_in_spikes():
    cfg = EncoderConfig(window=25, stride=20, gain=15.0, bit_depth=8)
    pre = [np.floor(cfg.gain * n) for n in range(26)]
    assert all(b >= a for a, b in zip(pre, pre[1:]))


# ----------------------------------------------------------------- streaming

def test_two_chunk_split_equals_single_shot():
    rng = np.random.default_rng(21)
    cfg = EncoderConfig(window=25, stride=20)
    stream = random_stream(rng, frames=70)
    bits = stream.bits()
    whole = encode_stream(stream, cfg)
    enc = ChunkedEncoder(stream.height, stream.width, stream.channels, cfg,
                         source_rate_hz=stream.readout_rate_hz)
    for chunk in (bits[:33], bits[33:]):
        enc.push(chunk)
    split = enc.sequence()
    assert len(whole) == len(split)
    for a, b in zip(whole.frames, split.frames):
        assert np.array_equal(a.data, b.data)


def test_chunk_boundary_inside_window():
    rng = np.random.default_rng(22)
    cfg = EncoderConfig(window=25, stride=20)
    stream = random_stream(rng, frames=65)
    bits = stream.bits()
    # split right after a window opens: a_2 = 21, cut at frame 21 (0-based)
    enc = ChunkedEncoder(stream.height, stream.width, stream.channels, cfg)
    for chunk in (bits[:21], bits[21:]):
        enc.push(chunk)
    split = enc.sequence()
    whole = encode_stream(stream, cfg)
    for a, b in zip(whole.frames, split.frames):
        assert np.array_equal(a.data, b.data)


def test_empty_trailing_chunk_adds_nothing():
    rng = np.random.default_rng(23)
    cfg = EncoderConfig(window=25, stride=20)
    bits = random_stream(rng, frames=45).bits()
    empty = np.zeros((0,) + bits.shape[1:], dtype=np.uint8)
    split = ChunkedEncoder(5, 4, 1, cfg)
    for chunk in (bits, empty):
        split.push(chunk)
    whole = ChunkedEncoder(5, 4, 1, cfg)
    whole.push(bits)
    assert len(split.sequence()) == len(whole.sequence())


def test_incremental_emission_timing():
    rng = np.random.default_rng(24)
    cfg = EncoderConfig(window=25, stride=20)
    bits = random_stream(rng, frames=45).bits()
    enc = ChunkedEncoder(5, 4, 1, cfg)
    assert enc.push(bits[:24]) == []         # window not complete yet
    first = enc.push(bits[24:25])            # frame 25 closes window 1
    assert len(first) == 1
    assert enc.push(bits[25:44]) == []       # window 2 closes at frame 45
    assert len(enc.push(bits[44:45])) == 1


@pytest.mark.parametrize("field, dims", [
    ("height", (0, 4, 1)), ("height", (-1, 4, 1)), ("width", (4, 0, 3)),
    ("width", (4, -3, 3)), ("channels", (4, 4, 2)), ("channels", (4, 4, 0)),
    ("height", (4.0, 4, 1)), ("channels", (4, 4, 1.0)),
])
def test_chunked_encoder_rejects_bad_geometry(field, dims):
    with pytest.raises(ValidationError, match=f"ChunkedEncoder.{field}"):
        ChunkedEncoder(*dims, EncoderConfig(window=4, stride=2))


@pytest.mark.parametrize("window", [2 ** 16, 2 ** 40, 10 ** 300], ids=["2^16", "2^40", "10^300"])
def test_a_window_past_modq_is_refused_by_name(window):
    # MODQ stores a window as u16; a 2^40 window raised a raw MemoryError
    # (8 TiB of pre-wrap values), one of 10^300 a raw ValueError from
    # np.min_scalar_type
    with pytest.raises(ValidationError, match=r"^EncoderConfig\.window: must be in 1\.\.65535, "):
        ChunkedEncoder(1, 1, 1, EncoderConfig(window=window, stride=window // 2, gain=0.5))
    # the widest window counts in uint16
    enc = ChunkedEncoder(1, 1, 1, EncoderConfig(window=2 ** 16 - 1, stride=1, gain=0.5))
    assert [f.data.item() for f in enc.push(np.ones((2 ** 16 - 1, 1, 1, 1), np.uint8))] == [255]


def test_encoder_state_does_not_grow_with_the_window():
    # a window's count is the running count at its close minus a copy taken
    # at its start, so W = S = 2000 keeps two uint16 count planes; keeping
    # the window's spike planes instead would take 1000 count planes
    cfg = EncoderConfig(window=2000, stride=2000, gain=1.0, bit_depth=12)
    chunk = np.random.default_rng(26).integers(0, 2, size=(250, 64, 64, 3), dtype=np.uint8)
    count_plane = 64 * 64 * 3 * 2
    tracemalloc.start()
    try:
        enc = ChunkedEncoder(64, 64, 3, cfg)
        emitted = [f for _ in range(17) for f in enc.push(chunk)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(emitted) == 2
    assert peak < 16 * count_plane, peak


@pytest.mark.parametrize("bad", [
    np.full((3, 2, 2, 1), 2, dtype=np.uint8),
    np.full((3, 2, 2, 1), -1, dtype=np.int8),
    np.full((3, 2, 2, 1), 256, dtype=np.int64),
    np.full((3, 2, 2, 1), 0.5),
    np.full((3, 2, 2, 1), np.nan),
    np.concatenate([np.ones((2, 2, 2, 1), np.uint8), np.full((1, 2, 2, 1), 2, np.uint8)]),
])
def test_push_rejects_samples_other_than_0_1(bad):
    # a rejected chunk is consumed not at all, even when only its last
    # frame is bad: the encoder goes on as if it had never seen it
    cfg = EncoderConfig(window=2, stride=1, gain=1.0, bit_depth=8)
    good = np.random.default_rng(25).integers(0, 2, size=(4, 2, 2, 1), dtype=np.uint8)
    enc, clean = ChunkedEncoder(2, 2, 1, cfg), ChunkedEncoder(2, 2, 1, cfg)
    enc.push(good[:1])
    clean.push(good[:1])
    with pytest.raises(ValidationError, match="samples must be 0 or 1"):
        enc.push(bad)
    emitted, want = enc.push(good[1:]), clean.push(good[1:])
    assert [f.data.tobytes() for f in emitted] == [f.data.tobytes() for f in want]
    assert ([f.data.tobytes() for f in enc.sequence().frames]
            == [f.data.tobytes() for f in clean.sequence().frames])


@st.composite
def window_and_stride(draw):
    window = draw(st.integers(1, 300))
    return window, draw(st.integers(1, window))


@settings(max_examples=60, deadline=None)
@given(geometry=window_and_stride(), bit_depth=st.integers(1, 16),
       gain=st.one_of(st.sampled_from([0.1, 1.0, 2.5, 15.0, 9000.0, 1e300]),
                      st.floats(1e-3, 1e300)),
       channels=st.sampled_from([1, 3]), h=st.integers(1, 3), w=st.integers(1, 3),
       extra=st.integers(0, 120), density=st.sampled_from([0.05, 0.5, 0.95, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1), cuts=st.lists(st.integers(0, 10 ** 6), max_size=8),
       per_frame=st.booleans(), contiguous=st.booleans(),
       dtype=st.sampled_from([np.uint8, np.bool_, np.int64, np.float32]))
@example(geometry=(255, 1), bit_depth=8, gain=1.0, channels=3, h=2, w=3, extra=30,
         density=1.0, seed=1, cuts=[100], per_frame=False, contiguous=False,
         dtype=np.uint8)
@example(geometry=(256, 7), bit_depth=9, gain=2.0, channels=1, h=3, w=2, extra=60,
         density=0.95, seed=2, cuts=[], per_frame=True, contiguous=True,
         dtype=np.bool_)
@example(geometry=(256, 256), bit_depth=16, gain=1e300, channels=3, h=1, w=1, extra=300,
         density=1.0, seed=3, cuts=[17, 400], per_frame=False, contiguous=False,
         dtype=np.uint8)
@example(geometry=(50, 10), bit_depth=12, gain=2.3, channels=3, h=2, w=2, extra=40,
         density=1.0, seed=5, cuts=[33], per_frame=False, contiguous=True,
         dtype=np.uint8)  # 2.3 * 50 needs f64
@example(geometry=(65535, 5000), bit_depth=16, gain=1.0, channels=1, h=1, w=1,
         extra=10000, density=0.95, seed=4, cuts=[30000], per_frame=False, contiguous=False,
         dtype=np.uint8)
@example(geometry=(31, 5), bit_depth=16, gain=2.0 ** 48, channels=1, h=2, w=2, extra=20,
         density=1.0, seed=6, cuts=[7], per_frame=False, contiguous=False,
         dtype=np.uint8)  # gain * window < 2^53: arithmetic
@example(geometry=(32, 5), bit_depth=16, gain=2.0 ** 48, channels=1, h=2, w=2, extra=20,
         density=1.0, seed=6, cuts=[7], per_frame=False, contiguous=False,
         dtype=np.uint8)  # gain * window = 2^53: table
@example(geometry=(40, 9), bit_depth=16, gain=65536.0, channels=3, h=2, w=1, extra=30,
         density=0.5, seed=7, cuts=[12], per_frame=False, contiguous=True,
         dtype=np.uint8)  # gain = 0 mod 2^16
@example(geometry=(40, 9), bit_depth=16, gain=65537.0, channels=3, h=2, w=1, extra=30,
         density=0.5, seed=7, cuts=[12], per_frame=False, contiguous=True,
         dtype=np.uint8)  # gain = 1 mod 2^16
@example(geometry=(255, 100), bit_depth=8, gain=15.0, channels=3, h=2, w=2, extra=120,
         density=0.95, seed=8, cuts=[90], per_frame=False, contiguous=False,
         dtype=np.uint8)  # uint8 counts
@example(geometry=(256, 100), bit_depth=8, gain=15.0, channels=3, h=2, w=2, extra=120,
         density=0.95, seed=8, cuts=[90], per_frame=False, contiguous=False,
         dtype=np.uint8)  # uint16 counts
def test_chunked_encoder_matches_naive_recount(geometry, bit_depth, gain, channels, h, w,
                                               extra, density, seed, cuts, per_frame,
                                               contiguous, dtype):
    window, stride = geometry
    cfg = EncoderConfig(window=window, stride=stride, gain=gain, bit_depth=bit_depth)
    total = window + extra
    rng = np.random.default_rng(seed)
    raw = (rng.random((total, h, w, channels)) < density).astype(np.uint8)
    bits = SpikeStream.from_bits(raw, readout_rate_hz=20000).bits()
    if contiguous:
        bits = np.ascontiguousarray(bits)
    bits = bits.astype(dtype, copy=False)
    bounds = list(range(total + 1)) if per_frame else (
        [0] + sorted(c % (total + 1) for c in cuts) + [total])
    enc = ChunkedEncoder(h, w, channels, cfg)
    emitted = []
    for a, b in zip(bounds, bounds[1:]):
        emitted += enc.push(bits[a:b])
    oracle = naive_encode(raw, cfg)
    assert len(emitted) == len(oracle) == frame_capacity(total, window, stride)
    for frame, ref in zip(emitted, oracle):
        assert frame.data.dtype == (np.uint8 if bit_depth <= 8 else np.uint16)
        assert frame.data.flags.c_contiguous
        assert frame.data.shape == (h, w, channels) and not frame.data.flags.writeable
        assert np.array_equal(frame.data, ref)
    assert enc.sequence().frames == tuple(emitted)


@pytest.mark.parametrize("gain", [15.0, 2.5])
@pytest.mark.parametrize("window, stride", [(255, 40), (256, 40), (300, 7), (1000, 333)])
def test_windows_past_255_feed_uint16_counts_into_uint8_codes(gain, window, stride):
    # counts past 255 are held in uint16; the 8-bit codes they make are uint8,
    # by the wrapping multiply (whole gain) and by the table (2.5)
    cfg = EncoderConfig(window=window, stride=stride, gain=gain, bit_depth=8)
    rng = np.random.default_rng(window)
    raw = (rng.random((window + 2 * stride, 3, 2, 3)) < 0.9).astype(np.uint8)
    raw[:window, 0, 0, 0] = 1  # one pixel counts every spike of window 0
    enc = ChunkedEncoder(3, 2, 3, cfg)
    frames = enc.push(raw[:window // 2]) + enc.push(raw[window // 2:])
    oracle = naive_encode(raw, cfg)
    assert enc._total.dtype == (np.uint8 if window <= 255 else np.uint16)
    assert len(frames) == len(oracle) == 3
    for frame, ref in zip(frames, oracle):
        assert frame.data.dtype == np.uint8 and np.array_equal(frame.data, ref)
    assert frames[0].data[0, 0, 0] == np.floor(gain * window) % 256


@pytest.mark.parametrize("gain, window, table", [
    (15.0, 25, False), (2.5, 25, True), (2.0 ** 48, 31, False), (2.0 ** 48, 32, True)])
def test_encoder_reads_a_table_only_where_arithmetic_is_inexact(gain, window, table):
    # a whole gain with gain * window < 2^53 codes each count by wrapping uint16
    # multiplication; a fractional gain, or a product float64 may round, looks it up
    cfg = EncoderConfig(window=window, stride=window, gain=gain, bit_depth=8)
    bits = np.ones((window, 2, 2, 3), dtype=np.uint8)
    with mock.patch.object(np, "take", wraps=np.take) as take:
        (frame,) = ChunkedEncoder(2, 2, 3, cfg).push(bits)
    assert take.called == table
    assert np.all(frame.data == np.mod(np.floor(gain * window), 256))


@settings(max_examples=40, deadline=None)
@given(st.integers(25, 90), st.integers(0, 2 ** 32 - 1), st.data())
def test_random_chunkings_match_single_shot(total, seed, data):
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig(window=25, stride=20)
    stream = random_stream(rng, frames=total, h=3, w=3)
    bits = stream.bits()
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=6)))
    bounds = [0] + cuts + [total]
    enc = ChunkedEncoder(3, 3, 1, cfg)
    for a, b in zip(bounds, bounds[1:]):
        enc.push(bits[a:b])
    split = enc.sequence()
    whole = encode_stream(stream, cfg)
    assert len(split) == len(whole)
    for a, b in zip(whole.frames, split.frames):
        assert np.array_equal(a.data, b.data)


def test_encode_extreme_bit_depths():
    rng = np.random.default_rng(15)
    stream = random_stream(rng, frames=30)
    one_bit = encode_stream(stream, EncoderConfig(window=8, stride=4, gain=1.0,
                                                  bit_depth=1))
    counts = stream.bits().astype(np.int64)
    for j, frame in enumerate(one_bit.frames):
        window = counts[j * 4:j * 4 + 8].sum(axis=0)
        assert np.array_equal(frame.data, window % 2)  # parity at N=1
    wide = encode_stream(stream, EncoderConfig(window=8, stride=4, gain=9000.0,
                                               bit_depth=16))
    for j, frame in enumerate(wide.frames):
        window = counts[j * 4:j * 4 + 8].sum(axis=0)
        assert np.array_equal(frame.data.astype(np.int64),
                              np.floor(9000.0 * window).astype(np.int64) % 65536)


def test_modulo_sequence_validates_mixed_frames():
    a = ModuloFrame(data=np.zeros((2, 2), dtype=np.int64), bit_depth=8)
    b = ModuloFrame(data=np.zeros((3, 2), dtype=np.int64), bit_depth=8)
    with pytest.raises(ValidationError, match="mixed"):
        ModuloSequence(frames=(a, b), window=4, stride=2, gain=1.0)


def test_modulo_sequence_refuses_frames_counted_under_another_config():
    # such a sequence used to be accepted, and write_modulo then stored
    # W100/S7/g2.5 for frames that decode on the W25/g15 lattice
    counted = encode_stream(random_stream(np.random.default_rng(9), 90),
                            EncoderConfig(25, 20, 15.0, 8)).frames
    for window, stride, gain in ((100, 7, 2.5), (26, 20, 15.0), (25, 19, 15.0),
                                 (25, 20, 15.000001)):
        with pytest.raises(ValidationError, match=r"^ModuloSequence.frames: frame 0 was "
                                                  r"counted by EncoderConfig\(window=25"):
            ModuloSequence(frames=counted, window=window, stride=stride, gain=gain)
    plain = ModuloFrame(data=counted[1].data, bit_depth=8)
    assert len(ModuloSequence((plain,) + counted, 25, 20, 15)) == 5
    assert len(ModuloSequence((plain,), 100, 7, 2.5)) == 1
    with pytest.raises(ValidationError, match="frame 1 was counted by"):
        ModuloSequence((plain,) + counted, 100, 7, 2.5)


def test_modulo_sequence_rejects_a_negative_source_rate():
    with pytest.raises(ValidationError, match="ModuloSequence.source_rate_hz"):
        ModuloSequence((), 4, 2, 1.0, -5)
    frame = ModuloFrame(data=np.zeros((2, 2), dtype=np.uint16), bit_depth=8)
    assert ModuloSequence((frame,), 4, 2, 1.0, 0).effective_rate_hz == 0.0


@pytest.mark.parametrize("cfg, rate, field", [
    (None, 0, "ChunkedEncoder.cfg"), ("W4/P4", 0, "ChunkedEncoder.cfg"),
    (EncoderConfig(window=4, stride=4), 1.5, "ChunkedEncoder.source_rate_hz"),
    (EncoderConfig(window=4, stride=4), -20000, "ChunkedEncoder.source_rate_hz"),
])
def test_chunked_encoder_checks_its_config_and_source_rate_up_front(cfg, rate, field):
    with pytest.raises(ValidationError, match=field):
        ChunkedEncoder(4, 4, 1, cfg, source_rate_hz=rate)


def test_encode_stream_rejects_a_missing_config():
    stream = SpikeStream.from_bits(np.zeros((4, 2, 2, 1), dtype=np.uint8), readout_rate_hz=100)
    with pytest.raises(ValidationError, match="ChunkedEncoder.cfg"):
        encode_stream(stream, None)


@pytest.mark.parametrize("source_frames", [10.5, 10.0, -1])
def test_frame_capacity_takes_a_nonnegative_integer_source(source_frames):
    with pytest.raises(ValidationError, match="frame_capacity.source_frames"):
        frame_capacity(source_frames, 4, 2)
    assert frame_capacity(np.int64(0), 4, 2) == 0
