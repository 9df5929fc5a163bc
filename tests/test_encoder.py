import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modspike import (ChunkedEncoder, EncoderConfig, IrradianceClip,
                      ModuloSequence, QuerySpec, SpikeStream, ValidationError,
                      encode_stream, frame_capacity, ideal_window_counts, query_ideal)


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


# --------------------------------------------------------------- query_ideal

def test_query_ideal_window_positions():
    clip = constant_clip(1.0, k=100)
    seq = query_ideal(clip, QuerySpec(window=25, stride=20, digital_gain=1.0),
                      bit_depth=8)
    assert len(seq) == 4  # floor((100-25)/20)+1, windows start at 1,21,41,61


def test_query_ideal_constant_wraps_to_44():
    # windowed digital sum 300 = 25 intervals of 12 counts -> mod 256 = 44
    clip = constant_clip(12.0, k=100)
    seq = query_ideal(clip, QuerySpec(window=25, stride=20, digital_gain=1.0),
                      bit_depth=8)
    for frame in seq.frames:
        assert np.all(frame.data == 44)


def test_query_ideal_stride_equals_window_matches_coupled_model():
    rng = np.random.default_rng(13)
    u = rng.integers(0, 8, size=(60, 4, 5, 1)).astype(np.float32)
    clip = IrradianceClip(u=u)
    spec = QuerySpec(window=15, stride=15, digital_gain=3.0)
    seq = query_ideal(clip, spec, bit_depth=8)
    oracle = coupled_forward(clip, exposure=15, gain=3.0, bit_depth=8)
    assert len(seq) == len(oracle)
    for frame, ref in zip(seq.frames, oracle):
        assert np.array_equal(frame.values(), ref)


def test_query_ideal_rejects_window_beyond_clip():
    clip = constant_clip(1.0, k=10)
    with pytest.raises(ValidationError, match="window"):
        query_ideal(clip, QuerySpec(window=11, stride=1), bit_depth=8)


def test_query_ideal_records_micro_rate():
    clip = constant_clip(1.0, k=100)
    seq = query_ideal(clip, QuerySpec(window=25, stride=20), bit_depth=8,
                      micro_rate_hz=400_000)
    assert seq.effective_rate_hz == 20_000.0


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
def test_query_ideal_of_a_binary_clip_equals_the_encoder(window, stride, gain, bit_depth):
    # when each interval's integral is one spike or none, the ideal route and
    # the hardware route count the same windows and wrap the same values
    rng = np.random.default_rng(window)
    bits = rng.integers(0, 2, size=(3 * window + 2, 4, 5, 3), dtype=np.uint8)
    seq = query_ideal(IrradianceClip(u=bits.astype(np.float32)),
                      QuerySpec(window=window, stride=stride, digital_gain=gain),
                      bit_depth=bit_depth, micro_rate_hz=20000)
    cfg = EncoderConfig(window=window, stride=stride, gain=gain, bit_depth=bit_depth)
    want = encode_stream(SpikeStream.from_bits(bits, readout_rate_hz=20000), cfg)
    assert len(seq) == len(want) and seq.effective_rate_hz == want.effective_rate_hz
    for a, b in zip(seq.frames, want.frames):
        assert a.bit_depth == b.bit_depth
        assert np.array_equal(a.values(), b.values())


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


def test_out_of_order_chunk_rejected():
    cfg = EncoderConfig(window=4, stride=2)
    enc = ChunkedEncoder(2, 2, 1, cfg)
    chunk = np.zeros((4, 2, 2, 1), dtype=np.uint8)
    enc.push(chunk, start_frame=1)
    with pytest.raises(ValidationError, match="out-of-order"):
        enc.push(chunk, start_frame=9)


@pytest.mark.parametrize("field, dims", [
    ("height", (0, 4, 1)), ("height", (-1, 4, 1)), ("width", (4, 0, 3)),
    ("width", (4, -3, 3)), ("channels", (4, 4, 2)), ("channels", (4, 4, 0)),
    ("height", (4.0, 4, 1)), ("channels", (4, 4, 1.0)),
])
def test_chunked_encoder_rejects_bad_geometry(field, dims):
    with pytest.raises(ValidationError, match=f"ChunkedEncoder.{field}"):
        ChunkedEncoder(*dims, EncoderConfig(window=4, stride=2))


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
    assert enc.frames_consumed == 1
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
@example(geometry=(65536, 5000), bit_depth=16, gain=1.0, channels=1, h=1, w=1,
         extra=10000, density=0.95, seed=4, cuts=[30000], per_frame=False, contiguous=False,
         dtype=np.uint8)
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
        emitted += enc.push(bits[a:b], start_frame=a + 1)
    oracle = naive_encode(raw, cfg)
    assert len(emitted) == len(oracle) == frame_capacity(total, window, stride)
    for frame, ref in zip(emitted, oracle):
        assert frame.data.dtype == np.uint16 and frame.data.flags.c_contiguous
        assert np.array_equal(frame.data, ref)
    assert enc.sequence().frames == tuple(emitted)


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
    from modspike import ModuloFrame
    a = ModuloFrame(data=np.zeros((2, 2), dtype=np.int64), bit_depth=8)
    b = ModuloFrame(data=np.zeros((3, 2), dtype=np.int64), bit_depth=8)
    with pytest.raises(ValidationError, match="mixed"):
        ModuloSequence(frames=(a, b), window=4, stride=2, gain=1.0)
