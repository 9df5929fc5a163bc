import dataclasses
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspike import (EncoderConfig, FormatError, HdrImage, ModuloFrame,
                      ModuloSequence, SpikeStream, ValidationError, containers, encode_stream,
                      read_hdr, plane_bytes, read_modulo, read_spikes, types, write_hdr,
                      write_modulo, write_spikes)


# ------------------------------------------------------------------- LHDR

def test_hdr_f32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = HdrImage(data=rng.uniform(0, 4096, (7, 9, 3)).astype(np.float32))
    path = tmp_path / "a.lhdr"
    write_hdr(path, img)
    back = read_hdr(path)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data.view(np.uint32), img.data.view(np.uint32))


def test_hdr_u16_12bit_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = HdrImage(data=rng.integers(0, 4096, (5, 6, 1)).astype(np.uint16))
    path = tmp_path / "gt.lhdr"
    write_hdr(path, img)
    back = read_hdr(path)
    assert back.data.dtype == np.uint16
    assert np.array_equal(back.data, img.data)
    assert back.data.max() <= 4095


def test_hdr_u64_counts_round_trip_as_tag_2_and_tag_3_is_unknown(tmp_path):
    # counts float32 would round are written as u64, tag 2, and read back as is
    counts = np.array([[0, 2 ** 24], [2 ** 24 + 1, 2 ** 64 - 1]], np.uint64)
    path = tmp_path / "c.lhdr"
    write_hdr(path, HdrImage(data=counts))
    blob = path.read_bytes()
    assert blob[18] == 2 and len(blob) == 19 + counts.size * 8
    back = read_hdr(path)
    assert back.data.dtype == np.uint64 and np.array_equal(back.data[:, :, 0], counts)
    write_hdr(path, back)
    assert path.read_bytes() == blob
    path.write_bytes(blob[:18] + bytes([3]) + blob[19:])
    with pytest.raises(FormatError, match="unknown dtype tag 3"):
        read_hdr(path)


def test_hdr_truncated_payload(tmp_path):
    img = HdrImage(data=np.ones((4, 4), dtype=np.float32))
    path = tmp_path / "t.lhdr"
    write_hdr(path, img)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="truncated"):
        read_hdr(path)


def test_hdr_unknown_dtype_tag(tmp_path):
    img = HdrImage(data=np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "d.lhdr"
    write_hdr(path, img)
    blob = bytearray(path.read_bytes())
    blob[18] = 9  # dtype tag byte
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="dtype"):
        read_hdr(path)


def test_hdr_trailing_garbage_rejected(tmp_path):
    img = HdrImage(data=np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "g.lhdr"
    write_hdr(path, img)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="mismatch"):
        read_hdr(path)


@pytest.mark.parametrize("dtype", [np.float32, np.uint16])
def test_read_hdr_allocates_its_samples_once(tmp_path, dtype):
    # the payload starts at the odd offset 19, so a view of a buffer holding
    # the whole file is unaligned and HdrImage used to copy it: twice the payload
    data = np.random.default_rng(5).integers(0, 4096, (256, 256, 3)).astype(dtype)
    path = tmp_path / "a.lhdr"
    write_hdr(path, HdrImage(data=data))
    tracemalloc.start()
    try:
        back = read_hdr(path).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.dtype == dtype and np.array_equal(back, data)
    assert peak < 1.1 * data.nbytes, (peak, data.nbytes)
    assert back.flags.aligned and back.flags.c_contiguous and types._frozen(back)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 3]),
       st.integers(0, 2 ** 32 - 1))
def test_hdr_round_trip_property(tmp_path_factory, h, w, c, seed):
    rng = np.random.default_rng(seed)
    img = HdrImage(data=rng.uniform(0, 1e4, (h, w, c)).astype(np.float32))
    path = tmp_path_factory.mktemp("rt") / "x.lhdr"
    write_hdr(path, img)
    assert np.array_equal(read_hdr(path).data, img.data)


# ------------------------------------------------------------------- SPKB

def test_spikes_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=(11, 6, 5, 3), dtype=np.uint8)
    stream = SpikeStream.from_bits(bits, readout_rate_hz=20000)
    path = tmp_path / "s.spkb"
    write_spikes(path, stream)
    back = read_spikes(path)
    assert back.readout_rate_hz == 20000
    assert np.array_equal(back.packed, stream.packed)
    assert np.array_equal(back.bits(), bits)


def test_spikes_9x9_plane_occupies_11_bytes(tmp_path):
    bits = np.ones((1, 9, 9, 1), dtype=np.uint8)
    stream = SpikeStream.from_bits(bits, readout_rate_hz=100)
    assert stream.packed.shape == (1, 1, 11)  # ceil(81/8) = 11
    path = tmp_path / "ones.spkb"
    write_spikes(path, stream)
    # header(18) + frame_count/rate(8) + one 11-byte plane
    assert path.stat().st_size == 18 + 8 + 11
    assert np.array_equal(read_spikes(path).bits(), bits)


def test_spikes_frame_count_payload_mismatch(tmp_path):
    bits = np.ones((4, 4, 4, 1), dtype=np.uint8)
    stream = SpikeStream.from_bits(bits, readout_rate_hz=100)
    path = tmp_path / "bad.spkb"
    write_spikes(path, stream)
    blob = bytearray(path.read_bytes())
    blob[18] = 9  # declare 9 frames, payload still holds 4
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="truncated"):
        read_spikes(path)


# ------------------------------------------------------------------- MODQ

def _sequence(bit_depth=8):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(50, 4, 6, 3), dtype=np.uint8)
    stream = SpikeStream.from_bits(bits, readout_rate_hz=20000)
    return encode_stream(stream, EncoderConfig(window=25, stride=20, gain=15.0,
                                               bit_depth=bit_depth))


def test_modulo_round_trip_bit_exact(tmp_path):
    seq = _sequence()
    path = tmp_path / "m.modq"
    write_modulo(path, seq)
    back = read_modulo(path)
    assert (back.window, back.stride, back.gain) == (25, 20, 15.0)
    assert back.source_rate_hz == 20000
    assert len(back) == len(seq)
    for a, b in zip(back.frames, seq.frames):
        assert a.bit_depth == b.bit_depth
        assert np.array_equal(a.data, b.data)


def test_modulo_8bit_payload_is_one_byte_per_sample(tmp_path):
    seq = _sequence(bit_depth=8)
    path = tmp_path / "m8.modq"
    write_modulo(path, seq)
    per_frame = 4 * 6 * 3
    # common header 18 + format block (u8 + 2*u16 + f32 + 2*u32 = 17)
    assert path.stat().st_size == 18 + 17 + len(seq) * per_frame


def test_modulo_wide_bit_depth_round_trip(tmp_path):
    frame = ModuloFrame(data=np.arange(12, dtype=np.int64).reshape(3, 4) * 300,
                        bit_depth=12)
    seq = ModuloSequence(frames=(frame,), window=4, stride=4, gain=1.0)
    path = tmp_path / "m12.modq"
    write_modulo(path, seq)
    back = read_modulo(path)
    assert back.frames[0].bit_depth == 12
    assert np.array_equal(back.frames[0].data, frame.data)


@pytest.mark.parametrize("bit_depth, dtype", [(8, np.uint8), (12, np.uint16)])
def test_modulo_frames_are_read_at_their_wire_width(tmp_path, bit_depth, dtype):
    # each frame owns one read-only copy of its samples, in the narrowest
    # type that holds them, and pins no buffer the file was read into
    path = tmp_path / "m.modq"
    write_modulo(path, _sequence(bit_depth=bit_depth))
    frames = read_modulo(path).frames
    assert len(frames) == 2 and not np.shares_memory(frames[0].data, frames[1].data)
    for frame in frames:
        assert frame.data.dtype == dtype and not frame.data.flags.writeable
        assert frame.data.base is None and frame.data.flags.c_contiguous


def test_read_modulo_of_8bit_frames_peaks_at_the_file_size(tmp_path):
    # each frame is read straight into its own array: one copy of the
    # payload; the whole file used to be read into one buffer first and each
    # frame copied out of it (twice the file), and before that widened to
    # uint16 frame by frame (three times)
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 256, (100, 64, 64, 3), dtype=np.uint8)
    frames = tuple(ModuloFrame(data=c, bit_depth=8) for c in codes)
    path = tmp_path / "m100.modq"
    write_modulo(path, ModuloSequence(frames=frames, window=25, stride=20, gain=15.0))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        seq = read_modulo(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a.data, b) for a, b in zip(seq.frames, codes))
    assert 0.99 * size < peak < 1.1 * size, (peak, size)


def test_reading_modq_as_spikes_fails_on_magic(tmp_path):
    seq = _sequence()
    path = tmp_path / "x.modq"
    write_modulo(path, seq)
    with pytest.raises(FormatError, match="bad magic"):
        read_spikes(path)
    with pytest.raises(FormatError, match="bad magic"):
        read_hdr(path)


def test_a_modulo_sequence_holds_a_frame(tmp_path):
    # an empty sequence is no value, so no writer meets one; a MODQ header of
    # zero frames used to read back as one that write_modulo then refused
    with pytest.raises(ValidationError, match="ModuloSequence.frames"):
        ModuloSequence(frames=(), window=4, stride=4, gain=1.0)
    path = tmp_path / "empty.modq"
    path.write_bytes(struct.pack("<4sHIIIBHHfII", b"MODQ", 1, 2, 4, 1, 8, 4, 4, 1.0, 0, 0))
    with pytest.raises(ValidationError, match="ModuloSequence.frames"):
        read_modulo(path)


# ------------------------------------------------------- writer header range

def _modulo_with(**fields):
    frame = ModuloFrame(data=np.zeros((2, 3), dtype=np.uint16), bit_depth=8)
    base = dict(frames=(frame,), window=4, stride=4, gain=1.0, source_rate_hz=20000)
    return ModuloSequence(**{**base, **fields})


def _spikes_with(frame_count=2, readout_rate_hz=20000, height=2, width=3):
    packed = np.zeros((frame_count, 1, plane_bytes(height, width)), dtype=np.uint8)
    return SpikeStream(height=height, width=width, channels=1, frame_count=frame_count,
                       readout_rate_hz=readout_rate_hz, packed=packed)


@pytest.mark.parametrize("write, value, field", [
    (write_modulo, _modulo_with(window=70000), "window"),
    (write_modulo, _modulo_with(window=70000, stride=70000), "window"),
    (write_modulo, _modulo_with(source_rate_hz=1 << 32), "source_rate_hz"),
    (write_modulo, _modulo_with(gain=1e39), "gain"),
    (write_spikes, _spikes_with(readout_rate_hz=1 << 32), "readout_rate_hz"),
    (write_modulo, _modulo_with(gain=1e-50), "gain"),  # packs as f32 0.0
])
def test_writer_rejects_unrepresentable_header_and_leaves_no_file(tmp_path, write, value,
                                                                  field):
    path = tmp_path / "out.bin"
    with pytest.raises(FormatError, match=field):
        write(path, value)
    assert not path.exists()


# the f32 gain check refuses only zero: a subnormal gain, down to the least
# one, is still positive and reads back as the value it packs to
@pytest.mark.parametrize("gain", [3e-39, 1.5e-45])
def test_modulo_subnormal_gain_round_trips(tmp_path, gain):
    path = tmp_path / "g.modq"
    write_modulo(path, _modulo_with(gain=gain))
    back = read_modulo(path)
    assert back.gain == float(np.float32(gain)) > 0.0


@pytest.mark.parametrize("gain, read_back", [(0.1, 0.10000000149011612), (2.5, 2.5),
                                              (15.0, 15.0)])
def test_modulo_gain_reads_back_rounded_to_f32(tmp_path, gain, read_back):
    # MODQ holds the gain as f32: the one field that is no bijection
    path = tmp_path / "g.modq"
    write_modulo(path, _modulo_with(gain=gain))
    assert read_modulo(path).gain == read_back == float(np.float32(gain))


def test_writer_header_check_keeps_an_existing_file(tmp_path):
    path = tmp_path / "m.modq"
    write_modulo(path, _modulo_with())
    before = path.read_bytes()
    with pytest.raises(FormatError):
        write_modulo(path, _modulo_with(window=70000))
    assert path.read_bytes() == before


@pytest.mark.parametrize("magic, field", [(b"LHDR", "height"), (b"LHDR", "width"),
                                          (b"SPKB", "height"), (b"SPKB", "width"),
                                          (b"SPKB", "frame_count")])
def test_writers_check_sizes_against_u32(magic, field):
    # no raster that fits in memory has 2^32 rows or columns, so the
    # writers' size check is reached through a stand-in for the value
    source = SimpleNamespace(height=2, width=3, channels=1, dtype=0, frame_count=2,
                             readout_rate_hz=100)
    setattr(source, field, (1 << 32) - 1)
    tail = (struct.pack("<B", 0) if magic == b"LHDR"
            else struct.pack("<II", source.frame_count, 100))
    assert containers._pack("x.bin", magic, source) == (
        struct.pack(_COMMON, magic, 1, source.height, source.width, 1) + tail)
    setattr(source, field, 1 << 32)
    with pytest.raises(FormatError, match=f"{field}=4294967296 does not fit"):
        containers._pack("x.bin", magic, source)


@pytest.mark.parametrize("magic, layout, fields", [
    (b"LHDR", "B", (0,)),
    (b"SPKB", "II", (2 ** 32 - 1, 100)),
    # a MODQ file size cannot bound the frame count of such frames either
    *(pytest.param(b"MODQ", "BHHfII", (bits, 4, 4, 1.0, 0, count), id=f"MODQ-{bits}bit-{count}")
      for bits in (8, 12) for count in (3, 2 ** 32 - 1)),
])
@pytest.mark.parametrize("h, w, field", [(2 ** 32 - 1, 0, "width"), (0, 2 ** 32 - 1, "height")])
def test_reader_rejects_a_header_without_samples_before_allocating(tmp_path, magic, layout,
                                                                    fields, h, w, field):
    # such a header has an empty payload: the value it would build is
    # refused on its geometry, before anything the size of the header's
    # claims is allocated (MODQ's first frame refuses it); 2^32 - 1 channels
    # take the header's other sizes past numpy's index range
    path = tmp_path / "x.bin"
    path.write_bytes(struct.pack(_COMMON + layout, magic, 1, h, w, 2 ** 32 - 1, *fields))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=rf"\.{field}: must be in 1\.\."):
            _READERS[magic](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("magic, layout, fields", [
    (b"LHDR", "B", (2 ** 32 - 1, 64, 3, 0)),
    (b"SPKB", "II", (64, 64, 3, 2 ** 32 - 1, 100)),
    (b"MODQ", "BHHfII", (64, 64, 3, 8, 4, 4, 1.0, 0, 2 ** 32 - 1)),
], ids=["LHDR-geometry", "SPKB-frame_count", "MODQ-frame_count"])
def test_reader_refuses_a_header_larger_than_its_file_before_allocating(tmp_path, magic,
                                                                          layout, fields):
    # the payload size is checked against the file's before any raster is
    # read, so a header claiming terabytes costs nothing
    path = tmp_path / "x.bin"
    path.write_bytes(struct.pack(_COMMON + layout, magic, 1, *fields) + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated payload"):
            _READERS[magic](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_writer_limits_are_inclusive(tmp_path):
    seq = _modulo_with(window=65535, stride=65535, source_rate_hz=(1 << 32) - 1)
    path = tmp_path / "edge.modq"
    write_modulo(path, seq)
    back = read_modulo(path)
    assert (back.window, back.stride, back.source_rate_hz) == (65535, 65535, (1 << 32) - 1)


# ------------------------------------------------------- header oracle

# the layouts of the module docstring, written out independently of the module
_COMMON = "<4sHIII"
_U32 = st.integers(0, 2 ** 32 - 1)
_F32_MAX = float(np.finfo(np.float32).max)


# (H, W, C); the u32 range of the sizes is covered by the `_pack` test above
_SIZES = st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 3]))


@st.composite
def _hdr_case(draw):
    h, w, c = draw(_SIZES)
    rng = np.random.default_rng(draw(_U32))
    tag = draw(st.integers(0, 2))  # f32, u16, u64
    if tag == 2:  # counts past 2^24, up to the largest u64
        data = rng.integers(0, 1 << 64, (h, w, c), dtype=np.uint64)
        data.flat[0] |= np.uint64(1 << 24)
    else:
        data = (rng.integers(0, 1 << 16, (h, w, c)).astype(np.uint16) if tag
                else rng.uniform(0, 1e6, (h, w, c)).astype(np.float32))
    blob = (struct.pack(_COMMON, b"LHDR", 1, h, w, c) + struct.pack("<B", tag)
            + data.astype(("<f4", "<u2", "<u8")[tag]).tobytes())
    image = HdrImage(data=data)
    return write_hdr, read_hdr, image, image, blob


@st.composite
def _spikes_case(draw):
    h, w, c = draw(_SIZES)
    frames = draw(st.integers(1, 4))
    rate = draw(_U32.filter(bool))
    rng = np.random.default_rng(draw(_U32))
    bits = rng.integers(0, 2, (frames, c, h * w), dtype=np.uint8)
    stream = SpikeStream(h, w, c, frames, rate, np.packbits(bits, axis=-1, bitorder="little"))
    blob = (struct.pack(_COMMON, b"SPKB", 1, h, w, c) + struct.pack("<II", frames, rate)
            + stream.packed.tobytes())
    return write_spikes, read_spikes, stream, stream, blob


@st.composite
def _modulo_case(draw):
    h, w, c = draw(_SIZES)
    bit_depth = draw(st.integers(1, 16))
    window = draw(st.integers(1, 65535))
    stride = draw(st.integers(1, window))
    gain = draw(st.floats(2.0 ** -149, _F32_MAX))
    rate = draw(_U32)
    rng = np.random.default_rng(draw(_U32))
    data = rng.integers(0, 1 << bit_depth, (draw(st.integers(1, 3)), h, w, c))
    frames = tuple(ModuloFrame(data=d, bit_depth=bit_depth) for d in data)
    blob = (struct.pack(_COMMON, b"MODQ", 1, h, w, c)
            + struct.pack("<BHHfII", bit_depth, window, stride, gain, rate, len(data))
            + data.astype("<u2" if bit_depth > 8 else "u1").tobytes())
    written = ModuloSequence(frames, window, stride, gain, rate)
    # the header holds the gain as f32
    read_back = ModuloSequence(frames, window, stride, float(np.float32(gain)), rate)
    return write_modulo, read_modulo, written, read_back, blob


def _key(value):
    """A comparable form of a container value: arrays as (dtype, shape, bytes)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_key, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {k: _key(v) for k, v in vars(value).items()}
    return value


@settings(max_examples=300, deadline=None)
@given(st.one_of(_hdr_case(), _spikes_case(), _modulo_case()))
def test_header_round_trips_across_the_full_field_ranges(tmp_path_factory, case):
    """Every writer produces exactly the documented bytes, and its reader
    gives back the value, for header values across each field's range."""
    write, read, value, read_back, blob = case
    path = tmp_path_factory.mktemp("oracle") / "x.bin"
    write(path, value)
    assert path.read_bytes() == blob
    assert _key(read(path)) == _key(read_back)


# one valid file per container, packed by hand: 2x2 f32 zeros, 2 frames of a
# 2x3 plane (1 byte each), one 2x3 8-bit frame
_LHDR = struct.pack(_COMMON + "B", b"LHDR", 1, 2, 2, 1, 0) + bytes(16)
_SPKB = struct.pack(_COMMON + "II", b"SPKB", 1, 2, 3, 1, 2, 100) + bytes(2)
_MODQ = struct.pack(_COMMON + "BHHfII", b"MODQ", 1, 2, 3, 1, 8, 4, 4, 1.0, 0, 1) + bytes(6)
_EMPTY_MODQ = struct.pack(_COMMON + "BHHfII", b"MODQ", 1, 0, 3, 1, 8, 4, 4, 1.0, 0, 1)
_READERS = {b"LHDR": read_hdr, b"SPKB": read_spikes, b"MODQ": read_modulo}


def _version(blob, version=2):
    return blob[:4] + struct.pack("<H", version) + blob[6:]


@pytest.mark.parametrize("magic, blob, error", [
    (b"LHDR", _LHDR, None),
    (b"SPKB", _SPKB, None),
    (b"MODQ", _MODQ, None),
    # an empty file, then cuts inside the common header, the format header and the payload
    (b"LHDR", b"", "truncated payload"),
    (b"SPKB", b"", "truncated payload"),
    (b"MODQ", b"", "truncated payload"),
    (b"LHDR", _LHDR[:10], "truncated payload"),
    (b"SPKB", _SPKB[:10], "truncated payload"),
    (b"MODQ", _MODQ[:10], "truncated payload"),
    (b"LHDR", _LHDR[:18], "truncated payload"),
    (b"SPKB", _SPKB[:22], "truncated payload"),
    (b"MODQ", _MODQ[:30], "truncated payload"),
    (b"LHDR", _LHDR[:-3], "truncated payload"),
    (b"SPKB", _SPKB[:-1], "truncated payload"),
    (b"MODQ", _MODQ[:-1], "truncated payload"),
    (b"LHDR", _LHDR + b"xx", r"payload length mismatch \(2 extra bytes\)"),
    (b"SPKB", _SPKB + b"x", r"payload length mismatch \(1 extra bytes\)"),
    (b"MODQ", _MODQ + b"xyz", r"payload length mismatch \(3 extra bytes\)"),
    # the magic is checked before the format header's length
    (b"MODQ", _SPKB[:25], "bad magic b'SPKB'"),
    (b"SPKB", _LHDR[:19], "bad magic b'LHDR'"),
    (b"LHDR", _MODQ[:18], "bad magic b'MODQ'"),
    # the version is checked before the format header's length
    (b"LHDR", _version(_LHDR[:18]), "unsupported version 2"),
    (b"SPKB", _version(_SPKB[:22]), "unsupported version 2"),
    (b"MODQ", _version(_MODQ[:30]), "unsupported version 2"),
    # the dtype tag before the payload size, and the payload size before
    # the geometry of a MODQ frame
    (b"LHDR", _LHDR[:18] + b"\x09" + bytes(5), "unknown dtype tag 9"),
    (b"MODQ", _EMPTY_MODQ[:30], "truncated payload"),
    (b"MODQ", _EMPTY_MODQ + b"xx", r"payload length mismatch \(2 extra bytes\)"),
], ids=["lhdr-valid", "spkb-valid", "modq-valid", "lhdr-empty", "spkb-empty", "modq-empty",
        "lhdr-cut-common", "spkb-cut-common", "modq-cut-common",
        "lhdr-cut-format", "spkb-cut-format", "modq-cut-format",
        "lhdr-cut-payload", "spkb-cut-payload", "modq-cut-payload",
        "lhdr-extra", "spkb-extra", "modq-extra",
        "spkb-as-modq", "lhdr-as-spkb", "modq-as-lhdr",
        "lhdr-version", "spkb-version", "modq-version",
        "lhdr-dtype-tag-cut-payload", "modq-no-samples-cut-format",
        "modq-no-samples-extra"])
def test_readers_raise_errors_in_header_order(tmp_path, magic, blob, error):
    path = tmp_path / "x.bin"
    path.write_bytes(blob)
    if error is None:
        _READERS[magic](path)
    else:
        with pytest.raises(FormatError, match=error):
            _READERS[magic](path)


def test_modulo_reader_checks_the_payload_size_before_the_samples(tmp_path):
    # sample 255 does not fit the 3-bit frame; the short payload is reported
    # first, as LHDR and SPKB report theirs before they build a value
    blob = struct.pack(_COMMON + "BHHfII", b"MODQ", 1, 2, 3, 1, 3, 4, 4, 1.0, 0, 2)
    path = tmp_path / "x.modq"
    path.write_bytes(blob + bytes([255]) * 7)
    with pytest.raises(FormatError, match="truncated payload"):
        read_modulo(path)


# ------------------------------------------------------------ reader fuzzing

def _small_sequence(bit_depth):
    bits = np.random.default_rng(6).integers(0, 2, size=(9, 2, 3, 1), dtype=np.uint8)
    return encode_stream(SpikeStream.from_bits(bits, readout_rate_hz=1000),
                         EncoderConfig(window=4, stride=2, gain=15.0, bit_depth=bit_depth))


_VALID = [
    (write_hdr, read_hdr, HdrImage(data=np.linspace(0, 1e3, 18, dtype=np.float32)
                                   .reshape(2, 3, 3))),
    (write_hdr, read_hdr, HdrImage(data=np.arange(6, dtype=np.uint16).reshape(2, 3) * 700)),
    (write_spikes, read_spikes, SpikeStream.from_bits(
        np.random.default_rng(7).integers(0, 2, (4, 3, 5, 3), dtype=np.uint8), 20000)),
    (write_modulo, read_modulo, _small_sequence(8)),
    (write_modulo, read_modulo, _small_sequence(12)),
]


def _arrays(value):
    if isinstance(value, ModuloSequence):
        return [frame.data for frame in value.frames]
    return [value.packed if isinstance(value, SpikeStream) else value.data]


@pytest.mark.parametrize("case", range(len(_VALID)))
def test_read_values_are_frozen_down_their_base_chain(tmp_path, case):
    write, read, value = _VALID[case]
    write(tmp_path / "x", value)
    for arr in _arrays(read(tmp_path / "x")):
        while arr is not None:
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
            arr = arr.base


@pytest.mark.parametrize("read", _READERS.values(), ids=[m.decode() for m in _READERS])
def test_readers_raise_os_errors_on_a_missing_path_and_a_directory(tmp_path, read):
    with pytest.raises(FileNotFoundError):
        read(tmp_path / "missing")
    with pytest.raises(IsADirectoryError):
        read(tmp_path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
@pytest.mark.parametrize("magic, blob", [(b"LHDR", _LHDR), (b"SPKB", _SPKB), (b"MODQ", _MODQ)],
                         ids=["LHDR", "SPKB", "MODQ"])
def test_readers_refuse_a_pipe_as_not_a_regular_file(magic, blob):
    # a pipe's size reads 0: a valid container read through one used to
    # fail as "truncated payload"
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, blob)
        with pytest.raises(FormatError, match=f"^/dev/fd/{read_end}: not a regular file$"):
            _READERS[magic](f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        os.close(write_end)


@pytest.mark.parametrize("case", range(len(_VALID)))
def test_reader_refuses_a_file_that_shrank_after_it_was_sized(tmp_path, monkeypatch, case):
    # the size check passes on the size from before the cut, so the last
    # raster's read comes up short
    write, read, value = _VALID[case]
    path = tmp_path / "x"
    write(path, value)
    size = path.stat().st_size
    os.truncate(path, size - 1)
    fstat = os.fstat
    with monkeypatch.context() as patch:
        patch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_mode=fstat(fd).st_mode,
                                                              st_size=size))
        with pytest.raises(FormatError, match="truncated payload"):
            read(path)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(_VALID))), st.data())
def test_damaged_files_raise_only_format_or_validation_errors(tmp_path_factory, case, data):
    """A valid file cut at any offset, or with 1-3 bytes overwritten, reads
    back as a value or raises FormatError or ValidationError, nothing else."""
    write, read, value = _VALID[case]
    path = tmp_path_factory.mktemp("fuzz") / "damaged"
    write(path, value)
    blob = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        patch = data.draw(st.binary(min_size=1, max_size=3), label="patch")
        blob[at:at + len(patch)] = patch[:len(blob) - at]
    path.write_bytes(bytes(blob))
    try:
        read(path)
    except (FormatError, ValidationError):
        pass
