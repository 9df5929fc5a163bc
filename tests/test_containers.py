import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspike import (EncoderConfig, FormatError, HdrImage, ModuloFrame,
                      ModuloSequence, SpikeStream, encode_stream, read_hdr,
                      plane_bytes, read_modulo, read_spikes, write_hdr,
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


def test_reading_modq_as_spikes_fails_on_magic(tmp_path):
    seq = _sequence()
    path = tmp_path / "x.modq"
    write_modulo(path, seq)
    with pytest.raises(FormatError, match="bad magic"):
        read_spikes(path)
    with pytest.raises(FormatError, match="bad magic"):
        read_hdr(path)


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
    (write_modulo, _modulo_with(source_rate_hz=-5), "source_rate_hz"),
    (write_modulo, _modulo_with(source_rate_hz=1 << 32), "source_rate_hz"),
    (write_modulo, _modulo_with(gain=1e39), "gain"),
    (write_spikes, _spikes_with(readout_rate_hz=1 << 32), "readout_rate_hz"),
    (write_spikes, _spikes_with(readout_rate_hz=20000.5), "readout_rate_hz"),
    # zero-width rasters hold no samples, so a 2^32 row count costs nothing
    (write_spikes, _spikes_with(frame_count=1 << 32, width=0), "frame_count"),
    (write_spikes, _spikes_with(height=1 << 32, width=0), "height"),
    (write_hdr, HdrImage(data=np.zeros((1 << 32, 0, 1), dtype=np.float32)), "height"),
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


def test_writer_header_check_keeps_an_existing_file(tmp_path):
    path = tmp_path / "m.modq"
    write_modulo(path, _modulo_with())
    before = path.read_bytes()
    with pytest.raises(FormatError):
        write_modulo(path, _modulo_with(window=70000))
    assert path.read_bytes() == before


def test_writer_limits_are_inclusive(tmp_path):
    seq = _modulo_with(window=65535, stride=65535, source_rate_hz=(1 << 32) - 1)
    path = tmp_path / "edge.modq"
    write_modulo(path, seq)
    back = read_modulo(path)
    assert (back.window, back.stride, back.source_rate_hz) == (65535, 65535, (1 << 32) - 1)
