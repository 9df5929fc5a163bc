"""Minimal binary containers for pipeline artifacts.

Spike streams and modulo sequences have no standard interchange format,
and the congruence tests downstream need bit-exact round trips, so each
artifact gets a purpose-built little-endian container:

    common header   magic[4] version:u16 height:u32 width:u32 channels:u32

    LHDR  radiance raster     + dtype:u8 (0 = f32, 1 = u16)
                              + row-major channel-interleaved payload
    SPKB  spike stream        + frame_count:u32 + readout_rate_hz:u32
                              + per frame, per channel: H*W bits packed
                                row-major LSB-first, padded to a byte
    MODQ  modulo sequence     + bit_depth:u8 + window:u16 + stride:u16
                              + gain:f32 + source_rate_hz:u32
                              + frame_count:u32 (frames hold >= 1 sample)
                              + frames as u8 when bit_depth <= 8, else u16

Every writer/reader pair is a bijection on valid values. A writer checks
every header field against its struct range before it opens the file, so
a value the container cannot hold raises FormatError and leaves no file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .encoder import ModuloSequence
from .types import HdrImage, ModuloFrame, SpikeStream, plane_bytes

MAGIC_HDR = b"LHDR"
MAGIC_SPIKES = b"SPKB"
MAGIC_MODULO = b"MODQ"
VERSION = 1

_HEADER = struct.Struct("<4sHIII")
_DTYPE_F32 = 0
_DTYPE_U16 = 1


class FormatError(ValueError):
    """Container payload or header is malformed."""


class _Reader:
    def __init__(self, path, data: bytes):
        self.path = path
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise FormatError(f"{self.path}: truncated payload")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def finish(self):
        extra = len(self._data) - self._pos
        if extra:
            raise FormatError(f"{self.path}: payload length mismatch ({extra} extra bytes)")


def _read_header(r: _Reader, magic: bytes) -> tuple[int, int, int]:
    got, version, height, width, channels = r.unpack(_HEADER)
    if got != magic:
        raise FormatError(f"{r.path}: bad magic {got!r} (expected {magic!r})")
    if version != VERSION:
        raise FormatError(f"{r.path}: unsupported version {version}")
    return height, width, channels


def _open(path) -> _Reader:
    return _Reader(path, Path(path).read_bytes())


def _pack_header(path, magic: bytes, height, width, channels, *fields) -> bytes:
    """The common header followed by `fields`, each a (name, struct code,
    value) triple. Every value is checked against its code's range before
    anything touches the file, so a writer either writes a valid container
    or raises FormatError and leaves no file behind."""
    named = (("height", "I", height), ("width", "I", width),
             ("channels", "I", channels)) + fields
    for name, code, value in named:
        try:
            (stored,) = struct.unpack("<" + code, struct.pack("<" + code, value))
        except (struct.error, OverflowError):
            stored = None
        # an f32 field rounds a nonzero value of at most 2^-150 to 0
        if stored is None or (value != 0 and stored == 0):
            raise FormatError(
                f"{path}: {name}={value!r} does not fit the container's "
                f"'{code}' header field")
    return (_HEADER.pack(magic, VERSION, height, width, channels)
            + struct.pack("<" + "".join(code for _, code, _ in fields),
                          *(value for _, _, value in fields)))


def write_hdr(path, image: HdrImage) -> None:
    dtype = _DTYPE_U16 if image.data.dtype == np.uint16 else _DTYPE_F32
    header = _pack_header(path, MAGIC_HDR, image.height, image.width, image.channels,
                          ("dtype", "B", dtype))
    payload = image.data.astype("<u2" if dtype == _DTYPE_U16 else "<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_hdr(path) -> HdrImage:
    r = _open(path)
    height, width, channels = _read_header(r, MAGIC_HDR)
    (dtype,) = r.unpack(struct.Struct("<B"))
    if dtype == _DTYPE_F32:
        np_dtype, item = "<f4", 4
    elif dtype == _DTYPE_U16:
        np_dtype, item = "<u2", 2
    else:
        raise FormatError(f"{path}: unknown dtype tag {dtype}")
    raw = r.take(height * width * channels * item)
    r.finish()
    data = np.frombuffer(raw, dtype=np_dtype).reshape(height, width, channels)
    return HdrImage(data=data.astype(np.uint16 if dtype == _DTYPE_U16 else np.float32))


def write_spikes(path, stream: SpikeStream) -> None:
    header = _pack_header(path, MAGIC_SPIKES, stream.height, stream.width, stream.channels,
                          ("frame_count", "I", stream.frame_count),
                          ("readout_rate_hz", "I", stream.readout_rate_hz))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(stream.packed.tobytes())


def read_spikes(path) -> SpikeStream:
    r = _open(path)
    height, width, channels = _read_header(r, MAGIC_SPIKES)
    frame_count, rate = r.unpack(struct.Struct("<II"))
    per_plane = plane_bytes(height, width)
    raw = r.take(frame_count * channels * per_plane)
    r.finish()
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(frame_count, channels, per_plane)
    return SpikeStream(height=height, width=width, channels=channels,
                       frame_count=frame_count, readout_rate_hz=rate, packed=packed)


def write_modulo(path, seq: ModuloSequence) -> None:
    if not seq.frames:
        raise FormatError(f"{path}: refusing to write an empty modulo sequence")
    first = seq.frames[0]
    if not first.data.size:
        raise FormatError(f"{path}: frames of shape {first.data.shape} hold no samples")
    wide = first.bit_depth > 8
    header = _pack_header(path, MAGIC_MODULO, first.height, first.width, first.channels,
                          ("bit_depth", "B", first.bit_depth), ("window", "H", seq.window),
                          ("stride", "H", seq.stride), ("gain", "f", seq.gain),
                          ("source_rate_hz", "I", seq.source_rate_hz),
                          ("frame_count", "I", len(seq.frames)))
    with open(path, "wb") as fh:
        fh.write(header)
        for frame in seq.frames:
            fh.write(frame.data.astype("<u2" if wide else "u1").tobytes())


def read_modulo(path) -> ModuloSequence:
    r = _open(path)
    height, width, channels = _read_header(r, MAGIC_MODULO)
    bit_depth, window, stride, gain, source_rate, frame_count = r.unpack(
        struct.Struct("<BHHfII"))
    if not height * width * channels:  # the file size would not bound frame_count
        raise FormatError(f"{path}: frames of shape {(height, width, channels)} hold no samples")
    wide = bit_depth > 8
    item = 2 if wide else 1
    frames = []
    for _ in range(frame_count):
        raw = r.take(height * width * channels * item)
        data = np.frombuffer(raw, dtype="<u2" if wide else "u1")
        frames.append(ModuloFrame(data=data.reshape(height, width, channels),
                                  bit_depth=bit_depth))
    r.finish()
    return ModuloSequence(frames=tuple(frames), window=window, stride=stride,
                          gain=float(gain), source_rate_hz=source_rate)
