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
                              + frame_count:u32 (>= 1 frames of >= 1 sample)
                              + frames as u8 when bit_depth <= 8, else u16

Every writer/reader pair is a bijection on valid values but MODQ's gain,
held as f32: 0.1 reads back as 0.10000000149011612, 2.5 and 15.0 exactly.
A writer checks every header field against its struct range before it
opens the file, so a value the container cannot hold raises FormatError
and leaves no file. A reader checks the header, then the payload length
against the file's size, before it allocates any sample; it then reads
each raster (the LHDR image, the SPKB packed bits, each MODQ frame)
straight from the file into its own frozen array, which the value adopts.
The fields after the common header are `_FIELDS`, the one table the
writers pack from and the readers unpack with.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .encoder import ModuloSequence
from .types import HdrImage, ModuloFrame, SpikeStream, plane_bytes, sample_dtype

MAGIC_HDR = b"LHDR"
MAGIC_SPIKES = b"SPKB"
MAGIC_MODULO = b"MODQ"
VERSION = 1

# every header starts with magic[4] and version:u16; the named fields follow
_SIZES = (("height", "I"), ("width", "I"), ("channels", "I"))  # common to all three
_FIELDS = {
    MAGIC_HDR: (("dtype", "B"),),
    MAGIC_SPIKES: (("frame_count", "I"), ("readout_rate_hz", "I")),
    MAGIC_MODULO: (("bit_depth", "B"), ("window", "H"), ("stride", "H"), ("gain", "f"),
                   ("source_rate_hz", "I"), ("frame_count", "I")),
}
_HDR_DTYPES = (np.dtype("<f4"), np.dtype("<u2"))  # indexed by the LHDR dtype tag


class FormatError(ValueError):
    """Container payload or header is malformed."""


def _struct(fields) -> struct.Struct:
    return struct.Struct("<4sH" + "".join(code for _, code in fields))


def _samples(bit_depth: int) -> np.dtype:
    return sample_dtype(bit_depth).newbyteorder("<")  # the on-disk dtype of MODQ samples


def _pack(path, magic: bytes, *sources, **values) -> bytes:
    """The header of a `magic` container: each field is the keyword of its
    name, else that attribute of one of `sources`. Every value is checked
    against its code's range first, so a writer either writes a valid
    container or raises FormatError before it creates the file."""
    fields = _SIZES + _FIELDS[magic]
    values = {name: getattr(source, name) for source in sources
              for name, _ in fields if hasattr(source, name)} | values
    for name, code in fields:
        value = values[name]
        try:
            (stored,) = struct.unpack("<" + code, struct.pack("<" + code, value))
        except (struct.error, OverflowError):
            stored = None
        # an f32 field rounds a nonzero value of at most 2^-150 to 0
        if stored is None or (value != 0 and stored == 0):
            raise FormatError(
                f"{path}: {name}={value!r} does not fit the container's "
                f"'{code}' header field")
    return _struct(fields).pack(magic, VERSION, *(values[name] for name, _ in fields))


def _read(path, magic: bytes, layout) -> tuple[dict, list[np.ndarray]]:
    """The header fields of the `magic` container at `path`, by name, and its
    rasters: `layout(fields)` gives their on-disk dtype and (count, *shape).
    The common header is checked before the whole header's length, `layout`
    after both, and the payload length against the file's size before any
    sample is allocated. Each raster is then read from the file straight into
    a fresh array, native-order and frozen, which a value adopts as is.
    numpy cannot shape every empty array, so an empty payload keeps only the
    zero sizes of (count, *shape) and takes 1 for the others; the value built
    on it refuses it."""
    fields = _SIZES + _FIELDS[magic]
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe's size reads 0, so its payload cannot be sized
            raise FormatError(f"{path}: not a regular file")
        head = fh.read(_struct(fields).size)
        for header in (_struct(_SIZES), _struct(fields)):
            if len(head) < header.size:
                raise FormatError(f"{path}: truncated payload")
            got, version, *values = header.unpack_from(head)
            if got != magic:
                raise FormatError(f"{path}: bad magic {got!r} (expected {magic!r})")
            if version != VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
        h = dict(zip((name for name, _ in fields), values))
        dtype, shape = layout(h)
        payload = st.st_size - len(head)
        extra = payload - math.prod(shape) * dtype.itemsize
        if extra < 0:
            raise FormatError(f"{path}: truncated payload")
        if extra:
            raise FormatError(f"{path}: payload length mismatch ({extra} extra bytes)")
        count, *shape = shape if payload else [min(n, 1) for n in shape]
        rasters = []
        for _ in range(count):
            raster = np.empty(shape, dtype)
            if fh.readinto(raster) < raster.nbytes:  # the file shrank since it was sized
                raise FormatError(f"{path}: truncated payload")
            raster = raster.astype(dtype.newbyteorder("="), copy=False)  # no copy on little-endian
            raster.setflags(write=False)
            rasters.append(raster)
    return h, rasters


def _write(path, header: bytes, dtype, *rasters: np.ndarray) -> None:
    """Write `header`, then each raster as `dtype` from its own buffer,
    converting a raster first only when its dtype or layout differ."""
    with open(path, "wb") as fh:
        fh.write(header)
        for raster in rasters:
            fh.write(np.ascontiguousarray(raster, dtype).data)


def write_hdr(path, image: HdrImage) -> None:
    tag = int(image.data.dtype == np.uint16)
    _write(path, _pack(path, MAGIC_HDR, image, dtype=tag), _HDR_DTYPES[tag], image.data)


def read_hdr(path) -> HdrImage:
    def layout(h):
        if h["dtype"] >= len(_HDR_DTYPES):
            raise FormatError(f"{path}: unknown dtype tag {h['dtype']}")
        return _HDR_DTYPES[h["dtype"]], (1, h["height"], h["width"], h["channels"])
    _, (data,) = _read(path, MAGIC_HDR, layout)
    return HdrImage(data=data)


def write_spikes(path, stream: SpikeStream) -> None:
    _write(path, _pack(path, MAGIC_SPIKES, stream), "u1", stream.packed)


def read_spikes(path) -> SpikeStream:
    h, (packed,) = _read(path, MAGIC_SPIKES, lambda h: (np.dtype("u1"), (
        1, h["frame_count"], h["channels"], plane_bytes(h["height"], h["width"]))))
    return SpikeStream(packed=packed, **h)


def write_modulo(path, seq: ModuloSequence) -> None:
    first = seq.frames[0]
    _write(path, _pack(path, MAGIC_MODULO, first, seq, frame_count=len(seq.frames)),
           _samples(first.bit_depth), *(frame.data for frame in seq.frames))


def read_modulo(path) -> ModuloSequence:
    """Each frame is read into an array of its own, so no frame views a
    buffer shared with the others. Frames that viewed one buffer of the
    whole file decoded slower: glibc then trimmed and regrew its heap every
    other frame."""
    h, frames = _read(path, MAGIC_MODULO, lambda h: (
        _samples(h["bit_depth"]), (h["frame_count"], h["height"], h["width"], h["channels"])))
    frames = tuple(ModuloFrame(data=frame, bit_depth=h["bit_depth"]) for frame in frames)
    return ModuloSequence(frames, h["window"], h["stride"], h["gain"], h["source_rate_hz"])
