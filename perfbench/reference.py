"""Independent references behind the benchmark's correctness check.

Nothing here imports the library under test: the containers are parsed
straight from their documented byte layout, window counts come from an
int64 cumulative sum over the spike bits, and every comparison is exact.
A frame whose expected count does not fit the output dtype fails; it is
never clipped or masked.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import Workload, decode_truth

_HEADER = struct.Struct("<4sHIII")
_SPKB = struct.Struct("<II")
_MODQ = struct.Struct("<BHHfII")
_UNREADABLE = (OSError, ValueError, KeyError, struct.error)


def _header(raw: bytes, magic: bytes) -> tuple[int, int, int]:
    got, version, height, width, channels = _HEADER.unpack_from(raw)
    if got != magic or version != 1:
        raise ValueError(f"not a version-1 {magic!r} container")
    return height, width, channels


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_spkb(path) -> np.ndarray:
    """Packed planes of an SPKB file, (frames, C, ceil(H*W/8)) uint8."""
    raw = Path(path).read_bytes()
    height, width, channels = _header(raw, b"SPKB")
    frames, _rate = _SPKB.unpack_from(raw, _HEADER.size)
    plane = (height * width + 7) // 8
    body = np.frombuffer(raw, np.uint8, offset=_HEADER.size + _SPKB.size)
    return body.reshape(frames, channels, plane)


def read_modq(path) -> tuple[dict, np.ndarray]:
    """MODQ header fields and frames, (n, H, W, C) int64."""
    raw = Path(path).read_bytes()
    height, width, channels = _header(raw, b"MODQ")
    bits, window, stride, gain, rate, count = _MODQ.unpack_from(raw, _HEADER.size)
    dtype = "<u2" if bits > 8 else "u1"
    body = np.frombuffer(raw, dtype, offset=_HEADER.size + _MODQ.size)
    frames = body.reshape(count, height, width, channels).astype(np.int64)
    return dict(bits=bits, window=window, stride=stride, gain=gain, rate=rate), frames


def read_lhdr(path) -> np.ndarray:
    """LHDR raster as float64, (H, W, C)."""
    raw = Path(path).read_bytes()
    height, width, channels = _header(raw, b"LHDR")
    dtype = {0: "<f4", 1: "<u2"}[raw[_HEADER.size]]
    body = np.frombuffer(raw, dtype, offset=_HEADER.size + 1)
    return body.reshape(height, width, channels).astype(np.float64)


def window_counts(packed: np.ndarray, height: int, width: int, window: int,
                  stride: int, block: int = 128) -> tuple[np.ndarray, int]:
    """Spike counts of every complete window, (n, H, W, C) int64, as
    differences of an int64 running sum over the unpacked bits; and the
    stream's total spike count."""
    frames, channels, _ = packed.shape
    n = (frames - window) // stride + 1
    edges = {k for j in range(n) for k in (j * stride, j * stride + window)}
    total = np.zeros((channels, height * width), dtype=np.int64)
    prefix = {0: total.copy()}
    for start in range(0, frames, block):
        bits = np.unpackbits(packed[start:start + block], axis=-1,
                             count=height * width, bitorder="little")
        for k, plane in enumerate(bits, start + 1):
            total += plane
            if k in edges:
                prefix[k] = total.copy()
    counts = np.stack([prefix[j * stride + window] - prefix[j * stride] for j in range(n)])
    return counts.reshape(n, channels, height, width).transpose(0, 2, 3, 1), int(total.sum())


@dataclass
class Expected:
    """Reference outputs of one workload: pre-wrap counts per frame (the
    exact HDR the unwrapper must return) and the source stream's totals."""

    counts: np.ndarray        # (n, H, W, C) int64
    spikes: int = 0
    digest: str = ""         # sha256 of the SPKB the counts came from

    def wrapped(self, bits: int) -> np.ndarray:
        return np.mod(self.counts, 1 << bits)


def from_stream(w: Workload, path) -> Expected:
    """floor(g * recount) over an SPKB stream, exact for integer gain g."""
    packed = read_spkb(path)
    h, wd = (w.height // 2, w.width // 2) if w.mosaic else (w.height, w.width)
    counts, spikes = window_counts(packed, h, wd, w.window, w.stride)
    return Expected(counts=counts * w.gain, spikes=spikes,
                    digest=file_digest(path))


def from_truth(w: Workload, seed: int) -> Expected:
    return Expected(counts=decode_truth(w, seed).astype(np.int64))


def check_pass(w: Workload, out: Path, exp: Expected) -> list[str | None]:
    """One entry per expected output frame: None if the pass's artifacts
    match the reference exactly, else the first reason the frame fails."""
    n = len(exp.counts)
    reasons: list[str | None] = [None] * n
    if w.kind in ("capture", "encode"):
        try:
            header, frames = read_modq(out / "modulo.modq")
        except _UNREADABLE as exc:
            return [f"modulo.modq unreadable: {exc}"] * n
        if (header["bits"], header["window"], header["stride"], header["gain"]) != (
                w.bits, w.window, w.stride, w.gain):
            return [f"modulo.modq header {header}"] * n
        want = exp.wrapped(w.bits)
        for i in range(n):
            if i >= len(frames) or not np.array_equal(frames[i], want[i]):
                reasons[i] = "encoder frame differs from mod(floor(g*recount), 2^N)"
    if w.kind == "encode":
        return reasons
    name = "recon_{:04d}.lhdr" if w.kind == "capture" else "frame_{:04d}.lhdr"
    for i in range(n):
        if reasons[i]:
            continue
        try:
            hdr = read_lhdr(out / name.format(i))
        except _UNREADABLE as exc:
            reasons[i] = f"{name.format(i)} unreadable: {exc}"
            continue
        if not np.array_equal(hdr, exp.counts[i].astype(np.float64)):
            reasons[i] = "unwrapped HDR differs from the reference counts"
        elif w.kind == "capture":
            try:
                ideal = read_lhdr(out / f"truth_{i:04d}.lhdr")
            except _UNREADABLE as exc:
                reasons[i] = f"truth_{i:04d}.lhdr unreadable: {exc}"
                continue
            if np.abs(hdr - ideal).max() > w.gain:
                reasons[i] = "HDR strays more than one gain quantum from ideal_window_counts"
    return reasons
