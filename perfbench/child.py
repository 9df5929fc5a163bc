"""One set-up or one timed pass of a benchmark workload, in a fresh process.

    python3 perfbench/child.py setup WORKLOAD SEED INPUT_DIR
    python3 perfbench/child.py pass WORKLOAD SEED INPUT_DIR OUT_DIR MODE RUN_ID

`setup` builds the workload's input files from the seed. `pass` replays
the library calls the matching `modspike` subcommand makes, writing the
same artifacts into OUT_DIR. MODE is `off` (no tracing), `spans` (a span
around every library call, then the operators replayed on the pass's
frames) or `memory` (tracemalloc peak of every call). Both write
result.json into their directory. The clock starts before the first
import, as it does for a command-line user.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import modspike as ms  # noqa: E402

T_IMPORTED = time.perf_counter()

_SENSOR_TYPES = {"threshold": float, "readout_rate_hz": float,
                 "total_time_s": float, "micro_intervals": int}


class Tracer:
    """Spans around calls into the library, kept in memory until the pass
    ends. Mode `off` calls straight through; `memory` keeps, per call
    name, the largest tracemalloc peak above the level before the call."""

    def __init__(self, mode: str, run_id: str):
        self.mode = mode
        self.run_id = run_id
        self.spans: list[dict] = []
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []

    def record(self, layer: str, name: str, start: float, end: float | None = None) -> dict:
        span = {"id": len(self.spans), "run": self.run_id, "layer": layer, "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": start, "end": end}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, layer: str, name: str, start: float | None = None):
        if self.mode != "spans":
            yield
            return
        span = self.record(layer, name, time.perf_counter() if start is None else start)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def call(self, layer: str, name: str, fn, *args):
        if self.mode == "off":
            return fn(*args)
        if self.mode == "memory":
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            key = f"{layer}.{name}"
            peak = (tracemalloc.get_traced_memory()[1] - before) / 1e6
            self.peaks[key] = max(self.peaks.get(key, 0.0), peak)
            return result
        with self.span(layer, name):
            return fn(*args)


class Pass:
    """What one pass measured at the layer boundaries."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.frame_ms: list[float] = []
        self.frame_errors: dict[int, str] = {}
        self.converged = 0
        self.frames_out = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def read(self, fn, path):
        value = self.tr.call("containers", fn.__name__, fn, path)
        self.bytes_read += os.path.getsize(path)
        return value

    def write(self, fn, path, value):
        self.tr.call("containers", fn.__name__, fn, path, value)
        self.bytes_written += os.path.getsize(path)

    def unwrap(self, frame):
        start = time.perf_counter()
        result = self.tr.call("unwrap", "unwrap_poisson", ms.unwrap_poisson, frame)
        self.frame_ms.append((time.perf_counter() - start) * 1e3)
        self.converged += bool(result.converged)
        return result


def _sensor_config(path: Path, seed: int) -> ms.SensorConfig:
    fields = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        fields[key] = _SENSOR_TYPES[key](value)
    return ms.SensorConfig(**fields, rng_seed=seed)


def _encoder_config(w: inputs.Workload) -> ms.EncoderConfig:
    return ms.EncoderConfig(window=w.window, stride=w.stride, gain=float(w.gain),
                            bit_depth=w.bits)


def capture(w, seed, inp: Path, out: Path, p: Pass):
    """`modspike pipeline --scene --config [--mosaic] [--motion]`."""
    tr = p.tr
    scene = p.read(ms.read_hdr, inp / "scene.lhdr")
    cfg = _sensor_config(inp / "sensor.cfg", seed)
    p.write(ms.write_hdr, out / "scene.lhdr", scene)
    motion = ms.Motion(translate_px=w.translate, rotate_deg=w.rotate)
    clip = tr.call("simulate", "synthesize_clip", ms.synthesize_clip, scene, motion, cfg)
    if w.mosaic:
        clip = tr.call("simulate", "mosaic_sample", ms.mosaic_sample, clip)
    stream = tr.call("simulate", "integrate_and_fire", ms.integrate_and_fire, clip, cfg)
    p.write(ms.write_spikes, out / "spikes.spkb", stream)
    enc_cfg = _encoder_config(w)
    seq = tr.call("encoder", "encode_stream", ms.encode_stream, stream, enc_cfg)
    p.frames_out = len(seq)
    p.write(ms.write_modulo, out / "modulo.modq", seq)
    sub = clip.micro_intervals // cfg.readout_frames
    spec = ms.QuerySpec(window=enc_cfg.window * sub, stride=enc_cfg.stride * sub,
                        digital_gain=enc_cfg.gain * cfg.conversion_gain / cfg.threshold)
    truth = tr.call("encoder", "ideal_window_counts", ms.ideal_window_counts, clip, spec)
    for i, frame in enumerate(seq.frames):
        try:
            result = p.unwrap(frame)
            p.write(ms.write_hdr, out / f"recon_{i:04d}.lhdr", result.hdr)
            ref = tr.call("types", "HdrImage", ms.HdrImage, truth[i].astype(np.float32))
            p.write(ms.write_hdr, out / f"truth_{i:04d}.lhdr", ref)
            tr.call("metrics", "psnr_linear", ms.psnr_linear, result.hdr, ref, inputs.PEAK_EVAL)
            tr.call("metrics", "ssim_linear", ms.ssim_linear, result.hdr, ref, inputs.PEAK_EVAL)
            tr.call("metrics", "psnr_mu", ms.psnr_mu, result.hdr, ref, inputs.MU,
                    inputs.PEAK_EVAL)
        except Exception:  # a failed frame is counted; the pass goes on
            p.frame_errors[i] = traceback.format_exc(limit=3)
    return seq.frames


def encode(w, seed, inp: Path, out: Path, p: Pass):
    """`modspike encode`, fed one output frame per push as a sensor would."""
    tr = p.tr
    stream = p.read(ms.read_spikes, inp / "stream.spkb")
    enc = tr.call("encoder", "ChunkedEncoder", ms.ChunkedEncoder, stream.height,
                  stream.width, stream.channels, _encoder_config(w), stream.readout_rate_hz)
    start, size = 0, w.window
    while start < stream.frame_count:
        chunk = tr.call("types", "SpikeStream.bits", stream.bits, start, start + size)
        t = time.perf_counter()
        tr.call("encoder", "push", enc.push, chunk)
        p.frame_ms.append((time.perf_counter() - t) * 1e3)
        start, size = start + size, w.stride
    seq = tr.call("encoder", "sequence", enc.sequence)
    p.frames_out = len(seq)
    p.write(ms.write_modulo, out / "modulo.modq", seq)
    return ()


def decode(w, seed, inp: Path, out: Path, p: Pass):
    """`modspike unwrap`."""
    seq = p.read(ms.read_modulo, inp / "sequence.modq")
    for i, frame in enumerate(seq.frames):
        try:
            result = p.unwrap(frame)
            p.write(ms.write_hdr, out / f"frame_{i:04d}.lhdr", result.hdr)
        except Exception:  # a failed frame is counted; the pass goes on
            p.frame_errors[i] = traceback.format_exc(limit=3)
    return seq.frames


CHAINS = {"capture": capture, "encode": encode, "decode": decode}


def replay_operators(frames, tr: Tracer):
    """Time the operators `unwrap_poisson` runs first, called directly on
    the pass's frames; the rest of the unwrapper is the difference."""
    for frame in frames:
        obs = frame.values()
        gf = tr.call("operators", "gradient", ms.gradient, obs)
        gx = tr.call("operators", "lar", ms.lar, gf.gx, frame.modulus)
        gy = tr.call("operators", "lar", ms.lar, gf.gy, frame.modulus)
        div = tr.call("operators", "divergence", ms.divergence, ms.GradientField(gx=gx, gy=gy))
        tr.call("operators", "poisson_solve", ms.poisson_solve, div)


def setup(w, seed: int, inp: Path) -> None:
    inp.mkdir(parents=True, exist_ok=True)
    if w.kind == "capture":
        scene = inputs.capture_scene(w, seed)
        ms.write_hdr(inp / "scene.lhdr", ms.HdrImage(data=scene))
        (inp / "sensor.cfg").write_text(inputs.sensor_config_text(w, scene))
    elif w.kind == "encode":
        packed = np.concatenate(list(inputs.spike_planes(w, seed)))
        stream = ms.SpikeStream(height=w.height, width=w.width, channels=w.channels,
                                frame_count=w.frames, readout_rate_hz=inputs.READOUT_HZ,
                                packed=packed)
        ms.write_spikes(inp / "stream.spkb", stream)
    else:
        modulus = 1 << w.bits
        frames = tuple(ms.ModuloFrame(data=truth % modulus, bit_depth=w.bits)
                       for truth in inputs.decode_truth(w, seed))
        seq = ms.ModuloSequence(frames=frames, window=w.window, stride=w.stride,
                                gain=float(w.gain), source_rate_hz=inputs.READOUT_HZ)
        ms.write_modulo(inp / "sequence.modq", seq)


def peak_rss_mb() -> float:
    """High-water resident set of this process. ru_maxrss is not used: on
    Linux it carries the spawning parent's high-water mark across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(w, seed: int, inp: Path, out: Path, mode: str, run_id: str) -> dict:
    tr = Tracer(mode, run_id)
    p = Pass(tr)
    frames, error = (), None
    with tr.span("bench", "pass", start=T0):
        tr.record("bench", "import", T0, T_IMPORTED)
        if mode == "memory":
            tracemalloc.start()
        try:
            frames = CHAINS[w.kind](w, seed, inp, out, p)
        except Exception:  # the pass failed; every frame it owed counts as failed
            error = traceback.format_exc()
    wall_s = time.perf_counter() - T0
    rss_mb = peak_rss_mb()
    if mode == "spans" and frames:
        with tr.span("bench", "operators_replay"):
            replay_operators(frames, tr)
    return {"wall_s": wall_s, "peak_rss_mb": rss_mb, "error": error,
            "frame_ms": p.frame_ms, "frame_errors": p.frame_errors,
            "converged": p.converged, "frames_out": p.frames_out,
            "bytes_read": p.bytes_read, "bytes_written": p.bytes_written,
            "spans": tr.spans, "peaks": tr.peaks}


def main(argv: list[str]) -> int:
    command, name, seed, inp = argv[0], argv[1], int(argv[2]), Path(argv[3])
    w = inputs.WORKLOADS[name]
    if command == "setup":
        setup(w, seed, inp)
        result, where = {"wall_s": time.perf_counter() - T0}, inp
    else:
        where = Path(argv[4])
        result = run_pass(w, seed, inp, where, mode=argv[5], run_id=argv[6])
    (where / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
