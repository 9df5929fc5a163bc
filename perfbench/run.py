"""Benchmark of the modspike simulate -> encode -> unwrap library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; the library is imported from ./src.

Workloads (geometry in inputs.py):
  capture_static  `modspike pipeline --mosaic` at the paper's operating point:
                  K = R = 1000 (50 ms @ 20 kHz), W=25, P=20, gain 15, 8 bits.
                  Integrate-and-fire and full-clip memory traffic dominate.
  capture_motion  the same chain on a moving mono scene, W=50, P=25, gain 160,
                  12 bits: per-plane affine warps and the FFT offset search.
  encode_spikes   `modspike encode` of a seeded SPKB stream, pushed into
                  ChunkedEncoder one output frame at a time.
  decode_hdr      `modspike unwrap` of a seeded MODQ of 100 8-bit frames.

Each run builds the inputs from the seed in fresh processes (set-up, timed
five times with --trace 0), then runs passes in fresh processes for about
--seconds, one at a time, so import and first-call costs count as they do
for a command-line user. After each pass every output frame is checked
against an exact reference (reference.py) outside the timed region.

End-to-end times are wall-clock times converted to reference seconds
(per-layer span times are left as measured): the runner
times a fixed numpy workload before and after each child process and
scales that child's times by REFERENCE_CAL_S over the mean of the two, so
that the host getting faster or slower between runs cancels out. Unscaled
times are kept in the run record.

--trace 0 prints the end-to-end metrics from untraced passes: `rtf` (pass
seconds per second of sensor time), `frame_ms_p50`/`frame_ms_p90` (each
unwrap_poisson, or each ChunkedEncoder.push on encode_spikes), `peak_rss_mb`
of a pass process, `exact_frac` (1 - failed frames / attempted frames) and
`setup_s`. --trace 1 alternates traced and untraced passes and adds one
tracemalloc pass; it prints per-layer metrics named <module>.<function>.<stat>,
layer self times and the tracing overhead. The last stdout line is always
one JSON object: {"correct", "attempted", "failed", "metrics"}. The run
record (versions, threads, geometry, commit) and all spans are written
under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from itertools import cycle
from pathlib import Path

import numpy as np

import reference
from inputs import MICRO_INTERVALS, PAPER_PIXELS, READOUT_FRAMES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 5            # set-ups per untraced run; setup_s is their median
MIN_PASSES = 3        # per pass mode, whatever --seconds says
MIN_TAIL = 10         # latency samples required beyond p90
MAX_MEASURE_S = 100   # stop even short of MIN_PASSES, to end within 180 s
CHILD_TIMEOUT_S = 60
LAYERS = ("simulate", "encoder", "types", "unwrap", "operators", "containers",
          "metrics", "bench")
# Host speed on a shared machine swings by 20-30% from one minute to the
# next, which would swamp any change to the library. Before and after every
# child this process times a fixed numpy workload that never touches the
# library, and reports the child's times in reference seconds:
# measured * REFERENCE_CAL_S / (mean of the two calibrations).
REFERENCE_CAL_S = 0.05
_CAL_SORT = np.random.default_rng(0).random(1 << 20)
_CAL_SMALL = _CAL_SORT[:20_000].copy()
_CAL_BITS = (_CAL_SORT[:3 * 128 * 128] < 0.5).astype(np.uint8).reshape(3, -1)
THREAD_ENV = ("MODSPIKE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS")

END_TO_END_UNITS = {"rtf": "s/s", "frame_ms_p50": "ms", "frame_ms_p90": "ms",
                    "peak_rss_mb": "MiB", "exact_frac": "frac", "setup_s": "s"}
PER_LAYER_UNITS = {
    "simulate.synthesize_clip.s": "s",
    "simulate.mosaic_sample.s": "s",
    "simulate.integrate_and_fire.s": "s",
    "simulate.integrate_and_fire.ns_per_px_step": "ns",
    "simulate.clip_mb": "MB",
    "simulate.spikes": "count",
    "simulate.synthesize_clip.peak_mb": "MB",
    "simulate.mosaic_sample.peak_mb": "MB",
    "simulate.integrate_and_fire.peak_mb": "MB",
    "encoder.encode_stream.s": "s",
    "encoder.ideal_window_counts.s": "s",
    "encoder.push.s": "s",
    "encoder.ns_per_px_frame": "ns",
    "encoder.frames_out": "count",
    "encoder.headroom": "frac",
    "encoder.encode_stream.peak_mb": "MB",
    "encoder.ideal_window_counts.peak_mb": "MB",
    "encoder.push.peak_mb": "MB",
    "types.SpikeStream.bits.s": "s",
    "unwrap.unwrap_poisson.s": "s",
    "unwrap.unwrap_poisson.ms_per_mpx": "ms/Mpx",
    "unwrap.converged_frac": "frac",
    "unwrap.exact_frac": "frac",
    "unwrap.unwrap_poisson.peak_mb": "MB",
    "unwrap.rest.s": "s",
    "operators.gradient.s": "s",
    "operators.lar.s": "s",
    "operators.divergence.s": "s",
    "operators.poisson_solve.s": "s",
    "containers.read_spikes.s": "s",
    "containers.write_spikes.s": "s",
    "containers.read_modulo.s": "s",
    "containers.write_modulo.s": "s",
    "containers.write_hdr.s": "s",
    "containers.read_hdr.s": "s",
    "containers.bytes_read": "B",
    "containers.bytes_written": "B",
    "metrics.psnr_linear.s": "s",
    "metrics.ssim_linear.s": "s",
    "metrics.psnr_mu.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.trace_overhead_rtf": "s/s",
}
# counts that must repeat exactly from pass to pass
DETERMINISTIC = ("frames_out", "bytes_read", "bytes_written", "exact", "digest")


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


def spawn(*args: str) -> dict:
    """Run child.py to completion; its result.json lands in the directory
    named by the argument after the seed (set-up) or the one after that."""
    where = Path(args[3] if args[0] == "setup" else args[4])
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    result = where / "result.json"
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"child {' '.join(args[:2])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def calibration_s() -> float:
    """Seconds a fixed mix of large-array and small-array numpy work takes
    in this process right now: the median of three timings."""
    times = []
    counts = np.zeros(_CAL_BITS.shape, dtype=np.int32)
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(3):
            np.sort(_CAL_SORT)
        for _ in range(60):
            np.mod(_CAL_SMALL + 0.5, 7.0)
        for _ in range(30):
            np.packbits(_CAL_BITS, axis=-1, bitorder="little")
            counts += _CAL_BITS
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def input_digests(inp: Path) -> dict[str, str]:
    return {p.name: reference.file_digest(p) for p in sorted(inp.iterdir())}


class Run:
    """Passes of one workload and their checks."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.inp = work / "inputs"
        self.passes: list[dict] = []
        self.expected: reference.Expected | None = None
        self.problems: list[str] = []
        self.setups: list[dict] = []
        self.calibrations = [calibration_s()]

    def calibrated(self, *args: str) -> dict:
        """spawn(*args), plus `scale`: reference seconds per measured second,
        from the calibrations just before and just after the child."""
        try:
            res = spawn(*args)
        finally:
            self.calibrations.append(calibration_s())
        res["scale"] = 2 * REFERENCE_CAL_S / sum(self.calibrations[-2:])
        return res

    def set_up(self, times: int) -> None:
        """Build the inputs `times` times from scratch; every set-up must
        write identical bytes."""
        digests = []
        for _ in range(times):
            shutil.rmtree(self.inp, ignore_errors=True)
            self.setups.append(self.calibrated("setup", self.w.name, str(self.seed),
                                               str(self.inp)))
            digests.append(input_digests(self.inp))
        if any(d != digests[0] for d in digests):
            self.problems.append("set-up wrote different bytes for one seed")

    def load_reference(self) -> None:
        if self.w.kind == "encode":
            self.expected = reference.from_stream(self.w, self.inp / "stream.spkb")
        elif self.w.kind == "decode":
            self.expected = reference.from_truth(self.w, self.seed)

    def one_pass(self, mode: str) -> dict:
        index = len(self.passes)
        out = self.work / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        run_id = f"{self.w.name}-s{self.seed}-p{index}-{mode}"
        try:
            res = self.calibrated("pass", self.w.name, str(self.seed), str(self.inp),
                                 str(out), mode, run_id)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            res = {"error": str(exc), "frame_errors": {}}
        res.update(mode=mode, run_id=run_id)
        res["reasons"] = self.check(out, res)
        shutil.rmtree(out)
        self.passes.append(res)
        return res

    def check(self, out: Path, res: dict) -> list[str | None]:
        w = self.w
        spikes = out / "spikes.spkb"
        if w.kind == "capture" and spikes.is_file():
            digest = reference.file_digest(spikes)
            if self.expected is None or self.expected.digest != digest:
                self.expected = reference.from_stream(w, spikes)
            res["digest"] = digest
        if res.get("error") or self.expected is None:
            return [res.get("error") or "no spike stream"] * w.output_frames
        reasons = reference.check_pass(w, out, self.expected)
        for i, err in res["frame_errors"].items():
            reasons[int(i)] = err
        res["exact"] = sum(r is None for r in reasons)
        return reasons

    def measure(self, seconds: float, modes: list[str], min_samples: int) -> None:
        """Cycle through the pass modes for about `seconds`, until each mode
        has MIN_PASSES passes and the untraced passes `min_samples` frame
        latencies."""
        start = time.perf_counter()
        for mode in cycle(modes):
            self.one_pass(mode)
            elapsed = time.perf_counter() - start
            enough = (all(self.count(m) >= MIN_PASSES for m in modes)
                      and len(self.samples()) >= min_samples)
            projected = elapsed * (1 + 1 / len(self.passes))
            if projected > seconds and (enough or projected > MAX_MEASURE_S):
                return

    def count(self, mode: str) -> int:
        return sum(p["mode"] == mode for p in self.passes)

    def of(self, mode: str) -> list[dict]:
        return [p for p in self.passes if p["mode"] == mode and not p.get("error")]

    def samples(self) -> list[float]:
        return [ms * p["scale"] for p in self.of("off") for ms in p["frame_ms"]]

    def failures(self) -> tuple[int, int]:
        attempted = sum(len(p["reasons"]) for p in self.passes)
        failed = sum(r is not None for p in self.passes for r in p["reasons"])
        return attempted, failed

    def deterministic(self) -> bool:
        """Counts that must not change between passes of one seed."""
        first = self.passes[0]
        return all(p.get(k) == first.get(k) for p in self.passes for k in DETERMINISTIC)

    def rtf(self, mode: str) -> float:
        return self.wall_s(mode) / self.w.sensor_seconds

    def wall_s(self, mode: str, scaled: bool = True) -> float:
        """Median pass seconds, in reference seconds unless `scaled` is off."""
        return statistics.median(p["wall_s"] * (p["scale"] if scaled else 1)
                                 for p in self.of(mode))


def end_to_end(run: Run) -> dict[str, float]:
    samples = np.array(run.samples())
    attempted, failed = run.failures()
    return {
        "rtf": run.rtf("off"),
        "frame_ms_p50": float(np.percentile(samples, 50)),
        "frame_ms_p90": float(np.percentile(samples, 90)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.of("off")),
        "exact_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(s["wall_s"] * s["scale"] for s in run.setups),
    }


def span_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per `<layer>.<name>.s` and per-layer self time
    (`<layer>.self_s`: a span's duration less its children's)."""
    out: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        duration = s["end"] - s["start"]
        out[f"{s['layer']}.{s['name']}.s"] += duration
        out[f"{s['layer']}.self_s"] += duration - child_s[s["id"]]
    return out


def per_layer(run: Run) -> dict[str, float]:
    w, exp = run.w, run.expected
    traced = [span_times(p["spans"]) for p in run.of("spans")]
    m = {k: statistics.median(t.get(k, 0.0) for t in traced) for k in PER_LAYER_UNITS}
    passes = run.of("off") + run.of("spans")
    frames = sum(len(p["reasons"]) for p in passes)
    pixels = w.sensor_pixels
    if w.kind == "capture":
        m["simulate.integrate_and_fire.ns_per_px_step"] = (
            m["simulate.integrate_and_fire.s"] / (pixels * MICRO_INTERVALS) * 1e9)
        m["simulate.clip_mb"] = MICRO_INTERVALS * w.height * w.width * w.channels * 4 / 1e6
        m["simulate.spikes"] = exp.spikes
    if w.kind != "decode":
        source = READOUT_FRAMES if w.kind == "capture" else w.frames
        m["encoder.ns_per_px_frame"] = ((m["encoder.encode_stream.s"] + m["encoder.push.s"])
                                        / (pixels * source) * 1e9)
        m["encoder.headroom"] = float(exp.counts.max()) / (1 << w.bits)
    if w.kind != "encode":
        m["unwrap.unwrap_poisson.ms_per_mpx"] = (
            m["unwrap.unwrap_poisson.s"] * 1e3 / (w.output_frames * pixels / 1e6))
        m["unwrap.converged_frac"] = sum(p["converged"] for p in passes) / frames
        m["unwrap.exact_frac"] = sum(p["exact"] for p in passes) / frames
        m["unwrap.rest.s"] = m["unwrap.unwrap_poisson.s"] - sum(
            m[f"operators.{op}.s"] for op in ("gradient", "lar", "divergence", "poisson_solve"))
    first = run.of("off")[0]
    m["encoder.frames_out"] = first["frames_out"]
    m["containers.bytes_read"] = first["bytes_read"]
    m["containers.bytes_written"] = first["bytes_written"]
    for p in run.of("memory"):
        m.update({f"{k}.peak_mb": v for k, v in p["peaks"].items()
                  if f"{k}.peak_mb" in PER_LAYER_UNITS})
    m["bench.trace_overhead_rtf"] = run.rtf("spans") - run.rtf("off")
    return m


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(w: Workload, seed: int, trace: int, run: Run) -> dict:
    samples = np.array(run.samples())
    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": metadata.version("scipy")}
    return {
        "workload": w.name, "seed": seed, "trace": trace, "geometry": vars(w),
        "nproc": len(os.sched_getaffinity(0)), "versions": versions,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(),
        "setups": run.setups,
        "calibration_s": run.calibrations,
        "passes": [{k: p.get(k) for k in ("run_id", "wall_s", "scale", "peak_rss_mb", "error")}
                   for p in run.passes],
        "frame_samples": len(samples),
        "frame_samples_beyond_p90": int((samples > np.percentile(samples, 90)).sum()),
        "failures": sorted({r for p in run.passes for r in p["reasons"] if r}),
        "problems": run.problems,
    }


def bench(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run of one workload: returns the result line and the run record."""
    w = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(w, seed, work)
    run.set_up(1 if trace else SETUPS)
    run.load_reference()
    if trace:
        run.measure(seconds, ["spans", "off"], 0)
        run.one_pass("memory")
    else:
        run.measure(seconds, ["off"], 10 * MIN_TAIL)
    if not run.deterministic():
        run.problems.append("counts differ between passes of one seed")
    if not run.of("off") or (trace and not run.of("spans")):
        raise BenchError("every pass failed: " + run.passes[-1]["reasons"][0])
    attempted, failed = run.failures()
    if trace:
        metrics, units = per_layer(run), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(run), END_TO_END_UNITS
    record = run_record(w, seed, trace, run)
    record["rtf"] = run.rtf("off")
    record["rtf_unscaled"] = run.wall_s("off", scaled=False) / w.sensor_seconds
    record["rtf_extrapolated_500x500x3_20khz"] = run.rtf("off") * PAPER_PIXELS / w.sensor_pixels
    if trace:
        self_s = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS if layer != "bench"}
        record["dominant_layer"] = max(self_s, key=self_s.get)
    (work / "record.json").write_text(json.dumps(record, indent=1))
    (work / "spans.json").write_text(json.dumps([s for p in run.passes
                                                 for s in p.get("spans", [])]))
    shutil.rmtree(run.inp)
    result = {"correct": failed == 0 and not run.problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, record


def report(name: str, result: dict, record: dict) -> None:
    print(f"# {name} seed={record['seed']} passes={len(record['passes'])} "
          f"frame_samples={record['frame_samples']} "
          f"beyond_p90={record['frame_samples_beyond_p90']} commit={record['commit']}")
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} rtf_extrapolated_500x500x3_20khz "
          f"{record['rtf_extrapolated_500x500x3_20khz']:.6g} s/s (extrapolated, not gated)")
    if "dominant_layer" in record:
        print(f"{name} dominant_layer {record['dominant_layer']}")
    for problem in record["problems"] + record["failures"][:5]:
        print(f"{name} FAILED {problem.strip().splitlines()[-1]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "modspike" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = bench(name, args.seed, args.seconds, args.trace)
            report(name, result, record)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
