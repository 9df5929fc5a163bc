"""Checks on the benchmark itself, kept out of the timed runs.

    python3 -m pytest perfbench

The parity tests run each workload's chain and the `modspike` subcommand
it replays on the same seeded inputs, at a reduced geometry, and require
byte-identical artifacts. The rest check the references and determinism
the benchmark's `correct` flag relies on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import child
import reference
import run
from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "capture_static": replace(WORKLOADS["capture_static"], height=32, width=32),
    "capture_motion": replace(WORKLOADS["capture_motion"], height=24, width=24),
    "encode_spikes": replace(WORKLOADS["encode_spikes"], height=16, width=16,
                             frames=25 + 9 * 20),
    "decode_hdr": replace(WORKLOADS["decode_hdr"], height=32, width=32, frames=6),
}


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "modspike.cli", *args], check=True, env=env,
                   capture_output=True, cwd=ROOT)


def same_files(a: Path, b: Path, names: list[str]) -> None:
    assert sorted(p.name for p in a.iterdir()) == sorted(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def bench_pass(w, seed: int, tmp_path: Path, tag: str = "bench") -> tuple[Path, Path, dict]:
    inp, out = tmp_path / f"{tag}_in", tmp_path / tag
    out.mkdir()
    child.setup(w, seed, inp)
    return inp, out, child.run_pass(w, seed, inp, out, "off", tag)


def expected(w, seed: int, inp: Path, out: Path) -> reference.Expected:
    if w.kind == "capture":
        return reference.from_stream(w, out / "spikes.spkb")
    if w.kind == "encode":
        return reference.from_stream(w, inp / "stream.spkb")
    return reference.from_truth(w, seed)


@pytest.mark.parametrize("name", ["capture_static", "capture_motion"])
def test_capture_matches_modspike_pipeline(name, tmp_path):
    w = SMALL[name]
    inp, out, res = bench_pass(w, 3, tmp_path)
    assert res["error"] is None and not res["frame_errors"]
    ref = tmp_path / "cli"
    flags = ["--mosaic"] if w.mosaic else []
    cli("pipeline", "--out-dir", str(ref), "--scene", str(inp / "scene.lhdr"),
        "--config", str(inp / "sensor.cfg"), "--seed", "3", "--motion", w.motion_spec,
        "--window", str(w.window), "--stride", str(w.stride), "--gain", str(w.gain),
        "--bits", str(w.bits), *flags)
    names = [p.name for p in ref.iterdir()]
    assert len(names) == 3 + 2 * w.output_frames
    same_files(out, ref, names)


def test_encode_matches_modspike_encode(tmp_path):
    w = SMALL["encode_spikes"]
    inp, out, res = bench_pass(w, 3, tmp_path)
    assert res["frames_out"] == w.output_frames == 10
    assert len(res["frame_ms"]) == w.output_frames  # one output frame per push
    cli("encode", "--in", str(inp / "stream.spkb"), "--window", str(w.window),
        "--stride", str(w.stride), "--gain", str(w.gain), "--bits", str(w.bits),
        "--out", str(tmp_path / "cli.modq"))
    assert (out / "modulo.modq").read_bytes() == (tmp_path / "cli.modq").read_bytes()


def test_decode_matches_modspike_unwrap(tmp_path):
    w = SMALL["decode_hdr"]
    inp, out, res = bench_pass(w, 3, tmp_path)
    assert res["error"] is None and not res["frame_errors"]
    cli("unwrap", "--in", str(inp / "sequence.modq"), "--out-dir", str(tmp_path / "cli"))
    same_files(out, tmp_path / "cli", [f"frame_{i:04d}.lhdr" for i in range(w.frames)])


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("seed", [0, 1])
def test_every_frame_matches_reference(name, seed, tmp_path):
    w = SMALL[name]
    inp, out, res = bench_pass(w, seed, tmp_path)
    assert res["error"] is None
    assert reference.check_pass(w, out, expected(w, seed, inp, out)) == [None] * w.output_frames


@pytest.mark.parametrize("name", list(SMALL))
def test_one_seed_repeats_and_another_differs(name, tmp_path):
    w = SMALL[name]
    inp_a, out_a, a = bench_pass(w, 5, tmp_path, "a")
    inp_b, out_b, b = bench_pass(w, 5, tmp_path, "b")
    inp_c, _, _ = bench_pass(w, 6, tmp_path, "c")
    digests = [{p.name: reference.file_digest(p) for p in inp.iterdir()}
               for inp in (inp_a, inp_b, inp_c)]
    assert digests[0] == digests[1] != digests[2]
    for key in ("frames_out", "bytes_read", "bytes_written", "converged"):
        assert a[key] == b[key], key
    exp_a, exp_b = expected(w, 5, inp_a, out_a), expected(w, 5, inp_b, out_b)
    assert exp_a.spikes == exp_b.spikes
    assert np.array_equal(exp_a.counts, exp_b.counts)


def test_wrong_frames_fail(tmp_path):
    w = SMALL["decode_hdr"]
    inp, out, _ = bench_pass(w, 0, tmp_path)
    exp = reference.from_truth(w, 0)
    path = out / "frame_0002.lhdr"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    (out / "frame_0004.lhdr").unlink()
    reasons = reference.check_pass(w, out, exp)
    assert [i for i, r in enumerate(reasons) if r] == [2, 4]


def test_count_beyond_float32_is_not_masked(tmp_path):
    # 2**24 + 1 has no float32 form; an LHDR holding the nearest float32
    # value must fail against the int64 reference instead of rounding to it
    ms = child.ms
    w = replace(SMALL["decode_hdr"], height=1, width=1, channels=1, frames=1)
    count = 2 ** 24 + 1
    ms.write_hdr(tmp_path / "frame_0000.lhdr",
                 ms.HdrImage(data=np.full((1, 1, 1), count, dtype=np.float32)))
    exp = reference.Expected(counts=np.full((1, 1, 1, 1), count, dtype=np.int64))
    assert reference.check_pass(w, tmp_path, exp) != [None]


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
