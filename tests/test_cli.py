import filecmp
import struct
import subprocess
import sys

import numpy as np
import pytest
import reference_unwrap

from modspike import (EncoderConfig, HdrImage, ModuloFrame, ModuloSequence, SensorConfig,
                      ValidationError, encode_stream, read_hdr, read_modulo, read_spikes,
                      unwrap_poisson, write_hdr, write_modulo)
from modspike import cli
from modspike.cli import _parse_sensor_config, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        for token in line.split():
            if "=" in token:
                key, value = token.split("=", 1)
                pairs[key] = value
    return pairs


@pytest.fixture
def small_scene(tmp_path):
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:16, 0:16]
    plane = 400.0 * np.exp(-((yy - 8) ** 2 + (xx - 8) ** 2) / 40.0) + 20.0
    path = tmp_path / "scene.lhdr"
    write_hdr(path, HdrImage(data=np.floor(plane).astype(np.float32)))
    return path


def test_bandwidth_reproduces_reference_rates(capsys):
    code, out, err = run_cli(capsys, "bandwidth", "--height", "1000",
                             "--width", "1000", "--readout-hz", "20000",
                             "--bits", "8", "--stride", "20", "--mosaic")
    assert code == 0
    kv = parse_kv(out)
    assert kv["raw_bps"] == "20000000000"
    assert kv["modulo_bps"] == "6000000000"
    assert kv["reduction_ratio"] == "0.7"
    assert kv["raw_gbps"] == "20.0"
    assert kv["modulo_gbps"] == "6.0"


def test_bandwidth_rejects_a_bit_depth_past_16(capsys):
    code, out, err = run_cli(capsys, "bandwidth", "--height", "1000", "--width", "1000",
                             "--readout-hz", "20000", "--bits", "17")
    assert code == 1 and out == "" and "bit_depth" in err


def test_simulate_encode_unwrap_eval_chain(capsys, tmp_path, small_scene):
    spikes = tmp_path / "out.spkb"
    config = "threshold=0.02,readout_rate_hz=1000,total_time_s=0.05,micro_intervals=50"
    code, out, _ = run_cli(capsys, "simulate", "--scene", str(small_scene),
                           "--config", config, "--out", str(spikes))
    assert code == 0
    assert parse_kv(out)["frames"] == "50"
    stream = read_spikes(spikes)
    assert stream.frame_count == 50

    modq = tmp_path / "out.modq"
    code, out, _ = run_cli(capsys, "encode", "--in", str(spikes),
                           "--window", "25", "--stride", "20",
                           "--gain", "15", "--bits", "8", "--out", str(modq))
    assert code == 0
    assert parse_kv(out)["frames"] == "2"
    assert read_modulo(modq).window == 25

    out_dir = tmp_path / "frames"
    code, out, _ = run_cli(capsys, "unwrap", "--in", str(modq),
                           "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "frame_0000.lhdr").exists()
    assert "l_mod=" in out and "converged=" in out

    code, out, _ = run_cli(capsys, "eval", "--ref", str(out_dir / "frame_0000.lhdr"),
                           "--test", str(out_dir / "frame_0000.lhdr"),
                           "--mu", "5000", "--peak", "4095")
    assert code == 0
    kv = parse_kv(out)
    assert kv["psnr_linear"] == "inf"
    assert kv["ssim_linear"] == "1"


def test_unwrap_prints_each_frames_residuals_byte_for_byte(capsys, tmp_path):
    # a frame with curl: both residuals nonzero, so every key=value field is pinned
    i, j = np.mgrid[0:32, 0:32]
    scene = (i + j) * 40 + np.random.default_rng(0).integers(0, 400, (32, 32))
    frame = ModuloFrame((scene % 256).astype(np.uint8), 8)
    modq = tmp_path / "curl.modq"
    write_modulo(modq, ModuloSequence(frames=(frame, frame), window=25, stride=20, gain=15.0,
                                      source_rate_hz=20_000))
    code, out, err = run_cli(capsys, "unwrap", "--in", str(modq),
                             "--out-dir", str(tmp_path / "frames"))
    assert code == 0 and err == ""
    assert out == ("frame=0 l_mod=0 l_grad=36 l_lap=212.5 converged=0\n"
                   "frame=1 l_mod=0 l_grad=36 l_lap=212.5 converged=0\n")


def test_unwrap_of_a_modq_without_frames_fails_with_one_error_line(capsys, tmp_path):
    # such a header used to read back as an empty sequence: exit 0, no output
    modq = tmp_path / "empty.modq"
    modq.write_bytes(struct.pack("<4sHIIIBHHfII", b"MODQ", 1, 4, 4, 1, 8, 25, 20, 15.0, 0, 0))
    out_dir = tmp_path / "frames"
    code, out, err = run_cli(capsys, "unwrap", "--in", str(modq), "--out-dir", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith("modspike: error:") and len(err.splitlines()) == 1
    assert "ModuloSequence.frames" in err


def test_simulate_accepts_config_file(capsys, tmp_path, small_scene):
    cfg_file = tmp_path / "sensor.cfg"
    cfg_file.write_text(
        "# laboratory configuration\n"
        "threshold = 0.02\n"
        "readout_rate_hz = 1000\n"
        "total_time_s = 0.05\n"
        "micro_intervals = 100   # two sub-steps per readout\n"
        "shot_noise = false\n")
    spikes = tmp_path / "file_cfg.spkb"
    code, out, _ = run_cli(capsys, "simulate", "--scene", str(small_scene),
                           "--config", str(cfg_file), "--out", str(spikes))
    assert code == 0
    assert parse_kv(out)["frames"] == "50"
    assert read_spikes(spikes).frame_count == 50


def test_simulate_rejects_unknown_config_key(capsys, tmp_path, small_scene):
    # the seed is no config key: --seed is its one route
    out = tmp_path / "x.spkb"
    for pair, key in (("volts=9", "volts"), ("rng_seed=-1", "rng_seed")):
        code, stdout, err = run_cli(capsys, "simulate", "--scene", str(small_scene),
                                    "--config", pair, "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert err == f"modspike: error: config: unknown key '{key}'\n"


def test_pipeline_refuses_a_seed_in_its_config(capsys, tmp_path):
    # its --seed defaults to 0 and used to override this key silently
    out_dir = tmp_path / "p"
    code, out, err = run_cli(capsys, "pipeline", "--out-dir", str(out_dir), "--height", "8",
                             "--width", "8", "--config", "shot_noise=1,rng_seed=5")
    assert code == 1 and out == "" and not out_dir.exists()
    assert err == "modspike: error: config: unknown key 'rng_seed'\n"


def test_simulate_seed_sets_the_shot_noise(capsys, tmp_path, small_scene):
    config = "shot_noise=1,threshold=0.02,readout_rate_hz=1000,total_time_s=0.02"
    written = {}
    for seed in (None, "0", "5", "6"):
        out = tmp_path / f"seed_{seed}.spkb"
        argv = () if seed is None else ("--seed", seed)
        code, _, _ = run_cli(capsys, "simulate", "--scene", str(small_scene),
                             "--config", config, *argv, "--out", str(out))
        assert code == 0
        written[seed] = out.read_bytes()
    assert written["0"] == written[None]
    assert written["5"] != written["6"]


def test_simulate_refuses_the_removed_reset_to_zero_key(capsys, tmp_path, small_scene):
    # the sensor resets by subtraction only: reset-to-zero is no longer a key
    out = tmp_path / "x.spkb"
    code, stdout, err = run_cli(capsys, "simulate", "--scene", str(small_scene),
                                "--config", "reset_to_zero=1", "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err == "modspike: error: config: unknown key 'reset_to_zero'\n"


@pytest.mark.parametrize("flag, value, named", [
    ("--config", "threshold=abc", "threshold"),
    ("--config", "micro_intervals=1.5", "micro_intervals"),
    ("--config", "shot_noise=ture", "shot_noise"),
    ("--config", "shot_noise=", "shot_noise"),
    ("--config", "threshold", "threshold"),
    ("--seed", "-1", "rng_seed"),
    ("--motion", "translate:1", "translate:1"),
    ("--motion", "rotate:x", "rotate:x"),
    ("--motion", "translate:nan,0", "translate_px"),
    ("--motion", "rotate:inf", "rotate_deg"),
    ("--motion", "spin:3", "spin:3"),
    # a repeated component used to overwrite the first: the capture ran static
    ("--motion", "rotate:5+rotate:0", "component 'rotate' given twice"),
    ("--motion", "translate:1,0+translate:2,0", "component 'translate' given twice"),
    # a repeated config key used to overwrite the first, as the motion did
    ("--config", "threshold=1.0,threshold=2.0", "config: key 'threshold' given twice"),
    ("--config", "shot_noise=1 readout_rate_hz=1000 shot_noise=1",
     "config: key 'shot_noise' given twice"),
])
def test_simulate_rejects_unparsable_values(capsys, tmp_path, small_scene, flag, value, named):
    out = tmp_path / "x.spkb"
    code, _, err = run_cli(capsys, "simulate", "--scene", str(small_scene), flag, value,
                           "--out", str(out))
    assert code == 1
    assert err.startswith("modspike: error:") and named in err
    assert not out.exists()


def test_simulate_mosaic_writes_half_resolution_three_channel_planes(capsys, tmp_path,
                                                                    small_scene):
    out = tmp_path / "mosaic.spkb"
    code, _, _ = run_cli(capsys, "simulate", "--scene", str(small_scene), "--mosaic",
                         "--config", "readout_rate_hz=1000,total_time_s=0.01,micro_intervals=10",
                         "--out", str(out))
    assert code == 0
    stream = read_spikes(out)
    assert (stream.height, stream.width, stream.channels, stream.frame_count) == (8, 8, 3, 10)


def test_config_flags_accept_every_spelling_in_any_case():
    for on, off in (("1", "0"), ("True", "false"), ("YES", "no"), ("on", "OFF")):
        assert _parse_sensor_config(f"shot_noise={on}").shot_noise is True
        assert _parse_sensor_config(f"shot_noise={off}").shot_noise is False
    cfg = _parse_sensor_config("micro_intervals=2000,threshold=2")
    assert cfg == SensorConfig(micro_intervals=2000, threshold=2.0)
    assert type(cfg.micro_intervals) is int and type(cfg.threshold) is float


def test_config_file_refuses_a_repeated_key(tmp_path):
    cfg_file = tmp_path / "sensor.cfg"
    cfg_file.write_text("threshold = 1.0\nshot_noise = 0\nthreshold = 2.0  # later\n")
    with pytest.raises(ValidationError, match=r"^config: key 'threshold' given twice$"):
        _parse_sensor_config(str(cfg_file))


def test_config_longer_than_a_file_name_is_read_inline(capsys, tmp_path, small_scene):
    # the file check used to raise OSError (file name too long) past 255 bytes
    text = "threshold=0.02," + " " * 300 + "readout_rate_hz=1000"
    assert _parse_sensor_config(text) == SensorConfig(threshold=0.02, readout_rate_hz=1000)
    spikes = tmp_path / "s.spkb"
    code, out, err = run_cli(capsys, "simulate", "--scene", str(small_scene), "--config",
                             text + ",total_time_s=0.05", "--out", str(spikes))
    assert (code, out, err) == (0, "frames=50\nreadout_rate_hz=1000\n", "")


def test_pipeline_negative_seed_fails_with_one_error_line(capsys, tmp_path):
    code, out, err = run_cli(capsys, "pipeline", "--out-dir", str(tmp_path / "p"),
                             "--seed", "-1", "--height", "8", "--width", "8")
    assert code == 1 and out == ""
    assert err.startswith("modspike: error:") and len(err.splitlines()) == 1
    assert "rng_seed" in err


@pytest.mark.parametrize("config", ["conversion_gain=1e300,shot_noise=true",
                                    "conversion_gain=1e300,threshold=1e-300"])
def test_simulate_unrepresentable_drive_fails_with_one_error_line(capsys, tmp_path,
                                                                  small_scene, config):
    spikes = tmp_path / "s.spkb"
    code, out, err = run_cli(capsys, "simulate", "--scene", str(small_scene), "--config",
                             f"{config},readout_rate_hz=1000,total_time_s=0.05",
                             "--out", str(spikes))
    assert code == 1 and out == "" and not spikes.exists()
    assert err.startswith("modspike: error: SensorConfig.conversion_gain:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field, size", [("height", "0"), ("width", "0"), ("height", "-3")])
def test_pipeline_size_below_one_fails_with_one_error_line(capsys, tmp_path, field, size):
    code, out, err = run_cli(capsys, "pipeline", "--out-dir", str(tmp_path / "p"),
                             f"--{field}", size)
    assert code == 1 and out == ""
    assert err.startswith(f"modspike: error: pipeline.{field}:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flags, error", [
    (("--height", "0"), "pipeline.height: must be positive and finite, got 0"),
    (("--motion", "bogus"), "motion: unknown component 'bogus'"),
    (("--bits", "17"), "EncoderConfig.bit_depth: must be in 1..16, got 17"),
    (("--scene", "nope.lhdr"), "No such file or directory"),
    (("--mosaic", "--height", "15"), "mosaic sampling needs even dimensions, got 15x8"),
    (("--window", "2000"), "stream: 1000 frames is shorter than window 2000"),
    (("--gain", "1e-50"), "modulo.modq: gain=1e-50 does not fit the container's 'f' header"),
    (("--config", "readout_rate_hz=5e9,total_time_s=1e-8,micro_intervals=50"),
     "spikes.spkb: readout_rate_hz=5000000000 does not fit the container's 'I' header")],
    ids=["height-0", "motion-bogus", "bits-17", "missing-scene", "mosaic-odd-height",
         "window-past-capture", "gain-below-f32", "rate-past-u32"])
def test_pipeline_bad_input_fails_before_making_its_out_dir(capsys, tmp_path, flags, error):
    # each used to leave the directory behind: empty, with scene.lhdr, or
    # with scene.lhdr and spikes.spkb after the whole simulation; a header a
    # container cannot hold is refused before the first file is written
    out_dir = tmp_path / "p"
    flags = [str(tmp_path / f) if f.endswith(".lhdr") else f for f in flags]
    code, out, err = run_cli(capsys, "pipeline", "--out-dir", str(out_dir), "--height", "8",
                             "--width", "8", *flags)
    assert code == 1 and out == "" and not out_dir.exists()
    assert err.startswith("modspike: error:") and error in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flags", [("--height", "40", "--width", "40", "--peak", "7"),
                                   ("--width", "64"), ("--peak", "1000")],
                         ids=["all", "width", "peak"])
def test_pipeline_refuses_synthetic_scene_flags_with_a_scene(capsys, tmp_path, small_scene,
                                                             flags):
    # they used to be ignored: the file's 16x16 scene was captured regardless
    out_dir = tmp_path / "p"
    code, out, err = run_cli(capsys, "pipeline", "--out-dir", str(out_dir), "--scene",
                             str(small_scene), *flags)
    assert code == 1 and out == "" and not out_dir.exists()
    assert err == (f"modspike: error: pipeline: {flags[0]} shapes the synthetic scene and "
                   f"cannot be given with --scene\n")


def test_pipeline_synthetic_scene_defaults_to_64_by_64_at_peak_1000(capsys, tmp_path):
    out_dir = tmp_path / "p"
    code, _, _ = run_cli(capsys, "pipeline", "--out-dir", str(out_dir), "--config",
                         "threshold=1,readout_rate_hz=1000,total_time_s=0.025,micro_intervals=25")
    assert code == 0
    scene = read_hdr(out_dir / "scene.lhdr")
    assert scene.data.shape == (64, 64, 1) and scene.data.max() == 1000.0


def test_encode_short_stream_fails_with_stderr(capsys, tmp_path, small_scene):
    spikes = tmp_path / "short.spkb"
    config = "threshold=0.02,readout_rate_hz=200,total_time_s=0.05,micro_intervals=10"
    code, _, _ = run_cli(capsys, "simulate", "--scene", str(small_scene),
                         "--config", config, "--out", str(spikes))
    assert code == 0
    code, out, err = run_cli(capsys, "encode", "--in", str(spikes),
                             "--window", "25", "--stride", "20",
                             "--gain", "15", "--bits", "8",
                             "--out", str(tmp_path / "x.modq"))
    assert code != 0
    assert "shorter" in err
    assert out == ""


def test_eval_missing_file_fails(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--ref", str(tmp_path / "nope.lhdr"),
                           "--test", str(tmp_path / "nope.lhdr"))
    assert code != 0
    assert err


@pytest.mark.parametrize("peak, printed", [("1e160", ""), ("1e-200", ""),
                                           ("1e80", "psnr_linear=1600\n"),
                                           ("1e-80", "psnr_linear=-1600\n")])
def test_eval_rejects_a_peak_the_metrics_cannot_hold(capsys, tmp_path, peak, printed):
    # it printed psnr_linear=inf and then an OverflowError traceback, or
    # -inf and nan with RuntimeWarnings and exit status 0. PSNR holds a
    # wider range of peaks than SSIM, and its line still prints
    ref, test = tmp_path / "ref.lhdr", tmp_path / "test.lhdr"
    write_hdr(ref, HdrImage(data=np.zeros((16, 16), np.float32)))
    write_hdr(test, HdrImage(data=np.ones((16, 16), np.float32)))
    code, out, err = run_cli(capsys, "eval", "--ref", str(ref), "--test", str(test),
                             "--peak", peak)
    assert code == 1 and out == printed
    assert err.startswith("modspike: error: peak: ") and len(err.splitlines()) == 1
    code, out, _ = run_cli(capsys, "eval", "--ref", str(ref), "--test", str(test))
    assert code == 0 and parse_kv(out)["psnr_linear"] == "72.2451"


def test_pipeline_deterministic_across_runs(capsys, tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    outputs = []
    for d in dirs:
        code, out, _ = run_cli(capsys, "pipeline", "--out-dir", str(d),
                               "--seed", "7", "--height", "24", "--width", "24",
                               "--window", "10", "--stride", "5",
                               "--config",
                               "threshold=0.05,readout_rate_hz=1000,"
                               "total_time_s=0.04,micro_intervals=40")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name


def test_pipeline_synthetic_scene_unwraps_exactly(capsys, tmp_path):
    out_dir = tmp_path / "pipe"
    code, out, _ = run_cli(capsys, "pipeline", "--out-dir", str(out_dir),
                           "--seed", "3", "--height", "32", "--width", "32")
    assert code == 0
    kv = parse_kv(out)
    assert kv["frames"] == "49"
    assert kv["effective_rate_hz"] == "1000.0"
    assert kv["converged"] == "1"
    recon = read_hdr(out_dir / "recon_0000.lhdr")
    truth = read_hdr(out_dir / "truth_0000.lhdr")
    assert recon.data.shape == truth.data.shape


def test_pipeline_writes_truth_counts_past_2_24_exactly(capsys, tmp_path, monkeypatch):
    # at gain 10^6 the 16-bit truth frames hold counts past 2^24, which a
    # float32 LHDR would round: they are written as u64 and read back as is
    truths = []

    def spy(*args, _real=cli.ideal_window_counts):
        truths.append(_real(*args))
        return truths[-1]

    monkeypatch.setattr(cli, "ideal_window_counts", spy)
    code, _, _ = run_cli(capsys, "pipeline", "--out-dir", str(tmp_path), "--height", "16",
                         "--width", "16", "--gain", "1000000", "--bits", "16")
    (truth,) = truths
    files = sorted(tmp_path.glob("truth_*.lhdr"))
    assert code == 0 and len(files) == len(truth)
    for path, want in zip(files, truth):
        assert want.max() >= 2 ** 24
        assert path.read_bytes()[18] == 2  # the LHDR dtype tag of u64
        back = read_hdr(path)
        assert back.data.dtype == np.uint64
        assert np.array_equal(back.data.astype(np.int64), want)


def test_pipeline_step_edge_decodes_exactly_on_the_count_lattice(capsys, tmp_path):
    # 200 + 800*[x >= 32] + 3y: the straight edge breaks the half-period
    # condition but leaves a curl-free gradient field, so every residual
    # of the Poisson decoder is zero while half the pixels are off by 2^N.
    # The encoder's frames carry their config and decode by table lookup.
    yy, xx = np.mgrid[0:64, 0:64]
    scene = tmp_path / "step.lhdr"
    write_hdr(scene, HdrImage(data=(200 + 800 * (xx >= 32) + 3 * yy).astype(np.float32)))
    out_dir = tmp_path / "step"
    code, out, _ = run_cli(capsys, "pipeline", "--out-dir", str(out_dir),
                           "--scene", str(scene))  # K = R = 1000, W25/P20/gain 15/8-bit
    assert code == 0
    stream = read_spikes(out_dir / "spikes.spkb")
    counted = encode_stream(stream, EncoderConfig(window=25, stride=20, gain=15.0,
                                                  bit_depth=8))
    stored = read_modulo(out_dir / "modulo.modq")  # MODQ keeps no provenance
    bits = stream.bits()
    assert len(counted) == len(stored) == 49
    for i, (frame, plain) in enumerate(zip(counted.frames, stored.frames)):
        want = np.floor(15.0 * bits[20 * i:20 * i + 25].sum(axis=0, dtype=np.int64))
        got = unwrap_poisson(frame)
        assert got.decoder == "lattice"
        assert np.array_equal(got.hdr.data, want)
        assert read_hdr(out_dir / f"recon_{i:04d}.lhdr").data.tobytes() == got.hdr.data.tobytes()
        # exact, yet not converged: the scene itself breaks the half-period model
        assert not got.converged
        # the same codes without provenance keep the Poisson answer, which
        # converges and is wrong: the documented limitation
        assert plain.counted_by is None and np.array_equal(plain.data, frame.data)
        poisson = unwrap_poisson(plain)
        assert poisson.decoder == "poisson" and poisson.converged
        today = reference_unwrap.unwrap_poisson(plain)
        assert poisson.hdr.data.tobytes() == today.hdr.data.tobytes()
        off = poisson.hdr.values() - want
        assert np.count_nonzero(off) == 2048 and set(np.unique(off)) == {0.0, -256.0}
    assert parse_kv(out)["converged"] == "0"


def test_pipeline_mosaic_mode(capsys, tmp_path):
    out_dir = tmp_path / "mosaic"
    code, out, _ = run_cli(capsys, "pipeline", "--out-dir", str(out_dir),
                           "--seed", "11", "--height", "24", "--width", "24",
                           "--mosaic", "--window", "10", "--stride", "5",
                           "--config",
                           "threshold=0.05,readout_rate_hz=1000,"
                           "total_time_s=0.04,micro_intervals=40")
    assert code == 0
    scene = read_hdr(out_dir / "scene.lhdr")
    assert (scene.height, scene.width, scene.channels) == (24, 24, 3)
    recon = read_hdr(out_dir / "recon_0000.lhdr")
    assert (recon.height, recon.width, recon.channels) == (12, 12, 3)
    spikes = read_spikes(out_dir / "spikes.spkb")
    assert (spikes.height, spikes.width, spikes.channels) == (12, 12, 3)


def test_entry_point_runs_as_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "modspike.cli", "bandwidth", "--height", "1000",
         "--width", "1000", "--readout-hz", "20000", "--bits", "8",
         "--stride", "20", "--mosaic"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "raw_bps=20000000000" in proc.stdout
    assert proc.stderr == ""


# a float32 header field cannot hold 1e39, and 1e-50 would read back as 0
@pytest.mark.parametrize("gain", ["1e39", "1e-50"])
def test_encode_unrepresentable_gain_fails_cleanly(capsys, tmp_path, small_scene, gain):
    spikes = tmp_path / "s.spkb"
    config = "threshold=0.02,readout_rate_hz=1000,total_time_s=0.05,micro_intervals=50"
    assert run_cli(capsys, "simulate", "--scene", str(small_scene), "--config", config,
                   "--out", str(spikes))[0] == 0
    modq = tmp_path / "s.modq"
    code, out, err = run_cli(capsys, "encode", "--in", str(spikes), "--window", "25",
                             "--stride", "20", "--gain", gain, "--out", str(modq))
    assert code == 1
    assert err.startswith("modspike: error:") and "gain" in err
    assert not modq.exists()
