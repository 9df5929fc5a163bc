import filecmp
import subprocess
import sys

import numpy as np
import pytest
import reference_unwrap

from modspike import (EncoderConfig, HdrImage, SensorConfig, encode_stream, read_hdr,
                      read_modulo, read_spikes, unwrap_poisson, write_hdr)
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
    code, _, err = run_cli(capsys, "simulate", "--scene", str(small_scene),
                           "--config", "volts=9", "--out", str(tmp_path / "x.spkb"))
    assert code != 0
    assert "unknown key" in err


@pytest.mark.parametrize("flag, value, named", [
    ("--config", "threshold=abc", "threshold"),
    ("--config", "micro_intervals=1.5", "micro_intervals"),
    ("--config", "shot_noise=ture", "shot_noise"),
    ("--config", "reset_to_zero=", "reset_to_zero"),
    ("--config", "rng_seed=-1", "rng_seed"),
    ("--config", "threshold", "threshold"),
    ("--seed", "-1", "rng_seed"),
    ("--motion", "translate:1", "translate:1"),
    ("--motion", "rotate:x", "rotate:x"),
    ("--motion", "translate:nan,0", "translate_px"),
    ("--motion", "rotate:inf", "rotate_deg"),
    ("--motion", "spin:3", "spin:3"),
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
        cfg = _parse_sensor_config(f"shot_noise={on},reset_to_zero={off}")
        assert (cfg.shot_noise, cfg.reset_to_zero) == (True, False)
    cfg = _parse_sensor_config("micro_intervals=2000,threshold=2")
    assert cfg == SensorConfig(micro_intervals=2000, threshold=2.0)
    assert type(cfg.micro_intervals) is int and type(cfg.threshold) is float


def test_pipeline_negative_seed_fails_with_one_error_line(capsys, tmp_path):
    code, out, err = run_cli(capsys, "pipeline", "--out-dir", str(tmp_path / "p"),
                             "--seed", "-1", "--height", "8", "--width", "8")
    assert code == 1 and out == ""
    assert err.startswith("modspike: error:") and len(err.splitlines()) == 1
    assert "rng_seed" in err


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


def test_pipeline_deterministic_across_runs(capsys, tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    outputs = []
    for d in dirs:
        code, out, _ = run_cli(capsys, "pipeline", "--out-dir", str(d),
                               "--seed", "7", "--height", "24", "--width", "24",
                               "--window", "10", "--stride", "5",
                               "--config",
                               "threshold=0.05,readout_rate_hz=1000,"
                               "total_time_s=0.04,micro_intervals=40,rng_seed=7")
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
