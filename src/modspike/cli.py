"""Command-line pipeline driver.

Subcommands cover the full path from a radiance scene to quality numbers:

    simulate   scene (LHDR) -> spike stream (SPKB)
    encode     spike stream (SPKB) -> modulo sequence (MODQ)
    unwrap     modulo sequence (MODQ) -> per-frame LHDR + residual report
    eval       two LHDR images -> PSNR/SSIM/tone-mapped PSNR
    bandwidth  raw vs encoded bit rates for a sensor geometry
    pipeline   simulate -> encode -> unwrap -> eval, fully seeded

Diagnostics go to stderr; machine-readable key=value lines go to stdout.
Exit code 0 means success.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import containers
from .containers import FormatError
from .encoder import encode_stream, ideal_window_counts
from .metrics import DEFAULT_MU, DEFAULT_PEAK, bandwidth_report, psnr_linear, psnr_mu, ssim_linear
from .simulate import Motion, integrate_and_fire, mosaic_sample, synthesize_clip
from .types import EncoderConfig, HdrImage, QuerySpec, SensorConfig, ValidationError, check_geometry
from .unwrap import unwrap_poisson

_ENCODER = EncoderConfig()  # the --window/--stride/--gain/--bits defaults


def _parse_flag(text: str) -> bool:
    """1/0, true/false, yes/no or on/off, in any case; else ValueError."""
    return ("0", "false", "no", "off", "1", "true", "yes", "on").index(text.lower()) >= 4


# each SensorConfig field but the seed (--seed sets it), parsed as the type of its default
_SENSOR_KEYS = {f.name: _parse_flag if isinstance(f.default, bool) else type(f.default)
                for f in fields(SensorConfig) if f.name != "rng_seed"}


def _parse_sensor_config(text: str | None, seed: int = 0) -> SensorConfig:
    """Sensor config from `key=value` pairs, inline (comma/space separated)
    or one per line in a file, with shot-noise seed `seed`."""
    given = {"rng_seed": seed}
    if text:
        if os.path.isfile(text):  # False, not OSError, for text too long to be a path
            lines = (line.split("#", 1)[0].strip() for line in Path(text).read_text().splitlines())
            pairs = [line for line in lines if line]
        else:
            pairs = [p for chunk in text.split(",") for p in chunk.split() if p]
        for pair in pairs:
            if "=" not in pair:
                raise ValidationError(f"config: expected key=value, got {pair!r}")
            key, value = (s.strip() for s in pair.split("=", 1))
            if key not in _SENSOR_KEYS:
                raise ValidationError(f"config: unknown key {key!r}")
            if key in given:
                raise ValidationError(f"config: key {key!r} given twice")
            try:
                given[key] = _SENSOR_KEYS[key](value)
            except ValueError:
                raise ValidationError(f"config: {key}: cannot parse {value!r}") from None
    return SensorConfig(**given)


def _parse_motion(text: str) -> Motion:
    """Motion spec: `none`, `translate:DX,DY`, `rotate:DEG`, or both joined
    with `+` (e.g. `translate:2,0+rotate:5`)."""
    given = {}  # Motion field -> value
    if text.strip().lower() in ("", "none", "identity"):
        return Motion()
    for part in text.split("+"):
        kind, _, args = part.partition(":")
        kind = kind.strip().lower()
        field = {"translate": "translate_px", "rotate": "rotate_deg"}.get(kind)
        if field is None:
            raise ValidationError(f"motion: unknown component {part!r}")
        if field in given:
            raise ValidationError(f"motion: component {kind!r} given twice")
        try:
            if kind == "translate":
                dx, dy = (float(v) for v in args.split(","))
                given[field] = (dx, dy)
            else:
                given[field] = float(args)
        except ValueError:
            raise ValidationError(f"motion: cannot parse component {part!r}") from None
    return Motion(**given)


def _synthetic_scene(channels: int, seed: int, height: int = 64, width: int = 64,
                     peak: float = 1000.0) -> HdrImage:
    """Smooth integer-valued test scene: a few seeded Gaussian blobs on a
    dim floor, quantized to digital counts."""
    check_geometry(height, width, channels, "pipeline")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    field = np.zeros((height, width, channels))
    for c in range(channels):
        plane = np.full((height, width), 0.02)
        for _ in range(4):
            cy = rng.uniform(0.2, 0.8) * height
            cx = rng.uniform(0.2, 0.8) * width
            sigma = rng.uniform(0.12, 0.25) * min(height, width)
            amp = rng.uniform(0.3, 1.0)
            plane += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        field[:, :, c] = plane / plane.max()
    return HdrImage(data=np.floor(field * peak).astype(np.float32))


def _cmd_simulate(args) -> int:
    scene = containers.read_hdr(args.scene)
    cfg = _parse_sensor_config(args.config, seed=args.seed)
    clip = synthesize_clip(scene, _parse_motion(args.motion), cfg)
    if args.mosaic:
        clip = mosaic_sample(clip)
    stream = integrate_and_fire(clip, cfg)
    containers.write_spikes(args.out, stream)
    print(f"frames={stream.frame_count}")
    print(f"readout_rate_hz={stream.readout_rate_hz}")
    return 0


def _cmd_encode(args) -> int:
    stream = containers.read_spikes(args.infile)
    seq = encode_stream(stream, _encoder_config(args))
    containers.write_modulo(args.out, seq)
    print(f"frames={len(seq)}")
    print(f"effective_rate_hz={seq.effective_rate_hz}")
    return 0


def _cmd_unwrap(args) -> int:
    seq = containers.read_modulo(args.infile)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq.frames):
        result = unwrap_poisson(frame)
        containers.write_hdr(out_dir / f"frame_{i:04d}.lhdr", result.hdr)
        print(f"frame={i} l_mod={result.residuals.l_mod:.9g} "
              f"l_grad={result.residuals.l_grad:.9g} "
              f"l_lap={result.residuals.l_lap:.9g} "
              f"converged={int(result.converged)}")
    return 0


def _print_eval(ref: HdrImage, test: HdrImage, mu: float, peak: float, prefix: str = ""):
    print(f"{prefix}psnr_linear={psnr_linear(test, ref, peak):.6g}")
    print(f"{prefix}ssim_linear={ssim_linear(test, ref, peak):.6g}")
    print(f"{prefix}psnr_mu={psnr_mu(test, ref, mu=mu, peak=peak):.6g}")


def _cmd_eval(args) -> int:
    ref = containers.read_hdr(args.ref)
    test = containers.read_hdr(args.test)
    _print_eval(ref, test, args.mu, args.peak)
    return 0


def _cmd_bandwidth(args) -> int:
    report = bandwidth_report(args.height, args.width, args.channels,
                              args.readout_hz, args.bits, args.stride, args.mosaic)
    for key in ("raw_bps", "modulo_bps", "reduction_ratio", "raw_gbps", "modulo_gbps"):
        print(f"{key}={getattr(report, key)}")
    return 0


def _cmd_pipeline(args) -> int:
    # every input is checked, and every stage run, before the output directory is made
    cfg = _parse_sensor_config(args.config, seed=args.seed)
    shape = {k: v for k in ("height", "width", "peak") if (v := getattr(args, k)) is not None}
    if args.scene:
        scene = containers.read_hdr(args.scene)
        if shape:
            raise ValidationError(f"pipeline: --{next(iter(shape))} shapes the synthetic "
                                  f"scene and cannot be given with --scene")
    else:
        scene = _synthetic_scene(3 if args.mosaic else 1, args.seed, **shape)
    if args.config is None:
        # calibrate the firing quantum so the brightest pixel spikes about
        # once per readout interval
        peak_radiance = float(scene.values().max())
        cfg = replace(cfg, threshold=max(
            peak_radiance * cfg.total_time_s / cfg.micro_intervals, 1e-12))
    motion = _parse_motion(args.motion)
    enc_cfg = _encoder_config(args)
    clip = synthesize_clip(scene, motion, cfg)
    if args.mosaic:
        clip = mosaic_sample(clip)
    stream = integrate_and_fire(clip, cfg)
    seq = encode_stream(stream, enc_cfg)
    # reference: ideal windowed digital counts, aligned with the encoder
    # windows (gain g corresponds to digital gain g*q/threshold)
    sub = clip.micro_intervals // cfg.readout_frames
    spec = QuerySpec(window=enc_cfg.window * sub, stride=enc_cfg.stride * sub,
                     digital_gain=enc_cfg.gain * cfg.conversion_gain / cfg.threshold)
    truth = ideal_window_counts(clip, spec)

    out_dir = Path(args.out_dir)
    files = [(out_dir / name, contents(out_dir / name, value)) for name, contents, value in (
        ("scene.lhdr", containers._lhdr, scene), ("spikes.spkb", containers._spkb, stream),
        ("modulo.modq", containers._modq, seq))]  # every header is range-checked here
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, contents in files:
        containers._write(path, *contents)
    print(f"frames={len(seq)}")
    print(f"effective_rate_hz={seq.effective_rate_hz}")

    for i, frame in enumerate(seq.frames):
        result = unwrap_poisson(frame)
        containers.write_hdr(out_dir / f"recon_{i:04d}.lhdr", result.hdr)
        ref = HdrImage(data=truth[i])
        containers.write_hdr(out_dir / f"truth_{i:04d}.lhdr", ref)
        print(f"frame={i} converged={int(result.converged)}")
        _print_eval(ref, result.hdr, args.mu, args.peak_eval, prefix=f"frame_{i}_")
    return 0


def _encoder_config(args) -> EncoderConfig:
    return EncoderConfig(window=args.window, stride=args.stride, gain=args.gain,
                         bit_depth=args.bits)


def _add_encoder_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=_ENCODER.window)
    p.add_argument("--stride", type=int, default=_ENCODER.stride)
    p.add_argument("--gain", type=float, default=_ENCODER.gain)
    p.add_argument("--bits", type=int, default=_ENCODER.bit_depth)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modspike",
                                     description="spike-stream modulo imaging tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="scene -> spike stream")
    p.add_argument("--scene", required=True, help="input LHDR radiance scene")
    p.add_argument("--motion", default="none",
                   help="none | translate:DX,DY | rotate:DEG | combined with +")
    p.add_argument("--config", default=None,
                   help="sensor config: key=value list or a file of key=value lines")
    p.add_argument("--seed", type=int, default=0, help="seed of the shot noise")
    p.add_argument("--mosaic", action="store_true",
                   help="sample through the 2x2 macro-pixel layout")
    p.add_argument("--out", required=True, help="output SPKB path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("encode", help="spike stream -> modulo sequence")
    p.add_argument("--in", dest="infile", required=True, help="input SPKB path")
    _add_encoder_args(p)
    p.add_argument("--out", required=True, help="output MODQ path")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("unwrap", help="modulo sequence -> HDR frames")
    p.add_argument("--in", dest="infile", required=True, help="input MODQ path")
    p.add_argument("--out-dir", required=True, help="directory for per-frame LHDR files")
    p.set_defaults(func=_cmd_unwrap)

    p = sub.add_parser("eval", help="compare two LHDR images")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--mu", type=float, default=DEFAULT_MU)
    p.add_argument("--peak", type=float, default=DEFAULT_PEAK)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bandwidth", help="raw vs encoded bit rates")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--readout-hz", type=int, required=True)
    p.add_argument("--bits", type=int, default=_ENCODER.bit_depth)
    p.add_argument("--stride", type=int, default=_ENCODER.stride)
    p.add_argument("--mosaic", action="store_true")
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("pipeline", help="simulate -> encode -> unwrap -> eval")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scene", default=None, help="optional LHDR scene (else synthetic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, help="synthetic scene height (default 64)")
    p.add_argument("--width", type=int, help="synthetic scene width (default 64)")
    p.add_argument("--peak", type=float,
                   help="peak digital counts of the synthetic scene (default 1000)")
    p.add_argument("--motion", default="none")
    p.add_argument("--config", default=None)
    p.add_argument("--mosaic", action="store_true")
    _add_encoder_args(p)
    p.add_argument("--mu", type=float, default=DEFAULT_MU)
    p.add_argument("--peak-eval", type=float, default=DEFAULT_PEAK)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError, OSError) as exc:
        print(f"modspike: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
