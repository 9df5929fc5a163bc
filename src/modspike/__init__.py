"""Exposure-decoupled modulo imaging from spike streams.

End-to-end toolkit: synthetic irradiance clips, integrate-and-fire spike
simulation with a non-Bayer chromatic mosaic, sliding-window per-pixel
modulo encoding, physics-exact unwrapping back to HDR, quality metrics,
bandwidth accounting, and bit-exact container formats with a CLI driver.
"""

from .containers import (FormatError, read_hdr, read_modulo, read_spikes,
                         write_hdr, write_modulo, write_spikes)
from .encoder import (ChunkedEncoder, ModuloSequence, encode_stream,
                      frame_capacity, ideal_window_counts)
from .metrics import (BandwidthReport, bandwidth_report, mu_law, mu_law_inverse,
                      psnr_linear, psnr_mu, ssim_linear)
from .operators import GradientField, divergence, gradient, lar, poisson_solve
from .simulate import (IrradianceClip, Motion, integrate_and_fire, mosaic_sample,
                       synthesize_clip)
from .types import (EncoderConfig, HdrImage, ModuloFrame, QuerySpec,
                    SensorConfig, SpikeStream, ValidationError, plane_bytes)
from .unwrap import UnwrapResult, unwrap_poisson

__version__ = "0.1.0"

__all__ = [
    "BandwidthReport",
    "ChunkedEncoder",
    "EncoderConfig",
    "FormatError",
    "GradientField",
    "HdrImage",
    "IrradianceClip",
    "ModuloFrame",
    "ModuloSequence",
    "Motion",
    "QuerySpec",
    "SensorConfig",
    "SpikeStream",
    "UnwrapResult",
    "ValidationError",
    "bandwidth_report",
    "divergence",
    "encode_stream",
    "frame_capacity",
    "gradient",
    "ideal_window_counts",
    "integrate_and_fire",
    "lar",
    "mosaic_sample",
    "mu_law",
    "mu_law_inverse",
    "plane_bytes",
    "poisson_solve",
    "psnr_linear",
    "psnr_mu",
    "read_hdr",
    "read_modulo",
    "read_spikes",
    "ssim_linear",
    "synthesize_clip",
    "unwrap_poisson",
    "write_hdr",
    "write_modulo",
    "write_spikes",
]
