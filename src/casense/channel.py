"""Point-target delay/Doppler channel applied at the symbol-grid level.

A target at range R and closing velocity v imprints a phase ramp
``exp(-j 2 pi n delta_f 2R/c0)`` across subcarriers and
``exp(+j 2 pi m T 2 v fc/c0)`` across symbols. Dividing the received pilot
symbols by the known unit-modulus transmit symbols leaves exactly these
ramps (times the complex gain) plus noise of unchanged distribution: the
channel information matrix. Its pilot positions are those of its band,
``grids.pilot_slices(band)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import BandConfig
from .errors import EmptyScene, InvalidNoiseLevel, InvalidTarget, VelocityAmbiguityWarning
from .grids import TxGrid, pilot_index_sets, pilot_slices


@dataclass(frozen=True)
class Target:
    """Point target: range (m), closing velocity (m/s), complex gain."""

    range_m: float
    velocity_mps: float
    gain: complex = 1.0 + 0j

    def __post_init__(self):
        if not (np.isfinite(self.range_m) and self.range_m >= 0):
            raise InvalidTarget(f"range {self.range_m} m must be finite and nonnegative")
        if not np.isfinite(self.velocity_mps):
            raise InvalidTarget(f"velocity {self.velocity_mps} m/s must be finite")
        if self.gain == 0 or not np.isfinite(self.gain):
            raise InvalidTarget(f"gain {self.gain} must be finite and nonzero")


@dataclass(frozen=True)
class TargetScene:
    """Targets plus per-sample complex noise level and RNG seed."""

    targets: tuple[Target, ...]
    noise_sigma: float = 0.0
    seed: int | tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidNoiseLevel(f"noise_sigma {self.noise_sigma} must be finite and nonnegative")


@dataclass(frozen=True)
class ChannelInfoMatrix:
    """Received-over-transmitted symbol ratios on the pilot positions."""

    values: np.ndarray  # complex, (N, M), zero off the band's pilots
    band: BandConfig


def sigma_for_snr(snr_db: float, gain: complex = 1.0 + 0j) -> float:
    """Noise std giving per-pilot-sample SNR |gain|^2 / sigma^2 = 10^(snr/10).

    sigma is the total standard deviation of the circular complex noise
    (E|w|^2 = sigma^2). An SNR of +inf, or one so high that sigma
    underflows, gives 0, the noiseless limit. Raises InvalidNoiseLevel when
    sigma is not finite: a NaN SNR, or one so low that sigma overflows.
    """
    g = abs(gain)
    if g == 0:
        raise InvalidTarget("gain must be nonzero")
    try:
        sigma = g * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        sigma = math.inf
    if not sigma < math.inf:
        raise InvalidNoiseLevel(f"snr {snr_db} dB has no finite noise std (got {sigma})")
    return sigma


def check_velocity_unambiguous(band: BandConfig, velocity_mps: float, c0: float) -> None:
    """Warn when |v| exceeds the band's unambiguous Doppler span."""
    frac = abs(velocity_mps) * 2.0 * band.fc * band.symbol_duration / c0
    if frac >= 0.5:
        warnings.warn(
            f"|v|={abs(velocity_mps)} m/s aliases: normalized Doppler "
            f"{frac:.3f} >= 1/2 at fc={band.fc:g} Hz",
            VelocityAmbiguityWarning,
            stacklevel=3,
        )


def simulate_channel_info(
    tx: TxGrid, scene: TargetScene, c0: float = 299_792_458.0
) -> ChannelInfoMatrix:
    """Apply the delay/Doppler channel plus AWGN and divide out the pilots.

    For each pilot position (n, m) the value is

        sum_targets  h * exp(-j 2 pi n delta_f 2R/c0)
                       * exp(+j 2 pi m T 2 v fc/c0)   +   w / d_tx(n, m)

    with w i.i.d. circular complex Gaussian of std ``scene.noise_sigma``.
    Division by the unit-modulus pilot leaves the noise distribution
    unchanged. Non-pilot positions stay zero. Deterministic per scene seed.
    """
    if not scene.targets:
        raise EmptyScene("estimation needs at least one target")
    band = tx.band
    pilots = pilot_slices(band)  # every gather and scatter below is a basic-slice view
    n_idx, m_idx = pilot_index_sets(band)
    rows, cols = n_idx[:, None], m_idx[None, :]
    t_sym = band.symbol_duration
    r_max = c0 / (2.0 * band.delta_f)
    h = np.zeros((n_idx.size, m_idx.size), dtype=complex)  # the pilots, row-major
    for tgt in scene.targets:
        if tgt.range_m >= r_max:
            raise InvalidTarget(f"range {tgt.range_m} m is beyond the unambiguous span {r_max} m")
        check_velocity_unambiguous(band, tgt.velocity_mps, c0)
        k_r = np.exp(-2j * np.pi * rows * band.delta_f * 2.0 * tgt.range_m / c0)
        k_d = np.exp(2j * np.pi * cols * t_sym * 2.0 * tgt.velocity_mps * band.fc / c0)
        # ramp * gain, not gain * ramp: numpy rounds a complex product by operand order
        h += (k_r * k_d) * tgt.gain
    if scene.noise_sigma > 0:
        # Both draws cover the whole grid, so a pilot's noise does not depend on the pattern.
        rng = np.random.default_rng(scene.seed)
        re, im = rng.standard_normal(tx.symbols.shape), rng.standard_normal(tx.symbols.shape)
        w = re[pilots] + 1j * im[pilots]
        w *= scene.noise_sigma / np.sqrt(2.0)
        h += w / tx.symbols[pilots]
    values = np.zeros(tx.symbols.shape, dtype=complex)
    values[pilots] = h
    return ChannelInfoMatrix(values=values, band=band)
