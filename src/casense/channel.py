"""Point-target delay/Doppler channel applied at the symbol-grid level.

A target at range R and closing velocity v imprints a phase ramp
``exp(-j 2 pi n delta_f 2R/c0)`` across subcarriers and
``exp(+j 2 pi m T 2 v fc/c0)`` across symbols. Dividing the received pilot
symbols by the known unit-modulus transmit symbols leaves exactly these
ramps (times the complex gain) plus noise of unchanged distribution: the
channel information matrix. Like the transmit grid it stores only its
band's pilot block, the positions ``grids.pilot_slices(band)`` selects.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .config import BandConfig
from .errors import (
    EmptyScene, InvalidConfig, InvalidNoiseLevel, InvalidTarget, VelocityAmbiguityWarning,
    check_kind, check_real, check_seed,
)
from .grids import TxGrid, check_pilot_block, pilot_index_sets, pilot_slices

_NOISE_ROWS = 64  # grid rows per noise draw, rounded up to whole comb periods


@dataclass(frozen=True)
class Target:
    """Point target: range (m), closing velocity (m/s), complex gain."""

    range_m: float
    velocity_mps: float
    gain: complex = 1.0 + 0j

    def __post_init__(self):
        check_real("range", self.range_m, InvalidTarget, "nonnegative")
        check_real("velocity", self.velocity_mps, InvalidTarget)
        check_kind("gain", self.gain, numbers.Complex, InvalidTarget)
        check_real("gain magnitude", abs(self.gain), InvalidTarget, "positive")


@dataclass(frozen=True)
class TargetScene:
    """Targets plus per-sample complex noise level and the noise's seed: what
    np.random.default_rng takes, bar a bool or a nested sequence (errors.check_seed)."""

    targets: tuple[Target, ...]
    noise_sigma: float = 0.0
    seed: int | tuple[int, ...] | np.random.SeedSequence | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        for target in self.targets:
            check_kind("targets entry", target, Target, InvalidTarget)
        check_real("noise_sigma", self.noise_sigma, InvalidNoiseLevel, "nonnegative")
        check_seed("seed", self.seed, InvalidConfig)


@dataclass(frozen=True)
class ChannelInfoMatrix:
    """Received-over-transmitted symbol ratios on the pilot positions."""

    pilots: np.ndarray  # complex, the band's pilot block (see grids.check_pilot_block)
    band: BandConfig

    def __post_init__(self):
        check_pilot_block(self.pilots, self.band)


def sigma_for_snr(snr_db: float, gain: complex = 1.0 + 0j) -> float:
    """Noise std giving per-pilot-sample SNR |gain|^2 / sigma^2 = 10^(snr/10).

    sigma is the total standard deviation of the circular complex noise
    (E|w|^2 = sigma^2). An SNR of +inf, or one so high that sigma
    underflows, gives 0, the noiseless limit. Raises InvalidNoiseLevel when
    the SNR is not a real number or sigma is not finite: a NaN SNR, or one so
    low that sigma overflows; InvalidTarget when the gain is not a nonzero number.
    """
    check_kind("gain", gain, numbers.Complex, InvalidTarget)
    check_real("gain magnitude", abs(gain), InvalidTarget, "positive")
    check_kind("snr", snr_db, numbers.Real, InvalidNoiseLevel)
    try:
        sigma = abs(gain) * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        sigma = math.inf
    if not sigma < math.inf:
        raise InvalidNoiseLevel(f"snr {snr_db} dB has no finite noise std (got {sigma})")
    return sigma


def simulate_channel_info(tx: TxGrid, scene: TargetScene, c0: float) -> ChannelInfoMatrix:
    """Apply the delay/Doppler channel plus AWGN and divide out the pilots, at speed of light c0.

    For each pilot position (n, m) the value is

        sum_targets  h * exp(-j 2 pi n delta_f 2R/c0)
                       * exp(+j 2 pi m T 2 v fc/c0)   +   w / d_tx(n, m)

    with w i.i.d. circular complex Gaussian of std ``scene.noise_sigma``.
    Division by the unit-modulus pilot leaves the noise distribution
    unchanged. Only the pilot block is computed. Deterministic per scene
    seed: the real, then the imaginary parts of w are drawn over the whole
    N x M grid in row-major order, so a pilot's noise does not depend on the pattern.
    Warns VelocityAmbiguityWarning for a |v| past the band's unambiguous Doppler span.
    """
    if not scene.targets:
        raise EmptyScene("estimation needs at least one target")
    check_real("c0", c0, InvalidConfig, "positive")
    band = tx.band
    n_idx, m_idx = pilot_index_sets(band)
    rows, cols = n_idx[:, None], m_idx[None, :]
    t_sym = band.symbol_duration
    r_max = c0 / (2.0 * band.delta_f)
    h = np.zeros((n_idx.size, m_idx.size), dtype=complex)  # the pilots, row-major
    for tgt in scene.targets:
        if tgt.range_m >= r_max:
            raise InvalidTarget(f"range {tgt.range_m} m is beyond the unambiguous span {r_max} m")
        doppler = abs(tgt.velocity_mps) * 2.0 * band.fc * t_sym / c0  # cycles per symbol
        if doppler >= 0.5:
            warnings.warn(
                f"|v|={abs(tgt.velocity_mps)} m/s aliases: normalized Doppler "
                f"{doppler:.3f} >= 1/2 at fc={band.fc:g} Hz",
                VelocityAmbiguityWarning,
                stacklevel=2,
            )
        k_r = np.exp(-2j * np.pi * rows * band.delta_f * 2.0 * tgt.range_m / c0)
        k_d = np.exp(2j * np.pi * cols * t_sym * 2.0 * tgt.velocity_mps * band.fc / c0)
        # ramp * gain, not gain * ramp: numpy rounds a complex product by operand order
        h += (k_r * k_d) * tgt.gain
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(scene.seed)
        pilots = pilot_slices(band)
        step = pilots[0].step or 1  # K for a comb, 1 for a block
        n = band.n_subcarriers
        chunk = step * -(-_NOISE_ROWS // step)
        buf = np.empty((min(chunk, n), band.n_symbols))
        w = np.empty(h.shape, dtype=complex)
        # standard_normal(out=) fills in C order, so the chunks continue one full-grid stream
        for part in (w.real, w.imag):
            for lo in range(0, n, chunk):
                draw = buf[: min(chunk, n - lo)]
                rng.standard_normal(out=draw)
                part[lo // step : (lo + len(draw)) // step] = draw[pilots]
        w *= scene.noise_sigma / np.sqrt(2.0)
        h += w / tx.pilots
    return ChannelInfoMatrix(pilots=h, band=band)
