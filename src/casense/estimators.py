"""Range and velocity estimation from the two bands' channel information matrices.

``estimate_any_scheme`` is the one scheme dispatch. The staggered scheme CA1
fuses the two bands' magnitude spectra on a shared bin grid before a single
peak search:

* range: per-column IDFTs of the block high band plus per-column FISTA
  recoveries of the rearranged comb low band (leading-rows mask, effective
  spacing K*delta_f_low = delta_f_high);
* velocity: per-row FFTs of the comb low band plus per-row CS recoveries of
  the block high band (periodic rows mask; the low band's full-resolution
  peak disambiguates the periodic aliases). That lasso has a closed form,
  computed on one period of M/Q bins and tiled, so the comb range recovery
  is the only iterative solve.

The other three schemes estimate per band with the pattern-appropriate
primitive and average the two physical estimates. A lone periodic-mask CS
spectrum carries exact Q-fold aliases (its period is tiled, so this holds
bit for bit for every M), so its peak search is restricted to the band's
unambiguous prefix of M/Q bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInfoMatrix
from .config import Block, CaConfig, Comb, Scheme, range_bin_width, velocity_bin_width
from .errors import InvalidSolverOptions, NonFiniteSpectrum, SchemeMismatch
from .fusion import build_range_selection, rearrange_low_band
from .grids import pilot_slices
from .recovery import (
    FORWARD, SensingOperator, check_solver_knobs, fista_iterations, lasso_lambda, soft_threshold
)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the per-vector CS recoveries inside the estimators.

    lambda_scale sets every recovery's lam; max_iters and tol bound only the
    comb band's range FISTA, the block band's velocity lasso being closed form.
    """

    lambda_scale: float = 0.1
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        check_solver_knobs(self.max_iters, lambda_scale=self.lambda_scale, tol=self.tol)


@dataclass(frozen=True)
class PowerSpectrum:
    """Accumulated nonnegative spectrum with its bin-to-physical mapping."""

    values: np.ndarray  # real, (N,) or (M,)
    bin_width: float  # meters per bin, or m/s per bin

    def normalize(self) -> "PowerSpectrum":
        peak = float(self.values.max())
        if peak <= 0:
            return PowerSpectrum(self.values.copy(), self.bin_width)
        return PowerSpectrum(self.values / peak, self.bin_width)


@dataclass(frozen=True)
class Estimate:
    """Peak-derived physical estimate; value = peak_bin * bin_width."""

    kind: str  # "range" | "velocity"
    peak_bin: int
    value: float
    spectrum: PowerSpectrum


@dataclass(frozen=True)
class AveragedEstimate:
    """Arithmetic mean of two per-band estimates (schemes CA2..CA4)."""

    kind: str
    value: float
    per_band: tuple[Estimate, Estimate]


def peak_estimate(spectrum: PowerSpectrum, kind: str, search_bins: int | None = None) -> Estimate:
    """Normalize, search the (optionally restricted) window, map bin to physical."""
    if not np.isfinite(spectrum.values).all():
        raise NonFiniteSpectrum(f"{kind} spectrum holds NaN or inf values")
    norm = spectrum.normalize()
    window = norm.values if search_bins is None else norm.values[:search_bins]
    b = int(np.argmax(window))
    return Estimate(kind=kind, peak_bin=b, value=b * norm.bin_width, spectrum=norm)


def top_k_peaks(spectrum: PowerSpectrum, k: int, guard: int = 0) -> list[tuple[int, float]]:
    """Greedy maxima with +-guard exclusion zones, descending by value."""
    if k < 1:
        raise InvalidSolverOptions("k must be >= 1")
    if guard < 0:
        raise InvalidSolverOptions("guard must be >= 0")
    if not np.isfinite(spectrum.values).all():
        raise NonFiniteSpectrum("spectrum holds NaN or inf values")
    work = spectrum.values.astype(float).copy()
    out: list[tuple[int, float]] = []
    for _ in range(k):
        b = int(np.argmax(work))
        if work[b] == -np.inf:
            break
        out.append((b, float(spectrum.values[b])))
        lo, hi = max(0, b - guard), min(len(work), b + guard + 1)
        work[lo:hi] = -np.inf
    return out


# ---------------------------------------------------------------------------
# per-band spectrum primitives
# ---------------------------------------------------------------------------

def range_spectrum_block(d: ChannelInfoMatrix, c0: float) -> PowerSpectrum:
    """Sum of per-column IDFT magnitudes over the pilot symbol columns.

    Bins live on the band's native grid: c0 / (2 delta_f N) meters wide.
    """
    if not isinstance(d.band.pilot, Block):
        raise SchemeMismatch("range_spectrum_block needs a block-pilot band")
    n = d.band.n_subcarriers
    acc = np.abs(np.fft.ifft(d.values[pilot_slices(d.band)], axis=0) * np.sqrt(n)).sum(axis=1)
    return PowerSpectrum(acc, range_bin_width(c0, d.band.delta_f, n))


def range_spectrum_comb_cs(d: ChannelInfoMatrix, c0: float, opts: SolverOptions) -> PowerSpectrum:
    """CS recovery of every column of the rearranged comb band.

    ``rearrange_low_band``'s N/K rows measure the leading rows of an N-point
    DFT, so the recovered bins live on the effective grid with spacing
    K*delta_f: bins are c0 / (2 K delta_f N) meters wide and the unambiguous
    span is the same c0 / (2 K delta_f) as the raw comb's.
    """
    if not isinstance(d.band.pilot, Comb):
        raise SchemeMismatch("range_spectrum_comb_cs needs a comb-pilot band")
    k = d.band.pilot.interval
    n = d.band.n_subcarriers
    op = SensingOperator(n=n, direction=FORWARD, row_mask=build_range_selection(n // k, n))
    columns = rearrange_low_band(d, k)
    lam = lasso_lambda(op.adjoint(columns), opts.lambda_scale)
    x, _ = fista_iterations(op, columns, lam, opts.max_iters, opts.tol)
    return PowerSpectrum(np.abs(x).sum(axis=1), range_bin_width(c0, k * d.band.delta_f, n))


def velocity_spectrum_comb(d: ChannelInfoMatrix, c0: float) -> PowerSpectrum:
    """Sum of per-row FFT magnitudes over the pilot subcarrier rows."""
    if not isinstance(d.band.pilot, Comb):
        raise SchemeMismatch("velocity_spectrum_comb needs a comb-pilot band")
    m = d.band.n_symbols
    acc = np.abs(np.fft.fft(d.values[pilot_slices(d.band)], axis=1) / np.sqrt(m)).sum(axis=0)
    return PowerSpectrum(acc, velocity_bin_width(c0, d.band))


def velocity_spectrum_block_cs(d: ChannelInfoMatrix, c0: float, opts: SolverOptions) -> PowerSpectrum:
    """Lasso recovery of every row of a block band through the periodic mask, in closed form.

    The mask keeps every Q-th row of a unitary inverse DFT, so A*A is the
    identity on Q-periodic vectors; A*d and its soft threshold are
    Q-periodic, so soft_threshold(A*d, lam) meets the lasso's optimality
    conditions exactly (the orthonormal-design lasso). lam is
    lambda_scale * max|A*d| per row; no iterations run.

    A*d of a subcarrier row is the M-point FFT of the row itself (scaled by
    1/sqrt(M)), whose off-pilot entries are the zeros a ChannelInfoMatrix
    holds off its mask. Only its first period of M/Q bins is kept: lam, the
    threshold and the sum over rows run on it, and the returned spectrum is
    that period tiled Q times, so it repeats exactly every M/Q bins for
    every M. For power-of-two M the FFT is itself bitwise periodic, so the
    result equals the full-width computation bit for bit.
    """
    if not isinstance(d.band.pilot, Block):
        raise SchemeMismatch("velocity_spectrum_block_cs needs a block-pilot band")
    m, q = d.band.n_symbols, d.band.pilot.interval
    period = np.fft.fft(d.values, axis=1)[:, : m // q]
    # (M/Q, N) and contiguous, so the row sum adds in the order of the (M, N) layout
    g = np.ascontiguousarray(period.T) / np.sqrt(m)
    x = soft_threshold(g, lasso_lambda(g, opts.lambda_scale))
    return PowerSpectrum(np.tile(np.abs(x).sum(axis=1), q), velocity_bin_width(c0, d.band))


# ---------------------------------------------------------------------------
# per-band estimates and the scheme dispatch
# ---------------------------------------------------------------------------

def estimate_band_range(
    d: ChannelInfoMatrix, c0: float, opts: SolverOptions = SolverOptions()
) -> Estimate:
    """Single-band range estimate with the pattern-appropriate primitive."""
    if isinstance(d.band.pilot, Block):
        return peak_estimate(range_spectrum_block(d, c0), "range")
    return peak_estimate(range_spectrum_comb_cs(d, c0, opts), "range")


def estimate_band_velocity(
    d: ChannelInfoMatrix, c0: float, opts: SolverOptions = SolverOptions()
) -> Estimate:
    """Single-band velocity estimate with the pattern-appropriate primitive.

    For a block band the periodic-mask CS spectrum repeats every M/Q bins,
    so the peak search is restricted to that unambiguous prefix.
    """
    if isinstance(d.band.pilot, Comb):
        return peak_estimate(velocity_spectrum_comb(d, c0), "velocity")
    spectrum = velocity_spectrum_block_cs(d, c0, opts)
    window = d.band.n_symbols // d.band.pilot.interval
    return peak_estimate(spectrum, "velocity", search_bins=window)


def estimate_any_scheme(
    d_low: ChannelInfoMatrix,
    d_high: ChannelInfoMatrix,
    cfg: CaConfig,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Estimate, Estimate] | tuple[AveragedEstimate, AveragedEstimate]:
    """(range, velocity) estimates under the scheme cfg declares.

    CA1 returns two ``Estimate``s from fused spectra. Range accumulates
    |IDFT| over the high band's pilot columns plus |CS-IDFT| over all M
    rearranged low-band columns, on the high band's grid of
    c0 / (2 delta_f_high N) meters per bin. Velocity accumulates |FFT| over
    the low band's pilot rows plus |CS-DFT| over all N high-band rows; the
    two bands' peak bins coincide because T_low * fc_low = T_high * fc_high.
    Each fused spectrum is normalized once, then peak-searched.

    CA2..CA4 return two ``AveragedEstimate``s: per-band estimates with the
    pattern-appropriate primitive (block bands: plain IDFT columns for range,
    CS-DFT rows for velocity; comb bands: CS-IDFT columns for range, plain
    FFT pilot rows for velocity), averaged in physical units because the
    bands' bin widths differ.

    Raises SchemeMismatch if the matrices do not come from cfg's bands.
    """
    if d_low.band != cfg.low or d_high.band != cfg.high:
        raise SchemeMismatch("channel matrices do not come from the configured bands")
    if cfg.scheme is Scheme.CA1:
        r_high = range_spectrum_block(d_high, cfg.c0)
        r_low = range_spectrum_comb_cs(d_low, cfg.c0, opts)
        rng = peak_estimate(PowerSpectrum(r_high.values + r_low.values, r_high.bin_width), "range")
        v_low = velocity_spectrum_comb(d_low, cfg.c0)
        v_high = velocity_spectrum_block_cs(d_high, cfg.c0, opts)
        vel = peak_estimate(PowerSpectrum(v_low.values + v_high.values, v_high.bin_width), "velocity")
        return rng, vel
    r_low, r_high = (estimate_band_range(d, cfg.c0, opts) for d in (d_low, d_high))
    v_low, v_high = (estimate_band_velocity(d, cfg.c0, opts) for d in (d_low, d_high))
    return (
        AveragedEstimate("range", 0.5 * (r_low.value + r_high.value), (r_low, r_high)),
        AveragedEstimate("velocity", 0.5 * (v_low.value + v_high.value), (v_low, v_high)),
    )
