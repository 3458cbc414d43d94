"""Range and velocity estimation from the two bands' channel information matrices.

``estimate_any_scheme`` is the one scheme dispatch. The staggered scheme CA1
fuses the two bands' magnitude spectra on a shared bin grid before a single
peak search:

* range: per-column IDFTs of the block high band plus per-column FISTA
  recoveries of the rearranged comb low band (leading-rows mask, effective
  spacing K*delta_f_low = delta_f_high);
* velocity: per-row FFTs of the comb low band plus per-row CS recoveries of
  the block high band (periodic rows mask). That lasso has a closed form on
  the M/Q unambiguous bins, so the comb range recovery is the only
  iterative solve. The fusion repeats those bins Q times across the comb
  band's M, whose full-resolution peak resolves the Q-fold aliases.

``band_spectrum`` is the one pilot-pattern dispatch. The other three schemes
peak-search each band's spectrum as it is and average the two physical
estimates; a block band's CS velocity spectrum holds only its M/Q
unambiguous bins, so no search can land on an alias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInfoMatrix
from .config import Block, CaConfig, Comb, Scheme, range_bin_width, velocity_bin_width
from .errors import (
    InvalidConfig, InvalidSolverOptions, NonFiniteSpectrum, SchemeMismatch, check_finite,
    check_integer, check_kind,
)
from .fusion import build_range_selection, rearrange_low_band
from .grids import require_pilot
from .recovery import (
    FORWARD, SensingOperator, check_solver_knobs, fista_iterations, lasso_lambda, soft_threshold,
)

_STUFFED_ROWS = 64  # subcarrier rows per zero-stuffed FFT in velocity_spectrum_block_cs


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


def peak_estimate(spectrum: PowerSpectrum, kind: str) -> Estimate:
    """Normalize, search every bin, map the first peak bin to physical.

    Raises NonFiniteSpectrum unless the spectrum is nonempty and finite, with no
    negative and some positive entry: an all-zero spectrum has no peak to search.
    """
    values = spectrum.values
    check_finite(f"{kind} spectrum", values, NonFiniteSpectrum)
    peak = float(values.max())
    if not peak > 0 or values.min() < 0:
        raise NonFiniteSpectrum(f"{kind} spectrum needs no negative and some positive entry")
    norm = PowerSpectrum(values / peak, spectrum.bin_width)
    b = int(np.argmax(norm.values))
    return Estimate(kind=kind, peak_bin=b, value=b * norm.bin_width, spectrum=norm)


def top_k_peaks(spectrum: PowerSpectrum, k: int, guard: int = 0) -> list[tuple[int, float]]:
    """Greedy maxima with +-guard exclusion zones, descending by value."""
    check_kind("spectrum", spectrum, PowerSpectrum, InvalidConfig)
    check_integer("k", k, 1, InvalidSolverOptions)
    check_integer("guard", guard, 0, InvalidSolverOptions)
    check_finite("spectrum", spectrum.values, NonFiniteSpectrum)
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
    require_pilot(d.band, Block, "range_spectrum_block")
    n = d.band.n_subcarriers
    acc = np.abs(np.fft.ifft(d.pilots, axis=0) * np.sqrt(n)).sum(axis=1)
    return PowerSpectrum(acc, range_bin_width(c0, d.band.delta_f, n))


def range_spectrum_comb_cs(d: ChannelInfoMatrix, c0: float, opts: SolverOptions) -> PowerSpectrum:
    """CS recovery of every column of the rearranged comb band.

    ``rearrange_low_band``'s N/K rows measure the leading rows of an N-point
    DFT, so the recovered bins live on the effective grid with spacing
    K*delta_f: bins are c0 / (2 K delta_f N) meters wide and the unambiguous
    span is the same c0 / (2 K delta_f) as the raw comb's.
    """
    require_pilot(d.band, Comb, "range_spectrum_comb_cs")
    k = d.band.pilot.interval
    n = d.band.n_subcarriers
    op = SensingOperator(n=n, direction=FORWARD, row_mask=build_range_selection(n // k, n))
    columns = rearrange_low_band(d)
    lam = lasso_lambda(op.adjoint(columns), opts.lambda_scale)
    x, _ = fista_iterations(op, columns, lam, opts.max_iters, opts.tol)
    return PowerSpectrum(np.abs(x).sum(axis=1), range_bin_width(c0, k * d.band.delta_f, n))


def velocity_spectrum_comb(d: ChannelInfoMatrix, c0: float) -> PowerSpectrum:
    """Sum of per-row FFT magnitudes over the pilot subcarrier rows."""
    require_pilot(d.band, Comb, "velocity_spectrum_comb")
    m = d.band.n_symbols
    acc = np.abs(np.fft.fft(d.pilots, axis=1) / np.sqrt(m)).sum(axis=0)
    return PowerSpectrum(acc, velocity_bin_width(c0, d.band))


def velocity_spectrum_block_cs(d: ChannelInfoMatrix, c0: float, opts: SolverOptions) -> PowerSpectrum:
    """Lasso recovery of every row of a block band through the periodic mask, in closed form.

    The mask keeps every Q-th row of a unitary inverse DFT, so A*A is the
    identity on Q-periodic vectors; A*d and its soft threshold are
    Q-periodic, so soft_threshold(A*d, lam) meets the lasso's optimality
    conditions exactly (the orthonormal-design lasso). lam is
    lambda_scale * max|A*d| per row; no iterations run.

    A*d of a subcarrier row is the M-point FFT (scaled by 1/sqrt(M)) of the
    row zero-stuffed to full width: its pilots at every Q-th entry, in a
    buffer of a few rows whose other entries stay zero. That FFT repeats
    every M/Q bins, so only its first period is kept: lam, the threshold and
    the sum over rows run on it, and the spectrum is those M/Q unambiguous
    bins, velocity bins 0 .. M/Q-1 of the band's M-bin grid at its bin
    width. For power-of-two M the FFT is bitwise periodic, so the period
    tiled Q times equals the full-width computation bit for bit.
    """
    require_pilot(d.band, Block, "velocity_spectrum_block_cs")
    n, m, q = d.band.n_subcarriers, d.band.n_symbols, d.band.pilot.interval
    stuffed = np.zeros((min(_STUFFED_ROWS, n), m), dtype=complex)
    # (M/Q, N) and contiguous, so the row sum adds in the order of the (M, N) layout
    period = np.empty((m // q, n), dtype=complex)
    for lo in range(0, n, len(stuffed)):
        block = d.pilots[lo : lo + len(stuffed)]
        stuffed[: len(block), ::q] = block
        period[:, lo : lo + len(block)] = np.fft.fft(stuffed[: len(block)], axis=1)[:, : m // q].T
    g = period / np.sqrt(m)
    x = soft_threshold(g, lasso_lambda(g, opts.lambda_scale))
    return PowerSpectrum(np.abs(x).sum(axis=1), velocity_bin_width(c0, d.band))


# ---------------------------------------------------------------------------
# the pilot-pattern dispatch and the scheme dispatch
# ---------------------------------------------------------------------------

def band_spectrum(
    d: ChannelInfoMatrix, kind: str, c0: float, opts: SolverOptions = SolverOptions()
) -> PowerSpectrum:
    """One band's "range" or "velocity" spectrum by its pilot pattern.

    A comb band gives a CS range spectrum and an FFT velocity spectrum, a
    block band an IDFT range spectrum and a CS velocity spectrum of M/Q
    bins. Raises InvalidConfig for a kind other than the two, or a d or
    opts of another type.
    """
    check_kind("d", d, ChannelInfoMatrix, InvalidConfig)
    check_kind("opts", opts, SolverOptions, InvalidConfig)
    comb = isinstance(d.band.pilot, Comb)
    if kind == "range":
        return range_spectrum_comb_cs(d, c0, opts) if comb else range_spectrum_block(d, c0)
    if kind == "velocity":
        return velocity_spectrum_comb(d, c0) if comb else velocity_spectrum_block_cs(d, c0, opts)
    raise InvalidConfig(f"kind {kind!r} must be 'range' or 'velocity'")


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
    the low band's pilot rows plus |CS-DFT| over all N high-band rows, its
    M/Q bins repeated Q times (the one place the period is tiled); the two
    bands' peak bins coincide because T_low * fc_low = T_high * fc_high.
    Each fused spectrum is normalized once, then peak-searched.

    CA2..CA4 return two ``AveragedEstimate``s: each band's ``band_spectrum``
    is peak-searched over its own bins, and the two estimates are averaged in
    physical units because the bands' bin widths differ.

    Raises InvalidConfig for an argument of another type, SchemeMismatch if
    the matrices do not come from cfg's bands.
    """
    check_kind("d_low", d_low, ChannelInfoMatrix, InvalidConfig)
    check_kind("d_high", d_high, ChannelInfoMatrix, InvalidConfig)
    check_kind("cfg", cfg, CaConfig, InvalidConfig)  # band_spectrum checks opts
    if d_low.band != cfg.low or d_high.band != cfg.high:
        raise SchemeMismatch("channel matrices do not come from the configured bands")
    estimates = []
    for kind in ("range", "velocity"):
        spectra = (band_spectrum(d, kind, cfg.c0, opts) for d in (d_low, d_high))
        if cfg.scheme is Scheme.CA1:
            low, high = spectra
            fused = low.values + np.resize(high.values, low.values.shape)
            estimates.append(peak_estimate(PowerSpectrum(fused, high.bin_width), kind))
        else:
            per_band = tuple(peak_estimate(spectrum, kind) for spectrum in spectra)
            value = 0.5 * (per_band[0].value + per_band[1].value)
            estimates.append(AveragedEstimate(kind, value, per_band))
    return tuple(estimates)
