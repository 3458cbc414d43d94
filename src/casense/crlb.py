"""Cramer-Rao lower bounds for joint delay/Doppler estimation.

The estimation parameters are tau = 2R/c0 and theta = 2 v0/c0 (the carrier
frequency is factored out of the Doppler term so both bands share one
theta). For a single observation

    y_{m,n} = h * exp(+j 2 pi m T fc theta) * exp(-j 2 pi n delta_f tau) + w

with w complex Gaussian of per-component variance sigma^2, the Fisher
entries reduce to weighted sums of squared pilot frequencies and squared
pilot times over the exact pilot index sets of both bands. The closed forms
evaluate those sums with polynomial identities; ``fisher_oracle`` computes
them by direct summation and is the source of truth.

Note on noise conventions: ``sigma`` here is the per-component (real /
imaginary) standard deviation. The channel simulator's ``noise_sigma`` is
the total complex standard deviation, so sigma = noise_sigma / sqrt(2).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .channel import sigma_for_snr
from .config import CaConfig, BandConfig, Scheme, with_high_band_spacing
from .errors import (
    InvalidConfig, InvalidNoiseLevel, InvalidTarget, SingularFisher, UnsupportedScheme,
    check_kind, check_real,
)
from .grids import pilot_index_sets

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CrlbInputs:
    """Configuration plus the constant gain magnitude and noise level."""

    cfg: CaConfig
    h: float = 1.0
    sigma: float = 1.0  # per-component noise std

    def __post_init__(self):
        check_kind("cfg", self.cfg, CaConfig, InvalidConfig)
        check_real("gain h", self.h, InvalidTarget, "positive")
        check_real("sigma", self.sigma, InvalidNoiseLevel, "positive")


@dataclass(frozen=True)
class CrlbReport:
    crlb_tau: float
    crlb_theta: float
    crlb_range: float  # m^2
    crlb_velocity: float  # (m/s)^2

    @property
    def rcrlb_range(self) -> float:  # m
        return float(np.sqrt(self.crlb_range))

    @property
    def rcrlb_velocity(self) -> float:  # m/s
        return float(np.sqrt(self.crlb_velocity))


def band_pilot_axes(band: BandConfig) -> tuple[np.ndarray, np.ndarray]:
    """Physical pilot (frequencies Hz, times*fc) axes of one band.

    Comb: frequencies n*delta_f over the pilot subcarriers, all M symbol
    times. Block: all N subcarrier frequencies, pilot symbol times only.
    """
    sub_idx, sym_idx = pilot_index_sets(band)
    freqs = sub_idx * band.delta_f
    times_fc = sym_idx * band.symbol_duration * band.fc
    return freqs, times_fc


def band_fisher(band: BandConfig, h: float = 1.0, sigma: float = 1.0) -> tuple[float, float, float]:
    """(F11, F12, F22) contribution of one band by direct summation."""
    freqs, times_fc = band_pilot_axes(band)
    f2 = float((freqs**2).sum()) * len(times_fc)
    t2 = float((times_fc**2).sum()) * len(freqs)
    ft = float(freqs.sum()) * float(times_fc.sum())
    scale = (h * h) / (sigma * sigma) * TWO_PI**2
    return scale * f2, -scale * ft, scale * t2


def fisher_oracle(inputs: CrlbInputs) -> tuple[float, float, float]:
    """(F11, F12, F22) of the aggregated signal: sum of both bands' terms."""
    lo = band_fisher(inputs.cfg.low, inputs.h, inputs.sigma)
    hi = band_fisher(inputs.cfg.high, inputs.h, inputs.sigma)
    return lo[0] + hi[0], lo[1] + hi[1], lo[2] + hi[2]


def report_from_fisher(f11: float, f12: float, f22: float, c0: float) -> CrlbReport:
    """The oracle report: bounds from a Fisher matrix (F11, F12, F22) by inversion."""
    det = f11 * f22 - f12 * f12
    if det <= 1e-12 * abs(f11 * f22):
        raise SingularFisher(f"F11*F22 - F12^2 = {det!r} is not positive")
    crlb_tau = f22 / det
    crlb_theta = f11 / det
    return CrlbReport(
        crlb_tau=crlb_tau,
        crlb_theta=crlb_theta,
        crlb_range=0.25 * c0 * c0 * crlb_tau,
        crlb_velocity=0.25 * c0 * c0 * crlb_theta,
    )


def crlb_oracle(inputs: CrlbInputs) -> CrlbReport:
    """Bounds from the direct-summation Fisher matrix."""
    return report_from_fisher(*fisher_oracle(inputs), inputs.cfg.c0)


# ---------------------------------------------------------------------------
# closed forms, one pair per aggregation scheme
# ---------------------------------------------------------------------------

def crlb_closed_form(inputs: CrlbInputs) -> CrlbReport:
    """Closed-form bounds for the configured scheme.

    The full-block velocity expression omits the pilot symbol stride, so it
    evaluates to exactly Q^2 times the Fisher-matrix value; it is kept as
    the reference algebra rather than silently corrected. Everywhere else
    the closed forms agree with ``fisher_oracle`` to machine precision.
    Numbers that matter should come from ``crlb_oracle`` for that one case.
    """
    cfg = inputs.cfg
    c0, h, sigma = cfg.c0, inputs.h, inputs.sigma
    n = cfg.high.n_subcarriers
    m = cfg.high.n_symbols
    if cfg.low.n_subcarriers != n or cfg.low.n_symbols != m:
        raise UnsupportedScheme("closed forms assume equal N and M across bands")
    df1, df2 = cfg.low.delta_f, cfg.high.delta_f
    g = cfg.low.symbol_duration * cfg.low.fc  # = T2 * fc2, as CaConfig guarantees
    pre = 3.0 * c0 * c0 * sigma * sigma / (8.0 * np.pi**2 * h * h)

    scheme = cfg.scheme
    if scheme is Scheme.CA1:
        k = cfg.low.pilot.interval
        q = cfg.high.pilot.interval
        na, mb = n // k, m // q
        a = m * na * (na - 1) * (2 * na - 1) + mb * n * (n - 1) * (2 * n - 1)
        b = na * (na - 1) * m * (m - 1) + n * (n - 1) * mb * (mb - 1) * q
        c = na * m * (m - 1) * (2 * m - 1) + n * q * q * mb * (mb - 1) * (2 * mb - 1)
        crlb_r = pre / df2**2 / (a - 9 * b * b / (4 * c))
        crlb_v = pre / g**2 / (c - 9 * b * b / (4 * a))
    elif scheme is Scheme.CA2:
        q = cfg.low.pilot.interval
        k = cfg.high.pilot.interval
        na, mb = n // k, m // q
        d_sum = (
            df2**2 * k * k * m * na * (na - 1) * (2 * na - 1)
            + df1**2 * mb * n * (n - 1) * (2 * n - 1)
        )
        e_sum = df2 * k * na * (na - 1) * m * (m - 1) + df1 * n * (n - 1) * mb * (mb - 1) * q
        c = na * m * (m - 1) * (2 * m - 1) + n * q * q * mb * (mb - 1) * (2 * mb - 1)
        crlb_r = pre / (d_sum - 9 * e_sum * e_sum / (4 * c))
        crlb_v = pre / g**2 / (c - 9 * e_sum * e_sum / (4 * d_sum))
    elif scheme is Scheme.CA3:
        q = cfg.low.pilot.interval
        if cfg.high.pilot.interval != q:
            raise UnsupportedScheme("full-block closed form needs equal Q across bands")
        mb = m // q
        sum_sq = df1**2 + df2**2
        sum_lin_sq = (df1 + df2) ** 2
        crlb_r = pre / (
            n
            * (n - 1)
            * mb
            * (sum_sq * (2 * n - 1) - 9 * sum_lin_sq * (n - 1) * (mb - 1) / (8 * (2 * mb - 1)))
        )
        crlb_v = pre / g**2 / (
            n
            * mb
            * (mb - 1)
            * (2 * (2 * mb - 1) - 9 * sum_lin_sq * (n - 1) * (mb - 1) / (4 * sum_sq * (2 * n - 1)))
        )
    elif scheme is Scheme.CA4:
        k = cfg.low.pilot.interval
        if cfg.high.pilot.interval != k:
            raise UnsupportedScheme("full-comb closed form needs equal K across bands")
        if k != cfg.k_ratio:
            raise UnsupportedScheme(
                "full-comb closed form assumes the comb interval equals the spacing ratio"
            )
        na = n // k
        crlb_r = pre / df2**2 / (
            na
            * (na - 1)
            * m
            * ((2 * na - 1) * (k * k + 1) - 9 * (1 + k) ** 2 * (na - 1) * (m - 1) / (8 * (2 * m - 1)))
        )
        crlb_v = pre / g**2 / (
            na
            * (m - 1)
            * m
            * (2 * (2 * m - 1) - 9 * (1 + k) ** 2 * (na - 1) * (m - 1) / (4 * (1 + k * k) * (2 * na - 1)))
        )
    else:  # pragma: no cover
        raise UnsupportedScheme(f"unknown scheme {scheme!r}")

    if crlb_r <= 0 or crlb_v <= 0:
        raise SingularFisher("closed-form denominator is not positive")
    return CrlbReport(
        crlb_tau=4.0 * crlb_r / (c0 * c0),
        crlb_theta=4.0 * crlb_v / (c0 * c0),
        crlb_range=crlb_r,
        crlb_velocity=crlb_v,
    )


def sigma_from_snr(snr_db: float, h: float = 1.0) -> float:
    """Per-component noise std matching a per-sample SNR of h^2 / E|w|^2."""
    return sigma_for_snr(snr_db, h) / np.sqrt(2.0)


def crlb_report_for_snr(
    cfg: CaConfig, snr_db: float, h: float = 1.0, method: str = "closed-form"
) -> CrlbReport:
    """The bound of method "closed-form" or "oracle" at one SNR; InvalidConfig for any other."""
    if method not in ("closed-form", "oracle"):
        raise InvalidConfig(f"method {method!r} must be 'closed-form' or 'oracle'")
    inputs = CrlbInputs(cfg=cfg, h=h, sigma=sigma_from_snr(snr_db, h))
    return crlb_closed_form(inputs) if method == "closed-form" else crlb_oracle(inputs)


@dataclass(frozen=True)
class CrlbSweepRow:
    snr_db: float
    delta_f: float  # high-band subcarrier spacing (Hz)
    report: CrlbReport


def crlb_sweep(
    cfg: CaConfig,
    snr_db_grid,
    delta_f_high_grid=None,
    method: str = "closed-form",
) -> list[CrlbSweepRow]:
    """Unit-gain bounds over an SNR grid and optionally a spacing grid.

    Rescaling the spacings shortens or lengthens the symbols, so the range
    bound falls and the velocity bound rises with delta_f at fixed SNR; both
    fall with SNR at fixed delta_f.
    """
    check_kind("cfg", cfg, CaConfig, InvalidConfig)
    snr_db_grid = list(snr_db_grid)
    if not snr_db_grid:
        raise InvalidConfig("snr grid must be nonempty")
    for snr_db in snr_db_grid:
        check_kind("snr grid entry", snr_db, numbers.Real, InvalidConfig)
    spacings = [cfg.high.delta_f] if delta_f_high_grid is None else list(delta_f_high_grid)
    if not spacings:
        raise InvalidConfig("delta_f grid must be nonempty")
    rows = []
    for df2 in spacings:
        check_real("delta_f", df2, InvalidConfig, "positive")
        scaled = cfg if df2 == cfg.high.delta_f else with_high_band_spacing(cfg, df2)
        for snr_db in snr_db_grid:
            report = crlb_report_for_snr(scaled, snr_db, method=method)
            rows.append(CrlbSweepRow(float(snr_db), float(df2), report))
    return rows
