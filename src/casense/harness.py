"""Monte-Carlo experiment driver: RMSE sweeps, baselines, spectrum snapshots.

A sweep over several schemes, such as all four pilot structures on one SNR
grid, is one ``run_sweep`` of an ``ExperimentSpec`` listing them. Trial
seeds are derived from the master seed by counters (scheme, SNR point,
trial, stream) and a point's squared errors are added in trial order, so
sweep and baseline rows are the same on whichever CPUs ran the trials. A failed
trial aborts the run; silently skipping trials would bias the RMSE.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass

import numpy as np

from . import recovery
from .channel import ChannelInfoMatrix, Target, TargetScene, sigma_for_snr, simulate_channel_info
from .config import CaConfig, Scheme, with_scheme
from .crlb import crlb_report_for_snr
from .errors import InvalidConfig, check_integer, check_kind, check_seed
from .estimators import (
    AveragedEstimate,
    Estimate,
    SolverOptions,
    band_spectrum,
    estimate_any_scheme,
    peak_estimate,
)
from .grids import generate_tx_grid, write_csv


@dataclass(frozen=True)
class ExperimentSpec:
    """One RMSE-vs-SNR experiment over one or more schemes."""

    cfg: CaConfig
    schemes: tuple[Scheme, ...]
    target: Target
    snr_grid: tuple[float, ...]
    trials: int = 100
    master_seed: int = 0
    solver: SolverOptions = SolverOptions()
    random_targets: bool = False  # uniform off-grid placement per trial

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        snr_grid = tuple(self.snr_grid)
        if not all(isinstance(s, numbers.Real) and not isinstance(s, bool) for s in snr_grid):
            raise InvalidConfig(f"snr grid {snr_grid!r} must hold only real numbers")
        object.__setattr__(self, "snr_grid", tuple(float(s) for s in snr_grid))
        check_integer("trials", self.trials, 1, InvalidConfig)
        check_integer("master_seed", self.master_seed, 0, InvalidConfig)
        if not self.snr_grid:
            raise InvalidConfig("snr grid must be nonempty")
        if not self.schemes:
            raise InvalidConfig("need at least one scheme")
        for name, kind in (("cfg", CaConfig), ("target", Target), ("solver", SolverOptions),
                           ("random_targets", bool)):
            check_kind(name, getattr(self, name), kind, InvalidConfig)
        for scheme in self.schemes:
            check_kind("schemes entry", scheme, Scheme, InvalidConfig)
        for snr_db in self.snr_grid:
            sigma_for_snr(snr_db, self.target.gain)  # NaN and -inf have no finite noise level


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    snr_db: float
    rmse_range: float
    rmse_velocity: float
    rcrlb_range: float
    rcrlb_velocity: float
    trials: int


# scheme-index slots of run_high_band_baseline's streams, clear of a sweep's 0, 1, ...
_HIGH_BLOCK_SLOT = 100
_HIGH_COMB_SLOT = 101


def _trial_seed(master_seed: int, scheme_idx: int, snr_idx: int, trial: int, stream: int):
    return np.random.SeedSequence([master_seed, scheme_idx, snr_idx, trial, stream])


def _draw_target(spec: ExperimentSpec, scheme_idx: int, snr_idx: int, trial: int) -> Target:
    """spec's target, or with random_targets one drawn on the trial's stream 0."""
    if not spec.random_targets:
        return spec.target
    rng = np.random.default_rng(_trial_seed(spec.master_seed, scheme_idx, snr_idx, trial, 0))
    cfg = spec.cfg
    r_max = cfg.c0 / (2.0 * cfg.high.delta_f)
    v_max = cfg.c0 / (4.0 * cfg.high.fc * cfg.high.symbol_duration)
    return Target(
        range_m=rng.uniform(0.05, 0.45) * r_max,
        velocity_mps=rng.uniform(0.05, 0.45) * v_max,
        gain=spec.target.gain,
    )


def _simulate_band(
    cfg: CaConfig, band_idx: int, target: Target, noise_sigma: float, seed_parts
) -> ChannelInfoMatrix:
    """Channel matrix of the low (band_idx 0) or high (1) band, on that band's streams."""
    tx = generate_tx_grid((cfg.low, cfg.high)[band_idx], _trial_seed(*seed_parts, 10 + band_idx))
    scene = TargetScene(
        targets=(target,), noise_sigma=noise_sigma, seed=_trial_seed(*seed_parts, 20 + band_idx)
    )
    return simulate_channel_info(tx, scene, c0=cfg.c0)


def simulate_trial_matrices(
    cfg: CaConfig,
    target: Target,
    noise_sigma: float,
    seed_parts: tuple[int, int, int, int],
) -> tuple[ChannelInfoMatrix, ChannelInfoMatrix]:
    """Both bands' channel matrices for one trial, with independent streams; InvalidConfig
    for a cfg, target or seed_parts (a tuple of integers >= 0) of another kind."""
    check_kind("cfg", cfg, CaConfig, InvalidConfig)
    check_kind("target", target, Target, InvalidConfig)
    check_kind("seed_parts", seed_parts, tuple, InvalidConfig)
    check_seed("seed_parts", seed_parts, InvalidConfig)
    return tuple(_simulate_band(cfg, i, target, noise_sigma, seed_parts) for i in (0, 1))


def _points(spec: ExperimentSpec, trial_errors, *context):
    """(snr_db, noise_sigma, rmse_range, rmse_velocity) of each SNR point of spec, in order.

    trial_errors(spec, *context, snr_idx, noise_sigma, lo, hi) returns the
    squared (range, velocity) errors of the point's trials lo..hi-1, in order.
    A point's trials are split by recovery._split into whole rounds: with W
    CPUs, W contiguous parts of T // W trials are one recovery._map (part 0
    in this thread, each other part on the helper pool), then the T mod W
    trials left run here, with the pool free, so their solves use the
    helpers. With T < W all trials run that way.
    """
    *parts, rest = recovery._split(spec.trials, 1, whole=True)
    for snr_idx, snr_db in enumerate(spec.snr_grid):
        noise_sigma = sigma_for_snr(snr_db, spec.target.gain)
        args = (spec, *context, snr_idx, noise_sigma)
        calls = [(trial_errors, (*args, lo, hi)) for lo, hi in parts]
        errors = [e for part in recovery._map(calls) for e in part]
        errors += trial_errors(*args, *rest)
        # accumulate adds in trial order, one by one, as a serial loop would
        rmse_r, rmse_v = np.sqrt(np.add.accumulate(errors, axis=0)[-1] / spec.trials).tolist()
        yield snr_db, noise_sigma, rmse_r, rmse_v


def _trial_errors(spec: ExperimentSpec, cfg: CaConfig, scheme_idx, snr_idx, noise_sigma, lo, hi):
    """Squared (range, velocity) errors of trials lo..hi-1 of one (scheme, SNR) point, in order."""
    errors = []
    for trial in range(lo, hi):
        target = _draw_target(spec, scheme_idx, snr_idx, trial)
        d_low, d_high = simulate_trial_matrices(
            cfg, target, noise_sigma, (spec.master_seed, scheme_idx, snr_idx, trial)
        )
        r, v = estimate_any_scheme(d_low, d_high, cfg, spec.solver)
        errors.append(((r.value - target.range_m) ** 2, (v.value - target.velocity_mps) ** 2))
    return errors


def run_sweep(spec: ExperimentSpec) -> tuple[SweepRow, ...]:
    """RMSE over (scheme, SNR), one row per pair, with oracle RCRLBs alongside."""
    check_kind("spec", spec, ExperimentSpec, InvalidConfig)
    rows = []
    for scheme_idx, scheme in enumerate(spec.schemes):
        cfg = spec.cfg if spec.cfg.scheme is scheme else with_scheme(spec.cfg, scheme)
        for snr_db, noise_sigma, rmse_r, rmse_v in _points(spec, _trial_errors, cfg, scheme_idx):
            if noise_sigma > 0:
                rep = crlb_report_for_snr(cfg, snr_db, abs(spec.target.gain), "oracle")
                rcrlb_r, rcrlb_v = rep.rcrlb_range, rep.rcrlb_velocity
            else:
                rcrlb_r = rcrlb_v = 0.0  # noiseless limit
            rows.append(
                SweepRow(
                    scheme=scheme.value,
                    snr_db=snr_db,
                    rmse_range=rmse_r,
                    rmse_velocity=rmse_v,
                    rcrlb_range=rcrlb_r,
                    rcrlb_velocity=rcrlb_v,
                    trials=spec.trials,
                )
            )
    return tuple(rows)


def _baseline_errors(spec: ExperimentSpec, streams, snr_idx, noise_sigma, lo, hi):
    """Squared (range, velocity) errors of trials lo..hi-1 of one baseline point, in order;
    streams holds (cfg, slot, kind, truth) for range, then velocity: each is estimated
    from cfg's high band alone, simulated on scheme slot `slot`'s streams."""
    errors = []
    for trial in range(lo, hi):
        errors.append([])
        for cfg, slot, kind, truth in streams:
            seed_parts = (spec.master_seed, slot, snr_idx, trial)
            d = _simulate_band(cfg, 1, spec.target, noise_sigma, seed_parts)
            estimate = peak_estimate(band_spectrum(d, kind, cfg.c0, spec.solver), kind)
            errors[-1].append((estimate.value - truth) ** 2)
    return errors


def run_high_band_baseline(spec: ExperimentSpec) -> list[dict]:
    """Single-band references on spec's fixed target, spec.schemes unused: block
    high band for range, comb high band for velocity (each is the high-band
    half of the matching pipeline). Its points run as a sweep's do."""
    check_kind("spec", spec, ExperimentSpec, InvalidConfig)
    if spec.random_targets:
        raise InvalidConfig("the high-band baseline needs a fixed target, not random_targets")
    streams = (
        (with_scheme(spec.cfg, Scheme.CA1), _HIGH_BLOCK_SLOT, "range", spec.target.range_m),
        (with_scheme(spec.cfg, Scheme.CA4), _HIGH_COMB_SLOT, "velocity", spec.target.velocity_mps),
    )
    return [
        {
            "snr_db": snr_db,
            "rmse_range_high_block": rmse_r,
            "rmse_velocity_high_comb": rmse_v,
            "trials": spec.trials,
        }
        for snr_db, _, rmse_r, rmse_v in _points(spec, _baseline_errors, streams)
    ]


# ---------------------------------------------------------------------------
# spectrum snapshots and CSV emission
# ---------------------------------------------------------------------------

def snapshot_spectra(
    cfg: CaConfig,
    target: Target,
    snr_db: float,
    seed: int = 0,
    solver: SolverOptions = SolverOptions(),
) -> tuple[Estimate, Estimate] | tuple[AveragedEstimate, AveragedEstimate]:
    """``estimate_any_scheme``'s (range, velocity) of one trial, seeds (seed, 0, 0, 0).

    Any scheme: CA1's estimates carry the fused normalized spectra (CSV rows
    via ``spectrum_rows``), the other schemes' one spectrum per band.
    """
    check_kind("target", target, Target, InvalidConfig)  # simulate_trial_matrices checks cfg
    check_integer("seed", seed, 0, InvalidConfig)
    noise_sigma = sigma_for_snr(snr_db, target.gain)
    d_low, d_high = simulate_trial_matrices(cfg, target, noise_sigma, (seed, 0, 0, 0))
    return estimate_any_scheme(d_low, d_high, cfg, solver)


def spectrum_rows(est: Estimate) -> list[tuple]:
    """Rows (bin, physical, power, is_peak) of an estimate's normalized spectrum."""
    spec = est.spectrum
    return [
        (b, b * spec.bin_width, float(spec.values[b]), int(b == est.peak_bin))
        for b in range(len(spec.values))
    ]


def write_sweep_csv(rows, path) -> None:
    """One line per SweepRow, its fields in order; the header names carry the units."""
    write_csv(
        path,
        [
            "scheme",
            "snr_db",
            "rmse_range_m",
            "rmse_velocity_mps",
            "rcrlb_range_m",
            "rcrlb_velocity_mps",
            "trials",
        ],
        map(astuple, rows),
    )


def write_spectrum_csv(rows: list[tuple], path, physical_label: str) -> None:
    write_csv(path, ["bin", physical_label, "power", "is_peak"], rows)
