"""Command-line front end.

Subcommands: simulate, estimate, crlb, sweep, compare-pilots (a sweep over
all four schemes). Every CSV is written by grids.write_csv, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .channel import Target, sigma_for_snr
from .config import CaConfig, Scheme, load_config, make_table3_config, with_scheme
from .crlb import crlb_sweep
from .errors import CasenseError, InvalidSnrGrid
from .estimators import SolverOptions
from .grids import dump_grid_csv, full_grid, pilot_mask, write_csv
from .harness import (
    ExperimentSpec,
    run_sweep,
    simulate_trial_matrices,
    snapshot_spectra,
    spectrum_rows,
    write_spectrum_csv,
    write_sweep_csv,
)

MAX_SNR_POINTS = 1000
_SNR_HELP = f'"start:step:stop" (inclusive) or a comma list, at most {MAX_SNR_POINTS} finite points'


def _parse_snr(text: str) -> list[float]:
    """Accept "start:step:stop" (inclusive) or a comma list.

    Raises InvalidSnrGrid for a field that is not a finite number, a
    non-positive step, an empty grid, or more than MAX_SNR_POINTS points.
    """
    ranged = ":" in text
    try:
        fields = [float(t) for t in text.split(":" if ranged else ",") if t.strip()]
    except ValueError as exc:
        raise InvalidSnrGrid(f"snr {text!r}: {exc}") from None
    if not all(math.isfinite(f) for f in fields):
        raise InvalidSnrGrid(f"snr {text!r}: every value must be finite")
    if ranged:
        if len(fields) != 3:
            raise InvalidSnrGrid(f"snr {text!r}: expected start:step:stop")
        start, step, stop = fields
        if step <= 0:
            raise InvalidSnrGrid("snr step must be positive")
        count = np.floor((stop - start) / step + 1e-9) + 1
    else:
        count = len(fields)
    if count > MAX_SNR_POINTS:
        raise InvalidSnrGrid(f"snr {text!r}: more than {MAX_SNR_POINTS} points")
    if count < 1:
        raise InvalidSnrGrid(f"snr {text!r}: no points")
    return [start + i * step for i in range(int(count))] if ranged else fields


def _spacings(text: str) -> list[float]:
    """Comma list of high-band subcarrier spacings in Hz; crlb_sweep checks each."""
    return [float(t) for t in text.split(",")]


def _load_cfg(args) -> CaConfig:
    cfg = load_config(args.config) if args.config else make_table3_config()
    if args.scheme:
        scheme = Scheme(args.scheme)
        if scheme is not cfg.scheme:
            cfg = with_scheme(cfg, scheme)
    return cfg


def _solver(args) -> SolverOptions:
    return SolverOptions(
        lambda_scale=args.lambda_scale, max_iters=args.max_iters, tol=args.tol
    )


def _add_common(p: argparse.ArgumentParser, with_target=False, with_solver=False,
                with_trials=False):
    """Every subcommand's flags, then the named groups. A subcommand with a target and no
    trial count simulates one shot, so its --snr is one point; the others take a grid."""
    p.add_argument("--config", help="JSON config file (defaults to the built-in 5.9/24 GHz setup)")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], help="pilot scheme override")
    p.add_argument("--out", required=True, help="output CSV path or prefix")
    if with_target and not with_trials:
        p.add_argument("--snr", default="10", help="single SNR in dB")
    else:
        p.add_argument("--snr", default="-30:5:10", help=f"SNR grid in dB: {_SNR_HELP}")
    if with_trials:
        p.add_argument("--trials", type=int, default=100)
    if with_target:  # a simulated target, so noise is drawn
        p.add_argument("--seed", type=int, default=0, help="master RNG seed, an integer >= 0")
        p.add_argument("--range", dest="range_m", type=float, default=117.0, help="target range (m)")
        p.add_argument("--velocity", type=float, default=30.0, help="target velocity (m/s)")
        p.add_argument("--gain", type=float, default=1.0, help="target gain magnitude")
    if with_solver:
        p.add_argument("--lambda-scale", type=float, default=SolverOptions.lambda_scale)
        p.add_argument("--max-iters", type=int, default=SolverOptions.max_iters)
        p.add_argument("--tol", type=float, default=SolverOptions.tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="casense")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="emit both bands' channel matrices as CSV"),
                with_target=True)
    _add_common(sub.add_parser("estimate", help="single-shot estimate plus spectra CSVs"),
                with_target=True, with_solver=True)
    p_crlb = sub.add_parser("crlb", help="closed-form and oracle bounds over an SNR grid")
    _add_common(p_crlb)
    p_crlb.add_argument(
        "--delta-f", dest="delta_f", type=_spacings, default=None,
        help="optional comma list of high-band spacings (Hz) to sweep",
    )
    for name, text in (("sweep", "Monte-Carlo RMSE over an SNR grid"),
                       ("compare-pilots", "all four pilot structures on one grid")):
        _add_common(sub.add_parser(name, help=text),
                    with_target=True, with_solver=True, with_trials=True)

    args = parser.parse_args(argv)
    try:
        _run(args)
    except CasenseError as exc:
        parser.error(str(exc))  # exit status 2, no traceback
    return 0


def _run(args) -> None:
    cfg = _load_cfg(args)

    if args.command == "crlb":
        snr_grid = _parse_snr(args.snr)
        rows = [
            (
                cfg.scheme.value,
                r.snr_db,
                r.delta_f,
                r.report.crlb_range,
                r.report.crlb_velocity,
                r.report.rcrlb_range,
                r.report.rcrlb_velocity,
                method,
            )
            for method in ("closed-form", "oracle")
            for r in crlb_sweep(cfg, snr_grid, args.delta_f, method=method)
        ]
        write_csv(
            args.out,
            ["scheme", "snr_db", "delta_f_hz", "crlb_r", "crlb_v", "rcrlb_r", "rcrlb_v", "method"],
            rows,
        )
        print(f"wrote {args.out}")
        return

    target = Target(args.range_m, args.velocity, args.gain)
    if args.command in ("sweep", "compare-pilots"):
        spec = ExperimentSpec(
            cfg=cfg,
            schemes=(cfg.scheme,) if args.command == "sweep" else tuple(Scheme),
            target=target,
            snr_grid=tuple(_parse_snr(args.snr)),
            trials=args.trials,
            master_seed=args.seed,
            solver=_solver(args),
        )
        write_sweep_csv(run_sweep(spec), args.out)
        print(f"wrote {args.out}")
        return

    # simulate and estimate: one trial at a single SNR
    snr = _parse_snr(args.snr)
    if len(snr) > 1:
        raise InvalidSnrGrid(f"snr {args.snr!r}: expected a single point, got {len(snr)}")
    if args.command == "simulate":
        d_low, d_high = simulate_trial_matrices(
            cfg, target, sigma_for_snr(snr[0], target.gain), (args.seed, 0, 0, 0)
        )
        for kind, d in (("low", d_low), ("high", d_high)):
            dump_grid_csv(full_grid(d.band, d.pilots), pilot_mask(d.band), f"{args.out}_{kind}.csv")
        print(f"wrote {args.out}_low.csv and {args.out}_high.csv")
        return
    r_est, v_est = snapshot_spectra(cfg, target, snr[0], args.seed, _solver(args))
    if cfg.scheme is Scheme.CA1:  # only the fused scheme has one spectrum per quantity
        write_spectrum_csv(spectrum_rows(r_est), f"{args.out}_range.csv", "range_m")
        write_spectrum_csv(spectrum_rows(v_est), f"{args.out}_velocity.csv", "velocity_mps")
    print(f"scheme {cfg.scheme.value}: range {r_est.value:.6f} m, velocity {v_est.value:.6f} m/s")


if __name__ == "__main__":
    sys.exit(main())
