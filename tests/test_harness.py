import math
import os
import signal
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casense.cli
import casense.grids
import casense.harness
from casense import recovery
from casense.channel import Target, sigma_for_snr
from casense.config import Scheme, make_table3_config, with_scheme
from casense.errors import InvalidConfig, InvalidNoiseLevel, InvalidTarget, VelocityAmbiguityWarning
from casense.estimators import AveragedEstimate, SolverOptions
from casense.harness import (
    ExperimentSpec,
    SweepRow,
    run_high_band_baseline,
    run_sweep,
    snapshot_spectra,
    spectrum_rows,
    write_spectrum_csv,
    write_sweep_csv,
)
from conftest import split_into

FAST = SolverOptions(max_iters=40, tol=1e-4)


@pytest.fixture(scope="module")
def table3():
    return make_table3_config()


def test_noiseless_on_grid_rmse_is_zero(table3):
    target = Target(48 * table3.range_bin_width, 3 * table3.velocity_bin_width)
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=target,
        snr_grid=(math.inf,),
        trials=2,
        master_seed=5,
        solver=FAST,
    )
    row = run_sweep(spec)[0]
    assert row.rmse_range == 0.0
    assert row.rmse_velocity == pytest.approx(0.0, abs=1e-9)


def test_quantization_residual_at_high_snr(table3):
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=(10.0,),
        trials=10,
        master_seed=1,
        solver=FAST,
    )
    row = run_sweep(spec)[0]
    assert row.rmse_range == pytest.approx(0.1875, abs=1e-12)
    assert row.rmse_range <= 0.25
    assert row.rmse_velocity == pytest.approx(0.3176, abs=1e-3)


def test_sweep_rows_shape_and_determinism(tmp_path, table3):
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1, Scheme.CA3),
        target=Target(117.0, 30.0),
        snr_grid=(0.0, 10.0),
        trials=2,
        master_seed=9,
        solver=FAST,
    )
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    assert len(rows1) == 2 * 2
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows1, p1)
    write_sweep_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # one column per SweepRow field, in field order
    header, *lines = p1.read_text().splitlines()
    assert len(header.split(",")) == len(fields(SweepRow))
    assert header == "scheme,snr_db,rmse_range_m,rmse_velocity_mps,rcrlb_range_m,rcrlb_velocity_mps,trials"
    assert [line.split(",")[0] for line in lines] == [row.scheme for row in rows1]
    assert all(len(line.split(",")) == len(fields(SweepRow)) for line in lines)



@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.sampled_from([-20.0, -14.0, 10.0]))
def test_equal_seeds_give_equal_rows_across_calls(seed, snr_db):
    # in one process: before a helper exists, while it runs, and after it was killed
    spec = ExperimentSpec(
        cfg=make_table3_config(),
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=(snr_db,),
        trials=2,
        master_seed=seed,
        solver=FAST,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_split", split_into(3))
        recovery._stop_helpers()
        rows = [run_sweep(spec)]
        assert len(recovery._helpers) == 2
        rows.append(run_sweep(spec))
        os.kill(recovery._helpers[1].pid, signal.SIGKILL)
        rows.append(run_sweep(spec))
    assert rows[1] == rows[0] and rows[2] == rows[0]

def test_sweep_seed_changes_noise(table3):
    # deep in the breakdown region the noise realizations drive the errors
    base = dict(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(117.3, 31.0),
        snr_grid=(-30.0,),
        trials=4,
        solver=FAST,
    )
    r1 = run_sweep(ExperimentSpec(master_seed=1, **base))[0]
    r2 = run_sweep(ExperimentSpec(master_seed=2, **base))[0]
    assert (r1.rmse_range, r1.rmse_velocity) != (r2.rmse_range, r2.rmse_velocity)


def test_random_targets_stay_in_scope(table3):
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=(10.0,),
        trials=5,
        master_seed=3,
        solver=FAST,
        random_targets=True,
    )
    row = run_sweep(spec)[0]
    # off-grid placement: residuals bounded by half a bin each
    assert 0 < row.rmse_range <= table3.range_bin_width
    assert 0 < row.rmse_velocity <= table3.velocity_bin_width


def test_rcrlb_columns_positive_and_scale(table3):
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=(0.0, 10.0),
        trials=1,
        master_seed=0,
        solver=FAST,
    )
    rows = run_sweep(spec)
    by_snr = {r.snr_db: r for r in rows}
    assert by_snr[10.0].rcrlb_range == pytest.approx(
        by_snr[0.0].rcrlb_range / np.sqrt(10), rel=1e-9
    )


def test_failed_trial_aborts(table3):
    r_max = table3.c0 / (2 * table3.high.delta_f)
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(r_max * 0.99 + 20.0, 0.0),  # beyond the unambiguous span
        snr_grid=(10.0,),
        trials=2,
        master_seed=0,
        solver=FAST,
    )
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_snapshot_spectra_flags_reference_peaks(tmp_path, table3):
    r_est, v_est = snapshot_spectra(table3, Target(117.0, 30.0), 10.0, seed=4, solver=FAST)
    r_rows, v_rows = spectrum_rows(r_est), spectrum_rows(v_est)
    r_peak = [row for row in r_rows if row[3] == 1]
    v_peak = [row for row in v_rows if row[3] == 1]
    assert len(r_peak) == 1 and len(v_peak) == 1
    assert r_peak[0][1] == pytest.approx(117.1875, abs=1e-9)
    assert r_peak[0][2] == pytest.approx(1.0)
    assert v_peak[0][1] == pytest.approx(30.3176, abs=1e-3)
    path = tmp_path / "range.csv"
    write_spectrum_csv(r_rows, path, "range_m")
    header = path.read_text().splitlines()[0]
    assert header == "bin,range_m,power,is_peak"


def test_snapshot_zero_target(table3):
    r_est, v_est = snapshot_spectra(table3, Target(0.0, 0.0), math.inf, seed=0, solver=FAST)
    assert spectrum_rows(r_est)[0][3] == 1  # peak at bin 0
    assert spectrum_rows(v_est)[0][3] == 1


def _band_estimates(est):
    return est.per_band if isinstance(est, AveragedEstimate) else (est,)


@settings(max_examples=20)
@given(
    scheme=st.sampled_from(list(Scheme)),
    gain=st.sampled_from([1.0, -0.75, 3.0]),
    k=st.integers(-10, 10),
    snr_db=st.sampled_from([-24.0, -14.0, 10.0]),
    seed=st.integers(0, 3),
)
def test_power_of_two_gain_scaling_leaves_snapshot_spectra_bit_identical(
    table3, scheme, gain, k, snr_db, seed
):
    # the noise level follows |gain| at a fixed SNR, and a power-of-two factor
    # is carried exactly through simulation, lam, the solve and normalization
    cfg = with_scheme(table3, scheme)
    shots = [
        snapshot_spectra(cfg, Target(117.0, 30.0, g), snr_db, seed=seed, solver=FAST)
        for g in (gain, gain * 2.0**k)
    ]
    for base, scaled in zip(*shots):
        for a, b in zip(_band_estimates(base), _band_estimates(scaled), strict=True):
            assert a.peak_bin == b.peak_bin
            assert a.spectrum.values.tobytes() == b.spectrum.values.tobytes()


def test_compare_pilots_covers_all_schemes(table3):
    spec = ExperimentSpec(
        cfg=table3, schemes=tuple(Scheme), target=Target(117.0, 30.0), snr_grid=(10.0,),
        trials=1, master_seed=0, solver=FAST,
    )
    rows = run_sweep(spec)
    assert sorted({r.scheme for r in rows}) == ["CA1", "CA2", "CA3", "CA4"]
    for row in rows:
        assert abs(row.rmse_range - 0.1875) < 1e-6


def _baseline_spec(cfg, **overrides) -> ExperimentSpec:
    base = dict(cfg=cfg, schemes=(Scheme.CA1,), target=Target(117.0, 30.0), solver=FAST)
    return ExperimentSpec(**{**base, **overrides})


def test_high_band_baseline_rows(table3):
    rows = run_high_band_baseline(_baseline_spec(table3, snr_grid=(10.0,), trials=2))
    assert len(rows) == 1
    assert rows[0]["rmse_range_high_block"] == pytest.approx(0.1875, abs=1e-9)
    assert rows[0]["rmse_velocity_high_comb"] == pytest.approx(0.3176, abs=1e-3)


def test_high_band_baseline_rows_pinned_and_simulates_only_the_high_bands(table3, monkeypatch):
    calls = []
    simulate = casense.harness.simulate_channel_info

    def counted(*args, **kwargs):
        calls.append(args[0].band)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(casense.harness, "simulate_channel_info", counted)
    monkeypatch.setattr(recovery, "_cpu_count", lambda: 1)  # a helper's calls are not counted here
    rows = run_high_band_baseline(
        _baseline_spec(table3, snr_grid=(-32.0, -28.0), trials=3, master_seed=5)
    )
    # recorded when each trial still simulated both bands of two full trials
    assert rows == [
        {
            "snr_db": -32.0,
            "rmse_range_high_block": 730.3270695480264,
            "rmse_velocity_high_comb": 165.65999178801192,
            "trials": 3,
        },
        {
            "snr_db": -28.0,
            "rmse_range_high_block": 300.3417085445834,
            "rmse_velocity_high_comb": 278.9517463493556,
            "trials": 3,
        },
    ]
    assert len(calls) == 2 * 3 * 2  # one block and one comb high band per trial
    assert all(band.fc == table3.high.fc for band in calls)


def test_experiment_spec_validation(table3):
    # rejected when built, with a CasenseError that is also a ValueError
    with pytest.raises(InvalidConfig):
        ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(), trials=1)
    for trials in (0, 1.5, True):
        with pytest.raises(InvalidConfig, match=f"trials {trials!r} must be an integer >= 1"):
            ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(0.0,), trials=trials)
    for seed in (-1, 1.5, True, None):  # numpy's SeedSequence takes integers >= 0 only
        with pytest.raises(InvalidConfig, match=f"master_seed {seed!r} must be an integer >= 0"):
            ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(0.0,), master_seed=seed)
    with pytest.raises(InvalidConfig):
        ExperimentSpec(table3, (), Target(1.0, 1.0), snr_grid=(0.0,), trials=1)
    with pytest.raises(InvalidConfig, match="schemes entry 'CA1' must be Scheme, not str"):
        ExperimentSpec(table3, ("CA1",), Target(1.0, 1.0), snr_grid=(0.0,), trials=1)
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(InvalidNoiseLevel):
            ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(0.0, snr_db), trials=1)
    for snr_db in ("x", None, 1j, True):
        with pytest.raises(InvalidConfig, match="must hold only real numbers"):
            ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(0.0, snr_db), trials=1)
    # +inf is the noiseless limit
    ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(math.inf,), trials=1)
    assert issubclass(InvalidConfig, ValueError) and issubclass(InvalidNoiseLevel, ValueError)


def test_high_band_baseline_rejects_trials_below_one(table3):
    with pytest.raises(InvalidConfig, match="trials 0 must be an integer >= 1"):
        run_high_band_baseline(_baseline_spec(table3, snr_grid=(10.0,), trials=0))


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(snr_grid=()), "snr grid must be nonempty"),
        (dict(snr_grid=(10.0, "x")), "must hold only real numbers"),
        (dict(snr_grid=(10.0,), random_targets=True), "needs a fixed target"),
    ],
    ids=["empty-grid", "snr-x", "random-targets"],
)
def test_high_band_baseline_rejects_a_bad_spec_before_simulating(table3, monkeypatch, overrides, match):
    calls = []
    monkeypatch.setattr(casense.harness, "simulate_channel_info", lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidConfig, match=match):
        run_high_band_baseline(_baseline_spec(table3, trials=1, **overrides))
    assert calls == []


# ---------------------------------------------------------------------------
# trials on the helper pool: results do not depend on where trials ran
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


@pytest.mark.parametrize("random_targets", [False, True], ids=["fixed", "random"])
@pytest.mark.parametrize("scheme", [Scheme.CA1, Scheme.CA3], ids=["CA1", "CA3"])
def test_sweep_bytes_do_not_depend_on_the_cpu_count(tmp_path, table3, monkeypatch, scheme, random_targets):
    # 5 trials: with 2 CPUs two parts of 2 and one trial left, with 3 CPUs three of 1 and 2 left
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(scheme,),
        target=Target(117.3, 31.0),  # off the bins: errors are not short binary fractions
        snr_grid=(-28.0, 10.0),  # -28 dB: past the threshold, where trial errors differ
        trials=5,
        master_seed=6,
        solver=FAST,
        random_targets=random_targets,
    )
    rows, csvs = [], []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(recovery, "_cpu_count", lambda: cpus)
        rows.append(run_sweep(spec))
        write_sweep_csv(rows[-1], tmp_path / f"{cpus}.csv")
        csvs.append((tmp_path / f"{cpus}.csv").read_bytes())
    assert rows[1] == rows[0] and rows[2] == rows[0]
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def test_baseline_rows_do_not_depend_on_the_cpu_count(table3, monkeypatch):
    # 5 trials: with 2 CPUs two parts of 2 and one trial left, with 3 CPUs three of 1 and 2 left
    spec = _baseline_spec(
        table3, target=Target(117.3, 31.0), snr_grid=(-28.0, 10.0), trials=5, master_seed=6
    )
    rows = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(recovery, "_cpu_count", lambda: cpus)
        rows.append(run_high_band_baseline(spec))
    assert rows[1] == rows[0] and rows[2] == rows[0]
    assert rows[0][0]["rmse_range_high_block"] > rows[0][1]["rmse_range_high_block"]  # -28 dB misses


class CountedHelper(recovery._Helper):
    pids = []

    def __init__(self):
        super().__init__()  # returns only in the process that forked the helper
        CountedHelper.pids.append(self.pid)


@needs_fork
def test_a_hundred_trials_on_three_cpus_start_two_helpers(table3, monkeypatch):
    # trials and the caller's column blocks share the pool, and helpers start no helpers
    monkeypatch.setattr(recovery, "_cpu_count", lambda: 3)
    monkeypatch.setattr(recovery, "_Helper", CountedHelper)
    monkeypatch.setattr(CountedHelper, "pids", [])
    recovery._stop_helpers()
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=(10.0,),
        trials=100,
        solver=SolverOptions(max_iters=5, tol=1e-4),
    )
    try:
        run_sweep(spec)
        assert len(CountedHelper.pids) == 2
        assert [helper.pid for helper in recovery._helpers] == CountedHelper.pids
    finally:
        recovery._stop_helpers()


TRIAL_ERRORS = casense.harness._trial_errors
RANGES_RUN_HERE = []  # the trial ranges the calling process ran; a helper appends to its copy


def records_trial_ranges(spec, cfg, scheme_idx, snr_idx, noise_sigma, lo, hi):
    # module level: a helper receives its call as a pickled reference by module and name
    RANGES_RUN_HERE.append((lo, hi))
    return TRIAL_ERRORS(spec, cfg, scheme_idx, snr_idx, noise_sigma, lo, hi)


@needs_fork
@pytest.mark.parametrize(
    "trials, cpus, here",
    [(1, 2, [(0, 1)]), (2, 3, [(0, 2)]), (3, 2, [(0, 1), (2, 3)]), (5, 3, [(0, 1), (3, 5)])],
)
def test_trials_run_in_whole_rounds_and_the_rest_here_on_every_cpu(
    table3, monkeypatch, trials, cpus, here
):
    # a round gives each CPU T // W trials, part 0 here; the T mod W left run here
    # after it with the pool free, so their range solves send column blocks to
    # cpus - 1 helpers, as a lone estimate's do
    monkeypatch.setattr(recovery, "_Helper", CountedHelper)
    monkeypatch.setattr(CountedHelper, "pids", [])
    monkeypatch.setattr(casense.harness, "_trial_errors", records_trial_ranges)
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA1,),
        target=Target(117.3, 31.0),
        snr_grid=(10.0,),
        trials=trials,
        solver=SolverOptions(max_iters=5, tol=1e-4),
    )
    monkeypatch.setattr(recovery, "_cpu_count", lambda: 1)
    serial = run_sweep(spec)
    monkeypatch.setattr(recovery, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(sys.modules[__name__], "RANGES_RUN_HERE", [])
    recovery._stop_helpers()
    try:
        assert run_sweep(spec) == serial
        assert [(lo, hi) for lo, hi in RANGES_RUN_HERE if hi > lo] == here
        assert len(CountedHelper.pids) == cpus - 1
    finally:
        recovery._stop_helpers()


SIMULATE_TRIAL_MATRICES = casense.harness.simulate_trial_matrices


def fails_on_trial_1(cfg, target, noise_sigma, seed_parts):
    if seed_parts[3] == 1:
        raise InvalidTarget(f"trial {seed_parts[3]} fails")
    return SIMULATE_TRIAL_MATRICES(cfg, target, noise_sigma, seed_parts)


@needs_fork
def test_trial_that_raises_in_a_helper_raises_as_in_one_process(table3, monkeypatch):
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA3,),
        target=Target(117.0, 30.0),
        snr_grid=(10.0,),
        trials=2,
        solver=FAST,
    )
    monkeypatch.setattr(recovery, "_Helper", CountedHelper)
    monkeypatch.setattr(CountedHelper, "pids", [])
    errors = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(casense.harness, "simulate_trial_matrices", fails_on_trial_1)
        for cpus in (1, 2):  # trial 1 runs here, then in a helper (part 1)
            mp.setattr(recovery, "_cpu_count", lambda: cpus)
            recovery._stop_helpers()  # a helper forked from here on fails trial 1 too
            with pytest.raises(InvalidTarget) as info:
                run_sweep(spec)
            errors.append(info.value)
    assert [(type(e), str(e)) for e in errors] == [(InvalidTarget, "trial 1 fails")] * 2
    [dead] = CountedHelper.pids
    assert recovery._helpers == []
    with pytest.raises(ChildProcessError):  # waited for: no zombie left
        os.waitpid(dead, os.WNOHANG)
    # the next sweep starts a live helper and gets the rows of one process
    monkeypatch.setattr(recovery, "_cpu_count", lambda: 2)
    rows = run_sweep(spec)
    [live] = recovery._helpers
    os.kill(live.pid, 0)
    assert live.pid != dead
    monkeypatch.setattr(recovery, "_cpu_count", lambda: 1)
    assert run_sweep(spec) == rows


def test_ambiguous_velocity_warns_in_the_caller(table3, monkeypatch):
    # part 0 of the trials runs in the calling process, so its warnings reach the caller
    monkeypatch.setattr(recovery, "_cpu_count", lambda: 2)
    spec = ExperimentSpec(
        cfg=table3,
        schemes=(Scheme.CA3,),
        target=Target(117.0, 400.0),  # past the high band's unambiguous |v| of about 323 m/s
        snr_grid=(10.0,),
        trials=4,
        solver=FAST,
    )
    with pytest.warns(VelocityAmbiguityWarning):
        run_sweep(spec)


def test_trial_path_reads_only_pilot_blocks(table3, monkeypatch, tmp_path):
    # every trial and its range solves run in this process, where the patch holds
    monkeypatch.setattr(recovery, "_split", split_into(1))

    def refuse(band, pilots):
        raise AssertionError("an N x M grid was built on the trial path")

    monkeypatch.setattr(casense.grids, "full_grid", refuse)
    monkeypatch.setattr(casense.cli, "full_grid", refuse)
    with pytest.raises(AssertionError):  # the patch is live: the grid dump builds N x M grids
        casense.cli.main(["simulate", "--out", str(tmp_path / "grid"), "--snr", "10"])
    for scheme in Scheme:
        spec = ExperimentSpec(cfg=with_scheme(table3, scheme), schemes=(scheme,),
                              target=Target(117.0, 30.0), snr_grid=(10.0,), trials=1, solver=FAST)
        assert len(run_sweep(spec)) == 1
    out = tmp_path / "shot"
    assert casense.cli.main(["estimate", "--out", str(out), "--snr", "10", "--max-iters", "40"]) == 0
    assert (tmp_path / "shot_range.csv").exists()


def test_ca3_trial_traced_peak_stays_under_a_pilot_block_budget(table3):
    # a Table-3 CA3 trial: two block bands of (512, 16) pilots, 128 KiB each; with N x M grids
    # (512 KiB each, several per band) the peak was 2.27 MiB
    cfg = with_scheme(table3, Scheme.CA3)
    spec = ExperimentSpec(cfg=cfg, schemes=(Scheme.CA3,), target=Target(117.0, 30.0),
                          snr_grid=(10.0,), trials=1)
    trial = (spec, cfg, 0, 0, sigma_for_snr(10.0), 0, 1)
    casense.harness._trial_errors(*trial)  # FFT plans and first-call caches outside the trace
    tracemalloc.start()
    try:
        casense.harness._trial_errors(*trial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20
