import math

import numpy as np
import pytest

import casense.harness
from casense.channel import Target
from casense.config import Scheme, make_table3_config, with_scheme
from casense.estimators import SolverOptions
from casense.harness import (
    ExperimentSpec,
    compare_pilots,
    run_high_band_baseline,
    run_sweep,
    snapshot_spectra,
    write_spectrum_csv,
    write_sweep_csv,
)

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
    row = run_sweep(spec).rows[0]
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
    row = run_sweep(spec).rows[0]
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
    res1 = run_sweep(spec)
    res2 = run_sweep(spec)
    assert len(res1.rows) == 2 * 2
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(res1, p1)
    write_sweep_csv(res2, p2)
    assert p1.read_bytes() == p2.read_bytes()


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
    r1 = run_sweep(ExperimentSpec(master_seed=1, **base)).rows[0]
    r2 = run_sweep(ExperimentSpec(master_seed=2, **base)).rows[0]
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
    row = run_sweep(spec).rows[0]
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
    rows = run_sweep(spec).rows
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
    r_rows, v_rows = snapshot_spectra(table3, Target(117.0, 30.0), 10.0, seed=4, solver=FAST)
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
    r_rows, v_rows = snapshot_spectra(table3, Target(0.0, 0.0), math.inf, seed=0, solver=FAST)
    assert r_rows[0][3] == 1  # peak at bin 0
    assert v_rows[0][3] == 1


def test_snapshot_requires_staggered(table3):
    cfg3 = with_scheme(table3, Scheme.CA3)
    with pytest.raises(ValueError):
        snapshot_spectra(cfg3, Target(10.0, 1.0), 10.0)


def test_compare_pilots_covers_all_schemes(table3):
    res = compare_pilots(
        table3, Target(117.0, 30.0), snr_grid=(10.0,), trials=1, master_seed=0, solver=FAST
    )
    assert sorted({r.scheme for r in res.rows}) == ["CA1", "CA2", "CA3", "CA4"]
    for row in res.rows:
        assert abs(row.rmse_range - 0.1875) < 1e-6


def test_high_band_baseline_rows(table3):
    rows = run_high_band_baseline(
        table3, Target(117.0, 30.0), snr_grid=(10.0,), trials=2, master_seed=0, solver=FAST
    )
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
    rows = run_high_band_baseline(
        table3, Target(117.0, 30.0), snr_grid=(-32.0, -28.0), trials=3, master_seed=5, solver=FAST
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
    with pytest.raises(ValueError):
        ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(), trials=1)
    with pytest.raises(ValueError):
        ExperimentSpec(table3, (Scheme.CA1,), Target(1.0, 1.0), snr_grid=(0.0,), trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(table3, (), Target(1.0, 1.0), snr_grid=(0.0,), trials=1)
