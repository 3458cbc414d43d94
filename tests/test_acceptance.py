"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL summary line. Monte-Carlo sections use lighter solver iteration
caps than the library defaults; estimates are peak-bin decisions and do not
change, only the runtime does.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from casense.channel import Target, sigma_for_snr
from casense.config import Scheme, make_table3_config, with_scheme
from casense.crlb import (
    CrlbInputs,
    crlb_closed_form,
    crlb_oracle,
    crlb_sweep,
)
from casense.estimators import SolverOptions, estimate_any_scheme
from casense.fusion import build_range_selection
from casense.harness import (
    ExperimentSpec,
    run_high_band_baseline,
    run_sweep,
    simulate_trial_matrices,
)
from casense.recovery import (
    FORWARD,
    INVERSE,
    LassoProblem,
    SensingOperator,
    default_lambda,
    solve_fista,
    solve_omp,
)
from conftest import build_velocity_selection, lattice_config, log_likelihood, score, signal_model

FAST = SolverOptions(max_iters=40, tol=1e-4)


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_point_estimate_reproduction():
    """Bin-exact 117.1875 m / 30.3176 m/s at 10 dB in >= 99/100 seeds, <= 2 min."""
    cfg = make_table3_config()
    target = Target(117.0, 30.0)
    sigma = sigma_for_snr(10.0, target.gain)
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        d_low, d_high = simulate_trial_matrices(cfg, target, sigma, (seed, 0, 0, 0))
        r, v = estimate_any_scheme(d_low, d_high, cfg)
        ok = (
            r.peak_bin == 48
            and v.peak_bin == 3
            and abs(r.value - 117.1875) < 1e-9
            and abs(v.value - 30.3176) < 1e-3
        )
        hits += int(ok)
    elapsed = time.perf_counter() - t0
    ok = hits >= 99 and elapsed <= 120.0
    report("criterion 1", ok, f"{hits}/100 seeds bin-exact in {elapsed:.1f}s")
    assert hits >= 99
    assert elapsed <= 120.0


def test_criterion_02_closed_form_vs_oracle_lattice():
    """Closed forms match the Fisher oracle at rel 1e-6 on the full lattice,
    modulo the one documented discrepancy (full-block velocity, factor Q^2)."""
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for n in (8, 16, 64, 512):
        for m in (8, 16, 64):
            for k in (2, 4):
                for q in (2, 4):
                    for scheme in Scheme:
                        cfg = lattice_config(n, m, k, q, scheme)
                        inputs = CrlbInputs(cfg, h=1.0, sigma=1.0)
                        closed = crlb_closed_form(inputs)
                        oracle = crlb_oracle(inputs)
                        for name, c_val, o_val in (
                            ("range", closed.crlb_range, oracle.crlb_range),
                            ("velocity", closed.crlb_velocity, oracle.crlb_velocity),
                        ):
                            checked += 1
                            rel = abs(c_val - o_val) / o_val
                            if rel > 1e-6:
                                mismatches.append(
                                    (n, m, k, q, scheme.value, name, c_val, o_val)
                                )
    elapsed = time.perf_counter() - t0
    # every mismatch must be the documented full-block velocity case, off by
    # exactly the squared block interval
    undocumented = []
    for n, m, k, q, scheme, name, c_val, o_val in mismatches:
        documented = scheme == "CA3" and name == "velocity" and abs(
            c_val / o_val - q * q
        ) < 1e-6 * q * q
        if not documented:
            undocumented.append((n, m, k, q, scheme, name, c_val, o_val))
        else:
            print(
                f"  documented discrepancy: N={n} M={m} K={k} Q={q} {scheme} {name}: "
                f"closed={c_val:.9e} oracle={o_val:.9e} (ratio Q^2={q*q})"
            )
    ok = not undocumented and elapsed <= 60.0
    report(
        "criterion 2",
        ok,
        f"{checked} comparisons, {len(mismatches)} documented discrepancies, "
        f"0 undocumented, {elapsed:.1f}s",
    )
    assert undocumented == []
    assert elapsed <= 60.0


def test_criterion_03_crlb_trends():
    """CRLB(R) strictly falls and CRLB(v) strictly rises with delta_f;
    both strictly fall with SNR."""
    cfg = make_table3_config()
    snrs = [-30.0, -20.0, -10.0, 0.0, 10.0]
    spacings = [30e3, 60e3, 120e3, 240e3, 480e3]
    rows = crlb_sweep(cfg, snrs, delta_f_high_grid=spacings)
    table = {(r.delta_f, r.snr_db): r for r in rows}
    ok = True
    for snr in snrs:
        for a, b in zip(spacings, spacings[1:]):
            ok &= table[(b, snr)].crlb_range < table[(a, snr)].crlb_range
            ok &= table[(b, snr)].crlb_velocity > table[(a, snr)].crlb_velocity
    for df in spacings:
        for a, b in zip(snrs, snrs[1:]):
            ok &= table[(df, b)].crlb_range < table[(df, a)].crlb_range
            ok &= table[(df, b)].crlb_velocity < table[(df, a)].crlb_velocity
    report("criterion 3", ok, f"{len(rows)} sweep points, exact monotonicity")
    assert ok


def test_criterion_04_scheme_ordering():
    """Range bound minimized by the staggered scheme; velocity bound by the
    full-comb scheme with the staggered one within 3 dB."""
    reports = {}
    for scheme in Scheme:
        cfg = with_scheme(make_table3_config(), scheme)
        reports[scheme] = crlb_closed_form(CrlbInputs(cfg, h=1.0, sigma=1.0))
    r_vals = {s: rep.crlb_range for s, rep in reports.items()}
    v_vals = {s: rep.crlb_velocity for s, rep in reports.items()}
    range_min = min(r_vals, key=r_vals.get)
    velocity_min = min(v_vals, key=v_vals.get)
    gap_db = 10 * np.log10(v_vals[Scheme.CA1] / v_vals[Scheme.CA4])
    ok = range_min is Scheme.CA1 and velocity_min is Scheme.CA4 and 0 <= gap_db <= 3.0
    report(
        "criterion 4",
        ok,
        f"range min {range_min.value}, velocity min {velocity_min.value}, "
        f"CA1-CA4 velocity gap {gap_db:.3f} dB (regression baseline)",
    )
    assert range_min is Scheme.CA1
    assert velocity_min is Scheme.CA4
    assert gap_db <= 3.0


def test_criterion_05_rmse_dominates_rcrlb():
    """Off-grid random targets: RMSE >= 0.95 RCRLB wherever RMSE exceeds
    twice the quantization floor; RMSE trend non-increasing in SNR."""
    cfg = make_table3_config()
    spec = ExperimentSpec(
        cfg=cfg,
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=tuple(float(s) for s in range(-30, 11, 5)),
        trials=100,
        master_seed=105,
        solver=FAST,
        random_targets=True,
    )
    rows = run_sweep(spec).rows
    floor_r = cfg.range_bin_width / np.sqrt(12.0)
    floor_v = cfg.velocity_bin_width / np.sqrt(12.0)
    violations = []
    for row in rows:
        if row.rmse_range > 2 * floor_r and row.rmse_range < 0.95 * row.rcrlb_range:
            violations.append(("range", row.snr_db, row.rmse_range, row.rcrlb_range))
        if row.rmse_velocity > 2 * floor_v and row.rmse_velocity < 0.95 * row.rcrlb_velocity:
            violations.append(("velocity", row.snr_db, row.rmse_velocity, row.rcrlb_velocity))
    snrs = [row.snr_db for row in rows]
    rho_r, p_r = stats.spearmanr(snrs, [row.rmse_range for row in rows])
    rho_v, p_v = stats.spearmanr(snrs, [row.rmse_velocity for row in rows])
    trend_ok = rho_r <= 0 and p_r < 0.05 and rho_v <= 0 and p_v < 0.05
    ok = not violations and trend_ok
    report(
        "criterion 5",
        ok,
        f"{len(rows)} points, 0 bound violations, trend rho_r={rho_r:.3f} "
        f"(p={p_r:.1e}), rho_v={rho_v:.3f} (p={p_v:.1e})",
    )
    assert violations == []
    assert trend_ok


def test_criterion_06_high_snr_quantization_floor():
    """Fixed 117 m / 30 m/s target at SNR >= 0 dB: pure bin-lock residuals."""
    cfg = make_table3_config()
    spec = ExperimentSpec(
        cfg=cfg,
        schemes=(Scheme.CA1,),
        target=Target(117.0, 30.0),
        snr_grid=(0.0, 5.0, 10.0),
        trials=40,
        master_seed=106,
        solver=FAST,
    )
    rows = run_sweep(spec).rows
    ok = True
    for row in rows:
        ok &= abs(row.rmse_range - 0.1875) <= 1e-9
        ok &= abs(row.rmse_velocity - 0.3176) <= 1e-3
    report(
        "criterion 6",
        ok,
        "RMSE floors " + ", ".join(
            f"{row.snr_db:+.0f}dB: ({row.rmse_range:.10f} m, {row.rmse_velocity:.6f} m/s)"
            for row in rows
        ),
    )
    for row in rows:
        assert row.rmse_range == pytest.approx(0.1875, abs=1e-9)
        assert row.rmse_velocity == pytest.approx(0.3176, abs=1e-3)


def test_criterion_07_aggregation_benefit():
    """Fusion never loses to the high-band-only halves (5% margin)."""
    cfg = make_table3_config()
    target = Target(117.0, 30.0)
    snrs = tuple(float(s) for s in range(-20, 1, 5))
    trials = 200
    spec = ExperimentSpec(
        cfg=cfg,
        schemes=(Scheme.CA1,),
        target=target,
        snr_grid=snrs,
        trials=trials,
        master_seed=107,
        solver=FAST,
    )
    ca1 = {row.snr_db: row for row in run_sweep(spec).rows}
    base = {
        row["snr_db"]: row
        for row in run_high_band_baseline(cfg, target, snrs, trials, 107, FAST)
    }
    ok = True
    details = []
    for snr in snrs:
        r_ratio = ca1[snr].rmse_range / base[snr]["rmse_range_high_block"]
        v_ratio = ca1[snr].rmse_velocity / base[snr]["rmse_velocity_high_comb"]
        details.append(f"{snr:+.0f}dB r={r_ratio:.3f} v={v_ratio:.3f}")
        ok &= r_ratio <= 1.05 and v_ratio <= 1.05
    report("criterion 7", ok, "CA1/baseline RMSE ratios: " + "; ".join(details))
    assert ok


def _thresholds(rows_by_snr, snrs):
    """Lowest SNR whose (range, velocity) RMSEs are both within 10% of their
    top-of-grid floors; inf when never reached."""
    floor_r = rows_by_snr[snrs[-1]].rmse_range
    floor_v = rows_by_snr[snrs[-1]].rmse_velocity
    thr_r = next((s for s in snrs if rows_by_snr[s].rmse_range <= 1.1 * floor_r), math.inf)
    thr_v = next((s for s in snrs if rows_by_snr[s].rmse_velocity <= 1.1 * floor_v), math.inf)
    return max(thr_r, thr_v)


def test_criterion_08_convergence_threshold_ordering():
    """The staggered scheme reaches its RMSE floor at the lowest SNR."""
    cfg = make_table3_config()
    snrs = tuple(float(s) for s in range(-26, -11, 2))
    spec = ExperimentSpec(
        cfg=cfg,
        schemes=tuple(Scheme),
        target=Target(117.0, 30.0),
        snr_grid=snrs,
        trials=50,
        master_seed=108,
        solver=FAST,
    )
    rows = run_sweep(spec).rows
    thresholds = {}
    for scheme in Scheme:
        by_snr = {r.snr_db: r for r in rows if r.scheme == scheme.value}
        thresholds[scheme.value] = _thresholds(by_snr, list(snrs))
    ok = all(thresholds["CA1"] <= thresholds[s.value] for s in Scheme)
    report(
        "criterion 8",
        ok,
        "thresholds " + ", ".join(f"{k}: {v:+.0f} dB" for k, v in thresholds.items()),
    )
    assert thresholds["CA1"] < math.inf
    for scheme in Scheme:
        assert thresholds["CA1"] <= thresholds[scheme.value]


def test_criterion_09_solver_certificates():
    """KKT certificates for FISTA and exact 1-sparse OMP recovery on a
    50-instance suite over both operator sizes and both mask families."""
    rng = np.random.default_rng(109)
    kkt_ok = 0
    omp_ok = 0
    total = 50
    for i in range(total):
        n = 64 if i % 2 == 0 else 512
        if i % 4 < 2:
            mask = build_range_selection(n // 4, n)
            direction = FORWARD
            window = n
        else:
            q = 4
            mask = build_velocity_selection(q, n)
            direction = INVERSE
            window = n // q  # periodic masks alias outside the prefix
        op = SensingOperator(n=n, direction=direction, row_mask=mask)

        # FISTA certificate on a noisy few-sparse instance
        k = int(rng.integers(1, 4))
        x_true = np.zeros(n, complex)
        idx = rng.choice(window, size=k, replace=False)
        x_true[idx] = (0.5 + rng.random(k)) * np.exp(2j * np.pi * rng.random(k))
        d = op.apply(x_true)
        d = d + 0.02 * (rng.standard_normal(d.shape) + 1j * rng.standard_normal(d.shape))
        lam = default_lambda(op, d)
        res = solve_fista(LassoProblem(op, d, lam=lam))
        scale = max(lam, float(np.abs(op.adjoint(d)).max()))
        kkt_ok += int(res.kkt_residual <= 1e-3 * scale)

        # OMP on a noiseless 1-sparse instance
        x1 = np.zeros(n, complex)
        true_idx = int(rng.integers(0, window))
        x1[true_idx] = np.exp(2j * np.pi * rng.random())
        res_omp = solve_omp(LassoProblem(op, op.apply(x1), lam=0.0), sparsity=1)
        omp_ok += int(int(np.argmax(np.abs(res_omp.x_hat))) == true_idx)
    ok = kkt_ok == total and omp_ok == total
    report("criterion 9", ok, f"KKT {kkt_ok}/50, OMP exact support {omp_ok}/50")
    assert kkt_ok == total
    assert omp_ok == total


def test_criterion_10_score_finite_difference_check():
    """Analytic scores match central differences on 20 random small grids."""
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        delta_f = rng.uniform(10e3, 300e3)
        t_sym = 1 / delta_f + rng.uniform(0.0, 2e-6)
        fc = rng.uniform(1e9, 30e9)
        freqs = np.arange(n) * delta_f
        times_fc = np.arange(m) * t_sym * fc
        h = rng.uniform(0.5, 2.0)
        sigma = rng.uniform(0.2, 1.0)
        tau = rng.uniform(0.0, 0.2 / (delta_f * n))
        theta = rng.uniform(0.0, 0.2 / (t_sym * fc * m))
        y = signal_model(tau, theta, freqs, times_fc, h)
        y = y + 0.2 * sigma * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        an_tau, an_theta = score(y, tau, theta, freqs, times_fc, h, sigma)
        d_tau = 1e-7 / (delta_f * n)
        d_theta = 1e-7 / (t_sym * fc * m)
        fd_tau = (
            log_likelihood(y, tau + d_tau, theta, freqs, times_fc, h, sigma)
            - log_likelihood(y, tau - d_tau, theta, freqs, times_fc, h, sigma)
        ) / (2 * d_tau)
        fd_theta = (
            log_likelihood(y, tau, theta + d_theta, freqs, times_fc, h, sigma)
            - log_likelihood(y, tau, theta - d_theta, freqs, times_fc, h, sigma)
        ) / (2 * d_theta)
        worst = max(
            worst,
            abs(an_tau - fd_tau) / max(abs(fd_tau), 1e-300),
            abs(an_theta - fd_theta) / max(abs(fd_theta), 1e-300),
        )
        assert an_tau == pytest.approx(fd_tau, rel=1e-5)
        assert an_theta == pytest.approx(fd_theta, rel=1e-5)
    report("criterion 10", True, f"20 instances, worst relative error {worst:.2e}")
