import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casense import estimators
from casense.channel import (
    ChannelInfoMatrix,
    Target,
    TargetScene,
    sigma_for_snr,
    simulate_channel_info,
)
from casense.config import BandConfig, Block, Comb, Scheme, make_table3_config, with_scheme
from casense.crlb import CrlbInputs, crlb_sweep
from casense.errors import (
    CasenseError,
    InvalidConfig,
    InvalidSolverOptions,
    InvalidTarget,
    NonFiniteSpectrum,
    SchemeMismatch,
)
from casense.estimators import (
    PowerSpectrum,
    SolverOptions,
    AveragedEstimate,
    Estimate,
    band_spectrum,
    estimate_any_scheme,
    peak_estimate,
    range_spectrum_block,
    range_spectrum_comb_cs,
    top_k_peaks,
    velocity_spectrum_block_cs,
)
from casense.fusion import build_range_selection
from casense.grids import full_grid, generate_tx_grid
from casense.harness import simulate_trial_matrices, snapshot_spectra
from casense.recovery import (
    INVERSE,
    LassoProblem,
    SensingOperator,
    certify_kkt,
    default_lambda,
    fista_iterations,
    lasso_lambda,
    soft_threshold,
    solve_omp,
)
from conftest import build_velocity_selection

C0 = 3e8


@pytest.fixture(scope="module")
def table3():
    return make_table3_config()


def channel_pair(cfg, target, snr_db=None, seed=0):
    sigma = 0.0 if snr_db is None else sigma_for_snr(snr_db, target.gain)
    out = []
    for i, band in enumerate((cfg.low, cfg.high)):
        tx = generate_tx_grid(band, seed=(seed, i))
        scene = TargetScene((target,), noise_sigma=sigma, seed=(seed, 10 + i))
        out.append(simulate_channel_info(tx, scene, c0=cfg.c0))
    return out


def test_range_staggered_reproduces_reference_point(table3):
    d_low, d_high = channel_pair(table3, Target(117.0, 30.0), snr_db=10.0, seed=3)
    est, _ = estimate_any_scheme(d_low, d_high, table3)
    assert isinstance(est, Estimate)
    assert est.peak_bin == 48
    assert est.value == pytest.approx(117.1875, abs=1e-9)


def test_velocity_staggered_reproduces_reference_point(table3):
    d_low, d_high = channel_pair(table3, Target(117.0, 30.0), snr_db=10.0, seed=3)
    _, est = estimate_any_scheme(d_low, d_high, table3)
    assert est.peak_bin == 3
    assert est.value == pytest.approx(30.3176, abs=1e-3)


def test_zero_target_zero_bins(table3):
    d_low, d_high = channel_pair(table3, Target(0.0, 0.0))
    r, v = estimate_any_scheme(d_low, d_high, table3)
    assert r.peak_bin == 0 and r.value == 0.0
    assert v.peak_bin == 0 and v.value == 0.0


def test_one_bin_targets(table3):
    r_bin = table3.range_bin_width
    v_bin = table3.velocity_bin_width
    assert v_bin == pytest.approx(10.106, abs=1e-3)
    d_low, d_high = channel_pair(table3, Target(r_bin, v_bin))
    r, v = estimate_any_scheme(d_low, d_high, table3)
    assert r.peak_bin == 1 and v.peak_bin == 1


@pytest.mark.parametrize("bin_r", [2, 17, 100, 200])
def test_noiseless_on_grid_range_is_bin_exact(table3, bin_r):
    target = Target(bin_r * table3.range_bin_width, 0.0)
    d_low, d_high = channel_pair(table3, target, seed=bin_r)
    est, _ = estimate_any_scheme(d_low, d_high, table3)
    assert est.peak_bin == bin_r
    assert est.value == pytest.approx(target.range_m, rel=1e-12)


@pytest.mark.parametrize("bin_v", [1, 2, 7, 15])
def test_noiseless_on_grid_velocity_is_bin_exact(table3, bin_v):
    target = Target(0.0, bin_v * table3.velocity_bin_width)
    d_low, d_high = channel_pair(table3, target, seed=bin_v)
    _, est = estimate_any_scheme(d_low, d_high, table3)
    assert est.peak_bin == bin_v


def test_noiseless_off_grid_lands_on_nearest_bin(table3):
    rng = np.random.default_rng(12)
    for _ in range(4):
        r = rng.uniform(5.0, 400.0)
        v = rng.uniform(0.0, 120.0)
        d_low, d_high = channel_pair(table3, Target(r, v), seed=int(r))
        r_est, v_est = estimate_any_scheme(d_low, d_high, table3)
        assert abs(r_est.value - r) <= table3.range_bin_width / 2 + 1e-9
        assert abs(v_est.value - v) <= table3.velocity_bin_width / 2 + 1e-9


def test_peak_bin_invariant_under_complex_scaling(table3):
    from dataclasses import replace

    d_low, d_high = channel_pair(table3, Target(117.0, 30.0), snr_db=0.0, seed=9)
    scale = 3.4e4 * np.exp(1.1j)
    d_low_s = replace(d_low, pilots=d_low.pilots * scale)
    d_high_s = replace(d_high, pilots=d_high.pilots * scale)
    r1, _ = estimate_any_scheme(d_low, d_high, table3)
    r2, _ = estimate_any_scheme(d_low_s, d_high_s, table3)
    assert r1.peak_bin == r2.peak_bin
    assert r1.spectrum.values.max() == pytest.approx(1.0)


def test_staggered_spectrum_is_high_plus_nonnegative_low(table3):
    d_low, d_high = channel_pair(table3, Target(200.0, 10.0), seed=4)
    hi = range_spectrum_block(d_high, table3.c0)
    lo = range_spectrum_comb_cs(d_low, table3.c0, SolverOptions())
    assert np.all(lo.values >= 0)
    fused = hi.values + lo.values
    assert np.argmax(fused) == np.argmax(hi.values)
    assert np.argmax(lo.values) == np.argmax(hi.values)


def test_scheme_mismatch_errors(table3):
    d_low, d_high = channel_pair(table3, Target(10.0, 0.0))
    cfg2 = with_scheme(table3, Scheme.CA2)
    with pytest.raises(SchemeMismatch):
        estimate_any_scheme(d_low, d_high, cfg2)
    with pytest.raises(SchemeMismatch):
        estimate_any_scheme(d_high, d_low, table3)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_dispatch_rejects_swapped_bands(scheme):
    cfg, (d_low, d_high) = scheme_pair(scheme, Target(10.0, 0.0))
    with pytest.raises(SchemeMismatch):
        estimate_any_scheme(d_high, d_low, cfg)


def _oracle_bin_widths(cfg, band):
    """(range, velocity) bin widths of the band's own spectra, written out."""
    df_eff = band.delta_f * (band.pilot.interval if isinstance(band.pilot, Comb) else 1)
    t_sym = 1.0 / band.delta_f + band.t_cp
    return (
        cfg.c0 / (2 * df_eff * band.n_subcarriers),
        cfg.c0 / (2 * band.fc * t_sym * band.n_symbols),
    )


@pytest.mark.parametrize("scheme", list(Scheme))
def test_dispatch_values_are_peak_bins_times_bin_width(scheme):
    cfg, (d_low, d_high) = scheme_pair(scheme, Target(117.0, 30.0), snr_db=10.0, seed=5)
    r, v = estimate_any_scheme(d_low, d_high, cfg)
    if scheme is Scheme.CA1:
        assert isinstance(r, Estimate) and isinstance(v, Estimate)
        assert r.value == pytest.approx(r.peak_bin * cfg.range_bin_width, rel=1e-12)
        assert v.value == pytest.approx(v.peak_bin * cfg.velocity_bin_width, rel=1e-12)
        return
    for band, r_b, v_b in zip((cfg.low, cfg.high), r.per_band, v.per_band):
        w_r, w_v = _oracle_bin_widths(cfg, band)
        assert r_b.value == pytest.approx(r_b.peak_bin * w_r, rel=1e-12)
        assert v_b.value == pytest.approx(v_b.peak_bin * w_v, rel=1e-12)


def scheme_pair(scheme, target, snr_db=None, seed=0):
    cfg = with_scheme(make_table3_config(), scheme)
    return cfg, channel_pair(cfg, target, snr_db=snr_db, seed=seed)


def test_ca3_noiseless_aligned_bins_average_to_themselves():
    target = Target(117.1875, 0.0)  # on both block bands' grids
    cfg, (d_low, d_high) = scheme_pair(Scheme.CA3, target)
    r, v = estimate_any_scheme(d_low, d_high, cfg)
    assert r.per_band[0].value == pytest.approx(117.1875, rel=1e-12)
    assert r.per_band[1].value == pytest.approx(117.1875, rel=1e-12)
    assert r.value == pytest.approx(117.1875, rel=1e-12)


def test_ca4_zero_target():
    cfg, (d_low, d_high) = scheme_pair(Scheme.CA4, Target(0.0, 0.0))
    r, v = estimate_any_scheme(d_low, d_high, cfg)
    assert r.value == 0.0 and v.value == 0.0


def test_ca2_noiseless_within_band_bin_widths():
    target = Target(117.0, 30.0)
    cfg, (d_low, d_high) = scheme_pair(Scheme.CA2, target)
    r, v = estimate_any_scheme(d_low, d_high, cfg)
    # low band is block on the 30 kHz grid, high band comb on the rearranged
    # 480 kHz-effective grid
    w_low = C0 / (2 * cfg.low.delta_f * cfg.low.n_subcarriers)
    w_high = C0 / (2 * 4 * cfg.high.delta_f * cfg.high.n_subcarriers)
    assert abs(r.per_band[0].value - 117.0) <= w_low
    assert abs(r.per_band[1].value - 117.0) <= w_high
    assert r.value == pytest.approx(0.5 * (r.per_band[0].value + r.per_band[1].value))
    assert v.value == pytest.approx(30.3176, abs=1e-3)


@pytest.mark.parametrize("scheme", [Scheme.CA2, Scheme.CA3, Scheme.CA4])
def test_averaging_schemes_noiseless_quantization_bound(scheme):
    target = Target(117.0, 30.0)
    cfg, (d_low, d_high) = scheme_pair(scheme, target, seed=2)
    r, v = estimate_any_scheme(d_low, d_high, cfg)
    assert isinstance(r, AveragedEstimate) and isinstance(v, AveragedEstimate)
    assert abs(r.value - 117.0) <= 5.0  # coarsest grid is 9.77 m wide
    assert abs(v.value - 30.0) <= 5.1


def test_single_band_estimates(table3):
    d_low, d_high = channel_pair(table3, Target(117.0, 30.0), snr_db=10.0, seed=6)
    spectrum = band_spectrum(d_high, "range", table3.c0)
    assert len(spectrum.values) == table3.high.n_subcarriers  # a block band's IDFT
    assert peak_estimate(spectrum, "range").value == pytest.approx(117.1875, abs=1e-9)
    cfg4 = with_scheme(table3, Scheme.CA4)
    d_low4, d_high4 = channel_pair(cfg4, Target(117.0, 30.0), snr_db=10.0, seed=6)
    spectrum = band_spectrum(d_high4, "velocity", cfg4.c0)
    assert len(spectrum.values) == cfg4.high.n_symbols  # a comb band's FFT
    assert peak_estimate(spectrum, "velocity").value == pytest.approx(30.3176, abs=1e-3)


def test_block_band_velocity_spectrum_is_its_unambiguous_period():
    # a lone periodic-mask CS spectrum holds the M/Q bins before its first alias,
    # so a search over all of them finds the target
    cfg = with_scheme(make_table3_config(), Scheme.CA3)
    target = Target(50.0, 30.0)
    tx = generate_tx_grid(cfg.high, seed=8)
    d = simulate_channel_info(tx, TargetScene((target,), 0.0), c0=C0)
    spectrum = band_spectrum(d, "velocity", cfg.c0)
    assert len(spectrum.values) == cfg.high.n_symbols // cfg.high.pilot.interval
    assert spectrum.bin_width == cfg.velocity_bin_width  # the band's M-bin grid
    est = peak_estimate(spectrum, "velocity")
    assert est.value == pytest.approx(30.3176, abs=1e-3)


@pytest.mark.parametrize("scheme", [Scheme.CA2, Scheme.CA3])
def test_block_band_per_band_velocity_spectrum_has_m_over_q_bins(scheme):
    cfg, (d_low, d_high) = scheme_pair(scheme, Target(117.0, 30.0), snr_db=10.0, seed=7)
    _, v = estimate_any_scheme(d_low, d_high, cfg)
    for band, est in zip((cfg.low, cfg.high), v.per_band):
        block = isinstance(band.pilot, Block)
        assert len(est.spectrum.values) == band.n_symbols // (band.pilot.interval if block else 1)


def test_ca1_fused_velocity_spectrum_is_comb_fft_plus_tiled_period(table3):
    d_low, d_high = channel_pair(table3, Target(117.0, 30.0), snr_db=10.0, seed=7)
    _, v = estimate_any_scheme(d_low, d_high, table3)
    comb = estimators.velocity_spectrum_comb(d_low, table3.c0).values
    period = velocity_spectrum_block_cs(d_high, table3.c0, SolverOptions()).values
    q = table3.high.pilot.interval
    assert len(period) == table3.high.n_symbols // q
    fused = comb + np.tile(period, q)
    assert v.spectrum.values.tobytes() == (fused / fused.max()).tobytes()


def test_top_k_peaks_delta():
    spec = PowerSpectrum(np.eye(16)[5], bin_width=1.0)
    assert top_k_peaks(spec, 1) == [(5, 1.0)]


def test_top_k_peaks_two_separated():
    values = np.zeros(64)
    values[10] = 1.0
    values[40] = 0.7
    spec = PowerSpectrum(values, bin_width=1.0)
    peaks = top_k_peaks(spec, 2, guard=5)
    assert [b for b, _ in peaks] == [10, 40]


def test_top_k_peaks_exhausts_gracefully():
    spec = PowerSpectrum(np.ones(8), bin_width=1.0)
    peaks = top_k_peaks(spec, 20, guard=3)
    assert len(peaks) <= 3  # exclusion zones cover the spectrum quickly
    with pytest.raises(ValueError):
        top_k_peaks(spec, 0)


# Fused peak bins with default SolverOptions in the threshold region, seed
# parts (seed, 0, 0, 0), recorded before the FISTA kernel was rewritten to
# one masked FFT pair per iteration. Off-truth bins (truth is 48 / 3) are the
# ones a solver change is most likely to flip.
THRESHOLD_BINS = [
    (-26.0, 1, 49, 51),
    (-26.0, 3, 10, 19),
    (-26.0, 5, 204, 53),
    (-20.0, 0, 48, 3),
    (-20.0, 1, 47, 3),
    (-15.0, 0, 48, 3),
]


@pytest.mark.parametrize("snr_db, seed, range_bin, velocity_bin", THRESHOLD_BINS)
def test_threshold_region_peak_bins_pinned(table3, snr_db, seed, range_bin, velocity_bin):
    target = Target(117.0, 30.0)
    d_low, d_high = simulate_trial_matrices(
        table3, target, sigma_for_snr(snr_db, target.gain), (seed, 0, 0, 0)
    )
    r, v = estimate_any_scheme(d_low, d_high, table3)
    assert (r.peak_bin, v.peak_bin) == (range_bin, velocity_bin)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda_scale", float("nan")),
        ("lambda_scale", float("inf")),
        ("lambda_scale", -0.1),
        ("tol", float("nan")),
        ("tol", float("inf")),
        ("tol", -1e-6),
        ("max_iters", 0),
        ("max_iters", -3),
        ("max_iters", 2.5),
        ("max_iters", 200.0),
        ("max_iters", True),
    ],
)
def test_solver_options_reject_bad_values(field, value):
    with pytest.raises(InvalidSolverOptions) as info:
        SolverOptions(**{field: value})
    assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError)
    assert field in str(info.value)


def test_solver_options_accept_boundary_values():
    SolverOptions(lambda_scale=0.0, max_iters=1, tol=0.0)
    SolverOptions(max_iters=np.int64(5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_peak_estimate_rejects_non_finite_spectrum(bad):
    values = np.array([0.1, 0.5, bad, 0.2])
    with pytest.raises(NonFiniteSpectrum):
        peak_estimate(PowerSpectrum(values, 1.0), "range")


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda op: LassoProblem(op, np.ones(4, complex), lam=NAN), InvalidSolverOptions),
        (lambda op: LassoProblem(op, np.ones(4, complex), lam=float("inf")), InvalidSolverOptions),
        (lambda op: LassoProblem(op, np.ones(4, complex), lam=0.1, tol=NAN), InvalidSolverOptions),
        (lambda op: fista_iterations(op, np.ones(4, complex), 0.1, 2.5, 1e-6), InvalidSolverOptions),
        (lambda op: fista_iterations(op, np.ones(4, complex), 0.1, 5, NAN), InvalidSolverOptions),
        (lambda op: fista_iterations(op, np.ones((4, 2), complex), np.array([0.1, NAN]), 5, 1e-6),
         InvalidSolverOptions),
        (lambda op: fista_iterations(op, np.ones((4, 2), complex), np.array([0.1, float("inf")]), 5,
                                     1e-6), InvalidSolverOptions),
        (lambda op: fista_iterations(op, np.ones(4, complex), -1.0, 5, 1e-6), InvalidSolverOptions),
        (lambda op: CrlbInputs(make_table3_config(), h=NAN), InvalidTarget),
        (lambda op: top_k_peaks(PowerSpectrum(np.array([0.1, NAN, 0.2]), 1.0), 1), NonFiniteSpectrum),
        (lambda op: LassoProblem(op, np.array([1, NAN, 1, 1], complex), lam=0.1), InvalidConfig),
        (lambda op: LassoProblem(op, np.array([1, 1, np.inf, 1], complex), lam=0.1), InvalidConfig),
        (lambda op: fista_iterations(op, np.array([1, NAN, 1, 1], complex), 0.1, 5, 1e-6),
         InvalidConfig),
        (lambda op: default_lambda(op, np.array([1, NAN, 1, 1], complex)), InvalidConfig),
    ],
    ids=["lasso-lam-nan", "lasso-lam-inf", "lasso-tol-nan", "fista-max-iters-2.5", "fista-tol-nan",
         "fista-column-lam-nan", "fista-column-lam-inf", "fista-lam-negative", "crlb-h-nan",
         "top-k-peaks-nan", "lasso-observations-nan", "lasso-observations-inf",
         "fista-observations-nan", "default-lambda-observations-nan"],
)
def test_non_finite_solver_and_bound_inputs_are_rejected_where_built(build, error):
    op = SensingOperator(n=16, direction=INVERSE, row_mask=build_velocity_selection(4, 16))
    with pytest.raises(error) as info:
        build(op)
    assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda op: crlb_sweep(make_table3_config(), []), InvalidConfig),
        (lambda op: crlb_sweep(make_table3_config(), [0.0], []), InvalidConfig),
        (lambda op: build_range_selection(0, 4), InvalidConfig),
        (lambda op: SensingOperator(n=4, direction="sideways", row_mask=np.ones(4, bool)),
         InvalidConfig),
        (lambda op: SensingOperator(n=4, direction=INVERSE, row_mask=np.zeros(4, bool)),
         InvalidConfig),
        (lambda op: top_k_peaks(PowerSpectrum(np.array([0.1, 0.2]), 1.0), 0), InvalidSolverOptions),
        (lambda op: top_k_peaks(PowerSpectrum(np.array([0.1, 0.2]), 1.0), 1, guard=-1),
         InvalidSolverOptions),
        (lambda op: solve_omp(LassoProblem(op, np.ones(4, complex), lam=0.1), 0),
         InvalidSolverOptions),
        (lambda op: sigma_for_snr(10.0, 0.0), InvalidTarget),
        (lambda op: SensingOperator(n=4.0, direction=INVERSE, row_mask=np.ones(4, bool)),
         InvalidConfig),
        (lambda op: SensingOperator(n=True, direction=INVERSE, row_mask=np.ones(1, bool)),
         InvalidConfig),
        (lambda op: solve_omp(LassoProblem(op, np.ones(4, complex), lam=0.1), 2.5),
         InvalidSolverOptions),
        (lambda op: top_k_peaks(PowerSpectrum(np.array([0.1, 0.2]), 1.0), 2.5), InvalidSolverOptions),
        (lambda op: top_k_peaks(PowerSpectrum(np.array([0.1, 0.2]), 1.0), 1, guard=0.5),
         InvalidSolverOptions),
        (lambda op: band_spectrum(ChannelInfoMatrix(np.zeros((512, 16), complex),
                                                    make_table3_config().high), "doppler", C0),
         InvalidConfig),
        (lambda op: peak_estimate(PowerSpectrum(np.array([]), 1.0), "range"), NonFiniteSpectrum),
        (lambda op: peak_estimate(PowerSpectrum(np.zeros(3), 1.0), "range"), NonFiniteSpectrum),
        (lambda op: peak_estimate(PowerSpectrum(np.array([0.5, -0.1, 1.0]), 1.0), "range"),
         NonFiniteSpectrum),
        (lambda op: top_k_peaks(PowerSpectrum(np.array([]), 1.0), 1), NonFiniteSpectrum),
        (lambda op: snapshot_spectra(make_table3_config(), Target(117.0, 30.0), 10.0, seed=-1),
         InvalidConfig),
        (lambda op: snapshot_spectra(make_table3_config(), Target(117.0, 30.0), 10.0, seed=1.5),
         InvalidConfig),
        (lambda op: crlb_sweep(make_table3_config(), [10.0], ["x"]), InvalidConfig),
    ],
    ids=["crlb-sweep-empty-snr", "crlb-sweep-empty-spacings", "range-selection-empty",
         "operator-direction", "operator-empty-mask", "top-k-peaks-k", "top-k-peaks-guard",
         "omp-sparsity", "sigma-for-snr-zero-gain", "operator-n-float", "operator-n-bool",
         "omp-sparsity-2.5", "top-k-peaks-k-2.5", "top-k-peaks-guard-0.5", "band-spectrum-kind",
         "peak-estimate-empty", "peak-estimate-all-zero", "peak-estimate-negative-entry",
         "top-k-peaks-empty",
         "snapshot-seed-negative", "snapshot-seed-1.5", "crlb-sweep-spacing-x"],
)
def test_bad_arguments_raise_a_casense_error_that_is_a_value_error(build, error):
    op = SensingOperator(n=16, direction=INVERSE, row_mask=build_velocity_selection(4, 16))
    with pytest.raises(error) as info:
        build(op)
    assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError)


def _divisor_pairs(ms):
    return [(m, q) for m in ms for q in range(1, m + 1) if m % q == 0]


def _velocity_problem(m, q, rows, seed):
    """A block band of `rows` subcarriers with random complex pilot columns."""
    band = BandConfig(24e9, 120e3, rows, m, 1.33e-6, Block(q))
    rng = np.random.default_rng(seed)
    pilots = rng.standard_normal((rows, m // q)) + 1j * rng.standard_normal((rows, m // q))
    op = SensingOperator(n=m, direction=INVERSE, row_mask=build_velocity_selection(q, m))
    return ChannelInfoMatrix(pilots, band), op, pilots.T


def _fista_reference(op, cols, lambda_scale):
    lam = lambda_scale * np.abs(op.adjoint(cols)).max(axis=0)
    x, _ = fista_iterations(op, cols, lam, 200, 1e-6)
    return np.abs(x).sum(axis=1)


@given(
    mq=st.sampled_from(_divisor_pairs([16, 64, 256])),
    rows=st.integers(2, 9),
    lambda_scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_velocity_spectrum_is_fista_bit_for_bit(mq, rows, lambda_scale, seed):
    # the unitary scale 1/sqrt(M) is a power of two, so scaling before or after the FFT agrees
    m, q = mq
    d, op, cols = _velocity_problem(m, q, rows, seed)
    period = velocity_spectrum_block_cs(d, C0, SolverOptions(lambda_scale=lambda_scale)).values
    assert np.array_equal(np.tile(period, q), _fista_reference(op, cols, lambda_scale))


@given(
    mq=st.sampled_from(_divisor_pairs([48, 60])),
    rows=st.integers(2, 9),
    lambda_scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_velocity_spectrum_matches_fista_to_rounding(mq, rows, lambda_scale, seed):
    # FISTA scales by 1/sqrt(M) before its FFT and the adjoint after it: last-bit differences,
    # measured against the unthresholded (lambda = 0) spectrum
    m, q = mq
    d, op, cols = _velocity_problem(m, q, rows, seed)
    period = velocity_spectrum_block_cs(d, C0, SolverOptions(lambda_scale=lambda_scale)).values
    scale = np.abs(op.adjoint(cols)).sum(axis=1).max()
    error = np.abs(np.tile(period, q) - _fista_reference(op, cols, lambda_scale)).max()
    assert error <= 1e-11 * scale


@given(
    mq=st.sampled_from(_divisor_pairs([16, 48, 60, 64, 256])),
    rows=st.integers(2, 9),
    lambda_scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_velocity_spectrum_is_q_periodic_full_width_formula(mq, rows, lambda_scale, seed):
    # a power-of-two FFT of a zero-stuffed row is bitwise Q-periodic; a mixed-radix one
    # only to rounding, so the tiled first period differs from the full width in last bits
    m, q = mq
    d, op, cols = _velocity_problem(m, q, rows, seed)
    period = velocity_spectrum_block_cs(d, C0, SolverOptions(lambda_scale=lambda_scale)).values
    assert len(period) == m // q
    spectrum = np.tile(period, q)
    g = op.adjoint(cols)
    full_width = np.abs(soft_threshold(g, lambda_scale * np.abs(g).max(axis=0))).sum(axis=1)
    if m & (m - 1) == 0:
        assert np.array_equal(spectrum, full_width)
    else:
        scale = np.abs(g).sum(axis=1).max()  # the unthresholded (lambda = 0) spectrum's maximum
        assert np.abs(spectrum - full_width).max() <= 1e-15 * scale


@given(
    mq=st.sampled_from(_divisor_pairs([16, 48, 60, 64, 256])),
    rows=st.integers(2, 9),
    lambda_scale=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_velocity_solution_certifies_kkt_per_row(mq, rows, lambda_scale, seed):
    # the spectrum sums the first period of the periodic solution built from A*d's
    m, q = mq
    d, op, cols = _velocity_problem(m, q, rows, seed)
    g = op.adjoint(cols)[: m // q]
    lam = lambda_scale * np.abs(g).max(axis=0)
    x = soft_threshold(g, lam)
    spectrum = velocity_spectrum_block_cs(d, C0, SolverOptions(lambda_scale=lambda_scale)).values
    assert np.array_equal(spectrum, np.abs(x).sum(axis=1))
    x = np.tile(x, (q, 1))
    for j in range(rows):
        assert certify_kkt(LassoProblem(op, cols[:, j], lam[j]), x[:, j]) <= 1e-12 * lam[j]


@pytest.mark.parametrize("m, q", [(64, 4), (48, 4), (16, 1)])
@pytest.mark.parametrize("rows", [100, 130])
@pytest.mark.parametrize("lambda_scale", [0.0, 0.1])
def test_block_velocity_spectrum_is_the_full_grid_fft_across_row_buffers(m, q, rows, lambda_scale):
    # more rows than one zero-stuffed buffer holds, and not a multiple of it
    assert rows > estimators._STUFFED_ROWS and rows % estimators._STUFFED_ROWS
    d, _, _ = _velocity_problem(m, q, rows, seed=rows)
    period = np.fft.fft(full_grid(d.band, d.pilots), axis=1)[:, : m // q]
    g = np.ascontiguousarray(period.T) / np.sqrt(m)
    x = soft_threshold(g, lasso_lambda(g, lambda_scale))
    expected = np.abs(x).sum(axis=1)
    spectrum = velocity_spectrum_block_cs(d, C0, SolverOptions(lambda_scale=lambda_scale))
    assert spectrum.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_all_zero_pilot_blocks_raise_instead_of_giving_bin_0(scheme):
    cfg = with_scheme(make_table3_config(), scheme)
    d_low, d_high = (ChannelInfoMatrix(np.zeros_like(generate_tx_grid(band, 0).pilots), band)
                     for band in (cfg.low, cfg.high))
    with pytest.raises(NonFiniteSpectrum):
        estimate_any_scheme(d_low, d_high, cfg, SolverOptions(max_iters=5))


@pytest.mark.parametrize("scheme", [Scheme.CA2, Scheme.CA3])
def test_block_band_cs_velocity_spectrum_thresholded_to_zero_raises(scheme):
    # lam = lambda_scale * max|A*d| per row, so lambda_scale 1 thresholds every bin
    cfg = with_scheme(make_table3_config(), scheme)
    d_low, d_high = channel_pair(cfg, Target(117.0, 30.0), snr_db=10.0)
    block = d_low if isinstance(cfg.low.pilot, Block) else d_high
    spectrum = band_spectrum(block, "velocity", C0, SolverOptions(lambda_scale=1.0))
    assert not spectrum.values.any()
    with pytest.raises(NonFiniteSpectrum):
        peak_estimate(spectrum, "velocity")
