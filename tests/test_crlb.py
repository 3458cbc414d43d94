import numpy as np
import pytest

from casense.channel import sigma_for_snr
from casense.config import (
    BandConfig,
    Block,
    CaConfig,
    Comb,
    Scheme,
    make_table3_config,
    with_scheme,
)
from casense.crlb import (
    CrlbInputs,
    band_fisher,
    band_pilot_axes,
    crlb_closed_form,
    crlb_oracle,
    crlb_report_for_snr,
    crlb_sweep,
    fisher_oracle,
    report_from_fisher,
    sigma_from_snr,
)
from casense.errors import InvalidConfig, InvalidNoiseLevel, SingularFisher, UnsupportedScheme
from conftest import lattice_config, log_likelihood, score, signal_model


def test_band_fisher_tiny_full_grid_by_hand():
    # full 2x2 grid: F11 = (1/sigma^2) sum (2 pi n delta_f)^2 = 2 (2 pi delta_f)^2
    band = BandConfig(1e9, 1e4, 2, 2, 0.0, Comb(1))
    f11, f12, f22 = band_fisher(band, h=1.0, sigma=1.0)
    assert f11 == pytest.approx(2 * (2 * np.pi * 1e4) ** 2, rel=1e-12)
    tfc = band.symbol_duration * band.fc
    assert f22 == pytest.approx(2 * (2 * np.pi * tfc) ** 2, rel=1e-12)
    assert f12 == pytest.approx(-((2 * np.pi) ** 2) * 1e4 * tfc, rel=1e-12)


def test_fisher_scales_with_sigma():
    cfg = make_table3_config()
    f1 = fisher_oracle(CrlbInputs(cfg, h=1.0, sigma=1.0))
    f2 = fisher_oracle(CrlbInputs(cfg, h=1.0, sigma=2.0))
    for a, b in zip(f1, f2):
        assert b == pytest.approx(a / 4.0, rel=1e-12)
    r1 = crlb_oracle(CrlbInputs(cfg, h=1.0, sigma=1.0))
    r2 = crlb_oracle(CrlbInputs(cfg, h=1.0, sigma=2.0))
    assert r2.crlb_range == pytest.approx(4.0 * r1.crlb_range, rel=1e-12)
    assert r2.crlb_velocity == pytest.approx(4.0 * r1.crlb_velocity, rel=1e-12)


def test_singular_fisher_without_time_diversity():
    # no Doppler information: F22 = 0 makes the matrix singular
    with pytest.raises(SingularFisher):
        report_from_fisher(4.0, 1.0, 0.0, 3e8)


def test_crlb_report_consistency():
    cfg = make_table3_config()
    rep = crlb_oracle(CrlbInputs(cfg, 1.0, 0.5))
    assert rep.crlb_range == pytest.approx(0.25 * cfg.c0**2 * rep.crlb_tau, rel=1e-12)
    assert rep.crlb_velocity == pytest.approx(0.25 * cfg.c0**2 * rep.crlb_theta, rel=1e-12)
    assert rep.rcrlb_range == pytest.approx(np.sqrt(rep.crlb_range), rel=1e-12)
    assert rep.rcrlb_velocity == pytest.approx(np.sqrt(rep.crlb_velocity), rel=1e-12)


LATTICE = [
    (n, m, k, q, scheme)
    for n in (8, 16, 64, 512)
    for m in (8, 16, 64)
    for k in (2, 4)
    for q in (2, 4)
    for scheme in Scheme
]


@pytest.mark.parametrize("n,m,k,q,scheme", LATTICE)
def test_closed_form_matches_oracle_on_lattice(n, m, k, q, scheme):
    cfg = lattice_config(n, m, k, q, scheme)
    inputs = CrlbInputs(cfg, h=1.3, sigma=0.7)
    closed = crlb_closed_form(inputs)
    oracle = crlb_oracle(inputs)
    assert closed.crlb_range == pytest.approx(oracle.crlb_range, rel=1e-6)
    if scheme is Scheme.CA3:
        # the full-block velocity closed form drops the pilot symbol
        # stride: it is exactly Q^2 times the Fisher value
        assert closed.crlb_velocity == pytest.approx(q * q * oracle.crlb_velocity, rel=1e-6)
    else:
        assert closed.crlb_velocity == pytest.approx(oracle.crlb_velocity, rel=1e-6)


def test_scheme_ordering_at_reference_parameters():
    reports = {}
    for scheme in Scheme:
        cfg = with_scheme(make_table3_config(), scheme)
        reports[scheme] = crlb_closed_form(CrlbInputs(cfg, 1.0, 1.0))
    ranges = {s: r.crlb_range for s, r in reports.items()}
    assert min(ranges, key=ranges.get) is Scheme.CA1
    # velocity: full-comb lowest, staggered close behind
    assert reports[Scheme.CA4].crlb_velocity <= reports[Scheme.CA1].crlb_velocity
    gap_db = 10 * np.log10(
        reports[Scheme.CA1].crlb_velocity / reports[Scheme.CA4].crlb_velocity
    )
    assert 0 <= gap_db <= 3.0


def test_unsupported_scheme_parameters():
    cfg = with_scheme(make_table3_config(), Scheme.CA4)
    from dataclasses import replace

    uneven = CaConfig(
        low=replace(cfg.low, pilot=Comb(2)),
        high=cfg.high,
        scheme=Scheme.CA4,
        c0=cfg.c0,
    )
    with pytest.raises(UnsupportedScheme):
        crlb_closed_form(CrlbInputs(uneven, 1.0, 1.0))


def test_sweep_snr_scaling():
    cfg = make_table3_config()
    rows = crlb_sweep(cfg, [-10.0, 0.0])
    by_snr = {r.snr_db: r.report for r in rows}
    assert by_snr[0.0].crlb_range == pytest.approx(by_snr[-10.0].crlb_range / 10.0, rel=1e-9)
    assert by_snr[0.0].crlb_velocity == pytest.approx(
        by_snr[-10.0].crlb_velocity / 10.0, rel=1e-9
    )


def test_single_band_range_crlb_scales_with_spacing():
    # doubling delta_f at fixed symbol duration divides CRLB(R) by 4
    base = BandConfig(24e9, 120e3, 64, 16, 2e-6, Block(4))
    t_target = base.symbol_duration
    doubled = BandConfig(24e9, 240e3, 64, 16, t_target - 1 / 240e3, Block(4))
    assert doubled.symbol_duration == pytest.approx(t_target, rel=1e-12)
    rep1 = report_from_fisher(*band_fisher(base), 3e8)
    rep2 = report_from_fisher(*band_fisher(doubled), 3e8)
    assert rep2.crlb_range == pytest.approx(rep1.crlb_range / 4.0, rel=1e-9)


def test_sweep_spacing_tradeoff():
    cfg = make_table3_config()
    rows = crlb_sweep(cfg, [0.0], delta_f_high_grid=[60e3, 120e3, 240e3])
    by_df = {r.delta_f: r.report for r in rows}
    spacings = sorted(by_df)
    for a, b in zip(spacings, spacings[1:]):
        assert by_df[b].crlb_range < by_df[a].crlb_range
        assert by_df[b].crlb_velocity > by_df[a].crlb_velocity


def test_sweep_rejects_empty_grids():
    cfg = make_table3_config()
    with pytest.raises(ValueError):
        crlb_sweep(cfg, [])
    with pytest.raises(ValueError):
        crlb_sweep(cfg, [0.0], delta_f_high_grid=[])


def test_sigma_from_snr_mapping():
    # per-sample SNR h^2/E|w|^2; sigma is per real component
    assert sigma_from_snr(0.0, 1.0) == pytest.approx(1 / np.sqrt(2))
    assert sigma_from_snr(20.0, 1.0) == pytest.approx(0.1 / np.sqrt(2))
    rep_cf = crlb_report_for_snr(make_table3_config(), 0.0)
    rep_or = crlb_report_for_snr(make_table3_config(), 0.0, method="oracle")
    assert rep_cf.crlb_range == pytest.approx(rep_or.crlb_range, rel=1e-9)


@pytest.mark.parametrize("method", ["closed_form", "Closed-Form", "Oracle", ""])
def test_unknown_bound_method_is_rejected_not_read_as_oracle(method):
    cfg = make_table3_config()
    with pytest.raises(InvalidConfig, match="must be 'closed-form' or 'oracle'"):
        crlb_report_for_snr(cfg, 0.0, method=method)
    with pytest.raises(InvalidConfig, match="must be 'closed-form' or 'oracle'"):
        crlb_sweep(cfg, [0.0], method=method)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0, 3.7])
def test_sigma_from_snr_is_the_channel_sigma_over_sqrt2(h):
    # bit-equal to the simulator's total noise std over sqrt(2), and to the
    # per-component formula the CRLB module used to evaluate on its own
    for snr_db in [k / 10 for k in range(-400, 401)]:
        assert sigma_from_snr(snr_db, h) == sigma_for_snr(snr_db, h) / np.sqrt(2.0)
        assert sigma_from_snr(snr_db, h) == h * 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(6):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        band = BandConfig(
            fc=rng.uniform(1e9, 30e9),
            delta_f=rng.uniform(10e3, 200e3),
            n_subcarriers=n,
            n_symbols=m,
            t_cp=rng.uniform(0.0, 3e-6),
            pilot=Comb(1),
        )
        freqs, times_fc = band_pilot_axes(band)
        h, sigma = 1.0, 0.3
        tau = rng.uniform(0.0, 0.2) / band.delta_f / n
        theta = rng.uniform(0.0, 0.2) / (band.symbol_duration * band.fc) / m
        y = signal_model(tau, theta, freqs, times_fc, h)
        y = y + 0.1 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        an_tau, an_theta = score(y, tau, theta, freqs, times_fc, h, sigma)
        d_tau = 1e-7 / (band.delta_f * n)
        d_theta = 1e-7 / (band.symbol_duration * band.fc * m)
        fd_tau = (
            log_likelihood(y, tau + d_tau, theta, freqs, times_fc, h, sigma)
            - log_likelihood(y, tau - d_tau, theta, freqs, times_fc, h, sigma)
        ) / (2 * d_tau)
        fd_theta = (
            log_likelihood(y, tau, theta + d_theta, freqs, times_fc, h, sigma)
            - log_likelihood(y, tau, theta - d_theta, freqs, times_fc, h, sigma)
        ) / (2 * d_theta)
        assert an_tau == pytest.approx(fd_tau, rel=1e-5)
        assert an_theta == pytest.approx(fd_theta, rel=1e-5)


def test_crlb_inputs_validation():
    cfg = make_table3_config()
    with pytest.raises(ValueError):
        CrlbInputs(cfg, h=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        CrlbInputs(cfg, h=1.0, sigma=0.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_crlb_inputs_reject_a_noise_level_without_a_finite_bound(sigma):
    with pytest.raises(InvalidNoiseLevel) as info:
        CrlbInputs(make_table3_config(), h=1.0, sigma=sigma)
    assert isinstance(info.value, ValueError)
