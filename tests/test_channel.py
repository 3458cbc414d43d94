import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casense.channel import (
    Target,
    TargetScene,
    sigma_for_snr,
    simulate_channel_info,
)
from casense.config import Scheme, make_table3_config, with_scheme
from casense.errors import (
    CasenseError,
    EmptyScene,
    InvalidNoiseLevel,
    InvalidTarget,
    VelocityAmbiguityWarning,
)
from casense.grids import generate_tx_grid, pilot_mask

C0 = 3e8


@pytest.fixture
def table3():
    return make_table3_config()


def make_matrix(band, targets, sigma=0.0, seed=0, c0=C0):
    tx = generate_tx_grid(band, seed=seed)
    scene = TargetScene(targets=tuple(targets), noise_sigma=sigma, seed=seed + 1)
    return simulate_channel_info(tx, scene, c0=c0)


def test_zero_target_gives_all_ones(table3):
    d = make_matrix(table3.high, [Target(0.0, 0.0, 1.0)])
    mask = pilot_mask(d.band)
    assert np.allclose(d.values[mask], 1.0, atol=1e-12)
    assert np.all(d.values[~mask] == 0)


def test_unit_modulus_phase_factors(table3):
    d = make_matrix(table3.low, [Target(80.0, 12.0, 0.7 - 0.1j)])
    mags = np.abs(d.values[pilot_mask(d.band)])
    assert np.allclose(mags, abs(0.7 - 0.1j), atol=1e-12)


def test_range_phase_step_high_band(table3):
    # phase advance between adjacent subcarriers is -2 pi delta_f 2R/c0
    r = 117.0
    d = make_matrix(table3.high, [Target(r, 30.0, 1.0)])
    expected = -2 * np.pi * table3.high.delta_f * 2 * r / C0
    got = np.angle(d.values[1, 0] / d.values[0, 0])
    assert got == pytest.approx(np.angle(np.exp(1j * expected)), abs=1e-9)
    assert got == pytest.approx(-0.58811, abs=1e-4)


def test_doppler_phase_step(table3):
    v = 30.0
    d = make_matrix(table3.low, [Target(0.0, v, 1.0)])
    t1 = table3.low.symbol_duration
    expected = 2 * np.pi * t1 * 2 * v * table3.low.fc / C0
    got = np.angle(d.values[0, 1] / d.values[0, 0])
    assert got == pytest.approx(expected, abs=1e-9)


def test_sigma_for_snr_values():
    assert sigma_for_snr(0.0, 1.0) == pytest.approx(1.0)
    assert sigma_for_snr(10.0, 1.0) == pytest.approx(10 ** -0.5)
    assert sigma_for_snr(-20.0, 2.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        sigma_for_snr(0.0, 0.0)


def test_noiseless_single_target_is_rank_one(table3):
    d = make_matrix(table3.low, [Target(53.3, 17.1, 0.8 + 0.6j)])
    sub = d.values[::4, :]  # populated comb rows
    # all 2x2 minors of a rank-1 matrix vanish
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = rng.integers(0, sub.shape[0], 2)
        p, q = rng.integers(0, sub.shape[1], 2)
        minor = sub[i, p] * sub[j, q] - sub[i, q] * sub[j, p]
        assert abs(minor) < 1e-9


def test_noise_reproducible_and_masked(table3):
    tgt = [Target(90.0, 10.0)]
    d1 = make_matrix(table3.high, tgt, sigma=0.5, seed=7)
    d2 = make_matrix(table3.high, tgt, sigma=0.5, seed=7)
    d3 = make_matrix(table3.high, tgt, sigma=0.5, seed=8)
    assert np.array_equal(d1.values, d2.values)
    assert not np.array_equal(d1.values, d3.values)
    assert np.all(d1.values[~pilot_mask(d1.band)] == 0)


def test_scale_equivariance_of_noiseless_part(table3):
    base = make_matrix(table3.high, [Target(70.0, 5.0, 1.0)])
    scaled = make_matrix(table3.high, [Target(70.0, 5.0, 2.0)])
    s1 = np.abs(np.fft.ifft(base.values[:, 0]))
    s2 = np.abs(np.fft.ifft(scaled.values[:, 0]))
    assert np.allclose(s1 / s1.max(), s2 / s2.max(), atol=1e-12)


def test_multiple_targets_superpose(table3):
    t1, t2 = Target(40.0, 5.0, 1.0), Target(90.0, -8.0, 0.5j)
    d1 = make_matrix(table3.high, [t1])
    d2 = make_matrix(table3.high, [t2])
    d12 = make_matrix(table3.high, [t1, t2])
    assert np.allclose(d12.values, d1.values + d2.values, atol=1e-12)


def test_empty_scene_rejected(table3):
    tx = generate_tx_grid(table3.high, seed=0)
    with pytest.raises(EmptyScene):
        simulate_channel_info(tx, TargetScene(targets=(), noise_sigma=0.0), c0=C0)


def test_velocity_ambiguity_warns(table3):
    # unambiguous span of the high band is ~323 m/s
    with pytest.warns(VelocityAmbiguityWarning):
        make_matrix(table3.high, [Target(10.0, 400.0)])


def test_range_beyond_unambiguous_span_rejected(table3):
    r_max = C0 / (2 * table3.high.delta_f)
    with pytest.raises(InvalidTarget):
        make_matrix(table3.high, [Target(r_max + 1.0, 0.0)])


def test_target_validation():
    with pytest.raises(ValueError):
        Target(-1.0, 0.0)
    with pytest.raises(ValueError):
        Target(10.0, 0.0, gain=0.0)
    with pytest.raises(ValueError):
        TargetScene(targets=(Target(1.0, 1.0),), noise_sigma=-0.1)


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf"), -float("inf")])
def test_target_scene_rejects_non_finite_or_negative_noise(sigma):
    with pytest.raises(InvalidNoiseLevel) as info:
        TargetScene(targets=(Target(1.0, 1.0),), noise_sigma=sigma)
    assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("snr_db", [-7000.0, -6200.0, float("nan"), -float("inf")])
def test_sigma_for_snr_rejects_snr_without_a_finite_noise_level(snr_db):
    with pytest.raises(InvalidNoiseLevel) as info:
        sigma_for_snr(snr_db, 1.0)
    assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError)


def test_sigma_for_snr_keeps_finite_extremes():
    assert sigma_for_snr(-6000.0, 1.0) == 1e300
    assert sigma_for_snr(6000.0, 1.0) == 1e-300
    assert sigma_for_snr(7000.0, 1.0) == 0.0  # underflows to the noiseless limit, as +inf does
    assert sigma_for_snr(float("inf"), 1.0) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(range_m=-1.0, velocity_mps=0.0),
        dict(range_m=float("nan"), velocity_mps=0.0),
        dict(range_m=float("inf"), velocity_mps=0.0),
        dict(range_m=10.0, velocity_mps=float("nan")),
        dict(range_m=10.0, velocity_mps=float("inf")),
        dict(range_m=10.0, velocity_mps=-float("inf")),
        dict(range_m=10.0, velocity_mps=0.0, gain=0.0),
        dict(range_m=10.0, velocity_mps=0.0, gain=complex("nan")),
    ],
)
def test_target_rejects_non_finite_or_out_of_range_values(kwargs):
    with pytest.raises(InvalidTarget) as info:
        Target(**kwargs)
    assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError)


def full_grid_reference(tx, scene, c0):
    """Every resource element computed, then the non-pilots zeroed: the formula
    simulate_channel_info restricts to the pilot rows and columns."""
    band = tx.band
    mask = pilot_mask(band)
    n = np.arange(band.n_subcarriers)[:, None]
    m = np.arange(band.n_symbols)[None, :]
    values = np.zeros(mask.shape, dtype=complex)
    for tgt in scene.targets:
        k_r = np.exp(-2j * np.pi * n * band.delta_f * 2.0 * tgt.range_m / c0)
        k_d = np.exp(2j * np.pi * m * band.symbol_duration * 2.0 * tgt.velocity_mps * band.fc / c0)
        values += tgt.gain * (k_r * k_d)
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(scene.seed)
        w = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
        w *= scene.noise_sigma / np.sqrt(2.0)
        values += w / np.where(mask, tx.symbols, 1.0)
    values[~mask] = 0.0
    return values


TWO_TARGETS = (Target(117.0, 30.0), Target(61.3, -12.5, 0.4 - 0.3j))


@given(
    scheme=st.sampled_from([Scheme.CA1, Scheme.CA3, Scheme.CA4]),
    high=st.booleans(),
    targets=st.sampled_from([TWO_TARGETS[:1], TWO_TARGETS]),
    sigma=st.sampled_from([0.0, 0.05, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pilot_only_simulation_equals_full_grid_formula(scheme, high, targets, sigma, seed):
    cfg = with_scheme(make_table3_config(), scheme)
    band = cfg.high if high else cfg.low
    tx = generate_tx_grid(band, seed=seed)
    scene = TargetScene(targets=targets, noise_sigma=sigma, seed=seed + 1)
    d = simulate_channel_info(tx, scene, c0=cfg.c0)
    expected = full_grid_reference(tx, scene, cfg.c0)
    assert d.values.view(np.int64).tobytes() == expected.view(np.int64).tobytes()
    assert d.band == tx.band == band
