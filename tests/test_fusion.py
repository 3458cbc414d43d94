import numpy as np
import pytest

from casense.channel import ChannelInfoMatrix, Target, TargetScene, simulate_channel_info
from casense.config import BandConfig, Block, Comb, make_table3_config
from casense.errors import PatternMismatch
from casense.fusion import build_range_selection, rearrange_low_band
from casense.grids import generate_tx_grid, pilot_mask

C0 = 3e8


def comb_matrix(n=8, m=3, k=4, fill=None):
    band = BandConfig(5.9e9, 30e3, n, m, 1e-6, Comb(k))
    values = np.zeros((n, m), complex)
    mask = pilot_mask(band)
    if fill is None:
        rng = np.random.default_rng(0)
        fill = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    values[mask] = fill[mask]
    return ChannelInfoMatrix(values=values, band=band)


def test_rearrange_small_example():
    d = comb_matrix(n=8, m=3, k=4)
    out = rearrange_low_band(d, 4)
    assert out.shape == (2, 3)
    assert np.array_equal(out[0], d.values[0])
    assert np.array_equal(out[1], d.values[4])


def test_rearrange_table3_valid_rows():
    cfg = make_table3_config()
    tx = generate_tx_grid(cfg.low, seed=0)
    d = simulate_channel_info(tx, TargetScene((Target(50.0, 5.0),), 0.0), c0=C0)
    out = rearrange_low_band(d, cfg.k_ratio)
    assert out.shape == (128, cfg.low.n_symbols)


def test_rearrange_preserves_values_bit_exactly():
    d = comb_matrix(n=16, m=4, k=2)
    out = rearrange_low_band(d, 2)
    gathered = d.values[::2]
    assert np.array_equal(out, gathered)
    # injective: row count preserved, no duplicates introduced
    assert out.shape == gathered.shape


def test_rearranged_phase_progression_matches_high_band_grid():
    # after the rearrangement the per-row range phase steps by the high-band
    # spacing: row1/row0 = exp(-j 2 pi delta_f2 2R/c0)
    cfg = make_table3_config()
    r = 117.0
    tx = generate_tx_grid(cfg.low, seed=1)
    d = simulate_channel_info(tx, TargetScene((Target(r, 30.0),), 0.0), c0=C0)
    out = rearrange_low_band(d, cfg.k_ratio)
    ratio = out[1, 0] / out[0, 0]
    expected = np.exp(-2j * np.pi * cfg.high.delta_f * 2 * r / C0)
    assert ratio == pytest.approx(expected, rel=1e-9)


def test_rearranged_matches_high_band_range_law_elementwise():
    cfg = make_table3_config()
    r = 93.5
    tx_low = generate_tx_grid(cfg.low, seed=2)
    d_low = simulate_channel_info(tx_low, TargetScene((Target(r, 0.0),), 0.0), c0=C0)
    out = rearrange_low_band(d_low, cfg.k_ratio)
    k_r2 = np.exp(-2j * np.pi * np.arange(len(out)) * cfg.high.delta_f * 2 * r / C0)
    got = out[:, 0] / out[0, 0]
    assert np.max(np.abs(got - k_r2)) < 1e-9


def test_doppler_laws_coincide_across_bands():
    # with T1 fc1 = T2 fc2 the per-symbol Doppler laws are identical, so the
    # FFT argmax bins coincide on noiseless rows
    cfg = make_table3_config()
    v = 30.0
    m = np.arange(cfg.low.n_symbols)
    k_d1 = np.exp(2j * np.pi * m * cfg.low.symbol_duration * 2 * v * cfg.low.fc / C0)
    k_d2 = np.exp(2j * np.pi * m * cfg.high.symbol_duration * 2 * v * cfg.high.fc / C0)
    assert np.max(np.abs(k_d1 - k_d2)) < 1e-9
    assert np.argmax(np.abs(np.fft.fft(k_d1))) == np.argmax(np.abs(np.fft.fft(k_d2)))


def test_rearrange_rejects_block_band():
    band = BandConfig(24e9, 120e3, 8, 4, 1e-6, Block(2))
    d = ChannelInfoMatrix(values=np.zeros((8, 4), complex), band=band)
    with pytest.raises(PatternMismatch):
        rearrange_low_band(d, 2)


def test_rearrange_rejects_wrong_step():
    d = comb_matrix(n=8, m=3, k=4)
    with pytest.raises(PatternMismatch):
        rearrange_low_band(d, 2)


def test_build_range_selection():
    assert build_range_selection(2, 4).tolist() == [True, True, False, False]
    assert build_range_selection(128, 512).sum() == 128
    assert build_range_selection(128, 512)[:128].all()
    assert build_range_selection(4, 4).all()
    with pytest.raises(ValueError):
        build_range_selection(0, 4)
    with pytest.raises(ValueError):
        build_range_selection(5, 4)
