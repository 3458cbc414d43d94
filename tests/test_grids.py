import numpy as np
import pytest

from casense.config import BandConfig, Block, Comb
from casense.grids import (
    CSV_FLOAT_FMT,
    dump_grid_csv,
    full_grid,
    generate_tx_grid,
    pilot_index_sets,
    pilot_mask,
    pilot_slices,
    write_csv,
)


def band(n, m, pilot):
    return BandConfig(fc=24e9, delta_f=120e3, n_subcarriers=n, n_symbols=m, t_cp=1e-6, pilot=pilot)


def test_comb_mask_rows():
    grid = generate_tx_grid(band(8, 2, Comb(4)), seed=0)
    mask = pilot_mask(grid.band)
    symbols = full_grid(grid.band, grid.pilots)
    assert mask[0].all() and mask[4].all()
    assert (symbols[0] != 0).all() and (symbols[4] != 0).all()
    for row in (1, 2, 3, 5, 6, 7):
        assert not mask[row].any()
        assert (symbols[row] == 0).all()


def test_block_mask_columns():
    grid = generate_tx_grid(band(2, 4, Block(2)), seed=0)
    mask = pilot_mask(grid.band)
    assert mask[:, 0].all() and mask[:, 2].all()
    assert not mask[:, 1].any() and not mask[:, 3].any()
    assert np.array_equal(full_grid(grid.band, grid.pilots) != 0, mask)


def test_same_seed_same_grid():
    b = band(16, 8, Comb(2))
    g1 = generate_tx_grid(b, seed=123)
    g2 = generate_tx_grid(b, seed=123)
    assert np.array_equal(g1.pilots, g2.pilots)
    g3 = generate_tx_grid(b, seed=124)
    assert not np.array_equal(g1.pilots, g3.pilots)


def test_pilots_are_unit_modulus():
    grid = generate_tx_grid(band(64, 16, Block(4)), seed=5)
    mags = np.abs(grid.pilots)
    assert np.all(np.abs(mags - 1.0) < 1e-12)


@pytest.mark.parametrize(
    "pilot,count",
    [(Comb(4), 64 * 16 // 4), (Block(4), 64 * 16 // 4), (Comb(1), 64 * 16)],
)
def test_mask_count_and_energy(pilot, count):
    grid = generate_tx_grid(band(64, 16, pilot), seed=1)
    symbols = full_grid(grid.band, grid.pilots)
    assert int(pilot_mask(grid.band).sum()) == np.count_nonzero(symbols) == count
    energy = float(np.sum(np.abs(symbols) ** 2))
    assert energy == pytest.approx(count, rel=1e-12)


def test_pilot_index_sets_comb():
    subs, syms = pilot_index_sets(band(512, 64, Comb(4)))
    assert len(subs) == 128
    assert subs[-1] == 508  # aK <= N-1 with a = N/K - 1
    assert np.array_equal(syms, np.arange(64))


def test_pilot_index_sets_block():
    subs, syms = pilot_index_sets(band(512, 64, Block(4)))
    assert np.array_equal(subs, np.arange(512))
    assert np.array_equal(syms, np.arange(0, 61, 4))
    assert syms[-1] == 60  # bQ <= M-1 with b = M/Q - 1


def test_pilot_index_sets_degenerate_comb():
    subs, _ = pilot_index_sets(band(16, 4, Comb(1)))
    assert np.array_equal(subs, np.arange(16))


def test_mask_matches_index_sets():
    b = band(32, 8, Comb(4))
    mask = pilot_mask(b)
    subs, syms = pilot_index_sets(b)
    expect = np.zeros_like(mask)
    expect[np.ix_(subs, syms)] = True
    assert np.array_equal(mask, expect)


SLICE_BANDS = [
    *[(16, 8, Comb(k)) for k in (1, 2, 4, 16)],
    *[(16, 8, Block(q)) for q in (1, 2, 4, 8)],
]


@pytest.mark.parametrize("n, m, pilot", SLICE_BANDS, ids=[f"{p!r}" for *_, p in SLICE_BANDS])
def test_pilot_slices_agree_with_mask_and_index_sets(n, m, pilot):
    b = band(n, m, pilot)
    rows, cols = pilot_slices(b)
    assert isinstance(rows, slice) and isinstance(cols, slice)
    n_idx, m_idx = np.indices((n, m))
    on_pilot = (n_idx % pilot.interval == 0) if isinstance(pilot, Comb) else (m_idx % pilot.interval == 0)
    grid = np.arange(n * m).reshape(n, m)
    assert np.array_equal(pilot_mask(b), on_pilot)
    assert np.array_equal(grid[rows, cols].ravel(), grid[on_pilot])  # row-major pilot order
    subs, syms = pilot_index_sets(b)
    assert np.array_equal(grid[rows, cols], grid[np.ix_(subs, syms)])
    tx = generate_tx_grid(b, seed=3)
    assert np.array_equal(full_grid(b, tx.pilots) != 0, on_pilot)


def test_grid_csv_dump(tmp_path):
    grid = generate_tx_grid(band(4, 2, Comb(2)), seed=0)
    path = tmp_path / "grid.csv"
    dump_grid_csv(full_grid(grid.band, grid.pilots), pilot_mask(grid.band), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,m,re,im,mask"
    assert len(lines) == 1 + 4 * 2


def test_write_csv_formats_float_cells_only(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        (0.1, np.float64(-2.5e-300), np.float32(0.1), 3, np.int64(-4), "CA1"),
        (1e300, np.float64(0.0), np.complex64(0.5 - 0.1j).imag, 0, np.int64(7), "a,b"),
    ]
    write_csv(path, ["f", "f64", "f32", "i", "i64", "s"], rows)
    assert path.read_bytes().decode() == (
        "f,f64,f32,i,i64,s\r\n"
        "1.0000000000000001e-01,-2.5000000000000000e-300,1.0000000149011612e-01,3,-4,CA1\r\n"
        '1.0000000000000001e+300,0.0000000000000000e+00,-1.0000000149011612e-01,0,7,"a,b"\r\n'
    )


@pytest.mark.parametrize(
    "values",
    [
        np.array([[0.5 - 0.1j, 2.0]], dtype=np.complex64),
        np.array([[1, 3]], dtype=np.int64),
        np.array([[0.5 - 0.1j, 2.0]], dtype=complex),
    ],
    ids=["complex64", "int64", "complex128"],
)
def test_grid_csv_dump_formats_re_im_for_every_dtype(tmp_path, values):
    # re/im are float columns whatever the array's dtype, as in the
    # per-column writer this one replaced
    path = tmp_path / "grid.csv"
    dump_grid_csv(values, np.array([[True, False]]), path)
    rows = path.read_text().splitlines()[1:]
    assert rows == [
        f"0,{m},{CSV_FLOAT_FMT % v.real},{CSV_FLOAT_FMT % v.imag},{int(m == 0)}"
        for m, v in enumerate(values[0])
    ]
