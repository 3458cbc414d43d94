"""Pilot placement and transmit modulation-symbol grids.

Grids are oriented subcarrier-major: rows index subcarriers n, columns index
OFDM symbols m. Where a band's pilots sit is recorded once, by
``pilot_slices(band)``; the mask and index sets below are derived from it.
A band's records store only its pilot block, the array that
``pilot_slices`` selects: (N/K, M) for a comb, (N, M/Q) for a block. The
sensing chain reads nothing else; ``full_grid`` builds the N x M grid, zeros
off the pilots, anew on every call, for the grid dump.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import BandConfig, Comb
from .errors import DimensionMismatch, InvalidConfig, SchemeMismatch, check_kind, check_seed

_QPSK = np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)  # unit-modulus corners

CSV_FLOAT_FMT = "%.16e"  # every float in a casense CSV: 17 significant digits, round-trips


@dataclass(frozen=True)
class TxGrid:
    """Transmit pilot block of a band: unit-modulus symbols on its pilot positions."""

    pilots: np.ndarray  # complex, the band's pilot block (see check_pilot_block)
    band: BandConfig

    def __post_init__(self):
        check_pilot_block(self.pilots, self.band)


def pilot_slices(band: BandConfig) -> tuple[slice, slice]:
    """(subcarrier slice, symbol slice) whose product is the band's pilot positions.

    Comb with interval K: (::K, :), subcarriers {0, K, ..., N-K} on all M
    symbols. Block with interval Q: (:, ::Q), all N subcarriers on symbols
    {0, Q, ..., M-Q}. Every pilot grid is addressed through this pair: what
    it selects from an (N, M) array, in row-major order, is the band's pilot
    block, the array a TxGrid or ChannelInfoMatrix stores.
    """
    if isinstance(band.pilot, Comb):
        return slice(None, None, band.pilot.interval), slice(None)
    return slice(None), slice(None, None, band.pilot.interval)


def _block_shape(band) -> tuple[int, int]:
    """Shape of band's pilot block, (N/K, M) or (N, M/Q); InvalidConfig unless a BandConfig."""
    check_kind("band", band, BandConfig, InvalidConfig)
    rows, cols = pilot_slices(band)
    return len(range(band.n_subcarriers)[rows]), len(range(band.n_symbols)[cols])


def check_pilot_block(pilots, band) -> None:
    """Raise InvalidConfig unless band is a BandConfig, DimensionMismatch unless pilots is
    an array of the shape pilot_slices(band) selects from an N x M grid."""
    shape = _block_shape(band)
    if not isinstance(pilots, np.ndarray) or pilots.shape != shape:
        raise DimensionMismatch(f"pilot block of shape {np.shape(pilots)} is not {shape}")


def full_grid(band: BandConfig, pilots: np.ndarray) -> np.ndarray:
    """The complex N x M grid holding a pilot block at pilot_slices(band), zeros elsewhere."""
    grid = np.zeros((band.n_subcarriers, band.n_symbols), dtype=complex)
    grid[pilot_slices(band)] = pilots
    return grid


def require_pilot(band: BandConfig, kind: type, caller: str) -> None:
    """Raise SchemeMismatch unless band's pilot pattern is kind, naming the caller that needs it."""
    if not isinstance(band.pilot, kind):
        raise SchemeMismatch(f"{caller} needs a {kind.__name__.lower()}-pilot band")


def pilot_mask(band: BandConfig) -> np.ndarray:
    """Boolean (N, M) mask of pilot resource elements."""
    mask = np.zeros((band.n_subcarriers, band.n_symbols), dtype=bool)
    mask[pilot_slices(band)] = True
    return mask


def pilot_index_sets(band: BandConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact (subcarrier indices, symbol indices) occupied by pilots.

    The index arrays of ``pilot_slices``; the Fisher-information sums and the
    channel's phase ramps run over them.
    """
    rows, cols = pilot_slices(band)
    return np.arange(band.n_subcarriers)[rows], np.arange(band.n_symbols)[cols]


def generate_tx_grid(band: BandConfig, seed) -> TxGrid:
    """Uniformly random QPSK symbols on the band's pilot positions.

    Deterministic per seed (see errors.check_seed): the draws fill the pilot
    block in row-major order.
    """
    check_seed("seed", seed, InvalidConfig)
    draw = np.random.default_rng(seed).integers(0, 4, size=_block_shape(band))
    return TxGrid(pilots=_QPSK[draw], band=band)


def write_csv(path, header, rows) -> None:
    """Write a header line and rows: float cells as CSV_FLOAT_FMT, other cells as is.

    The one CSV writer of casense. Python and numpy floats (np.float64,
    np.float32) are formatted; ints, np.int64 and strings are written as
    their str().
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            cells = [CSV_FLOAT_FMT % v if isinstance(v, (float, np.floating)) else v for v in row]
            writer.writerow(cells)


def dump_grid_csv(values: np.ndarray, mask: np.ndarray, path) -> None:
    """Debug dump of a complex grid: one row per (n, m) with re/im/mask."""
    n, m = np.indices(values.shape)
    columns = (n, m, values.real.astype(float), values.imag.astype(float), mask.astype(int))
    rows = zip(*(c.ravel().tolist() for c in columns))
    write_csv(path, ["n", "m", "re", "im", "mask"], rows)
