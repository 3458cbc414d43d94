"""Pilot placement and transmit modulation-symbol grids.

Grids are oriented subcarrier-major: rows index subcarriers n, columns index
OFDM symbols m. Where a band's pilots sit is recorded once, by
``pilot_slices(band)``; the mask and index sets below are derived from it.
Non-pilot resource elements carry zeros; the sensing chain only ever reads
pilot positions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import BandConfig, Comb
from .errors import SchemeMismatch

_QPSK = np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)  # unit-modulus corners

CSV_FLOAT_FMT = "%.16e"  # every float in a casense CSV: 17 significant digits, round-trips


@dataclass(frozen=True)
class TxGrid:
    """N x M transmit grid: unit-modulus symbols on pilot positions, zeros off."""

    symbols: np.ndarray  # complex, (N, M)
    band: BandConfig


def pilot_slices(band: BandConfig) -> tuple[slice, slice]:
    """(subcarrier slice, symbol slice) whose product is the band's pilot positions.

    Comb with interval K: (::K, :), subcarriers {0, K, ..., N-K} on all M
    symbols. Block with interval Q: (:, ::Q), all N subcarriers on symbols
    {0, Q, ..., M-Q}. Every pilot grid is addressed through this pair: a
    basic-slice view of an (N, M) array holds the pilots in row-major order.
    """
    if isinstance(band.pilot, Comb):
        return slice(None, None, band.pilot.interval), slice(None)
    return slice(None), slice(None, None, band.pilot.interval)


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
    """Fill pilot positions with uniformly random QPSK symbols.

    Deterministic per seed: the draws fill the pilots in row-major order.
    Off-pilot positions are exactly zero.
    """
    rng = np.random.default_rng(seed)
    pilots = pilot_slices(band)
    symbols = np.zeros((band.n_subcarriers, band.n_symbols), dtype=complex)
    view = symbols[pilots]
    view[...] = _QPSK[rng.integers(0, 4, size=view.shape)]
    return TxGrid(symbols=symbols, band=band)


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
