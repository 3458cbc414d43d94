"""Rearrangement and the range selection mask that align the two bands' spectra.

A comb band with interval K samples the range phase ramp at subcarriers
0, K, 2K, ...; gathering those rows into the leading rows turns the ramp
into one with effective spacing K*delta_f on consecutive indices. When
K equals the spacing ratio delta_f_high/delta_f_low, the rearranged low
band lands on exactly the high band's range-bin grid.

The selection matrix is represented as a boolean row mask; the Hadamard
product with a Fourier matrix then becomes a row filter (identical math,
no rank-deficient square matrix stored).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInfoMatrix
from .config import BandConfig, Comb
from .errors import PatternMismatch
from .grids import pilot_slices


@dataclass(frozen=True)
class RearrangedMatrix:
    """Comb-band matrix with pilot rows gathered into the leading rows."""

    values: np.ndarray  # complex, (N, M); rows >= valid_rows are zero
    valid_rows: int  # = N / K
    provenance: BandConfig


def rearrange_low_band(d: ChannelInfoMatrix, k_ratio: int) -> RearrangedMatrix:
    """Gather row i*k_ratio of a comb-band matrix into row i.

    Row gathering only, no interpolation: exact whenever the comb interval
    equals the gather step. Populated values are preserved bit-exactly.
    """
    if not isinstance(d.band.pilot, Comb) or d.band.pilot.interval != k_ratio:
        raise PatternMismatch(
            f"expected a comb band with interval {k_ratio}, got {d.band.pilot!r}"
        )
    rows = d.values[pilot_slices(d.band)]
    out = np.zeros_like(d.values)
    out[: len(rows)] = rows
    return RearrangedMatrix(values=out, valid_rows=len(rows), provenance=d.band)


def build_range_selection(valid_rows: int, n: int) -> np.ndarray:
    """Leading-rows mask: True on [0, valid_rows), False elsewhere."""
    if not 0 < valid_rows <= n:
        raise ValueError(f"valid_rows must be in (0, {n}], got {valid_rows}")
    mask = np.zeros(n, dtype=bool)
    mask[:valid_rows] = True
    return mask
