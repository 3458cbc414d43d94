"""Rearrangement and the range selection mask that align the two bands' spectra.

A comb band with interval K samples the range phase ramp at subcarriers
0, K, 2K, ...; ``rearrange_low_band`` returns those N/K rows, and read as the
leading rows of an N-point DFT they form a ramp with effective spacing
K*delta_f. When K equals the spacing ratio delta_f_high/delta_f_low, the
rearranged low band lands on exactly the high band's range-bin grid.

The selection matrix is represented as a boolean row mask; the Hadamard
product with a Fourier matrix then becomes a row filter (identical math,
no rank-deficient square matrix stored).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelInfoMatrix
from .config import Comb
from .errors import InvalidConfig, check_integer
from .grids import require_pilot


def rearrange_low_band(d: ChannelInfoMatrix) -> np.ndarray:
    """The (N/K, M) pilot rows of a comb-band matrix: row i is row i*K, K its comb interval.

    Row gathering only, no interpolation: the result is ``d.pilots``, the
    comb band's pilot block itself, so its values are the simulated ones bit
    for bit.
    """
    require_pilot(d.band, Comb, "rearrange_low_band")
    return d.pilots


def build_range_selection(valid_rows: int, n: int) -> np.ndarray:
    """Leading-rows mask: True on [0, valid_rows), False elsewhere."""
    check_integer("valid_rows", valid_rows, 1, InvalidConfig)
    check_integer("n", n, 1, InvalidConfig)
    if valid_rows > n:
        raise InvalidConfig(f"valid_rows must be in (0, {n}], got {valid_rows}")
    mask = np.zeros(n, dtype=bool)
    mask[:valid_rows] = True
    return mask
