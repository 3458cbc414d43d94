"""Carrier-aggregated OFDM radar sensing toolkit.

Simulates aggregated pilot-structured symbol grids over a low and a high
band, applies point-target delay/Doppler channels, fuses the two bands with
compressed-sensing-aided Fourier processing to estimate range and velocity,
and checks estimator quality against closed-form Cramer-Rao bounds.
"""

from .channel import (
    ChannelInfoMatrix,
    Target,
    TargetScene,
    sigma_for_snr,
    simulate_channel_info,
)
from .config import (
    BandConfig,
    Block,
    CaConfig,
    Comb,
    Scheme,
    load_config,
    make_table3_config,
    save_config,
    with_high_band_spacing,
    with_scheme,
)
from .crlb import (
    CrlbInputs,
    CrlbReport,
    band_fisher,
    crlb_closed_form,
    crlb_oracle,
    crlb_report_for_snr,
    crlb_sweep,
    fisher_oracle,
    sigma_from_snr,
)
from .estimators import (
    AveragedEstimate,
    Estimate,
    PowerSpectrum,
    SolverOptions,
    estimate_any_scheme,
    estimate_band_range,
    estimate_band_velocity,
    top_k_peaks,
)
from .fusion import build_range_selection, rearrange_low_band
from .grids import TxGrid, generate_tx_grid, pilot_index_sets, pilot_mask
from .harness import (
    ExperimentSpec,
    SweepResult,
    SweepRow,
    run_high_band_baseline,
    run_sweep,
    snapshot_spectra,
    write_sweep_csv,
)
from .recovery import (
    LassoProblem,
    RecoveryResult,
    SensingOperator,
    certify_kkt,
    default_lambda,
    solve_fista,
    solve_ista,
    solve_omp,
)

__version__ = "0.1.0"
