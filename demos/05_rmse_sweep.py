"""Monte-Carlo RMSE versus SNR for the staggered scheme, next to the root
CRLB and the high-band-only baselines.

Going low in SNR the estimator breaks down; above the convergence threshold
the RMSE locks to the bin-quantization floor (0.1875 m and 0.3176 m/s for
the fixed 117 m / 30 m/s target). Trials are kept small here so the script
finishes in about a minute; raise them for smoother curves.
"""

import numpy as np

from casense import (
    ExperimentSpec,
    Scheme,
    SolverOptions,
    Target,
    make_table3_config,
    run_high_band_baseline,
    run_sweep,
)

cfg = make_table3_config()
target = Target(range_m=117.0, velocity_mps=30.0)
snrs = tuple(float(s) for s in range(-28, 1, 4))
trials = 20
solver = SolverOptions(max_iters=40, tol=1e-4)

spec = ExperimentSpec(
    cfg=cfg,
    schemes=(Scheme.CA1,),
    target=target,
    snr_grid=snrs,
    trials=trials,
    master_seed=1,
    solver=solver,
)
rows = run_sweep(spec)
base = run_high_band_baseline(spec)

print(f"{trials} trials per point, fixed target {target.range_m} m / {target.velocity_mps} m/s")
print("SNR(dB)  RMSE_r(m)  base_r(m)  RCRLB_r(m)   RMSE_v(m/s)  base_v(m/s)  RCRLB_v(m/s)")
for row, b in zip(rows, base):
    print(
        f"{row.snr_db:+6.0f}  {row.rmse_range:9.4f}  {b['rmse_range_high_block']:9.4f}"
        f"  {row.rcrlb_range:10.3e}  {row.rmse_velocity:11.4f}"
        f"  {b['rmse_velocity_high_comb']:11.4f}  {row.rcrlb_velocity:10.3e}"
    )

floor_r = abs(48 * cfg.range_bin_width - target.range_m)
floor_v = abs(3 * cfg.velocity_bin_width - target.velocity_mps)
print(f"\nquantization floors: {floor_r:.4f} m, {floor_v:.4f} m/s")
print("RMSE converges to these floors once the SNR clears the threshold;")
print("the root CRLB keeps falling, which is the bin-limited resolution gap.")
