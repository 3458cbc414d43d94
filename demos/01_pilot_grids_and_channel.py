"""Walk through the signal model: aggregated pilot grids and the channel
information matrices they produce.

Two OFDM component carriers are aggregated: a 5.9 GHz band with 30 kHz
subcarriers and a 24 GHz band with 120 kHz subcarriers. In the staggered
structure the low band carries a comb pilot (every 4th subcarrier, every
symbol) and the high band a block pilot (every subcarrier, every 4th
symbol). Run with:  python demos/01_pilot_grids_and_channel.py
"""

import numpy as np

from casense import (
    Target,
    TargetScene,
    generate_tx_grid,
    make_table3_config,
    pilot_mask,
    sigma_for_snr,
    simulate_channel_info,
)

cfg = make_table3_config()
print("Aggregated configuration")
print(f"  low band : fc={cfg.low.fc/1e9:.1f} GHz, delta_f={cfg.low.delta_f/1e3:.0f} kHz, "
      f"T={cfg.low.symbol_duration*1e6:.3f} us, pilot={cfg.low.pilot}")
print(f"  high band: fc={cfg.high.fc/1e9:.1f} GHz, delta_f={cfg.high.delta_f/1e3:.0f} kHz, "
      f"T={cfg.high.symbol_duration*1e6:.3f} us, pilot={cfg.high.pilot}")
print(f"  spacing ratio K = {cfg.k_ratio}")
print(f"  T1*fc1 = {cfg.low.symbol_duration*cfg.low.fc:.1f} = "
      f"T2*fc2 = {cfg.high.symbol_duration*cfg.high.fc:.1f}  (velocity fusion constraint)")

# pilot layouts, sketched over a small corner of each grid
for name, band in (("low", cfg.low), ("high", cfg.high)):
    mask = pilot_mask(band)
    print(f"\n{name} band pilot mask (first 8 subcarriers x 8 symbols):")
    for row in mask[:8, :8]:
        print("   " + "".join("#" if x else "." for x in row))
    print(f"  occupied resource elements: {int(mask.sum())} of {mask.size}")

# a single point target imprints phase ramps on the pilot positions
target = Target(range_m=117.0, velocity_mps=30.0, gain=1.0)
tx = generate_tx_grid(cfg.high, seed=1)
noiseless = simulate_channel_info(tx, TargetScene((target,), noise_sigma=0.0), c0=cfg.c0)
step = np.angle(noiseless.values[1, 0] / noiseless.values[0, 0])
expected = -2 * np.pi * cfg.high.delta_f * 2 * target.range_m / cfg.c0
print(f"\nrange phase step across subcarriers: {step:+.5f} rad "
      f"(model: {expected:+.5f} rad)")

sigma = sigma_for_snr(10.0, target.gain)
noisy = simulate_channel_info(
    tx, TargetScene((target,), noise_sigma=sigma, seed=42), c0=cfg.c0
)
pilots = pilot_mask(cfg.high)
snr_emp = np.mean(np.abs(noiseless.values[pilots]) ** 2) / np.mean(
    np.abs(noisy.values[pilots] - noiseless.values[pilots]) ** 2
)
print(f"empirical per-sample SNR at nominal 10 dB: {10*np.log10(snr_emp):.2f} dB")
