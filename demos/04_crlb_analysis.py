"""Cramer-Rao bounds: closed forms, the Fisher summation oracle, the
range/velocity tradeoff in subcarrier spacing, and the scheme comparison.
"""

import numpy as np

from casense import (
    CrlbInputs,
    Scheme,
    crlb_closed_form,
    crlb_oracle,
    crlb_sweep,
    make_table3_config,
    with_scheme,
)

cfg = make_table3_config()

print("closed form vs direct Fisher summation (staggered, h=1, sigma=1):")
closed = crlb_closed_form(CrlbInputs(cfg))
oracle = crlb_oracle(CrlbInputs(cfg))
print(f"  RCRLB range   : {closed.rcrlb_range:.6e} m     (oracle {oracle.rcrlb_range:.6e})")
print(f"  RCRLB velocity: {closed.rcrlb_velocity:.6e} m/s (oracle {oracle.rcrlb_velocity:.6e})")

print("\nrange/velocity tradeoff over high-band subcarrier spacing (SNR 0 dB):")
rows = crlb_sweep(cfg, [0.0], delta_f_high_grid=[30e3, 60e3, 120e3, 240e3, 480e3])
print("  delta_f_2     RCRLB(range)     RCRLB(velocity)")
for row in rows:
    print(f"  {row.delta_f/1e3:6.0f} kHz   {row.report.rcrlb_range:.6e} m   {row.report.rcrlb_velocity:.6e} m/s")

print("\nscheme comparison at the reference parameters (h=1, sigma=1):")
print("  scheme   CRLB(range) m^2    CRLB(velocity) (m/s)^2   note")
for scheme in Scheme:
    scfg = with_scheme(cfg, scheme)
    closed = crlb_closed_form(CrlbInputs(scfg))
    oracle = crlb_oracle(CrlbInputs(scfg))
    note = ""
    if abs(closed.crlb_velocity / oracle.crlb_velocity - 1) > 1e-6:
        note = f"(closed velocity form = Q^2 x Fisher value; oracle {oracle.crlb_velocity:.4e})"
    print(f"  {scheme.value}    {closed.crlb_range:.6e}     {closed.crlb_velocity:.6e}   {note}")

r_best = min(Scheme, key=lambda s: crlb_closed_form(CrlbInputs(with_scheme(cfg, s))).crlb_range)
v_best = min(Scheme, key=lambda s: crlb_oracle(CrlbInputs(with_scheme(cfg, s))).crlb_velocity)
print(f"\nbest range bound: {r_best.value}; best velocity bound: {v_best.value}")
ca1 = crlb_closed_form(CrlbInputs(cfg)).crlb_velocity
ca4 = crlb_closed_form(CrlbInputs(with_scheme(cfg, Scheme.CA4))).crlb_velocity
print(f"staggered-vs-full-comb velocity gap: {10*np.log10(ca1/ca4):.3f} dB")
