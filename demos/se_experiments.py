"""
Spectrum efficiency of delay-phase precoding over random channels
=================================================================

Monte-Carlo comparison of three transmitters on the same wideband OFDM
channel realizations: a classic phase-shifter hybrid, the delay-phase
hybrid with K delay units per chain, and the fully digital water-filling
upper bound.  As K grows the delay-phase architecture closes the gap to
fully digital.  The same experiment is scriptable from the shell:

    ucabeam run fig9 --out fig9.csv

Run:  python3 demos/se_experiments.py
"""

import numpy as np

from ucabeam import (
    FrequencyGrid,
    SPEED_OF_LIGHT,
    UlaGeometry,
    build_designs,
    generate_channel,
    half_wavelength_uca,
    spectrum_efficiency,
)

FC = 30e9
SNR_DB = 10.0
N_SEEDS = 5          # increase toward 20 for smoother statistics
M = 64
K_TTDS = (1, 2, 4, 8, 16, 32)

rho = 10.0 ** (SNR_DB / 10.0)
tx = half_wavelength_uca(256, FC)
rx = UlaGeometry(4, SPEED_OF_LIGHT / FC / 2)
grid = FrequencyGrid(FC, 3e9, M)

print(f"{N_SEEDS} channel draws, {M} subcarriers, 4 RF chains, "
      f"4 streams, SNR {SNR_DB:.0f} dB\n")
print(f"{'K':>3} {'classic':>9} {'delay-phase':>12} {'optimal':>9} {'dpp/opt':>8}")

se_classic, se_dpp, se_opt = [], {k: [] for k in K_TTDS}, []
for seed in range(N_SEEDS):
    ch = generate_channel(tx, rx, grid, 4, 2024 + seed)
    # one call builds the SNR-independent part of every precoder on all M
    # subcarriers, one design per delay-unit count; K = 1 is the classic
    # design and the key None the fully digital bound.  spectrum_efficiency
    # rates a design at rho
    designs = build_designs(ch, 4, 4, (None,) + K_TTDS)
    se_classic.append(np.mean(spectrum_efficiency(designs[1], rho)))
    for k_ttd in K_TTDS:
        se_dpp[k_ttd].append(np.mean(spectrum_efficiency(designs[k_ttd], rho)))
    se_opt.append(np.mean(spectrum_efficiency(designs[None], rho)))

c, o = np.mean(se_classic), np.mean(se_opt)
for k_ttd in K_TTDS:
    d = np.mean(se_dpp[k_ttd])
    print(f"{k_ttd:>3} {c:>9.2f} {d:>12.2f} {o:>9.2f} {d / o:>8.3f}")

print("\nclassic stays flat (one delay per chain is absorbed by the digital "
      "stage);\nthe delay-phase architecture approaches fully digital from "
      "K = 8 onward")
