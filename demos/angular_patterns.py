"""
Beam split (linear array) versus beam defocus (circular array)
==============================================================

Both arrays are phased toward sin(angle) = 0.5 at 30 GHz and then probed
at lower frequencies.  The linear array's beam survives but walks away
from the target (beam split); the circular array's beam stays centered
but collapses in amplitude (beam defocus).  The angular closed form for
the circular pattern is accurate across the front half-plane.

Run:  python3 demos/angular_patterns.py
"""

import numpy as np

from ucabeam import (
    SPEED_OF_LIGHT,
    UlaGeometry,
    exact_gain,
    half_wavelength_uca,
    ps_gain_angular_closed_form,
    steering_ula,
    steering_uca,
)

FC = 30e9
TARGET = np.arcsin(0.5)
PROBES = (28.5e9, 29.25e9, 30e9)

# --- linear reference: the beam moves -------------------------------------
ula = UlaGeometry(256, SPEED_OF_LIGHT / FC / 2)
w_ula = steering_ula(ula, FC, TARGET)
angles = np.linspace(-np.pi / 2, np.pi / 2, 2001)
print("256-element linear array, beam aimed at sin = 0.500:")
for f in PROBES:
    pattern = np.abs(steering_ula(ula, f, angles).conj() @ w_ula)
    peak = angles[int(np.argmax(pattern))]
    print(f"  f = {f / 1e9:5.2f} GHz: peak at sin = {np.sin(peak):.3f}, "
          f"gain at target {pattern[np.argmin(np.abs(angles - TARGET))]:.3f}")

# --- circular array: the beam stays put but fades --------------------------
geom = half_wavelength_uca(256, FC)
w_uca = steering_uca(geom, FC, TARGET)
print("\n256-element circular array, same target:")
for f in PROBES:
    gains = exact_gain(w_uca, geom, f, angles)
    peak = angles[int(np.argmax(gains))]
    on_target = exact_gain(w_uca, geom, f, TARGET)
    print(f"  f = {f / 1e9:5.2f} GHz: peak {gains.max():.3f} at "
          f"{peak:+.3f} rad (target {TARGET:+.3f}), on-target gain {on_target:.3f}")

# --- closed form across the front half-plane -------------------------------
window = np.linspace(TARGET - np.pi / 2, TARGET + np.pi / 2, 1001)
worst = np.max(np.abs(
    exact_gain(w_uca, geom, 28.5e9, window)
    - ps_gain_angular_closed_form(28.5e9, FC, geom.radius_m, window, TARGET)))
print(f"\nangular closed form, 28.5 GHz, front window: max error {worst:.2e}")
