"""Dense reference analog stages of the hybrid precoders, for the tests.

Written out from the paper's formulas, apart from the per-arc code they
check.  A delay-phase chain steered toward phi splits the N-element ring
into K contiguous arcs of P = N/K elements.  Arc k has the centroid angle
theta_k = pi*(2k+1)/K - pi/N, the correction corr_k = exp(-j*eta_c*cos(phi -
theta_k)) to zero centroid phase (eta_c = 2*pi*R*fc/c) and the delay
t_k = (R/c)*(1 - cos(phi - theta_k)).  The chain's phase-shifter column is
the center-frequency steering vector toward phi times corr_k on arc k, and
at frequency f arc k also takes the TTD phase exp(-j*2*pi*f*t_k).  The
classic hybrid precoder steers the plain center-frequency column: one arc,
no correction and zero delay.
"""

import numpy as np

from ucabeam.arraymodel import SPEED_OF_LIGHT, steering_uca


def chain_directions(ch, n_rf):
    """AoDs of the n_rf strongest paths of ch, strongest first."""
    paths = sorted(ch.paths, key=lambda p: abs(p.gain), reverse=True)[:n_rf]
    return np.array([p.aod_rad for p in paths])


def chain_stage(geom, fc_hz, phis, k_ttd):
    """Phase-shifter columns (N x n) and TTD delays (n x K) of n delay-phase
    chains steered toward the directions phis."""
    n = geom.n_elements
    phi = np.asarray(phis, dtype=float)[:, None]
    theta = np.pi * (2.0 * np.arange(k_ttd) + 1.0) / k_ttd - np.pi / n
    eta_c = 2.0 * np.pi * geom.radius_m * fc_hz / SPEED_OF_LIGHT
    corr = np.exp(-1j * eta_c * np.cos(phi - theta))
    delays = geom.radius_m / SPEED_OF_LIGHT * (1.0 - np.cos(phi - theta))
    cols = steering_uca(geom, fc_hz, phi[:, 0]).T
    return np.ascontiguousarray(cols * np.repeat(corr.T, n // k_ttd, axis=0)), delays


def precoder_stage(ch, cfg, dpp=True):
    """Phase-shifter columns (N x n_rf) and delays (n_rf x K) of the
    precoder built on ch: the delay-phase chains of cfg.n_ttd_per_rf arcs,
    or the classic columns with one zero delay each."""
    phis = chain_directions(ch, cfg.n_rf)
    if dpp:
        return chain_stage(ch.tx, ch.grid.fc_hz, phis, cfg.n_ttd_per_rf)
    cols = steering_uca(ch.tx, ch.grid.fc_hz, phis).T
    return np.ascontiguousarray(cols), np.zeros((cfg.n_rf, 1))


def analog(w_ps, delays, f_hz):
    """Combined analog weights A(f) (N x n_rf, or ... x N x n_rf for an
    array of frequencies): arc k of column l of w_ps times the TTD phase
    exp(-j*2*pi*f*delays[l, k])."""
    p = w_ps.shape[0] // delays.shape[1]
    f = np.asarray(f_hz)[..., None, None]
    return w_ps * np.repeat(np.exp(-2j * np.pi * f * delays.T), p, axis=-2)
