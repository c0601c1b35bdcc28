"""Wideband beamforming for uniform circular arrays.

Simulation and analysis of the beam-defocus effect in hybrid precoding:
exact beam patterns, Bessel/hypergeometric closed forms, delay-phase
(true-time-delay) precoder construction, and OFDM spectrum-efficiency
experiments.
"""

from .analysis import (
    avg_gain_ps_lower, avg_gain_ps_numeric, avg_gain_ps_upper, avg_gain_ttd, dpp_exact_gain,
    dpp_gain_closed_form, dpp_gain_subarray_sum, exact_gain, gain_improvement, min_ttd_count,
    ps_gain_angular_closed_form, ps_gain_closed_form, spectrum_efficiency,
)
from .arraymodel import (
    SPEED_OF_LIGHT, ChannelRealization, FrequencyGrid, PathParams, UcaGeometry, UlaGeometry,
    channel_matrix, generate_channel, half_wavelength_uca, steering_uca, steering_ula,
)
from .cxlinalg import SvdError, water_filling
from .precoding import DppConfig, HybridDesign, build_designs, ttd_delays, ttd_reference_angles
from .specfun import (
    ConvergenceError, UnbracketableError, bessel_j, hypergeom_1f2, hypergeom_2f3,
    inverse_1f2_threshold,
)
from .xpcli import ResultTable, Scenario, ScenarioError, load_scenario, run

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT", "ChannelRealization", "ConvergenceError", "DppConfig",
    "FrequencyGrid", "HybridDesign", "PathParams", "ResultTable", "Scenario",
    "ScenarioError", "SvdError", "UcaGeometry", "UlaGeometry", "UnbracketableError",
    "avg_gain_ps_lower", "avg_gain_ps_numeric", "avg_gain_ps_upper", "avg_gain_ttd",
    "bessel_j", "build_designs", "channel_matrix", "dpp_exact_gain",
    "dpp_gain_closed_form", "dpp_gain_subarray_sum", "exact_gain", "gain_improvement",
    "generate_channel", "half_wavelength_uca", "hypergeom_1f2", "hypergeom_2f3",
    "inverse_1f2_threshold", "load_scenario", "min_ttd_count",
    "ps_gain_angular_closed_form", "ps_gain_closed_form", "run", "spectrum_efficiency",
    "steering_uca", "steering_ula", "ttd_delays", "ttd_reference_angles", "water_filling",
]
