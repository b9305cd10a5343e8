"""Uplink rate regions and max-min symmetric rates for multi-cell massive
MIMO under four decoding schemes: treating interference as noise (TIN),
simultaneous unique decoding (SD), simultaneous non-unique decoding (SND)
and its simplified polytope subset (S-SND)."""

from .bounds import (SCHEMES, PowerDecomposition, capacity, mu_coefficient, power_terms,
                     tin_rate_asymptotic)
from .estimation import ChannelState, EstimationStats, mmse_coeffs
from .montecarlo import empirical_power_decomposition
from .network import (CellLayout, SystemParams, build_fading, pathloss,
                      three_cell_layout, two_cell_layout)
from .regions import (RegionFamily, max_symmetric_rate, sd_region, snd_region, ssnd_region,
                      tin_rate, tin_region)
from .scenarios import (PRESET_NAMES, Scenario, SweepResult, classify_two_cell,
                        preset_scenario, sweep, two_cell_ordering_check)
from .symrate import (BsSymRate, SymRateReport, bs_symmetric_rate, low_sinr_decode_set,
                      network_symmetric_rate, symmetric_rates)

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "CellLayout", "pathloss", "build_fading",
    "two_cell_layout", "three_cell_layout",
    "EstimationStats", "ChannelState", "mmse_coeffs",
    "PowerDecomposition", "capacity", "power_terms", "tin_rate",
    "tin_rate_asymptotic", "mu_coefficient",
    "RegionFamily", "tin_region", "sd_region", "ssnd_region",
    "snd_region",
    "SCHEMES", "BsSymRate", "SymRateReport", "max_symmetric_rate",
    "bs_symmetric_rate", "low_sinr_decode_set", "network_symmetric_rate",
    "symmetric_rates",
    "empirical_power_decomposition",
    "Scenario", "PRESET_NAMES", "preset_scenario", "classify_two_cell",
    "two_cell_ordering_check", "sweep", "SweepResult",
    "__version__",
]
