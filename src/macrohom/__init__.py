"""Macroscopic Hong-Ou-Mandel interference of bright twin beams.

Simulation and analysis of the delay dependence of the normalized
difference-signal variance and the intensity cross-correlation for
high-gain parametric down-conversion, with an exact truncated-Fock
oracle and a Monte-Carlo model of the pulsed detection.
"""

from .errors import (
    BracketingError,
    FitError,
    GridResolutionError,
    MacrohomError,
    NumericalError,
    TruncationError,
    ValidationError,
)
from .fock import TmsvState, hom_stats, nrf_single_mode, tmsv
from .gain import (
    calibrate_walkoff,
    fit_gain_curve,
    gain_at,
    omega_max_for,
    spectral_fwhm_nm,
    spectrum,
    uv_arrays,
)
from .montecarlo import (
    EnsembleStats,
    LatticeSpec,
    derive_seed,
    dip_scan,
    expected_stats,
    simulate_ensemble,
    wigner_cell_occupancy,
)
from .params import CrystalParams, DetectionModel, PumpParams, SpectralGrid
from .trace import (
    Trace,
    default_grid,
    detected_trace,
    fwhm_narrow,
    fwhm_pedestal,
    fwhm_vs_gain,
    g2_trace,
    mode_count_g2,
    mode_count_long,
    nrf_trace,
    pedestal_trace,
    visibility,
)

__version__ = "0.1.0"
