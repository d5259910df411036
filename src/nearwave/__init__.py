"""Evanescent near-field toolkit.

Mode spectra behind an inhomogeneous screen, near-field superpositions,
probe-particle absorption, relativistic evanescence-transfer kinematics,
and finite-mass screen recoil with complex (Gamow) energies and lifetimes.
"""

from .aperture import (
    ApertureProfile,
    GaussianProfile,
    SingleSlitProfile,
    TabulatedProfile,
    TailEstimate,
    tail_probability,
)
from .errors import ConfigError, DegenerateInputError, NearwaveError, QuadratureError
from .kinematics import (
    ProbeState,
    TransferResult,
    absorbable_kx,
    evanescence_transfer,
    ff_exit_momentum,
    selection_residual,
    transferred_kz,
)
from .modes import (
    GratingSpec,
    Mode,
    WaveKind,
    classify,
    decay_depth,
    decay_depth_conventions,
    grating_modes,
    phase_velocity,
)
from .nearfield import (
    FieldGrid,
    cw_fraction_profile,
    field_grid,
)
from .probe import (
    GaussianPacket,
    absorption_probability,
    overlap_integral,
    packet_spread,
)
from .quadrature import QuadResult, adaptive_quad
from .quantities import (
    ELECTRON_MASS,
    HBAR,
    C_LIGHT,
    ScaledUnits,
    compton_wavenumber_ratio,
    stable_one_minus_inv_sqrt1p,
)
from .recoil import (
    LifetimeRoutes,
    RecoilSolution,
    ScreenSpec,
    ShortLifetimeResult,
    Threshold,
    TraverseTime,
    critical_threshold,
    lifetime_routes,
    output_wavenumber,
    recoil_solution,
    root_residual,
    screen_momentum_magnitude,
    short_lifetime_probability,
    traverse_time,
)

__version__ = "0.1.0"
