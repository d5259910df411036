"""Physical constants, the scaled unit system, and stable numeric primitives.

Everything heavy in this package runs in dimensionless form: wavenumbers are
measured in units of the input-photon wavenumber k0, energies in units of
eps0 = hbar*c*k0, lengths in 1/k0, times in 1/(c*k0) and velocities in c.
This keeps quantities of wildly different magnitude (the Compton wavenumber
of a 0.1 kg screen is ~3.8e34 k0 for a visible photon) inside the
comfortable range of double precision.  Conversion to and from SI happens
only at the package boundary, through the k0 and eps0 of :class:`ScaledUnits`.

Complex-valued quantities are plain Python ``complex``; anything that may
acquire an imaginary part is typed that way and never silently assumed real.
"""

from __future__ import annotations

import math

# CODATA 2018 (hbar and c are exact SI definitions)
HBAR: float = 1.054571817e-34  # J s
C_LIGHT: float = 2.99792458e8  # m / s
ELECTRON_MASS: float = 9.1093837015e-31  # kg


class ScaledUnits:
    """Dimensionless unit system anchored to an input wavenumber k0 [1/m].

    Internally every module works with ratios such as kx/k0 or E/eps0;
    this class is the single place where those ratios meet SI.
    """

    __slots__ = ("k0",)

    def __init__(self, k0: float):
        if not (math.isfinite(k0) and k0 > 0):
            raise ValueError(f"k0 must be positive and finite, got {k0!r}")
        self.k0 = k0

    @property
    def eps0(self) -> float:
        """Input photon energy hbar*c*k0 [J]."""
        return HBAR * C_LIGHT * self.k0


def compton_wavenumber_ratio(mass_kg: float, units: ScaledUnits) -> float:
    """Compton wavenumber m*c/hbar of a mass, in units of k0; ValueError unless finite and positive."""
    hbar_k0 = HBAR * units.k0
    ratio = mass_kg * C_LIGHT / hbar_k0 if hbar_k0 > 0.0 else math.inf
    if not (0.0 < ratio < math.inf):
        raise ValueError(f"m c/(hbar k0) = {ratio!r} is not finite and positive at m = {mass_kg!r} kg, k0 = {units.k0!r}/m")
    return ratio


def stable_one_minus_inv_sqrt1p(mu: float) -> float:
    """Return 1 - (1 + mu)**-0.5 without cancellation.

    Uses the algebraically identical form
    ``mu / (sqrt(1+mu) * (1 + sqrt(1+mu)))``, accurate for mu all the way
    down to the subnormal range.  The naive expression loses every digit
    once mu drops below machine epsilon.
    """
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu!r}")
    s = math.sqrt(1.0 + mu)
    return mu / (s * (1.0 + s))
