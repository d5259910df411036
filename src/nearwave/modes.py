"""Wavenumber spectrum behind a planar screen: classification and kinematics.

A monochromatic plane wave hitting an inhomogeneous screen produces output
modes labelled by the wavenumber component kx along the screen.  Modes with
|kx| below the threshold propagate away as running waves (RW); modes above
it are evanescent, clinging to the screen and crawling along it (CW), with
an imaginary transverse wavenumber i*chi_z and sub-luminal phase velocity.

All wavenumbers here are in units of the input wavenumber k0, so the fixed
(infinitely heavy) screen threshold is exactly 1.  A movable screen lowers
the threshold slightly; that reduced threshold can be passed in, the full
finite-mass solution living in :mod:`nearwave.recoil`.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple


class WaveKind(enum.Enum):
    RUNNING = "RW"
    CRAWLING = "CW"


class Mode(NamedTuple):
    """One kx mode with its transverse wavenumber.

    ``kz`` satisfies kz**2 + kx**2 = threshold**2 as complex numbers; for a
    crawling mode it is +i*chi_z, decaying away from the screen on its
    transmission side (+z).
    """

    kx: float
    kind: WaveKind
    chi_z: float
    kz: complex


class GratingSpec:
    """Idealized grating: slit period in units of the input wavelength."""

    __slots__ = ("period",)

    def __init__(self, period: float):
        if not (period > 0):
            raise ValueError(f"grating period must be positive, got {period!r}")
        self.period = period  # d / lambda0

    @property
    def kd(self) -> float:
        """Mode spacing 2*pi/d in units of k0, i.e. lambda0/d."""
        return 1.0 / self.period

    @property
    def m_critical(self) -> int:
        """Largest |m| that still propagates: floor(d/lambda0)."""
        return math.floor(self.period)


def classify(kx: float, threshold: float = 1.0) -> Mode:
    """Classify a single kx against an evanescence threshold.

    |kx| equal to the threshold counts as running (the inequality for
    evanescence is strict), with kz = 0.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold!r}")
    if abs(kx) > threshold:
        chi = math.sqrt((abs(kx) - threshold) * (abs(kx) + threshold))
        return Mode(kx=kx, kind=WaveKind.CRAWLING, chi_z=chi, kz=complex(0.0, chi))
    kz = math.sqrt((threshold - abs(kx)) * (threshold + abs(kx)))
    return Mode(kx=kx, kind=WaveKind.RUNNING, chi_z=0.0, kz=complex(kz, 0.0))


def grating_modes(grating: GratingSpec, m_max: int) -> list[tuple[int, Mode]]:
    """Discrete modes m = -m_max..m_max of an idealized grating.

    kx(m) = m * kd and the mode is crawling iff |m| exceeds the integer
    critical order floor(d/lambda0); classification uses the integer rule
    so the boundary order is exact even when m*kd rounds past 1.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max!r}")
    mc = grating.m_critical
    out = []
    for m in range(-m_max, m_max + 1):
        kx = m * grating.kd
        if abs(m) > mc:
            chi = math.sqrt(max(kx * kx - 1.0, 0.0))
            mode = Mode(kx=kx, kind=WaveKind.CRAWLING, chi_z=chi, kz=complex(0.0, chi))
        else:
            kz = math.sqrt(max(1.0 - kx * kx, 0.0))
            mode = Mode(kx=kx, kind=WaveKind.RUNNING, chi_z=0.0, kz=complex(kz, 0.0))
        out.append((m, mode))
    return out


def phase_velocity(kx: float) -> float:
    """Phase velocity along the screen in units of c: u/c = 1/kx (signed)."""
    if kx == 0.0:
        raise ValueError("kx = 0 propagates purely along z; phase velocity along the screen is undefined")
    return 1.0 / kx


def decay_constant(kx: float) -> float:
    """chi_z = sqrt(kx^2 - 1) of a crawling mode behind a fixed screen."""
    if abs(kx) <= 1.0:
        raise ValueError(f"|kx| = {abs(kx)!r} <= 1 is not an evanescent mode and has no decay depth")
    return math.sqrt((abs(kx) - 1.0) * (abs(kx) + 1.0))


def decay_depth(kx: float) -> float:
    """Decay depth z_d * k0 = 1/chi_z of a crawling mode."""
    return 1.0 / decay_constant(kx)


def decay_depth_conventions(kx: float) -> tuple[float, float]:
    """Decay depth per input wavelength under the two k0 conventions.

    Returns ``(exact, reduced)`` where ``exact`` = 1/(2*pi*chi_z) follows
    from k0 = 2*pi/lambda0, and ``reduced`` = 1/chi_z is the value obtained
    if one reads k0 as 1/lambda0.  Reports quote both because the two
    conventions circulate in the literature and differ by 2*pi.
    """
    zd = decay_depth(kx)
    return zd / (2.0 * math.pi), zd
