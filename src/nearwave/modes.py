"""Wavenumber spectrum behind a planar screen: classification and kinematics.

A monochromatic plane wave hitting an inhomogeneous screen produces output
modes labelled by the wavenumber component kx along the screen.  Modes with
|kx| below the threshold propagate away as running waves (RW); modes above
it are evanescent, clinging to the screen and crawling along it (CW), with
an imaginary transverse wavenumber i*chi_z and sub-luminal phase velocity.

All wavenumbers here are in units of the input wavenumber k0, so the fixed
(infinitely heavy) screen threshold is exactly 1.  A movable screen lowers
the threshold slightly; its modes are solved in :mod:`nearwave.recoil`.
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

    ``kz`` satisfies kz**2 + kx**2 = 1 as complex numbers; for a
    crawling mode it is +i*chi_z, decaying away from the screen on its
    transmission side (+z).
    """

    kx: float
    kind: WaveKind
    chi_z: float
    kz: complex


def _mode(n: float, d: float) -> Mode:
    """The mode of kx = n/d, classified and solved from n and d.

    |n| > d is compared exactly, and |n| - d is exact near the threshold, so
    no mode rounds across it; each factor is divided by d before the
    product, so no finite kx overflows an intermediate.
    """
    kx = n / d
    if abs(n) > d:
        chi = math.sqrt(((abs(n) - d) / d) * ((abs(n) + d) / d))
        return Mode(kx=kx, kind=WaveKind.CRAWLING, chi_z=chi, kz=complex(0.0, chi))
    kz = math.sqrt(((d - abs(n)) / d) * ((d + abs(n)) / d))
    return Mode(kx=kx, kind=WaveKind.RUNNING, chi_z=0.0, kz=complex(kz, 0.0))


def classify(kx: float) -> Mode:
    """Classify a single kx against the fixed-screen threshold |kx| = 1.

    |kx| = 1 counts as running (the inequality for evanescence is strict),
    with kz = 0.
    """
    return _mode(kx, 1.0)


def grating_modes(period: float, m_max: int) -> list[tuple[int, Mode]]:
    """Discrete modes m = -m_max..m_max of an idealized grating of period d/lambda0.

    kx(m) = m/period, and the mode is crawling iff |m| > period, compared
    exactly, so the boundary order is exact even when m/period rounds to 1.
    """
    if not (period > 0):
        raise ValueError(f"grating period must be positive, got {period!r}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max!r}")
    return [(m, _mode(m, period)) for m in range(-m_max, m_max + 1)]


def phase_velocity(kx: float) -> float:
    """Phase velocity along the screen in units of c: u/c = 1/kx (signed)."""
    if kx == 0.0:
        raise ValueError("kx = 0 propagates purely along z; phase velocity along the screen is undefined")
    return 1.0 / kx


def decay_constant(kx: float) -> float:
    """chi_z = sqrt(kx^2 - 1) of a crawling mode behind a fixed screen."""
    if abs(kx) <= 1.0:
        raise ValueError(f"|kx| = {abs(kx)!r} <= 1 is not an evanescent mode and has no decay depth")
    return classify(kx).chi_z


def decay_depth_conventions(kx: float) -> tuple[float, float]:
    """Decay depth per input wavelength under the two k0 conventions.

    Returns ``(exact, reduced)`` where ``exact`` = 1/(2*pi*chi_z) follows
    from k0 = 2*pi/lambda0, and ``reduced`` = 1/chi_z is the value obtained
    if one reads k0 as 1/lambda0.  Reports quote both because the two
    conventions circulate in the literature and differ by 2*pi.
    """
    zd = 1.0 / decay_constant(kx)
    return zd / (2.0 * math.pi), zd
