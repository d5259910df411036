"""Gaussian probe beams: absorption of a single evanescent mode and packet spread.

A probe particle travelling parallel to the screen, prepared as a Gaussian
packet in z, absorbs an evanescent photon of given kx with probability
proportional to |F(kx) * I|^2 where I is the overlap of the packet envelope
with the mode's exponential tail.  The overlap has a closed form in the
scaled complementary error function which never over- or underflows, even
when the decay constant exceeds the packet width by many orders.
"""

from __future__ import annotations

import math
import struct

from .modes import decay_constant
from .quantities import HBAR

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


class GaussianPacket:
    """Probe packet: center height z0, standard deviation delta_z (units 1/k0).

    ``sigma`` is the envelope decay constant 1/(sqrt(2)*delta_z) of
    exp(-sigma^2 (z - z0)^2 / 2).
    """

    __slots__ = ("z0", "delta_z")

    def __init__(self, z0: float, delta_z: float):
        if not (delta_z > 0):
            raise ValueError(f"delta_z must be positive, got {delta_z!r}")
        if z0 < 0:
            raise ValueError(f"z0 must be non-negative, got {z0!r}")
        self.z0 = z0
        self.delta_z = delta_z

    @property
    def sigma(self) -> float:
        return 1.0 / (math.sqrt(2.0) * self.delta_z)


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0.

    Below 26, erfc(x) exp(x^2) with x = xh + xl split at float32 precision,
    so xh^2 is exact and exp(x^2) = exp(xh^2) exp(2 xh xl + xl^2) carries no
    rounding of x^2 into the exponent.  From 26 on (where erfc would soon
    underflow) the Laplace continued fraction
    1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))), summed bottom up
    from depth 8, whose truncation at x = 26 is 2e-23 relative.
    """
    if x < 26.0:
        xh = struct.unpack("f", struct.pack("f", x))[0]  # round to nearest float32
        xl = x - xh
        return math.erfc(x) * math.exp(xh * xh) * math.exp(2.0 * xh * xl + xl * xl)
    f = x
    for k in range(8, 0, -1):
        f = x + 0.5 * k / f
    return 1.0 / (_SQRT_PI * f)


def overlap_integral(chi: float, sigma: float, z0: float) -> float:
    """I = integral_0^inf exp(-sigma^2 (z-z0)^2/2) exp(-chi z) dz, closed form.

    For x = (chi/sigma - sigma*z0)/sqrt(2) >= 0 the erfcx form
    sqrt(2*pi)/(2*sigma) * exp(-sigma^2 z0^2/2) * erfcx(x) is finite for any
    ratio chi/sigma.  For x < 0 (packet centered far beyond the decay
    depth) erfcx would overflow, so the reflection
    erfcx(-x) = 2*exp(x^2) - erfcx(x) is folded in analytically; the
    resulting exponent chi^2/(2 sigma^2) - chi*z0 is provably <= -chi*z0/2
    on that branch, so this path cannot overflow either.
    """
    if sigma == 0.0:
        # flat envelope: the center height drops out entirely
        return 1.0 / chi
    x = (chi / sigma - sigma * z0) / math.sqrt(2.0)
    base = _SQRT2PI / (2.0 * sigma)
    if x >= 0.0:
        return base * math.exp(-0.5 * (sigma * z0) ** 2) * _erfcx(x)
    full = 2.0 * base * math.exp(0.5 * (chi / sigma) ** 2 - chi * z0)
    return full - base * math.exp(-0.5 * (sigma * z0) ** 2) * _erfcx(-x)


def absorption_probability(kx: float, packet: GaussianPacket, amp: float) -> tuple[float, float]:
    """Relative probability |F(kx) * I|^2 of absorbing the kx mode, and its zero-width limit; ``amp`` is F(kx).

    Returns ``(probability, zero_width_limit)``; the limit is the sigma -> 0
    value |F|^2/chi_z^2 = |F|^2/(kx^2 - 1).  The packet normalization
    constant is dropped throughout, so values are comparable across kx for
    a fixed packet but are not absolute rates.
    """
    chi = decay_constant(kx)
    amp_sq = amp * amp
    i_val = overlap_integral(chi, packet.sigma, packet.z0)
    return amp_sq * i_val * i_val, amp_sq / (chi * chi)


def packet_spread(delta_z: float, t: float, mass: float) -> float:
    """Free-particle dispersion of a Gaussian packet, SI units.

    delta_z(t) = delta_z * sqrt(1 + (hbar t / (2 m delta_z^2))^2).
    """
    if not (delta_z > 0):
        raise ValueError(f"delta_z must be positive, got {delta_z!r}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    if not (mass > 0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    ratio = HBAR * t / (2.0 * mass * delta_z * delta_z)
    return delta_z * math.sqrt(1.0 + ratio * ratio)
