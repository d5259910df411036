"""Near-field superposition behind the screen, split into RW and CW parts.

The scalar field at height z >= 0 over the screen is

    psi(x, z) = 2 * [ integral_0^1  F(k) e^{i sqrt(1-k^2) z} cos(k x) dk
                    + integral_1^inf F(k) e^{-sqrt(k^2-1) z} cos(k x) dk ]

(times the global factor e^{-i omega0 t}, which samples omit).  The first
integral collects running waves, the second the evanescent set.  Both have
an integrable square-root derivative singularity at k = 1; the RW side is
mapped by k = sin(theta) and the innermost CW stretch by k = cosh(s), which
remove it exactly.  The CW range is truncated where the exponential or the
profile makes the integrand negligible.  Slit profiles supply an analytic
tail beyond k = 100/min(a, pi) (a 1/k series of F e^{-chi z} summed with
exponential integrals), so at z ~ 0, where the integrand decays only like
1/k^2, panels cover just [2, 100/min(a, pi)].  One ``field_tail`` call per
row returns the psi and d(psi)/dx remainders at every point.

psi and d(psi)/dx come from one vector-valued quadrature per range, which
evaluates the weighted amplitude once per abscissa and multiplies it by the
columns cos(k u_j) and -k sin(k u_j), one pair per distinct u_j = |x_j|:
psi is even in x and d(psi)/dx odd, so each point takes its column pair
and the sign of x.  A row of points at one height is three passes, the RW
range, the CW range s in [0, acosh 2] and the long CW range [2, k_hi],
whatever the number of points; each is seeded with breakpoints for the
largest |x| of the row.

Units: x and z carry k0, wavenumbers are in k0, the field inherits the
profile's (unnormalized) amplitude scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .aperture import ApertureProfile, SingleSlitProfile
from .errors import QuadratureError
from .quadrature import adaptive_quad, oscillation_breakpoints

_EXP_CUT = 46.0  # exp(-46) ~ 1e-20, below any tolerance used here


@dataclass(frozen=True)
class FieldSample:
    """Field at one point, split into running and evanescent parts (t = 0)."""

    x: float
    z: float
    psi_rw: complex
    psi_cw: complex

    @property
    def psi_total(self) -> complex:
        return self.psi_rw + self.psi_cw


class FieldPoint(NamedTuple):
    """psi and d(psi)/dx at one point, with J_x = Im(psi* d(psi)/dx)."""

    psi: FieldSample
    dpsi: FieldSample
    current_x: float


def _pass(weight, a: float, b: float, xs: np.ndarray, rate: float, abs_tol: float, rel_tol: float) -> np.ndarray:
    """integral_a^b w(t) [cos(k x_j), -k sin(k x_j)] dt for every x_j at once.

    ``weight(t)`` returns the wavenumbers k(t) and the weights w(t), which
    carry the amplitude, the height factor and dk/dt.  Returns shape
    (2, len(xs)): the psi integrals, then the d/dx ones.
    """

    def integrand(t):
        k, w = weight(t)
        kx = np.multiply.outer(k, xs)
        return np.concatenate([np.cos(kx), -k[:, None] * np.sin(kx)], axis=1) * w[:, None]

    res = adaptive_quad(integrand, a, b, abs_tol=0.5 * abs_tol, rel_tol=rel_tol,
                        breakpoints=oscillation_breakpoints(a, b, rate))
    return res.value.reshape(2, len(xs))


def field_row(
    xs,
    z: float,
    profile: ApertureProfile,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> list[FieldPoint]:
    """psi, d(psi)/dx and J_x at every x of one height z >= 0, in three passes."""
    if z < 0:
        raise ValueError(f"z must be non-negative (transmission side), got {z!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    u, at = np.unique(np.abs(xs), return_inverse=True)  # psi is even in x, d(psi)/dx odd
    x_max = float(u[-1])
    rate0 = 0.5 * profile.a if isinstance(profile, SingleSlitProfile) else 0.0  # F's own oscillation

    def rw_weight(theta):
        k, c = np.sin(theta), np.cos(theta)
        return k, profile.amplitude(k) * np.exp(1j * z * c) * c

    rw = 2.0 * _pass(rw_weight, 0.0, 0.5 * math.pi, u, math.hypot(x_max, z) + rate0, abs_tol, rel_tol)

    k_exp = math.inf if z == 0.0 else math.sqrt(1.0 + (_EXP_CUT / z) ** 2)
    k_profile = profile.cutoff()
    k_hi = max(1.5, min(k_profile, k_exp))
    k_mid = min(2.0, k_hi)

    def s_weight(s):
        k, sh = np.cosh(s), np.sinh(s)
        return k, profile.amplitude(k) * np.exp(-z * sh) * sh

    s_hi = math.acosh(k_mid)
    cw = _pass(s_weight, 0.0, s_hi, u, (x_max + z + rate0) * math.sinh(s_hi), abs_tol, rel_tol)

    if k_hi > k_mid:
        def k_weight(k):
            chi = np.sqrt((k - 1.0) * (k + 1.0))
            return k, profile.amplitude(k) * np.exp(-z * chi)

        cw += _pass(k_weight, k_mid, k_hi, u, x_max + rate0, abs_tol, rel_tol)

    parity = np.stack([np.ones_like(xs), np.where(xs < 0, -1.0, 1.0)])
    rw, cw = rw[:, at] * parity, 2.0 * cw[:, at] * parity
    if k_profile <= k_exp:
        with np.errstate(all="ignore"):  # a tail whose series overflows is reported below
            tail = profile.field_tail(k_hi, xs, z)
        if tail is not None:
            cw += tail
            if not np.isfinite(cw).all():
                raise QuadratureError(f"the analytic tail beyond k = {k_hi!r} is not finite at z = {z!r}")
    out = []
    for j, x in enumerate(xs):
        psi = FieldSample(float(x), z, complex(rw[0, j]), complex(cw[0, j]))
        dpsi = FieldSample(float(x), z, complex(rw[1, j]), complex(cw[1, j]))
        out.append(FieldPoint(psi, dpsi, (psi.psi_total.conjugate() * dpsi.psi_total).imag))
    return out


def field_at(
    x: float,
    z: float,
    profile: ApertureProfile,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> FieldSample:
    """Evaluate the near-field superposition at one point (z >= 0)."""
    return field_row(x, z, profile, abs_tol=abs_tol, rel_tol=rel_tol)[0].psi


def field_dx_at(
    x: float,
    z: float,
    profile: ApertureProfile,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> FieldSample:
    """x-derivative of the field, differentiated under the integrals."""
    return field_row(x, z, profile, abs_tol=abs_tol, rel_tol=rel_tol)[0].dpsi


def probability_current_x(
    x: float,
    z: float,
    profile: ApertureProfile,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> float:
    """Transverse probability current J_x = Im(psi* d(psi)/dx) at t = 0.

    Odd in x and zero on the symmetry axis; a nonzero value off-axis is the
    flux the standing-wave decomposition carries along the screen.
    """
    return field_row(x, z, profile, abs_tol=abs_tol, rel_tol=rel_tol)[0].current_x


def cw_fraction_profile(
    x: float,
    z_grid,
    profile: ApertureProfile,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> list[tuple[float, float]]:
    """Evanescent intensity fraction |psi_cw|^2/|psi_total|^2 along a z scan.

    Where |psi_total| <= abs_tol the total is cancellation noise; the
    fraction there is nan and a RuntimeWarning names the point.
    """
    zs = [float(z) for z in z_grid]
    if any(z < 0 for z in zs):
        raise ValueError("z grid must be non-negative")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z grid must be strictly increasing")
    out = []
    for z in zs:
        s = field_at(x, z, profile, abs_tol=abs_tol, rel_tol=rel_tol)
        total = abs(s.psi_total)
        if total <= abs_tol:
            warnings.warn(f"CW fraction at (x={x!r}, z={z!r}) is cancellation noise: |psi_total| = "
                          f"{total:.3e} <= abs_tol", RuntimeWarning, stacklevel=2)
        out.append((z, abs(s.psi_cw) ** 2 / total**2 if total > abs_tol else math.nan))
    return out
