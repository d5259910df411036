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
row returns the psi and d(psi)/dx remainders at every distinct |x|.

psi and d(psi)/dx come from one separable quadrature per range: the row
weights (the amplitude times each row's height factor e^{i z cos(theta)},
e^{-z sinh(s)} or e^{-z chi}) and the columns cos(k u_j) and -k sin(k u_j),
one pair per distinct u_j = |x_j|, are evaluated once per abscissa and
contracted with the K31 weights without forming their product.  psi is even
in x and d(psi)/dx odd, so each point takes its columns and the sign of x.
A grid is three passes, the RW range, the CW range s in [0, acosh 2] and
the long CW range [2, k_hi], whatever its number of points and rows (rows
beyond one K31 panel's element cap go to further passes).  k_hi is the
largest per-row end; a row that ends below it carries less than e^-46
beyond its own end, and a row that ends at or below k = 2 stays out of the
k-range pass.  Each pass is seeded for the largest |x| and z of the grid,
at three half-oscillations per panel: the G15 remainder on a 3 pi phase
span is ~1e-20 of the panel amplitude, and the |K31 - G15| estimate still
guards every panel.  ``field_grid`` returns the RW and CW parts of psi and
d(psi)/dx as (nz, nx) arrays.

Units: x and z carry k0, wavenumbers are in k0, the field inherits the
profile's (unnormalized) amplitude scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aperture import ApertureProfile, SingleSlitProfile
from .errors import QuadratureError
from .quadrature import _MAX_ELEMENTS, _X_K, adaptive_quad, oscillation_breakpoints

_EXP_CUT = 46.0  # exp(-46) ~ 1e-20, below any tolerance used here
_HALF_WAVES_PER_PANEL = 3  # seed panels span this many half-oscillations of the fastest phase
_REL_TOL = 1e-10  # relative tolerance of every field integral; abs_tol is the caller's


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


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """psi and d(psi)/dx at t = 0 on an (x, z) grid, RW and CW parts as (len(z), len(x)) arrays."""

    x: np.ndarray
    z: np.ndarray
    psi_rw: np.ndarray
    psi_cw: np.ndarray
    dpsi_rw: np.ndarray
    dpsi_cw: np.ndarray

    @property
    def psi_total(self) -> np.ndarray:
        return self.psi_rw + self.psi_cw

    @property
    def current_x(self) -> np.ndarray:
        """J_x = Im(psi* d(psi)/dx) at every point."""
        return (self.psi_total.conj() * (self.dpsi_rw + self.dpsi_cw)).imag


def _pass(weight, a: float, b: float, u: np.ndarray, rate: float, abs_tol: float) -> np.ndarray:
    """integral_a^b w_i(t) [cos(k u_j), -k sin(k u_j)] dt for every row i and every u_j at once.

    ``weight(t)`` returns the wavenumbers k(t), shape (n,), and the weights
    w(t), shape (n, nz): the amplitude and dk/dt times each row's height
    factor.  Returns shape (nz, 2, len(u)): per row, the psi integrals, then
    the d/dx ones.
    """

    def integrand(t):
        k, w = weight(t)
        ku = np.multiply.outer(k, u)
        return w, np.concatenate([np.cos(ku), -k[:, None] * np.sin(ku)], axis=1)

    res = adaptive_quad(integrand, a, b, abs_tol=0.5 * abs_tol, rel_tol=_REL_TOL,
                        breakpoints=oscillation_breakpoints(a, b, rate / _HALF_WAVES_PER_PANEL))
    return res.value.reshape(-1, 2, len(u))


def _passes(u: np.ndarray, zs: np.ndarray, profile: ApertureProfile,
            abs_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The RW and CW integrals of the rows zs at the distances u = |x|, one pass per range."""
    x_max, z_max = float(u[-1]), float(zs.max())
    rate0 = 0.5 * profile.a if isinstance(profile, SingleSlitProfile) else 0.0  # F's own oscillation

    def rw_weight(theta):
        k, c = np.sin(theta), np.cos(theta)
        return k, (profile.amplitude(k) * c)[:, None] * np.exp(1j * np.multiply.outer(c, zs))

    rw = 2.0 * _pass(rw_weight, 0.0, 0.5 * math.pi, u, math.hypot(x_max, z_max) + rate0, abs_tol)

    with np.errstate(divide="ignore"):
        k_exp = np.sqrt(1.0 + (_EXP_CUT / zs) ** 2)  # inf at z = 0
    k_profile = profile.cutoff()
    k_ends = np.maximum(1.5, np.minimum(k_profile, k_exp))  # beyond its own end a row carries < e^-46
    k_hi = float(k_ends.max())
    k_mid = min(2.0, k_hi)

    def s_weight(s):
        k, sh = np.cosh(s), np.sinh(s)
        return k, (profile.amplitude(k) * sh)[:, None] * np.exp(-np.multiply.outer(sh, zs))

    s_hi = math.acosh(k_mid)
    cw = _pass(s_weight, 0.0, s_hi, u, (x_max + z_max + rate0) * math.sinh(s_hi), abs_tol)

    deep = k_ends > k_mid  # the rows the k-range carries; the others end at or below k_mid
    if deep.any():
        z_deep = zs[deep]

        def k_weight(k):
            chi = np.sqrt((k - 1.0) * (k + 1.0))
            return k, profile.amplitude(k)[:, None] * np.exp(-np.multiply.outer(chi, z_deep))

        cw[deep] += _pass(k_weight, k_mid, k_hi, u, x_max + rate0, abs_tol)

    cw *= 2.0
    for row, z, k_cut in zip(cw, zs.tolist(), k_exp):
        if k_profile <= k_cut:  # then k_hi is k_profile
            with np.errstate(all="ignore"):  # a tail whose series overflows is reported below
                tail = profile.field_tail(k_hi, u, z)
            if tail is not None:
                row += tail
                if not np.isfinite(row).all():
                    raise QuadratureError(f"the analytic tail beyond k = {k_hi!r} is not finite at z = {z!r}")
    return rw, cw


def field_grid(xs, zs, profile: ApertureProfile, *, abs_tol: float = 1e-12) -> FieldGrid:
    """psi, d(psi)/dx and J_x at every (x, z) with z >= 0, as (len(zs), len(xs)) arrays.

    psi is even in x and d(psi)/dx odd, so the passes run over the distinct
    |x| alone.  Consecutive rows share a pass, as many as keep one K31 panel
    within the quadrature's per-call element cap.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if (zs < 0).any():
        raise ValueError(f"z must be non-negative (transmission side), got {float(zs[zs < 0][0])!r}")
    u, at = np.unique(np.abs(xs), return_inverse=True)
    rw = np.empty((len(zs), 2, len(u)), complex)
    cw = np.empty_like(rw)
    per_pass = max(1, _MAX_ELEMENTS // (_X_K.size * 2 * len(u)))
    for start in range(0, len(zs), per_pass):
        stop = start + per_pass
        rw[start:stop], cw[start:stop] = _passes(u, zs[start:stop], profile, abs_tol)
    rw, cw = rw[:, :, at], cw[:, :, at]
    sign = np.where(xs < 0, -1.0, 1.0)
    return FieldGrid(xs, zs, rw[:, 0], cw[:, 0], rw[:, 1] * sign, cw[:, 1] * sign)


def field_at(x: float, z: float, profile: ApertureProfile, *, abs_tol: float = 1e-12) -> FieldSample:
    """Evaluate the near-field superposition at one point (z >= 0)."""
    g = field_grid(x, z, profile, abs_tol=abs_tol)
    return FieldSample(float(x), float(z), complex(g.psi_rw[0, 0]), complex(g.psi_cw[0, 0]))


def field_dx_at(x: float, z: float, profile: ApertureProfile, *, abs_tol: float = 1e-12) -> FieldSample:
    """x-derivative of the field, differentiated under the integrals."""
    g = field_grid(x, z, profile, abs_tol=abs_tol)
    return FieldSample(float(x), float(z), complex(g.dpsi_rw[0, 0]), complex(g.dpsi_cw[0, 0]))


def probability_current_x(x: float, z: float, profile: ApertureProfile, *, abs_tol: float = 1e-12) -> float:
    """Transverse probability current J_x = Im(psi* d(psi)/dx) at t = 0.

    Odd in x and zero on the symmetry axis; a nonzero value off-axis is the
    flux the standing-wave decomposition carries along the screen.
    """
    return float(field_grid(x, z, profile, abs_tol=abs_tol).current_x[0, 0])


def cw_fraction_profile(x: float, z_grid, profile: ApertureProfile, *,
                        abs_tol: float = 1e-12) -> list[tuple[float, float]]:
    """Evanescent intensity fraction |psi_cw|^2/|psi_total|^2 along a z scan.

    Where |psi_total| <= abs_tol the total is cancellation noise; the
    fraction there is nan and a RuntimeWarning names the point.
    """
    zs = [float(z) for z in z_grid]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z grid must be strictly increasing")
    g = field_grid(x, zs, profile, abs_tol=abs_tol)
    out = []
    for z, p_rw, p_cw in zip(zs, g.psi_rw[:, 0].tolist(), g.psi_cw[:, 0].tolist()):
        total = abs(p_rw + p_cw)
        if total <= abs_tol:
            warnings.warn(f"CW fraction at (x={x!r}, z={z!r}) is cancellation noise: |psi_total| = "
                          f"{total:.3e} <= abs_tol", RuntimeWarning, stacklevel=2)
        out.append((z, abs(p_cw) ** 2 / total**2 if total > abs_tol else math.nan))
    return out
