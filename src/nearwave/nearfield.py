"""Near-field superposition behind the screen, split into RW and CW parts.

The scalar field at height z >= 0 over the screen is

    psi(x, z) = 2 * [ integral_0^1  F(k) e^{i sqrt(1-k^2) z} cos(k x) dk
                    + integral_1^inf F(k) e^{-sqrt(k^2-1) z} cos(k x) dk ]

(times the global factor e^{-i omega0 t}, which samples omit).  The first
integral collects running waves, the second the evanescent set.  Both have
an integrable square-root derivative singularity at k = 1, which one
variable t in [-pi/2, acosh k_hi] removes from both sides: k = cos t with
dk/dt = kz = -sin t on t < 0 (RW), k = cosh t with dk/dt = chi = sinh t on
t > 0 (CW), and t = 0 a panel edge.  The CW range is truncated where the
exponential or the profile makes the integrand negligible.  Slit profiles
supply an analytic tail beyond k = 100/min(a, pi) (a 1/k series of
F e^{-chi z} summed with exponential integrals), so at small z > 0, where
the integrand decays only like 1/k^2, panels cover just k <= 100/min(a, pi).
One ``field_tail`` call per row returns the psi and d(psi)/dx remainders
at every distinct |x|.

On the screen plane z = 0 a slit needs neither.  The cosine transform of
its F is its own mode (``ApertureProfile.screen_field``): 2 sqrt(pi/a)
cos(pi x/a) inside |x| < a/2, zero outside, with the mean of both sides
at the edge.  Its z = 0 rows share one quadrature over the RW range
k in [0, 1] alone, whose integrand is entire, seeded three half-waves of
the fastest phase (|x| + a/2) apart, and psi_cw = mode - psi_rw,
d(psi_cw)/dx likewise.  The split is exact: psi_cw is the rest of the
same transform, so its error is psi_rw's, within the same budget.  (Si
and Cin closed forms of the RW part lose digits to cancellation at small
a, and any closed form of psi_cw reduces to the same difference.)
``field_grid`` calls that run (``_screen_parts``) whenever a grid has a
z = 0 row; it asks the profile for its mode, and a profile without one
sends its z = 0 rows down the general route below.

A grid is one separable quadrature over t with component-major factors.
The left factor is (3 nz, n): three blocks of row weights on the n
abscissas, each zero outside its range: Re and Im of F kz e^{i kz z}
(t < 0) and F chi e^{-chi z} (t > 0).  The right factor is (2 nu, n): the
rows cos(k u_j) and -k sin(k u_j), one pair per distinct u_j = |x_j|.
Both are contracted with the K31 weights without forming their product,
and psi_rw = 2 (V_re + i V_im), psi_cw = 2 V_cw plus the tail.  Every
cos/sin pair (cos t and sin t on t < 0, the RW phase kz z, and k u_j)
comes from one tan of the half angle (``_cos_sin``).  psi is even in x
and d(psi)/dx odd, so each point takes its columns and the sign of x.
The distinct |x| are a sorted set of Python floats (-0.0 and 0.0 are
one), and each x finds its column through a dict.  That takes ~3 us at
a handful of points, where np.unique takes ~10 us; at 10^6 distinct
points it takes ~2.4 us a point, 36x np.unique, but a third of what
formatting the point's CSV row costs, so it is the one route at every
size.
k_hi is the largest per-row end; a row that ends below it carries less
than e^-46 beyond its own end.

The seeds follow where the integrand changes character (QUADPACK
practice, Piessens et al. 1983), for the largest |x| and z of the rows
that share a run.  Oscillation seeds sit three half-waves of the fastest
phase apart (a slit's F adds its own a k / 2): on the RW range in
theta = t + pi/2 (phase k |x| + kz z), and on the CW range t in
[0, acosh 2] and the range [2, k_hi] in k, mapped by t = acosh k (phase
k |x|).  The G15 remainder
on a 3 pi phase span is ~1e-20 of the panel amplitude, and the
|K31 - G15| estimate still guards every panel.  On the CW side z does not
oscillate: e^{-chi z} only decays, so it adds decay seeds at
t = asinh(6 j / z_max), j = 1..7, six e-folds of the highest row apart
down to e^-46 (lower rows decay more slowly over the same panels).  The count of CW seeds below
k = 2 thus does not grow with z_max.  The seeds also include the
profile's knots (``ApertureProfile.knots``, mapped to t = -acos k and
t = acosh k), the kx where a tabulated spline's third derivative jumps or
F drops to zero: no panel straddles one, so K31 keeps its polynomial
exactness there.  Rows share one quadrature as long as its first round,
seeded panels x components, stays within ``_ROUND_ELEMENTS`` and one K31
panel within the quadrature's per-call element cap; further rows go to
further runs.  ``field_grid`` returns the RW and CW parts of psi and
d(psi)/dx as (nz, nx) arrays.

Units: x and z carry k0, wavenumbers are in k0, the field inherits the
profile's (unnormalized) amplitude scale.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .aperture import ApertureProfile, SingleSlitProfile
from .errors import QuadratureError
from .quadrature import _MAX_ELEMENTS, _X_K, adaptive_quad, oscillation_breakpoints

_EXP_CUT = 46.0  # exp(-46) ~ 1e-20, below any tolerance used here
_HALF_WAVES_PER_PANEL = 3  # seed panels span this many half-oscillations of the fastest phase
_EFOLDS_PER_PANEL = 6.0  # decay seeds of the CW range span this many e-folds of e^{-chi z_max}
_REL_TOL = 1e-10  # relative tolerance of every field integral; abs_tol is the caller's
# seeded panels x components of one quadrature run: each round holds a few such arrays
_ROUND_ELEMENTS = 1 << 20


class FieldGrid(NamedTuple):
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


def _cos_sin(x) -> np.ndarray:
    """cos x and sin x stacked, shape (2, *x.shape), from one tan(x/2).

    With tau = tan(x/2), cos x = (1 - tau^2)/(1 + tau^2) and sin x =
    2 tau/(1 + tau^2), each within about 2 ulp of 1 in absolute terms;
    numpy's tan is one SIMD loop where its sin and cos may be scalar libm
    calls.  nan and inf give nan.
    """
    out = np.empty((2,) + np.shape(x))
    tau = np.tan(np.multiply(x, 0.5, out=out[1]), out=out[1])
    sq = np.square(tau)
    inv = 1.0 / (sq + 1.0)
    np.multiply(np.subtract(1.0, sq, out=sq), inv, out=out[0])
    tau *= inv
    tau *= 2.0  # sin, in out[1]
    return out


def _in_kx(e: QuadratureError, k_hi: float, zs: np.ndarray, x_max: float) -> QuadratureError:
    """``e`` with its interval, in theta, t or k, replaced by kx and the points."""
    where = f"kx in [0, {k_hi:g}] (z from {zs.min():g} to {zs.max():g}, |x| up to {x_max:g})"
    return QuadratureError(re.sub(r"\[[^\]]*\]", where, str(e), count=1), achieved=e.achieved)


def _own_rate(profile: ApertureProfile) -> float:
    """The rate at which F itself oscillates in k: a/2 for a slit, none for the other profiles."""
    return 0.5 * profile.a if isinstance(profile, SingleSlitProfile) else 0.0


def _axis(x_max: float, zs: np.ndarray, profile: ApertureProfile) -> tuple[float, np.ndarray, np.ndarray]:
    """k_hi, each row's exponential end k_exp and the seeds on t in (-pi/2, acosh k_hi), for rows zs."""
    z_max = float(zs.max())
    rate0 = _own_rate(profile)
    with np.errstate(divide="ignore"):
        k_exp = np.sqrt(1.0 + (_EXP_CUT / zs) ** 2)  # inf at z = 0
    k_hi = max(1.5, min(profile.cutoff(), float(k_exp.max())))  # beyond its own end a row carries < e^-46
    t_mid = float(np.arccosh(min(2.0, k_hi)))  # k = 2, where the seeds switch from t to k; t_hi below k = 2
    try:
        rw = oscillation_breakpoints(0.0, 0.5 * math.pi, (math.hypot(x_max, z_max) + rate0) / _HALF_WAVES_PER_PANEL)
        s = oscillation_breakpoints(0.0, t_mid, (x_max + rate0) * math.sinh(t_mid) / _HALF_WAVES_PER_PANEL)
        k = oscillation_breakpoints(2.0, k_hi, (x_max + rate0) / _HALF_WAVES_PER_PANEL)
    except QuadratureError as e:
        raise _in_kx(e, k_hi, zs, x_max) from None
    decay = []  # e^{-chi z_max} falls _EFOLDS_PER_PANEL e-folds from one decay seed to the next, down to e^-46
    if z_max > 0.0:
        decay = np.arcsinh(np.arange(1, int(_EXP_CUT / _EFOLDS_PER_PANEL) + 1) * _EFOLDS_PER_PANEL / z_max)
    knots = profile.knots()
    rw -= 0.5 * math.pi
    seeds = np.concatenate([rw[rw < 0.0], [0.0], s[s < t_mid], [t_mid], np.arccosh(k[k < k_hi]), decay,
                            -np.arccos(knots[knots < 1.0]), np.arccosh(knots[knots > 1.0])])
    return k_hi, k_exp, seeds


def _integrals(u: np.ndarray, zs: np.ndarray, profile: ApertureProfile, axis, abs_tol: float):
    """The RW and CW integrals of the rows zs at the distances u = |x|, one quadrature over t.

    ``axis`` is :func:`_axis` of these rows.  Returns two (nz, 2, len(u))
    arrays: per row, the psi integrals, then the d/dx ones.
    """
    k_hi, k_exp, seeds = axis
    nz = len(zs)

    def integrand(t):
        m = np.searchsorted(t, 0.0)  # the panels are ascending and t = 0 is an edge
        cos_t, sin_t = _cos_sin(t[:m])
        chi = np.sinh(t[m:])
        k = np.concatenate([cos_t, np.cosh(t[m:])])
        w = profile.amplitude(k) * np.concatenate([-sin_t, chi])  # F dk/dt, kz = -sin t
        left = np.zeros((3, nz, len(t)))
        np.multiply(_cos_sin(np.multiply.outer(zs, -sin_t)), w[:m], out=left[:2, :, :m])  # e^{i kz z}
        np.multiply(np.exp(np.multiply.outer(-zs, chi)), w[m:], out=left[2, :, m:])
        right = _cos_sin(np.multiply.outer(u, k))
        right[1] *= -k
        return left.reshape(3 * nz, -1), right.reshape(2 * len(u), -1)

    try:
        res = adaptive_quad(integrand, -0.5 * math.pi, float(np.arccosh(k_hi)), abs_tol=0.5 * abs_tol,
                            rel_tol=_REL_TOL, breakpoints=seeds, components=3 * nz * 2 * len(u))
    except QuadratureError as e:
        raise _in_kx(e, k_hi, zs, u[-1]) from None
    v = 2.0 * res.value.reshape(3, nz, 2, len(u))
    cw = v[2]
    k_profile = profile.cutoff()
    for row, z, k_cut in zip(cw, zs.tolist(), k_exp):
        if k_profile <= k_cut:  # then k_hi is k_profile
            with np.errstate(all="ignore"):  # a tail whose series overflows is reported below
                tail = profile.field_tail(k_hi, u, z)
            if tail is not None:
                row += tail
                if not np.isfinite(row).all():
                    raise QuadratureError(f"the analytic tail beyond k = {k_hi!r} is not finite at z = {z!r}")
    return v[0] + 1j * v[1], cw


def _screen_parts(u: np.ndarray, profile: ApertureProfile, abs_tol: float):
    """The RW and CW parts of psi and d(psi)/dx at z = 0 and the distances u, each (2, len(u)), or None.

    None when the profile has no closed form on the screen plane
    (:meth:`~ApertureProfile.screen_field`).  Otherwise one quadrature over
    k in [0, 1] gives the RW integrals, and the CW ones are the mode minus
    them.
    """
    mode = profile.screen_field(u)
    if mode is None:
        return None

    def integrand(k):
        right = _cos_sin(np.multiply.outer(u, k))
        right[1] *= -k
        return profile.amplitude(k)[None], right.reshape(2 * len(u), -1)

    x_max = float(u[-1])
    try:
        seeds = oscillation_breakpoints(0.0, 1.0, (x_max + _own_rate(profile)) / _HALF_WAVES_PER_PANEL)
        res = adaptive_quad(integrand, 0.0, 1.0, abs_tol=0.5 * abs_tol, rel_tol=_REL_TOL, breakpoints=seeds,
                            components=2 * len(u))
    except QuadratureError as e:
        raise _in_kx(e, 1.0, np.zeros(1), x_max) from None
    rw = 2.0 * res.value.reshape(2, len(u))
    return rw, np.subtract(mode, rw)


def field_grid(xs, zs, profile: ApertureProfile, *, abs_tol: float = 1e-12) -> FieldGrid:
    """psi, d(psi)/dx and J_x at every (x, z) with z >= 0, as (len(zs), len(xs)) arrays.

    psi is even in x and d(psi)/dx odd, so the quadrature runs over the
    distinct |x| alone (a sorted set of Python floats, in which -0.0 and
    0.0 are one).  Rows at z = 0 of a profile with a closed form there
    (:meth:`~ApertureProfile.screen_field`, the slit mode) take one run
    over the RW range k in [0, 1], shared by them all (``_screen_parts``,
    called whenever a z = 0 row exists): psi_total is that mode, so
    psi_cw = mode - psi_rw holds exactly, with psi_rw's own error and no
    CW panel or analytic tail.  The other rows are split into runs of
    consecutive rows while a run's seeded panels x components stay within
    ``_ROUND_ELEMENTS`` and one K31 panel within the quadrature's per-call
    element cap; their k_hi and seeds come from these rows alone.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    z_list = zs.tolist()
    negative = [z for z in z_list if z < 0]
    if negative:
        raise ValueError(f"z must be non-negative (transmission side), got {negative[0]!r}")
    dist = np.abs(xs).tolist()
    u = sorted(set(dist))
    column = {d: j for j, d in enumerate(u)}
    at = [column[d] for d in dist]
    u = np.array(u)
    parts = np.empty((2, len(zs), 2, len(u)), complex)  # RW, then CW; per row the psi integrals, then d/dx
    screen = [i for i, z in enumerate(z_list) if z == 0.0]
    screen_parts = _screen_parts(u, profile, abs_tol) if screen else None
    if screen_parts is not None:
        parts[0, screen], parts[1, screen] = screen_parts
    rows = [i for i, z in enumerate(z_list) if z != 0.0 or screen_parts is None]
    if rows:
        axis = _axis(float(u[-1]), zs[rows], profile)  # these rows' seeds outnumber any batch's
        per_row = 3 * 2 * len(u)
        per_run = max(1, min(_MAX_ELEMENTS // (_X_K.size * per_row),
                             _ROUND_ELEMENTS // ((len(axis[2]) + 1) * per_row)))
        for start in range(0, len(rows), per_run):
            batch = rows[start:start + per_run]
            if per_run < len(rows):
                axis = _axis(float(u[-1]), zs[batch], profile)
            parts[0, batch], parts[1, batch] = _integrals(u, zs[batch], profile, axis, abs_tol)
    parts = parts[..., at]
    parts[:, :, 1] *= np.where(xs < 0, -1.0, 1.0)
    return FieldGrid(xs, zs, parts[0, :, 0], parts[1, :, 0], parts[0, :, 1], parts[1, :, 1])

