"""Near-field superposition behind the screen, split into RW and CW parts.

The scalar field at height z >= 0 over the screen is

    psi(x, z) = 2 * [ integral_0^1  F(k) e^{i sqrt(1-k^2) z} cos(k x) dk
                    + integral_1^inf F(k) e^{-sqrt(k^2-1) z} cos(k x) dk ]

(times the global factor e^{-i omega0 t}, which samples omit).  The first
integral collects running waves, the second the evanescent set.  Both have
an integrable square-root derivative singularity at k = 1, which one
variable t in [-pi/2, acosh k_hi] removes from both sides: k = cos t with
dk/dt = kz = -sin t on t < 0 (RW), k = cosh t with dk/dt = chi = sinh t on
t > 0 (CW), and t = 0 the end of both.  The CW range is truncated where the
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

A grid is at most three runs: the screen run, and two separable
quadratures over t for all its other rows, one per side of t = 0, with
component-major factors and the same seeds.  The running run's left
factor is (2 nz, n), Re and Im of F kz e^{i kz z}; the crawling run's is
(nz, n), F chi e^{-chi z}.  Both take the right factor (2 nu, n) of
``_right``, rows cos(k u_j) and -k sin(k u_j) per distinct u_j = |x_j|,
as the screen run does.  Each run contracts its pair with the K31 weights
without forming the product: psi_rw = 2 (V_re + i V_im) and
psi_cw = 2 V_cw plus the tail.  Quadrature alone bounds what a run holds
at once, and counts its caps on a round's work a row at a time.  Every
cos/sin pair (cos t and sin t on t < 0, the RW phase kz z, and k u_j)
comes from one tan of the half angle (``_cos_sin``).  psi is even in x
and d(psi)/dx odd, so each point takes its columns and the sign of x.
The distinct |x| are a sorted set of Python floats (-0.0 and 0.0 are
one), and each x finds its column through a dict: ~3 us at a handful of
points against ~10 us for np.unique, and at 10^6 points a third of what
formatting a CSV row costs.  k_hi is the largest per-row end; a row that
ends below it carries less than e^-46 beyond its own end.

The seeds follow where the integrand changes character (QUADPACK
practice, Piessens et al. 1983), for the largest |x| and z of the rows.
Oscillation seeds sit three half-waves of the fastest phase apart (F adds
its own ``profile.rate``, a/2 for a slit): on the RW range in
theta = t + pi/2 (phase k |x| + kz z), and on the CW range t in
[0, acosh 2] and the range [2, k_hi] in k, mapped by t = acosh k (phase
k |x|).  The G15 remainder on a 3 pi phase span is ~1e-20 of the panel
amplitude, and the |K31 - G15| estimate still guards every panel.  On the
CW side z does not oscillate: e^{-chi z} only decays, so it adds decay
seeds at t = asinh(6 j / z_max), j = 1..7, six e-folds of the highest
row apart down to e^-46 (lower rows decay more slowly over the same
panels).  The count of CW seeds below k = 2 thus does not grow with
z_max.  The seeds also include the profile's knots
(``ApertureProfile.knots``, mapped to t = -acos k and t = acosh k), the
kx where a tabulated spline's third derivative jumps or F drops to zero:
no panel straddles one, so K31 keeps its polynomial exactness there.
Each run keeps the seeds inside its own limits.  ``field_grid`` returns
the RW and CW parts of psi and d(psi)/dx as (nz, nx) arrays, each
integral within quadrature's fixed budget.  Quadrature's errors say what
failed; ``_in_kx`` adds where: the kx range, rows' z and largest |x|.

Units: x and z carry k0, wavenumbers are in k0, the field inherits the
profile's (unnormalized) amplitude scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .aperture import ApertureProfile
from .errors import QuadratureError
from .quadrature import adaptive_quad, oscillation_breakpoints

_EXP_CUT = 46.0  # exp(-46) ~ 1e-20, below quadrature's budget
_HALF_WAVES_PER_PANEL = 3  # seed panels span this many half-oscillations of the fastest phase
_EFOLDS_PER_PANEL = 6.0  # decay seeds of the CW range span this many e-folds of e^{-chi z_max}


class FieldGrid(NamedTuple):
    """psi and d(psi)/dx at t = 0 on an (x, z) grid, RW and CW parts as (len(z), len(x)) arrays."""

    psi_rw: np.ndarray
    psi_cw: np.ndarray
    dpsi_rw: np.ndarray
    dpsi_cw: np.ndarray


def _cos_sin(x) -> np.ndarray:
    """cos x and sin x stacked, shape (2, *x.shape), from one tan(x/2).

    With tau = tan(x/2), cos x = (1 - tau^2)/(1 + tau^2) and sin x =
    2 tau/(1 + tau^2), each within about 2 ulp of 1 in absolute terms;
    numpy's tan is one SIMD loop where its sin and cos may be scalar libm
    calls.  nan and inf give nan.
    """
    out = np.empty((2,) + np.shape(x))
    tau = np.tan(np.multiply(x, 0.5, out=out[1]), out=out[1])
    sq = np.square(tau, out=out[0])
    inv = np.add(sq, 1.0)  # the one temporary: fresh ones cost page faults on every call
    np.divide(1.0, inv, out=inv)
    np.subtract(1.0, sq, out=sq)
    sq *= inv  # cos, in out[0]
    tau *= inv
    tau *= 2.0  # sin, in out[1]
    return out


def _in_kx(e: QuadratureError, k_hi: float, zs: np.ndarray, x_max: float) -> QuadratureError:
    """``e``, which says what failed, followed by where: the kx range and the points."""
    where = f" on kx in [0, {k_hi:g}] (z from {zs.min():g} to {zs.max():g}, |x| up to {x_max:g})"
    return QuadratureError(f"{e}{where}", achieved=e.achieved)


def _axis(x_max: float, zs: np.ndarray, profile: ApertureProfile) -> tuple[float, np.ndarray, np.ndarray]:
    """k_hi, each row's exponential end k_exp and the seeds on t of both runs, for rows zs."""
    z_max = float(zs.max())
    rate0 = profile.rate
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
    seeds = np.concatenate([rw, s, [t_mid], np.arccosh(k), decay,
                            -np.arccos(knots[knots < 1.0]), np.arccosh(knots[knots > 1.0])])
    return k_hi, k_exp, seeds


def _right(u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The right factor of every field run: rows cos(k u_j), then -k sin(k u_j), shape (2 len(u), len(k))."""
    right = _cos_sin(np.multiply.outer(u, k))
    right[1] *= -k
    return right.reshape(2 * len(u), -1)


def _integrals(u: np.ndarray, zs: np.ndarray, profile: ApertureProfile):
    """The RW and CW integrals of the rows zs at the distances u = |x|, one quadrature per side of t = 0.

    Returns a complex and a real (nz, 2, len(u)) array: per row, the psi
    integrals, then the d/dx ones.
    """
    k_hi, k_exp, seeds = _axis(float(u[-1]), zs, profile)
    nz, nu = len(zs), len(u)

    def running(t):  # k = cos t, dk/dt = kz = -sin t
        k, sin_t = _cos_sin(t)
        left = _cos_sin(np.multiply.outer(zs, -sin_t))  # e^{i kz z}
        left *= profile.amplitude(k) * -sin_t
        return left.reshape(2 * nz, -1), _right(u, k)

    def crawling(t):  # k = cosh t, dk/dt = chi = sinh t
        k, chi = np.cosh(t), np.sinh(t)
        return np.exp(np.multiply.outer(-zs, chi)) * (profile.amplitude(k) * chi), _right(u, k)

    try:  # crawling first: on wide rows its first round is the larger, refused before any work
        cw = adaptive_quad(crawling, 0.0, float(np.arccosh(k_hi)), breakpoints=seeds, components=(nz, 2 * nu)).value
        rw = adaptive_quad(running, -0.5 * math.pi, 0.0, breakpoints=seeds, components=(nz, 4 * nu)).value
    except QuadratureError as e:
        raise _in_kx(e, k_hi, zs, u[-1]) from None
    rw = 2.0 * rw.reshape(2, nz, 2, nu)
    cw = 2.0 * cw.reshape(nz, 2, nu)
    k_profile = profile.cutoff()
    for row, z, k_cut in zip(cw, zs.tolist(), k_exp):
        if k_profile <= k_cut:  # then k_hi is k_profile
            with np.errstate(all="ignore"):  # a tail whose series overflows is reported below
                tail = profile.field_tail(k_hi, u, z)
            if tail is not None:
                row += tail
                if not np.isfinite(row).all():
                    raise QuadratureError(f"the analytic tail beyond k = {k_hi!r} is not finite at z = {z!r}")
    return rw[0] + 1j * rw[1], cw


def _screen_parts(u: np.ndarray, profile: ApertureProfile):
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
        return profile.amplitude(k)[None], _right(u, k)

    x_max = float(u[-1])
    try:
        seeds = oscillation_breakpoints(0.0, 1.0, (x_max + profile.rate) / _HALF_WAVES_PER_PANEL)
        res = adaptive_quad(integrand, 0.0, 1.0, breakpoints=seeds, components=2 * len(u))
    except QuadratureError as e:
        raise _in_kx(e, 1.0, np.zeros(1), x_max) from None
    rw = 2.0 * res.value.reshape(2, len(u))
    return rw, np.subtract(mode, rw)


def field_grid(xs, zs, profile: ApertureProfile) -> FieldGrid:
    """The RW and CW parts of psi and d(psi)/dx at every (x, z) with z >= 0, as (len(zs), len(xs)) arrays.

    The quadratures run over the distinct |x| alone, at most three runs a
    grid: rows at z = 0 of a profile with a closed form there take the one
    screen run (``_screen_parts``), and all the other rows one running and
    one crawling run (``_integrals``) whose k_hi and seeds come from them.
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
    screen_parts = _screen_parts(u, profile) if screen else None
    if screen_parts is not None:
        parts[0, screen], parts[1, screen] = screen_parts
    rows = [i for i, z in enumerate(z_list) if z != 0.0 or screen_parts is None]
    if rows:
        parts[0, rows], parts[1, rows] = _integrals(u, zs[rows], profile)
    parts = parts[..., at]
    parts[:, :, 1] *= np.where(xs < 0, -1.0, 1.0)
    return FieldGrid(parts[0, :, 0], parts[1, :, 0], parts[0, :, 1], parts[1, :, 1])

