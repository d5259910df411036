"""Aperture amplitude functions F(kx) on the screen.

A symmetric screen assigns each output mode kx a real, even amplitude
F(kx).  Three families are provided: the lowest transverse-electric mode of
a single slit of width ``a`` (in units of 1/k0), a Gaussian profile used as
an analytic cross-check, and user-tabulated profiles loaded from CSV.

Profiles are exposed unnormalized, exactly as written; the two-sided norm
``integral of |F|^2 over all kx`` is available separately.  For the single
slit that norm is exactly 1 (Parseval applied to the unit-norm slit mode),
so |F|^2 doubles as a probability density over kx.

The slit form has removable singularities where a*kx = +-pi.  Direct
evaluation of cos^2(a kx/2)/(pi^2 - a^2 kx^2)^2 loses every digit there, so
the implementation factors the denominator exactly and switches to a short
series within |a|kx| - pi| < 1e-3.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quadrature import adaptive_quad

_SERIES_WINDOW = 1e-3
# scaled wavenumber beyond which the slit's 1/k tail series replaces quadrature:
# min(a, pi)*kx for the field, a*kx for tail_probability
_TAIL_START = 100.0
_TAIL_ORDER = 12  # highest power of 1/k kept in the slit field tail series


def _series_near_zero(direct, u, c0: float, c2: float, c4: float) -> np.ndarray:
    """Overwrite the entries of ``direct`` where |u| < _SERIES_WINDOW.

    They get the series c0 - u^2/c2 + u^4/c4.  The direct form is thus
    evaluated once over the whole array and only the few small entries
    are redone.
    """
    out = np.asarray(direct)
    small = np.abs(u) < _SERIES_WINDOW
    if small.any():
        us = u[small]
        out[small] = c0 - us * us / c2 + us**4 / c4
    return out


def _sin_half_over_u(u):
    """sin(u/2)/u, series-protected near u = 0."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.sin(0.5 * u) / u
    return _series_near_zero(direct, u, 0.5, 48.0, 3840.0)


def _sin_half_sq_over_u_sq(u):
    """sin(u/2)^2/u^2, series-protected near u = 0."""
    u = np.asarray(u, dtype=float)
    s = np.sin(0.5 * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (s * s) / (u * u)
    return _series_near_zero(direct, u, 0.25, 48.0, 1440.0)


def slit_te_amplitude_sq(kx, a: float):
    """|F(kx)|^2 = 4*pi*a*cos^2(a kx/2)/(pi^2 - a^2 kx^2)^2 for the slit mode.

    Evaluated through the exact factoring
    pi^2 - q^2 = -(q - pi)(q + pi) with q = a|kx|, which confines the
    cancellation to the single subtraction q - pi; the removable
    singularity at q = pi takes its finite limit a/(4*pi).
    """
    if not (a > 0):
        raise ValueError(f"slit width must be positive, got {a!r}")
    q = a * np.abs(np.asarray(kx, dtype=float))
    u = q - math.pi
    ratio = _sin_half_sq_over_u_sq(u)
    denom = 2.0 * math.pi + u
    out = 4.0 * math.pi * a * ratio / (denom * denom)
    return out if out.ndim else float(out)


def _exp_integrals(z: complex, top: int) -> dict[int, complex]:
    """Generalized exponential integrals E_n(z) for n = 1..top, Re(z) >= 0.

    Two routes:

    * |z| <= 1: upward recurrence E_{n+1} = (e^{-z} - z E_n)/n from E_1's
      power series (:func:`_exp1_series`).
    * |z| > 1: E_{n0} at n0 = min(top, ceil|z|) from its continued
      fraction (modified Lentz; a few steps at large |z|), then downward
      recurrence E_n = (e^{-z} - n E_{n+1})/z below n0 and upward above it.
      A downward step scales the rounding it inherits by n/|z| < 1 and an
      upward step by |z|/n <= 1, so neither direction amplifies it (upward
      from E_1 alone grows it like |z|^n/n!).
    """
    if z == 0:
        return {n: (math.inf if n == 1 else 1.0 / (n - 1)) for n in range(1, top + 1)}
    z = complex(z)
    e = np.exp(-z)
    n0 = min(top, math.ceil(abs(z)))
    if abs(z) <= 1.0:
        vals = {1: _exp1_series(z)}
    else:
        vals = {n0: _exp_integral_cf(z, n0) * e}
    for n in range(n0 - 1, 0, -1):
        vals[n] = (e - n * vals[n + 1]) / z
    for n in range(n0, top):
        vals[n + 1] = (e - z * vals[n]) / n
    return vals


def _exp1_series(z: complex) -> complex:
    """E_1(z) = -gamma - log z - sum_n (-z)^n/(n n!) for 0 < |z| <= 1, Re(z) >= 0 (A&S 5.1.11).

    The principal log needs no branch cut correction on Re(z) >= 0.  At
    |z| <= 1 the first omitted term, 1/(19*19!), is below 1e-18.
    """
    term = 1.0
    total = 0j
    for n in range(1, 19):
        term *= -z / n  # (-z)^n/n!
        total += term / n
    return -np.euler_gamma - cmath.log(z) - total


def _exp_integral_cf(z: complex, n: int) -> complex:
    """e^z E_n(z) = 1/(z + n - 1*n/(z + n + 2 - 2(n+1)/(z + n + 4 - ...))), |z| > 1, Re(z) >= 0.

    Modified Lentz evaluation; converges in under 200 steps for |z| > 1
    (about 25 at |z| = 12).
    """
    b = z + n
    c = 1e300  # stands in for the infinite C_0 of the first step
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 2.3e-16:
            break
    return h


def _slit_tail_series(a: float, z: float, order: int) -> list[float]:
    """c_0..c_order of F(k) e^{-chi z} = 2 sqrt(pi a) cos(a k/2) e^{-k z} sum_m c_m k^-m.

    c_m is the k^-m coefficient of the product of two series in 1/k: the
    amplitude's -sum_n (pi/a)^(2n) k^(-2n-2) / a^2, and exp(z (k - chi))
    with k - chi = sum_j |binom(1/2, j)| k^(1-2j).  c_0 = c_1 = 0.
    """
    d = [0.0] * (order + 1)  # k - chi
    binom = 0.5
    for j in range(1, (order + 1) // 2 + 1):
        d[2 * j - 1] = binom
        binom *= (j - 0.5) / (j + 1)
    ex = [1.0] + [0.0] * order  # exp(z d): p ex_p = z sum_i i d_i ex_(p-i)
    for p in range(1, order + 1):
        ex[p] = z * sum(i * d[i] * ex[p - i] for i in range(1, p + 1)) / p
    c = [0.0] * (order + 1)
    ratio = (math.pi / a) ** 2
    for n in range(order // 2):
        amp = -ratio**n / (a * a)
        for m in range(2 * n + 2, order + 1):
            c[m] += amp * ex[m - 2 * n - 2]
    return c


@functools.cache
def _tail_probability_coefficients(order: int) -> np.ndarray:
    """Cauchy square d = c*c of :func:`_slit_tail_series` (a = 1, z = 0) through q^-order; built once, read-only."""
    d = np.convolve(*2 * [_slit_tail_series(1.0, 0.0, order)])
    d.flags.writeable = False
    return d


def _tail_sum(c: list[float], k_hi: float, en: dict[int, complex]) -> complex:
    """sum_m c_m integral_{k_hi}^inf k^-m e^{-s k} dk = sum_m c_m E_m(s k_hi) / k_hi^(m-1), from en[n] = E_n(s k_hi)."""
    return sum(c[m] * en[m] * k_hi ** (1 - m) for m in range(2, len(c)))


@dataclass(frozen=True)
class TailEstimate:
    """Integrated mode-probability above a wavenumber, with diagnostics.

    ``asymptote`` carries the leading cubic-decay estimate
    8*pi/(3*(a*k')^3) for comparison against the integrated value.
    """

    value: float
    error: float
    asymptote: float


def tail_probability(k_prime: float, a: float) -> TailEstimate:
    """Probability of finding any |kx| above k_prime for the slit profile.

    In q = a*kx this is integral_{q'}^inf 8 pi cos^2(q/2)/(pi^2 - q^2)^2 dq,
    which depends on a and k' only through q' = a*k'.  Adaptive panels (one
    half-oscillation of cos^2 per seed panel) cover [q', _TAIL_START]; from
    q_t = max(q', _TAIL_START) on, the field tail's 1/q series takes over:
    with c from :func:`_slit_tail_series` at a = 1, z = 0 and d = c*c (its
    Cauchy square, complete through q^-(_TAIL_ORDER+2)),
    |F|^2 = 2 pi (1 + cos q) sum_M d_M q^-M, so the remainder is
    4 pi [sum_M d_M q_t^(1-M)/(M-1) + Re sum_M d_M E_M(-i q_t)/q_t^(M-1)].
    ``error`` is the panel error plus the bound 8 pi |d_M| q_t^(1-M)/(M-1)
    of the first omitted terms; each further order is (pi/q_t)^2 smaller.
    """
    if not (math.isfinite(k_prime) and k_prime > 0):
        raise ValueError(f"k_prime must be finite and positive, got {k_prime!r}")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"slit width must be finite and positive, got {a!r}")
    qp = a * k_prime
    q_t = max(qp, _TAIL_START)
    order = _TAIL_ORDER + 2  # c through q^-order squares completely through q^-(order+2)
    d = _tail_probability_coefficients(order)
    value = sum(d[m] * q_t ** (1 - m) / (m - 1) for m in range(2, order + 1))
    value = 4.0 * math.pi * (value + _tail_sum(d[: order + 1], q_t, _exp_integrals(-1j * q_t, order)).real)
    error = 8.0 * math.pi * sum(abs(d[m]) * q_t ** (1 - m) / (m - 1) for m in (order + 1, order + 2))
    if qp < _TAIL_START:
        breaks = np.arange(math.ceil(qp / math.pi) * math.pi, _TAIL_START, math.pi)
        res = adaptive_quad(lambda q: 2.0 * slit_te_amplitude_sq(q, 1.0), qp, _TAIL_START,
                            abs_tol=1e-12, rel_tol=1e-12, breakpoints=breaks)
        value += res.value
        error += res.error
    asym = 8.0 * math.pi / 3.0 * qp**-3.0
    return TailEstimate(value=value, error=error, asymptote=asym)


class ApertureProfile:
    """Base class: a real, even amplitude over kx (units of k0).

    :meth:`field_tail` returns the psi and d(psi)/dx remainders beyond
    :meth:`cutoff` over a row, or None when the profile has no analytic tail.
    """

    def amplitude(self, kx):
        raise NotImplementedError

    def amplitude_sq(self, kx):
        amp = self.amplitude(kx)
        return amp * amp

    def norm_sq(self) -> float:
        """Two-sided norm: integral of |F|^2 over kx from -inf to inf."""
        raise NotImplementedError

    def cutoff(self) -> float:
        """kx beyond which the profile's field contribution is negligible."""
        raise NotImplementedError

    def field_tail(self, k_hi: float, xs, z: float) -> tuple[np.ndarray, np.ndarray] | None:
        """(psi, dpsi): 2*integral_{k_hi}^inf F e^{-chi z} [cos(kx x), -kx sin(kx x)] dkx at each x of xs, or None."""
        return None


@dataclass(frozen=True)
class SingleSlitProfile(ApertureProfile):
    """Lowest TE mode of a single slit of width ``a`` (units of 1/k0).

    amplitude(kx) = 2*sqrt(pi*a)*cos(a kx/2)/(pi^2 - a^2 kx^2), whose square
    is the slit mode probability density; the two-sided norm is exactly 1.
    """

    a: float

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError(f"slit width must be positive, got {self.a!r}")

    def amplitude(self, kx):
        q = self.a * np.abs(np.asarray(kx, dtype=float))
        u = q - math.pi
        amp = 2.0 * math.sqrt(math.pi * self.a) * _sin_half_over_u(u) / (2.0 * math.pi + u)
        return amp if amp.ndim else float(amp)

    def amplitude_sq(self, kx):
        return slit_te_amplitude_sq(kx, self.a)

    def norm_sq(self) -> float:
        return 1.0

    def cutoff(self) -> float:
        # both expansion ratios pi/(a k) and 1/k of the tail series stay <= pi/100
        return _TAIL_START / min(self.a, math.pi)

    def field_tail(self, k_hi: float, xs, z: float) -> tuple[np.ndarray, np.ndarray]:
        """Large-k remainders of the psi and d(psi)/dx integrals from the 1/k series of F e^{-chi z}.

        With s = z - i beta over the edges beta = x -+ a/2, c_m from
        :func:`_slit_tail_series` and one table E_n(s k_hi), n <= 12, per edge,
        psi sums c_m E_m(s k_hi)/k_hi^(m-1) and d(psi)/dx sums
        c_m E_(m-1)(s k_hi)/k_hi^(m-2).  Accurate to rounding for
        k_hi >= :meth:`cutoff`, where the omitted terms are O((pi/100)^11)
        relative to the leading one.
        """
        c = _slit_tail_series(self.a, z, _TAIL_ORDER)
        scale = 2.0 * math.sqrt(math.pi * self.a)
        psi = np.empty(len(xs))
        dpsi = np.empty(len(xs))
        for j, x in enumerate(xs):
            p = d = 0.0
            for beta in (x + 0.5 * self.a, x - 0.5 * self.a):
                s = complex(z, -beta)
                en = _exp_integrals(s * k_hi, _TAIL_ORDER)
                p += _tail_sum(c, k_hi, en).real
                if s != 0:  # s = 0 means beta = 0, where sin(beta k) vanishes
                    d += sum(c[m] * en[m - 1] * k_hi ** (2 - m) for m in range(2, len(c))).imag
            psi[j] = scale * p
            dpsi[j] = -scale * d
        return psi, dpsi


@dataclass(frozen=True)
class GaussianProfile(ApertureProfile):
    """Analytic comparison profile F(kx) = exp(-kx^2 w^2 / 4)."""

    w: float

    def __post_init__(self):
        if not (self.w > 0):
            raise ValueError(f"width must be positive, got {self.w!r}")

    def amplitude(self, kx):
        kx = np.asarray(kx, dtype=float)
        amp = np.exp(-0.25 * (kx * self.w) ** 2)
        return amp if amp.ndim else float(amp)

    def norm_sq(self) -> float:
        return math.sqrt(2.0 * math.pi) / self.w

    def cutoff(self) -> float:
        # amplitude below 1e-18 of its peak
        return max(3.0, 12.9 / self.w)


def _natural_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (x, y): one row (d, c, b, y_i) per interval.

    On [x_i, x_(i+1)] the spline is ((d t + c) t + b) t + y_i with t = k - x_i.
    The second derivatives m solve the tridiagonal system
    h_(i-1) m_(i-1) + 2 (h_(i-1) + h_i) m_i + h_i m_(i+1) = 6 (s_i - s_(i-1))
    (h the spacings, s the chord slopes, m_0 = m_(n-1) = 0) by the Thomas
    algorithm, which needs no pivoting on this diagonally dominant system.
    """
    h = np.diff(x)
    s = np.diff(y) / h
    diag = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * np.diff(s)
    for j in range(1, len(rhs)):
        w = h[j] / diag[j - 1]
        diag[j] -= w * h[j]
        rhs[j] -= w * rhs[j - 1]
    m = np.zeros(len(x))
    m[-2] = rhs[-1] / diag[-1]
    for j in range(len(rhs) - 2, -1, -1):
        m[j + 1] = (rhs[j] - h[j + 1] * m[j + 2]) / diag[j]
    return np.column_stack([np.diff(m) / (6.0 * h), 0.5 * m[:-1], s - h * (2.0 * m[:-1] + m[1:]) / 6.0, y[:-1]])


class TabulatedProfile(ApertureProfile):
    """Profile interpolated from (kx, F) samples, even-symmetrized on load.

    Samples at +-kx are folded onto |kx| by averaging, a cubic spline is
    fitted on the folded grid, and the amplitude is taken as zero beyond
    the last sample (compactly supported data assumed) and as the first
    sample's value below the first, so it stays bounded by the data.
    """

    def __init__(self, kx_samples, f_samples):
        kx_samples = np.asarray(kx_samples, dtype=float)
        f_samples = np.asarray(f_samples, dtype=float)
        if kx_samples.shape != f_samples.shape or kx_samples.ndim != 1:
            raise ValueError("kx and F sample arrays must be 1-D and equally long")
        if not (np.isfinite(kx_samples).all() and np.isfinite(f_samples).all()):
            raise ValueError("kx and F samples must be finite")
        order = np.argsort(np.abs(kx_samples))
        ks = np.abs(kx_samples)[order]
        fs = f_samples[order]
        # merge samples whose |kx| coincide up to rounding (mirrored grids
        # rarely mirror exactly in floating point)
        grid: list[float] = []
        vals: list[float] = []
        counts: list[int] = []
        for k, f in zip(ks, fs):
            if grid and k - grid[-1] <= 1e-9 * (1.0 + k):
                vals[-1] += f
                counts[-1] += 1
            else:
                grid.append(float(k))
                vals.append(float(f))
                counts.append(1)
        if len(grid) < 4:
            raise ValueError(f"need at least 4 distinct |kx| samples, got {len(grid)}")
        self._knots = np.asarray(grid)
        self._coef = _natural_cubic(self._knots, np.asarray(vals) / np.asarray(counts))
        if grid[0] > 0.0:  # a constant piece on [0, first knot] holds the first sample's value
            self._knots = np.insert(self._knots, 0, 0.0)
            self._coef = np.vstack([[0.0, 0.0, 0.0, self._coef[0, 3]], self._coef])
        self.k_max = float(grid[-1])

    @classmethod
    def from_csv(cls, path) -> "TabulatedProfile":
        """Load columns (kx/k0, F); a non-numeric first row is a header."""
        rows = []
        with open(Path(path), newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError:
                    if rows:
                        raise
                    continue  # header line
        if not rows:
            raise ValueError(f"no numeric samples found in {path}")
        kx, f = zip(*rows)
        return cls(kx, f)

    def amplitude(self, kx):
        kx = np.abs(np.asarray(kx, dtype=float))
        k = np.minimum(kx, self.k_max)
        # interval 0..n-2 straight from the inner knots
        i = np.searchsorted(self._knots[1:-1], k, side="right")
        t = k - self._knots[i]
        d, c, b, f = self._coef[i].T
        amp = np.where(kx <= self.k_max, ((d * t + c) * t + b) * t + f, 0.0)
        return amp if amp.ndim else float(amp)

    def norm_sq(self) -> float:
        res = adaptive_quad(lambda k: self.amplitude(k) ** 2, 0.0, self.k_max, abs_tol=1e-14)
        return 2.0 * res.value

    def cutoff(self) -> float:
        return self.k_max
