"""Aperture amplitude functions F(kx) on the screen.

A symmetric screen assigns each output mode kx a real, even amplitude
F(kx).  Three families are provided: the lowest transverse-electric mode of
a single slit of width ``a`` (in units of 1/k0), a Gaussian profile used as
an analytic cross-check, and user-tabulated profiles loaded from CSV.

Profiles are exposed unnormalized, exactly as written, and |F|^2 is
``amplitude(kx) ** 2``.  For the single slit the two-sided norm, the
integral of |F|^2 over all kx, is exactly 1 (Parseval applied to the
unit-norm slit mode), so |F|^2 doubles as a probability density over kx.

The slit form has removable singularities where a*kx = +-pi.  Direct
evaluation of cos(a kx/2)/(pi^2 - a^2 kx^2) loses every digit there, so
the implementation factors the denominator exactly and switches to a short
series within |a|kx| - pi| < 1e-3.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from pathlib import Path

import numpy as np

from .quadrature import _RULES, _X_K

_SERIES_WINDOW = 1e-3
# min(a, pi)*kx beyond which the slit field's 1/k tail series replaces quadrature
_TAIL_START = 100.0
# q = a*kx from which tail_probability sums its 1/q series; one K31 panel covers [q', 10] below
_ODDS_SERIES_START = 10.0
_TAIL_ORDER = 12  # highest power of 1/k kept in the slit field tail series
# past this many samples a panel per spline piece costs more than refining
# the small third-derivative jumps of densely sampled data
_MAX_KNOT_SEEDS = 128


def _exp_integrals(z: complex, top: int) -> list[complex]:
    """Generalized exponential integrals E_n(z) for n = 1..top, Re(z) >= 0, as a list indexed by n (entry 0 unused).

    z must be nonzero (E_1 is infinite there): the callers pass s k_hi with
    Re s, a row height, > 0 (:meth:`SingleSlitProfile.field_tail`) and
    -i q_s with q_s > 0 (:func:`_odds_series`).  Two routes:

    * |z| <= 1: upward recurrence E_{n+1} = (e^{-z} - z E_n)/n from E_1's
      power series (:func:`_exp1_series`).
    * |z| > 1: E_{n0} at n0 = min(top, ceil|z|) from its continued
      fraction (modified Lentz; a few steps at large |z|), then downward
      recurrence E_n = (e^{-z} - n E_{n+1})/z below n0 and upward above it.
      A downward step scales the rounding it inherits by n/|z| < 1 and an
      upward step by |z|/n <= 1, so neither direction amplifies it (upward
      from E_1 alone grows it like |z|^n/n!).
    """
    z = complex(z)
    e = np.exp(-z)
    n0 = min(top, math.ceil(abs(z)))
    vals = [0j] * (top + 1)
    if abs(z) <= 1.0:
        vals[1] = _exp1_series(z)
    else:
        vals[n0] = _exp_integral_cf(z, n0) * e
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


def _odds_series_order(q: float) -> int:
    """Smallest even order with (pi/q)^(order-4) <= 1e-17: the 1/q series of the slit tail odds converges to rounding.

    Each order pair is (pi/q)^2 smaller than the last, so 38 orders at q = 10, 16 at 100 and 8 at 1e6.
    """
    return 4 + 2 * math.ceil(17.0 / (2.0 * math.log10(q / math.pi)))


def _odds_series(q_s: float) -> float:
    """Slit tail odds above q_s >= _ODDS_SERIES_START from the 1/q series."""
    order = _odds_series_order(q_s)
    d = _tail_probability_coefficients(order)
    en = _exp_integrals(-1j * q_s, order)
    return 4.0 * math.pi * sum(d[m] * q_s ** (1 - m) * (1.0 / (m - 1) + en[m].real) for m in range(2, order + 1))


@functools.cache
def _odds_series_at_start() -> float:
    """:func:`_odds_series` at _ODDS_SERIES_START, the same for every q' below it; built once."""
    return _odds_series(_ODDS_SERIES_START)


def tail_probability(k_prime: float, a: float) -> float:
    """Probability of finding any |kx| above k_prime for the slit profile.

    In q = a*kx this is integral_{q'}^inf 8 pi cos^2(q/2)/(pi^2 - q^2)^2 dq,
    which depends on a and k' only through q' = a*k'.  From
    q_s = max(q', _ODDS_SERIES_START) on, the field tail's 1/q series sums it:
    with c from :func:`_slit_tail_series` at a = 1, z = 0 and d = c*c (its
    Cauchy square), |F|^2 = 2 pi (1 + cos q) sum_M d_M q^-M, so the remainder is
    4 pi sum_M d_M q_s^(1-M) [1/(M-1) + Re E_M(-i q_s)], through the order of
    :func:`_odds_series_order`.  Below q_s one K31 panel covers [q', q_s]: |F|^2
    is entire (the double zero of cos^2 at q = pi cancels the double pole) and
    the panel spans at most 3.2 half-waves of cos q, so K31 is exact to rounding.
    Below _ODDS_SERIES_START the series part is one constant, summed on first
    use.  Returns a built-in float, never numpy.float64.
    """
    if not (math.isfinite(k_prime) and k_prime > 0):
        raise ValueError(f"k_prime must be finite and positive, got {k_prime!r}")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"slit width must be finite and positive, got {a!r}")
    qp = a * k_prime
    if qp >= _ODDS_SERIES_START:
        return float(_odds_series(qp))
    half = 0.5 * (_ODDS_SERIES_START - qp)
    # nodes measured from q' keep the lower end exact, where the density is largest
    density = 2.0 * SingleSlitProfile(1.0).amplitude(qp + half * (1.0 + _X_K)) ** 2
    return float(_odds_series_at_start() + (half * (_RULES @ density))[0])


class ApertureProfile:
    """Base class: a real, even amplitude over kx (units of k0).

    :meth:`field_tail` returns the psi and d(psi)/dx remainders beyond
    :meth:`cutoff` over a row, or None when the profile has no analytic tail.
    :meth:`screen_field` returns psi and d(psi)/dx on the screen plane, or
    None when the profile has no closed form there.
    :meth:`knots` lists the kx > 0 where integrals over kx put panel edges,
    and ``rate`` is the rate at which F itself oscillates in kx: none here.
    """

    __slots__ = ()
    rate = 0.0

    def amplitude(self, kx):
        raise NotImplementedError

    def cutoff(self) -> float:
        """kx beyond which the profile's field contribution is negligible."""
        raise NotImplementedError

    def knots(self) -> np.ndarray:
        """The kx > 0, ascending, where integrals over kx should end a panel: where F or a derivative jumps."""
        return np.empty(0)

    def field_tail(self, k_hi: float, xs, z: float) -> tuple[np.ndarray, np.ndarray] | None:
        """(psi, dpsi): 2*integral_{k_hi}^inf F e^{-chi z} [cos(kx x), -kx sin(kx x)] dkx at each x of xs, or None."""
        return None

    def screen_field(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """(psi, dpsi): 2*integral_0^inf F [cos(kx u), -kx sin(kx u)] dkx at each u = |x| >= 0, or None."""
        return None


class SingleSlitProfile(ApertureProfile):
    """Lowest TE mode of a single slit of width ``a`` (units of 1/k0).

    amplitude(kx) = 2*sqrt(pi*a)*cos(a kx/2)/(pi^2 - a^2 kx^2), whose square
    is the slit mode probability density; the two-sided norm is exactly 1.
    """

    __slots__ = ("a",)

    def __init__(self, a: float):
        if not (a > 0):
            raise ValueError(f"slit width must be positive, got {a!r}")
        self.a = a

    @property
    def rate(self) -> float:
        """a/2, the rate of the cos(a kx/2) in F."""
        return 0.5 * self.a

    def amplitude(self, kx):
        # u = a |kx| - pi, inf where a |kx| passes the float range; sin(u/2)/u is redone as
        # 1/2 - u^2/48 + u^4/3840 where |u| < _SERIES_WINDOW
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u = self.a * np.abs(np.asarray(kx, dtype=float)) - math.pi
            sinc = np.asarray(np.sin(0.5 * u) / u)
        small = np.abs(u) < _SERIES_WINDOW
        if small.any():
            us = u[small]
            sinc[small] = 0.5 - us * us / 48.0 + us**4 / 3840.0
        amp = 2.0 * math.sqrt(math.pi * self.a) * sinc / (2.0 * math.pi + u)
        if u.max() == math.inf:  # F falls like 1/(a kx)^2, so 0 is its limit there
            amp = np.where(u == math.inf, 0.0, amp)
        return amp if amp.ndim else float(amp)

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
        relative to the leading one.  Rows need z > 0, so s != 0 on both edges.
        """
        c = _slit_tail_series(self.a, z, _TAIL_ORDER)
        scale = 2.0 * math.sqrt(math.pi * self.a)
        orders = range(2, len(c))
        psi_pow = [k_hi ** (1 - m) for m in range(len(c))]
        dpsi_pow = [k_hi ** (2 - m) for m in range(len(c))]
        psi = np.empty(len(xs))
        dpsi = np.empty(len(xs))
        for j, x in enumerate(xs):
            p = d = 0.0
            for beta in (x + 0.5 * self.a, x - 0.5 * self.a):
                s = complex(z, -beta)
                en = _exp_integrals(s * k_hi, _TAIL_ORDER)
                sp = sd = 0  # summed as sum() does, so the tails keep their bits
                for m in orders:
                    sp += c[m] * en[m] * psi_pow[m]
                    sd += c[m] * en[m - 1] * dpsi_pow[m]
                p += sp.real
                d += sd.imag
            psi[j] = scale * p
            dpsi[j] = -scale * d
        return psi, dpsi

    def screen_field(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slit mode 2 sqrt(pi/a) cos(pi u/a) for u < a/2, zero beyond, and its d/dx at x = u >= 0.

        The cosine transform of F is this mode exactly.  At the edge u = a/2
        it returns the mean of the one-sided limits, as the transform does:
        psi = 0 and d(psi)/dx = -sqrt(pi/a) pi/a.
        """
        scale = 2.0 * math.sqrt(math.pi / self.a)
        inside = u < 0.5 * self.a
        weight = np.where(inside, 1.0, np.where(u == 0.5 * self.a, 0.5, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):  # the nan cells of dpsi are mended below
            phase = math.pi * (u / self.a)  # inf only outside the slit, where its cos and sin are nan
            psi, sin = np.where(inside, scale * np.cos(phase), 0.0), np.sin(phase)
            dpsi = weight * (-scale * math.pi / self.a) * sin
        # a nan is 0*inf (a slope past the float range, a below about 1e-205, times a zero weight or sine) or a zero
        # weight times a nan sine: d(psi)/dx is 0 there, signed as a finite slope's zero would be
        return psi, np.where(np.isnan(dpsi), np.where(sin < 0.0, 0.0, -0.0), dpsi)


class GaussianProfile(ApertureProfile):
    """Analytic comparison profile F(kx) = exp(-kx^2 w^2 / 4)."""

    __slots__ = ("w",)

    def __init__(self, w: float):
        if not (w > 0):
            raise ValueError(f"width must be positive, got {w!r}")
        self.w = w

    def amplitude(self, kx):
        kx = np.asarray(kx, dtype=float)
        with np.errstate(over="ignore"):  # (kx w)^2 = inf gives exp(-inf) = 0, the true limit
            amp = np.exp(-0.25 * (kx * self.w) ** 2)
        return amp if amp.ndim else float(amp)

    def cutoff(self) -> float:
        # amplitude below 1e-18 of its peak
        return max(3.0, 12.9 / self.w)


@np.errstate(all="ignore")  # samples near the float range may overflow the fit: refused below
def _natural_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (x, y): rows d, c, b and y_i, one column per interval.

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
    # the sweeps run on Python floats, the same IEEE operations without a numpy scalar per index
    hs, diag, rhs = h.tolist(), diag.tolist(), rhs.tolist()
    for j in range(1, len(rhs)):
        w = hs[j] / diag[j - 1]
        diag[j] -= w * hs[j]
        rhs[j] -= w * rhs[j - 1]
    m = [0.0] * len(x)
    m[-2] = rhs[-1] / diag[-1]
    for j in range(len(rhs) - 2, -1, -1):
        m[j + 1] = (rhs[j] - hs[j + 1] * m[j + 2]) / diag[j]
    m = np.array(m)
    coef = np.stack([np.diff(m) / (6.0 * h), 0.5 * m[:-1], s - h * (2.0 * m[:-1] + m[1:]) / 6.0, y[:-1]])
    if not np.isfinite(coef).all():
        raise ValueError("the cubic spline through the samples overflows the float range")
    return coef


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
        for k, f in zip(ks.tolist(), fs.tolist()):
            if grid and k - grid[-1] <= 1e-9 * (1.0 + k):
                vals[-1] += f
                counts[-1] += 1
            else:
                grid.append(k)
                vals.append(f)
                counts.append(1)
        if len(grid) < 4:
            raise ValueError(f"need at least 4 distinct |kx| samples, got {len(grid)}")
        self._knots = np.asarray(grid)
        self._coef = _natural_cubic(self._knots, np.asarray(vals) / np.asarray(counts))
        if grid[0] > 0.0:  # a constant piece on [0, first knot] holds the first sample's value
            self._knots = np.insert(self._knots, 0, 0.0)
            self._coef = np.insert(self._coef, 0, [0.0, 0.0, 0.0, self._coef[3, 0]], axis=1)
        self.k_max = float(grid[-1])

    @classmethod
    def from_csv(cls, path) -> "TabulatedProfile":
        """Load columns (kx/k0, F); the first non-blank row is a header when its kx is not a number."""
        rows = []
        first = True
        with open(Path(path), newline="", encoding="utf-8-sig") as fh:  # a spreadsheet export may start with a BOM
            reader = csv.reader(fh)
            for row in reader:
                if not row or not row[0].strip():
                    continue
                header, first = first, False
                kx = None
                try:
                    kx = float(row[0])
                    rows.append((kx, float(row[1])))
                except ValueError as e:
                    if header and kx is None:
                        continue
                    raise ValueError(f"{path}, line {reader.line_num}: {e}") from None
                except IndexError:
                    raise ValueError(f"{path}, line {reader.line_num}: need two columns kx, F, got one") from None
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
        d, c, b, f = self._coef.take(i, axis=1)  # four contiguous rows, as the products below want
        amp = np.where(kx <= self.k_max, ((d * t + c) * t + b) * t + f, 0.0)
        return amp if amp.ndim else float(amp)

    def cutoff(self) -> float:
        return self.k_max

    def knots(self) -> np.ndarray:
        """Every sample |kx| > 0: the spline's third derivative jumps at each, and F is cut to zero beyond k_max.

        Past ``_MAX_KNOT_SEEDS`` samples, k_max alone.
        """
        knots = self._knots[1:]
        return knots if len(knots) <= _MAX_KNOT_SEEDS else knots[-1:]
