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

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import interpolate
from scipy.special import exp1

from .quadrature import adaptive_quad

_SERIES_WINDOW = 1e-3
_Q_TAIL_START = 1.0e4  # a*kx beyond which the analytic tail expansion takes over


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


def _exp_integrals(z: complex, orders: tuple[int, ...]) -> dict[int, complex]:
    """Generalized exponential integrals E_n(z), Re(z) >= 0.

    Moderate arguments use upward recurrence from exp1; its cancellation
    grows like |z| per step, so beyond |z| = 1e4 each order switches to the
    independent asymptotic series e^{-z}/z * sum_j (-1)^j (n)_j / z^j,
    whose truncation error at six terms is below 1e-17 relative there.
    Every consumer divides E_n by K^(n-1) with K ~ |z|, keeping the final
    contributions at full precision on both sides of the switch.
    """
    top = max(orders)
    if z == 0:
        return {n: (math.inf if n == 1 else 1.0 / (n - 1)) for n in range(1, top + 1)}
    z = complex(z)
    e = np.exp(-z)
    if abs(z) >= 1e4:
        vals = {}
        for n in range(1, top + 1):
            total = 1.0 + 0.0j
            term = 1.0 + 0.0j
            for j in range(1, 6):
                term *= -(n + j - 1) / z
                total += term
            vals[n] = e / z * total
        return vals
    vals = {1: complex(exp1(z))}
    for n in range(1, top):
        vals[n + 1] = (e - z * vals[n]) / n
    return vals


@dataclass(frozen=True)
class TailEstimate:
    """Integrated mode-probability above a wavenumber, with diagnostics.

    ``asymptote`` carries the leading cubic-decay estimate
    8*pi/(3*(a*k')^3) for comparison against the integrated value.
    """

    value: float
    error: float
    asymptote: float
    k_prime: float


def _tail_beyond(q: float) -> tuple[float, float]:
    """Analytic remainder 2*integral_{q/a}^inf |F|^2 dk for q >= _Q_TAIL_START.

    Expanding (pi^2 - q^2)^-2 in powers of pi^2/q^2 and integrating each
    term (the oscillatory pieces via E_n on the imaginary axis) leaves a
    remainder below ~q^-9.
    """
    en = _exp_integrals(-1j * q, (4, 6, 8))
    pi2 = math.pi * math.pi
    t = (1.0 / 3.0 + en[4].real) / q**3
    t += 2.0 * pi2 * (1.0 / 5.0 + en[6].real) / q**5
    t += 3.0 * pi2 * pi2 * (1.0 / 7.0 + en[8].real) / q**7
    value = 4.0 * math.pi * t
    bound = 4.0 * math.pi * 4.0 * pi2**3 / (9.0 * q**9)
    return value, bound


def tail_probability(k_prime: float, a: float, abs_tol: float = 1e-12) -> TailEstimate:
    """Probability of finding any |kx| above k_prime for the slit profile.

    Computes 2*integral_{k'}^inf |F|^2 dkx by adaptive panels (one
    half-oscillation of cos^2 per seed panel) up to a*kx = 1e4 and an
    analytic expansion beyond, so the quoted error includes the remainder.
    The result depends on a and k' only through q' = a*k'.
    """
    if not (k_prime > 0):
        raise ValueError(f"k_prime must be positive, got {k_prime!r}")
    if not (a > 0):
        raise ValueError(f"slit width must be positive, got {a!r}")
    qp = a * k_prime
    asym = 8.0 * math.pi / (3.0 * qp**3)
    if qp >= _Q_TAIL_START:
        value, bound = _tail_beyond(qp)
        return TailEstimate(value=value, error=bound, asymptote=asym, k_prime=k_prime)

    def integrand(q):
        u = q - math.pi
        denom = 2.0 * math.pi + u
        return 8.0 * math.pi * _sin_half_sq_over_u_sq(u) / (denom * denom)

    breaks = np.arange(math.ceil(qp / math.pi) * math.pi, _Q_TAIL_START, math.pi)
    res = adaptive_quad(integrand, qp, _Q_TAIL_START, abs_tol=abs_tol, rel_tol=1e-12, breakpoints=breaks)
    tail_val, tail_bound = _tail_beyond(_Q_TAIL_START)
    return TailEstimate(
        value=res.value + tail_val,
        error=res.error + tail_bound,
        asymptote=asym,
        k_prime=k_prime,
    )


class ApertureProfile:
    """Base class: a real, even amplitude over kx (units of k0)."""

    def amplitude(self, kx):
        raise NotImplementedError

    def amplitude_sq(self, kx):
        amp = self.amplitude(kx)
        return amp * amp

    def norm_sq(self) -> float:
        """Two-sided norm: integral of |F|^2 over kx from -inf to inf."""
        raise NotImplementedError

    def cutoff(self, z: float) -> float:
        """kx beyond which the profile's field contribution is negligible."""
        raise NotImplementedError

    def has_analytic_tail(self) -> bool:
        return False

    def field_tail(self, k_hi: float, x: float, z: float) -> complex:
        """2*integral_{k_hi}^inf F e^{-chi z} cos(kx x) dkx, if available."""
        return 0.0

    def field_tail_dx(self, k_hi: float, x: float, z: float) -> complex:
        """x-derivative counterpart of :meth:`field_tail`."""
        return 0.0


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

    def cutoff(self, z: float) -> float:
        return _Q_TAIL_START / self.a

    def has_analytic_tail(self) -> bool:
        return True

    def field_tail(self, k_hi: float, x: float, z: float) -> complex:
        """Large-k remainder of the field integral via E_n expansions.

        Valid for a*k_hi >= 1e4; uses chi ~ k - 1/(2k) so the first-order
        e^{z/(2k)} correction is kept, adequate because the exponential
        cutoff supersedes this formula well before z*k_hi gets large.
        """
        a = self.a
        pref = -2.0 * math.sqrt(math.pi * a) / (a * a)
        pi2_a2 = (math.pi / a) ** 2
        total = 0.0
        for beta in (0.5 * a - x, 0.5 * a + x):
            s = complex(z, -beta)
            sk = s * k_hi
            en = _exp_integrals(sk, (2, 3, 4, 6))
            term = en[2] / k_hi
            term += 0.5 * z * en[3] / k_hi**2
            term += pi2_a2 * en[4] / k_hi**3
            term += pi2_a2 * pi2_a2 * en[6] / k_hi**5
            total += term.real
        return pref * total

    def field_tail_dx(self, k_hi: float, x: float, z: float) -> complex:
        a = self.a
        pref = 2.0 * math.sqrt(math.pi * a) / (a * a)
        pi2_a2 = (math.pi / a) ** 2
        total = 0.0
        for beta in (x + 0.5 * a, x - 0.5 * a):
            s = complex(z, -beta)
            if s == 0:
                continue  # sin(beta*k) vanishes identically
            sk = s * k_hi
            en = _exp_integrals(sk, (1, 2, 3, 5))
            term = en[1]
            term += 0.5 * z * en[2] / k_hi
            term += pi2_a2 * en[3] / k_hi**2
            term += pi2_a2 * pi2_a2 * en[5] / k_hi**4
            total += term.imag
        return pref * total


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

    def cutoff(self, z: float) -> float:
        # amplitude below 1e-18 of its peak
        return max(3.0, 12.9 / self.w)


class TabulatedProfile(ApertureProfile):
    """Profile interpolated from (kx, F) samples, even-symmetrized on load.

    Samples at +-kx are folded onto |kx| by averaging, a cubic spline is
    fitted on the folded grid, and the amplitude is taken as zero beyond
    the last sample (compactly supported data assumed).
    """

    def __init__(self, kx_samples, f_samples):
        kx_samples = np.asarray(kx_samples, dtype=float)
        f_samples = np.asarray(f_samples, dtype=float)
        if kx_samples.shape != f_samples.shape or kx_samples.ndim != 1:
            raise ValueError("kx and F sample arrays must be 1-D and equally long")
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
        averaged = np.asarray(vals) / np.asarray(counts)
        self.k_max = float(grid[-1])
        self._spline = interpolate.CubicSpline(np.asarray(grid), averaged, bc_type="natural")

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
        amp = np.where(kx <= self.k_max, self._spline(np.minimum(kx, self.k_max)), 0.0)
        return amp if amp.ndim else float(amp)

    def norm_sq(self) -> float:
        res = adaptive_quad(lambda k: self.amplitude(k) ** 2, 0.0, self.k_max, abs_tol=1e-14)
        return 2.0 * res.value

    def cutoff(self, z: float) -> float:
        return self.k_max


def consistency_checks() -> list[tuple[str, bool, str]]:
    """Symmetry, continuity and tail self-checks; used by the CLI check mode."""
    results = []
    a = 1.3
    pts = np.array([0.0, 0.4, 1.0, math.pi / a, 2.7, 9.0])
    even_ok = np.allclose(slit_te_amplitude_sq(pts, a), slit_te_amplitude_sq(-pts, a), rtol=0, atol=0)
    results.append(("slit-evenness", bool(even_ok), "|F(k)|^2 == |F(-k)|^2"))

    limit = a / (4.0 * math.pi)
    near = [slit_te_amplitude_sq((math.pi / a) * (1 + eps), a) for eps in (-1e-6, 1e-6)]
    cont_ok = all(abs(v - limit) <= 1e-4 * limit for v in near)
    results.append(("slit-singularity-continuity", cont_ok, f"{near} vs {limit}"))

    tails = [tail_probability(k, 1.0).value for k in (2.0, 4.0, 8.0, 16.0)]
    mono_ok = all(x > y > 0 for x, y in zip(tails, tails[1:]))
    results.append(("tail-monotone", mono_ok, f"{tails}"))

    norm = tail_probability(1e-9, 1.0).value
    results.append(("slit-unit-norm", abs(norm - 1.0) < 1e-9, f"two-sided norm {norm!r}"))
    return results
