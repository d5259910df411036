"""Finite-mass screen recoil: complex wavenumbers, complex energies, lifetimes.

Letting the screen (mass M, Compton wavenumber ratio K_M = M c/(hbar k0))
recoil changes the picture behind it in three ways:

* the evanescence threshold drops from k0 to k_c = eta*k0 with
  eta = sqrt(K_M/(K_M+2));
* each output photon wavenumber becomes the positive-branch root of the
  joint energy-momentum balance,
  k~ = (K_M + 1 + sqrt(1 - (1+2/K_M) kx^2)) / (K_M + 2),
  continued to +i sqrt(...) past the threshold, so evanescent modes pick up
  a small real transverse component and a complex magnitude;
* photon and screen energies become complex conjugate-like partners,
  eps~ = eps + i*gamma and E~ = E - i*Gamma with gamma = Gamma exactly, so
  each joint mode keeps the sharp total energy eps0 while its two halves
  individually decay or grow: the structure of a resonance (Gamow) state,
  with lifetime tau = hbar/Gamma.

Everything is dimensionless (wavenumbers in k0, energies in eps0) except
where a :class:`~nearwave.quantities.ScaledUnits` converts to seconds.
The infinite-mass limit reproduces the fixed-screen modes of
:mod:`nearwave.modes`.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .modes import WaveKind
from .quantities import C_LIGHT, HBAR, ScaledUnits, stable_one_minus_inv_sqrt1p


class ScreenSpec:
    """Movable screen of Compton wavenumber ratio K_M = M c / (hbar k0)."""

    __slots__ = ("K_M",)

    def __init__(self, K_M: float):
        if not (K_M > 0):
            raise ValueError(f"K_M must be positive, got {K_M!r}")
        self.K_M = K_M


class Threshold(NamedTuple):
    """Evanescence threshold of a movable screen.

    ``one_minus_eta`` is computed by the cancellation-free primitive so it
    stays meaningful even when eta itself rounds to 1.0 (K_M ~ 1e34).
    """

    eta: float
    one_minus_eta: float


def critical_threshold(screen: ScreenSpec) -> Threshold:
    """Reduced threshold k_c = eta = sqrt(K_M/(K_M+2)), with 1-eta kept exact."""
    eta = math.sqrt(screen.K_M / (screen.K_M + 2.0))
    return Threshold(eta=eta, one_minus_eta=stable_one_minus_inv_sqrt1p(2.0 / screen.K_M))


_EPS = 2.220446049250313e-16


def _branch_conditioning(kx: float, eta: float) -> float:
    """Relative noise floor of sqrt(kx^2 - eta^2) just past the branch point.

    The gap |kx| - eta carries an absolute rounding of order eps*|kx|, which
    the square root amplifies to eps*|kx|/gap relative; identity checks on
    the decay width cannot be tighter than this.
    """
    gap = abs(kx) - eta
    if gap <= 0.0:
        return math.inf
    return _EPS * abs(kx) / gap


class RecoilSolution(NamedTuple):
    """Joint photon+screen output for one kx (all values dimensionless).

    Sign structure for evanescent modes: Im(kz_tilde) = chi_z > 0 (photon
    decays away from the screen) and Im(Kz_tilde) = -chi_z (the screen's
    evanescence is opposite), while Kz_tilde = 1 - kz_tilde holds exactly
    so photon + screen momentum closes on the input k0 z-hat.  The energy
    ledger eps_real + E_real = 1 and gamma = Gamma hold on both branches.
    """

    kx: float
    kind: WaveKind
    k_tilde: complex
    kz_tilde: complex
    Kz_tilde: complex
    eps_real: float
    gamma: float
    E_real: float
    Gamma: float
    eta: float
    K_M: float

    @property
    def Kx_screen(self) -> float:
        """Screen recoil along the screen, balancing the mode's kx."""
        return -self.kx

    @property
    def chi_z(self) -> float:
        return self.kz_tilde.imag


def recoil_solution(kx: float, screen: ScreenSpec) -> RecoilSolution:
    """Solve the recoil balance at one kx and assemble the full record.

    k~ is the positive-branch root of the balance (the negative branch would
    send an undeflected photon, kx = 0, away from k~ = k0 and is unphysical),
    taken from the radicand r = 1 - (1+2/K_M) kx^2.  Its real part is the
    photon energy eps_real; its imaginary part is checked against the decay
    width from the threshold form chi_z/(K_M+1) at 1e-12 relative, widened
    by the branch-point conditioning.
    """
    K_M = screen.K_M
    eta = critical_threshold(screen).eta
    denom = K_M + 2.0
    r = 1.0 - (1.0 + 2.0 / K_M) * kx * kx

    if r < 0.0:
        chi = eta * (1.0 + 1.0 / K_M) * math.sqrt((abs(kx) - eta) * (abs(kx) + eta))
        kind = WaveKind.CRAWLING
        kz_tilde = complex(1.0 / denom, chi)
        Kz_tilde = complex(1.0 - 1.0 / denom, -chi)
        eps_real = (K_M + 1.0) / denom
        kt = complex(eps_real, math.sqrt(-r) / denom)
        gamma = chi / (K_M + 1.0)
        E_real = 1.0 / denom
    else:
        sqrt_r = math.sqrt(r)
        # 1 - sqrt(r) without cancellation at kx -> 0
        one_minus_sqrt_r = (1.0 + 2.0 / K_M) * kx * kx / (1.0 + sqrt_r)
        kz_re = (1.0 + (K_M + 1.0) * sqrt_r) / denom
        kind = WaveKind.RUNNING
        kz_tilde = complex(kz_re, 0.0)
        Kz_tilde = complex(1.0 - kz_re, 0.0)
        eps_real = (K_M + 1.0 + sqrt_r) / denom
        kt = complex(eps_real, 0.0)
        gamma = 0.0
        E_real = one_minus_sqrt_r / denom

    scale = max(1.0, abs(kt))
    # below the threshold the two routes share the same sqrt(r) expression
    # and must agree to rounding; above it the branch-point conditioning of
    # the gap |kx| - eta sets the attainable agreement
    cond = _branch_conditioning(kx, eta) if kind is WaveKind.CRAWLING else 0.0
    width_tol = max(scale, gamma) * (1e-12 + 4.0 * cond)
    if abs(kt.imag - gamma) > width_tol:
        raise ArithmeticError(
            f"decay-width routes disagree at kx={kx!r}, K_M={K_M!r}: "
            f"Im(k~)={kt.imag!r} vs chi/(K_M+1)={gamma!r}"
        )
    return RecoilSolution(
        kx=kx,
        kind=kind,
        k_tilde=kt,
        kz_tilde=kz_tilde,
        Kz_tilde=Kz_tilde,
        eps_real=eps_real,
        gamma=gamma,
        E_real=E_real,
        Gamma=gamma,
        eta=eta,
        K_M=K_M,
    )


def root_residual(sol: RecoilSolution) -> float:
    """|balance residual| when the solved root ``sol.k_tilde`` is substituted back.

    The balance reads sqrt(K_M^2 + 1 - 2 k~_z + k~^2) - K_M = 1 - k~ with
    k~_z = sqrt(k~^2 - kx^2); the left side is evaluated as
    X/(sqrt(K_M^2+X)+K_M) so no precision is lost at K_M ~ 1e12.
    """
    K_M, kx, kt = sol.K_M, sol.kx, sol.k_tilde
    kz = cmath.sqrt(kt * kt - kx * kx)
    x = 1.0 - 2.0 * kz + kt * kt
    lhs = x / (cmath.sqrt(K_M * K_M + x) + K_M)
    return abs(lhs - (1.0 - kt))


class Lifetimes(NamedTuple):
    """Lifetime of one evanescent joint mode three ways, and the screen's drift time across its decay depth [s].

    ``exact_s`` is hbar/(Gamma * eps0); ``chi_route_s`` replaces Gamma by
    its unit-threshold form (hbar^2/M) k0 chi_z; ``deep_cw_s`` further
    replaces chi_z by |kx|, the usual headline estimate M/(hbar k0 |k_x|).
    ``traverse_s`` is d_z/v_z with v_z = hbar k0 Re(Kz~)/M and d_z =
    1/(chi_z k0); in the heavy-screen, deep-evanescent regime it reproduces
    the Gamow lifetime.  ``regime_warning`` is set when K_M < 1e3 or
    |kx| < 10 k_c, where that equality is not expected to hold.
    """

    exact_s: float
    chi_route_s: float
    deep_cw_s: float
    traverse_s: float
    regime_warning: bool


def lifetimes(sol: RecoilSolution, units: ScaledUnits) -> Lifetimes:
    """The lifetimes and traverse time of the evanescent mode ``sol``.

    ValueError for a running mode, OverflowError where Gamma or chi_z is not finite.
    """
    if sol.kind is not WaveKind.CRAWLING:
        raise ValueError(f"|kx| = {abs(sol.kx)!r} is below the threshold; no finite lifetime")
    if not (math.isfinite(sol.Gamma) and math.isfinite(sol.chi_z)):
        raise OverflowError(f"Gamma = {sol.Gamma!r}, chi_z = {sol.chi_z!r}; no finite lifetime")
    ck0 = C_LIGHT * units.k0
    return Lifetimes(
        exact_s=HBAR / (sol.Gamma * units.eps0),
        chi_route_s=sol.K_M / (ck0 * sol.chi_z),
        deep_cw_s=sol.K_M / (ck0 * abs(sol.kx)),
        traverse_s=sol.K_M / (ck0 * sol.chi_z * sol.Kz_tilde.real),
        regime_warning=sol.K_M < 1e3 or abs(sol.kx) < 10.0 * sol.eta,
    )
