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
from dataclasses import dataclass

from .aperture import TailEstimate, tail_probability
from .errors import ConfigError
from .modes import WaveKind
from .quantities import (
    C_LIGHT,
    HBAR,
    ScaledUnits,
    compton_wavenumber_ratio,
    stable_one_minus_inv_sqrt1p,
)


@dataclass(frozen=True)
class ScreenSpec:
    """Movable screen of Compton wavenumber ratio K_M = M c / (hbar k0)."""

    K_M: float

    def __post_init__(self):
        if not (self.K_M > 0):
            raise ValueError(f"K_M must be positive, got {self.K_M!r}")

    @classmethod
    def from_mass(cls, mass_kg: float, units: ScaledUnits) -> "ScreenSpec":
        return cls(K_M=compton_wavenumber_ratio(mass_kg, units))


@dataclass(frozen=True)
class Threshold:
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


def _radicand(kx: float, K_M: float) -> float:
    return 1.0 - (1.0 + 2.0 / K_M) * kx * kx


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


def output_wavenumber(kx: float, screen: ScreenSpec) -> complex:
    """Output photon wavenumber magnitude k~/k0 (complex past the threshold).

    Positive branch of the recoil balance; the negative branch would send
    an undeflected photon (kx = 0) away from k~ = k0 and is unphysical.
    """
    K_M = screen.K_M
    r = _radicand(kx, K_M)
    denom = K_M + 2.0
    if r >= 0.0:
        return complex((K_M + 1.0 + math.sqrt(r)) / denom, 0.0)
    return complex((K_M + 1.0) / denom, math.sqrt(-r) / denom)


def root_residual(kx: float, screen: ScreenSpec) -> float:
    """|balance residual| when the root is substituted back.

    The balance reads sqrt(K_M^2 + 1 - 2 k~_z + k~^2) - K_M = 1 - k~ with
    k~_z = sqrt(k~^2 - kx^2); the left side is evaluated as
    X/(sqrt(K_M^2+X)+K_M) so no precision is lost at K_M ~ 1e12.
    """
    K_M = screen.K_M
    kt = output_wavenumber(kx, screen)
    kz = cmath.sqrt(kt * kt - kx * kx)
    x = 1.0 - 2.0 * kz + kt * kt
    lhs = x / (cmath.sqrt(K_M * K_M + x) + K_M)
    return abs(lhs - (1.0 - kt))


@dataclass(frozen=True)
class RecoilSolution:
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

    @property
    def eps_tilde(self) -> complex:
        return complex(self.eps_real, self.gamma)

    @property
    def E_tilde(self) -> complex:
        return complex(self.E_real, -self.Gamma)


def recoil_solution(kx: float, screen: ScreenSpec) -> RecoilSolution:
    """Solve the recoil balance at one kx and assemble the full record.

    Internal cross-checks are enforced at 1e-12 relative: the imaginary
    part of k~ must equal the decay width computed from the threshold form
    chi_z/(K_M+1), and hbar*c*k~ must reproduce eps~ componentwise.
    """
    K_M = screen.K_M
    eta = critical_threshold(screen).eta
    denom = K_M + 2.0
    r = _radicand(kx, K_M)
    kt = output_wavenumber(kx, screen)

    if r < 0.0:
        chi = eta * (1.0 + 1.0 / K_M) * math.sqrt((abs(kx) - eta) * (abs(kx) + eta))
        kind = WaveKind.CRAWLING
        kz_tilde = complex(1.0 / denom, chi)
        Kz_tilde = complex(1.0 - 1.0 / denom, -chi)
        eps_real = (K_M + 1.0) / denom
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
        gamma = 0.0
        E_real = one_minus_sqrt_r / denom
    sol = RecoilSolution(
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

    scale = max(1.0, abs(kt))
    # below the threshold the two routes share the same sqrt(r) expression
    # and must agree to rounding; above it the branch-point conditioning of
    # the gap |kx| - eta sets the attainable agreement
    cond = _branch_conditioning(kx, eta) if sol.kind is WaveKind.CRAWLING else 0.0
    width_tol = max(scale, sol.gamma) * (1e-12 + 4.0 * cond)
    if abs(kt.imag - sol.gamma) > width_tol:
        raise ArithmeticError(
            f"decay-width routes disagree at kx={kx!r}, K_M={K_M!r}: "
            f"Im(k~)={kt.imag!r} vs chi/(K_M+1)={sol.gamma!r}"
        )
    if abs(kt - sol.eps_tilde) > max(1e-12 * scale, width_tol):
        raise ArithmeticError(
            f"energy/wavenumber mismatch at kx={kx!r}, K_M={K_M!r}: "
            f"k~={kt!r} vs eps~={sol.eps_tilde!r}"
        )
    return sol


def screen_momentum_magnitude(kx: float, screen: ScreenSpec) -> complex:
    """Complex 'magnitude' sqrt(Kx^2 + Kz~^2) of the recoiling screen momentum.

    Computed from the components and from the equivalent form
    sqrt(1 - 2 sqrt(k~^2 - kx^2) + k~^2); the two must agree to 1e-12.
    """
    sol = recoil_solution(kx, screen)
    w = kx * kx + sol.Kz_tilde * sol.Kz_tilde
    route_a = cmath.sqrt(w)
    kt = sol.k_tilde
    route_b = cmath.sqrt(1.0 - 2.0 * cmath.sqrt(kt * kt - kx * kx) + kt * kt)
    # agreement floor from rounding propagation: the strict identity gate,
    # the cancellation of terms of magnitude t_scale down to |w|=|route|^2
    # amplified by 1/|kz~| from the inner square root, the branch-point
    # conditioning of the stored decay constant on the evanescent side,
    # and, within rounding of the branch point itself, the sqrt(eps)-scale
    # residue that makes the branch ambiguous for one route only
    t_scale = max(1.0, kx * kx) + abs(sol.Kz_tilde) ** 2
    kz_mag = max(abs(sol.kz_tilde), 1e-300)
    route_mag = max(abs(route_a), 1e-300)
    amplify = (1.0 + 1.0 / kz_mag) / route_mag
    tol = 1e-12 * max(1.0, abs(route_a)) + 8.0 * _EPS * t_scale * amplify
    if sol.kind is WaveKind.CRAWLING:
        tol += 4.0 * sol.chi_z * _branch_conditioning(kx, sol.eta) * amplify
    r = _radicand(kx, screen.K_M)
    r_scale = max(1.0, (1.0 + 2.0 / screen.K_M) * kx * kx)
    if abs(r) <= 32.0 * _EPS * r_scale:
        im_floor = math.sqrt(32.0 * _EPS * r_scale) / (screen.K_M + 2.0)
        tol += 4.0 * (1.0 + abs(kt)) * im_floor * amplify
    if abs(route_a - route_b) > tol:
        raise ArithmeticError(f"momentum-magnitude routes disagree: {route_a!r} vs {route_b!r}")
    return route_a


def decay_width_asymptotic(kx: float, screen: ScreenSpec) -> tuple[float, float]:
    """Deep-evanescent width estimate alongside the exact one (eps0 units).

    Returns ``(asym, exact)`` with asym = |kx|/K_M, i.e. Gamma ~
    (hbar^2/M) k0 |k_x| after chi_z ~ |kx|; the relative difference decays
    like 1/K_M + (k_c/kx)^2/2.
    """
    sol = recoil_solution(kx, screen)
    if sol.kind is not WaveKind.CRAWLING:
        raise ValueError(f"|kx| = {abs(kx)!r} is below the threshold; no decay width")
    return abs(kx) / screen.K_M, sol.Gamma


@dataclass(frozen=True)
class LifetimeRoutes:
    """Lifetime of one evanescent joint mode computed three ways [s].

    ``exact_s`` is hbar/(Gamma * eps0); ``chi_route_s`` replaces Gamma by
    its unit-threshold form (hbar^2/M) k0 chi_z; ``deep_cw_s`` further
    replaces chi_z by |kx|, the usual headline estimate M/(hbar k0 |k_x|).
    """

    exact_s: float
    chi_route_s: float
    deep_cw_s: float


def lifetime_routes(sol: RecoilSolution, units: ScaledUnits) -> LifetimeRoutes:
    """The three lifetimes of the evanescent mode ``sol``; ValueError for a running one."""
    if sol.kind is not WaveKind.CRAWLING:
        raise ValueError(f"|kx| = {abs(sol.kx)!r} is below the threshold; no finite lifetime")
    ck0 = C_LIGHT * units.k0
    return LifetimeRoutes(
        exact_s=HBAR / (sol.Gamma * units.eps0),
        chi_route_s=sol.K_M / (ck0 * sol.chi_z),
        deep_cw_s=sol.K_M / (ck0 * abs(sol.kx)),
    )


@dataclass(frozen=True)
class TraverseTime:
    """Time for the recoiling screen to traverse one decay depth [s].

    ``regime_warning`` is set when K_M < 1e3 or |kx| < 10 k_c, where the
    equality of traverse time and lifetime is not expected to hold.
    """

    seconds: float
    regime_warning: bool


def traverse_time(sol: RecoilSolution, units: ScaledUnits) -> TraverseTime:
    """Decay depth over screen drift velocity, d_z / v_z, for the evanescent mode ``sol``.

    v_z = hbar k0 Re(Kz~)/M and d_z = 1/(chi_z k0); in the heavy-screen,
    deep-evanescent regime this reproduces the Gamow lifetime.
    """
    if sol.kind is not WaveKind.CRAWLING:
        raise ValueError(f"|kx| = {abs(sol.kx)!r} is below the threshold; no traverse time")
    warn = sol.K_M < 1e3 or abs(sol.kx) < 10.0 * sol.eta
    seconds = sol.K_M / (C_LIGHT * units.k0 * sol.chi_z * sol.Kz_tilde.real)
    return TraverseTime(seconds=seconds, regime_warning=warn)


@dataclass(frozen=True)
class ShortLifetimeResult:
    """Probability of collapsing onto a mode shorter-lived than tau_max."""

    probability: float
    k_prime: float
    in_regime: bool
    tail: TailEstimate | None


def short_lifetime_probability(
    tau_max: float, a: float, screen: ScreenSpec, units: ScaledUnits
) -> ShortLifetimeResult:
    """Chance that a slit-profile collapse yields a lifetime below tau_max.

    Inverts the deep-evanescent lifetime to the threshold wavenumber
    k' = K_M/(c k0 tau_max) and integrates the slit mode density above it.
    If k' does not clear the evanescence threshold every evanescent mode
    outlives tau_max's inversion and the probability saturates at 1,
    flagged as out of regime.  A tau_max so small that a*k' overflows
    raises ConfigError for ``scenario.tau_max_s``.
    """
    if not (tau_max > 0):
        raise ValueError(f"tau_max must be positive, got {tau_max!r}")
    k_prime = screen.K_M / (C_LIGHT * units.k0 * tau_max)
    if k_prime <= critical_threshold(screen).eta:
        return ShortLifetimeResult(probability=1.0, k_prime=k_prime, in_regime=False, tail=None)
    if not math.isfinite(a * k_prime):
        raise ConfigError("scenario.tau_max_s", f"tau_max_s = {tau_max!r} inverts to a*k' = {a * k_prime!r}")
    tail = tail_probability(k_prime, a)
    return ShortLifetimeResult(probability=tail.value, k_prime=k_prime, in_regime=True, tail=tail)


def short_lifetime_outputs(tau_max: float, a: float, screen: ScreenSpec, units: ScaledUnits) -> dict:
    """The ``short_lifetime`` block of a lifetime record, from :func:`short_lifetime_probability`."""
    short = short_lifetime_probability(tau_max, a, screen, units)
    return {
        "tau_max_s": tau_max,
        "k_prime_ratio": short.k_prime,
        "probability": short.probability,
        "in_regime": short.in_regime,
        "cubic_asymptote": short.tail.asymptote if short.tail else None,
    }


def entangled_term(
    kx: float,
    screen: ScreenSpec,
    r: tuple[float, float],
    R: tuple[float, float],
    t_s: float,
    units: ScaledUnits,
) -> complex:
    """One joint photon-screen factor exp(i(k~.r - eps~ t/hbar)) exp(i(K~.R - E~ t/hbar)).

    Positions are dimensionless (x*k0, z*k0); t is in seconds.  The time
    dependence is combined before exponentiating: since gamma and Gamma
    are stored as the same float, the imaginary parts cancel identically
    and the factor carries the sharp total frequency omega0, immune to
    overflow at any t.
    """
    sol = recoil_solution(kx, screen)
    t_hat = C_LIGHT * units.k0 * t_s
    spatial = kx * r[0] + sol.kz_tilde * r[1] + sol.Kx_screen * R[0] + sol.Kz_tilde * R[1]
    total_energy = sol.eps_tilde + sol.E_tilde  # == 1 + 0j by construction
    return cmath.exp(1j * (spatial - total_energy * t_hat))


def lifetime_scenario(
    *,
    mass_kg: float = 0.1,
    k0_si: float = 7.5e6,
    kx_ratio: float = 10.0,
    slit_width_ratio: float = 1.0,
    tau_max_s: float | None = None,
    reference_tau_s: float | None = None,
) -> dict:
    """Macroscopic-screen scenario: lifetime routes, traverse time, tail odds.

    A ``kx_ratio`` at or below the evanescence threshold eta has no
    lifetime and raises ConfigError for ``scenario.kx_ratio``.
    """
    units = ScaledUnits(k0=k0_si)
    screen = ScreenSpec.from_mass(mass_kg, units)
    thr = critical_threshold(screen)
    sol = recoil_solution(kx_ratio, screen)
    if sol.kind is not WaveKind.CRAWLING:
        raise ConfigError("scenario.kx_ratio", f"must exceed the evanescence threshold {thr.eta!r}, got {kx_ratio!r}")
    routes = lifetime_routes(sol, units)
    trav = traverse_time(sol, units)

    outputs = {
        "K_M_ratio": screen.K_M,
        "eta": thr.eta,
        "one_minus_eta": thr.one_minus_eta,
        "chi_z": sol.chi_z,
        "Gamma_eps0": sol.Gamma,
        "Gamma_si_joule": sol.Gamma * units.eps0,
        "tau_exact_s": routes.exact_s,
        "tau_chi_route_s": routes.chi_route_s,
        "tau_deep_cw_s": routes.deep_cw_s,
        "traverse_time_s": trav.seconds,
        "traverse_regime_warning": trav.regime_warning,
    }
    warnings = []
    if trav.regime_warning:
        warnings.append("traverse-time regime conditions not met")
    if reference_tau_s is not None:
        outputs["reference_tau_s"] = reference_tau_s
        outputs["reference_relative_deviation"] = abs(reference_tau_s - routes.deep_cw_s) / routes.deep_cw_s
    if tau_max_s is not None:
        short = outputs["short_lifetime"] = short_lifetime_outputs(tau_max_s, slit_width_ratio, screen, units)
        if not short["in_regime"]:
            warnings.append("tau_max inverts below the evanescence threshold; probability saturated at 1")

    return {
        "inputs": {
            "mass_kg": mass_kg,
            "k0_si": k0_si,
            "kx_ratio": kx_ratio,
            "slit_width_ratio": slit_width_ratio,
        },
        "outputs": outputs,
        "residuals": {
            "root_residual": root_residual(kx_ratio, screen),
            "energy_ledger": abs(sol.eps_real + sol.E_real - 1.0),
            "width_symmetry": abs(sol.gamma - sol.Gamma),
        },
        "warnings": warnings,
    }
