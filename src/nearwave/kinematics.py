"""Relativistic kinematics of evanescent-mode absorption by a massive probe.

A probe moving along the screen with wavenumber K0 (units of k0) can absorb
exactly one mode of the evanescent set: energy and momentum conservation
together with the mass shells of probe and photon single out

    kx = sign(K0) * sqrt(1 + K_mu^2 / K0^2),

always beyond the evanescence threshold, and hand the probe the mode's
imaginary transverse wavenumber i*K_mu/|K0|.  The probe itself is then in
an evanescent state; once it leaves the screen its momentum magnitude
relaxes to the real free-particle value, which is independent of kx.

All quantities are dimensionless: wavenumbers in k0, frequencies in c*k0,
with the input photon frequency equal to 1.  ``K_mu`` is the probe's
Compton wavenumber m*c/hbar in units of k0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateInputError


class ProbeState(NamedTuple):
    """Probe 4-momentum (omega; Kx, Kz) with Kz allowed complex."""

    omega: float
    Kx: float
    Kz: complex
    K_mu: float

    def on_shell_residual(self) -> float:
        """|omega^2 - Kx^2 - Kz^2 - K_mu^2| with the complex square."""
        return abs(self.omega**2 - self.Kx**2 - self.Kz * self.Kz - self.K_mu**2)


class TransferResult(NamedTuple):
    """Outcome of one absorption event: selected mode, transfer, exit momentum."""

    kx_selected: float
    kz_transferred: complex
    final_state: ProbeState
    ff_momentum_magnitude: float


def selection_residual(K0: float, K_mu: float, kx: float) -> float:
    """Residual of the conservation/mass-shell system at a candidate kx.

    Evaluates (sqrt(K0^2+K_mu^2)+1)^2 - (K0+kx)^2 - (1-kx^2) - K_mu^2 with
    exact summation of the expanded terms.  The magnitude is meaningful
    relative to the largest term, which grows like kx^2; compare against
    tol * max(1, kx^2, K0^2 + K_mu^2).
    """
    s = math.hypot(K0, K_mu)
    return math.fsum(
        (
            (s + 1.0) ** 2,
            -((K0 + kx) ** 2),
            -(1.0 - kx * kx),
            -(K_mu * K_mu),
        )
    )


def evanescence_transfer(K0: float, K_mu: float) -> TransferResult:
    """Full absorption record for one probe input state; ``final_state`` is the probe just after absorbing.

    The selected mode kx has the sign of K0 and |kx| > 1; the probe takes its
    imaginary transverse wavenumber i*K_mu/|K0|.  The free momentum magnitude
    after the probe leaves the screen is computed two algebraically identical
    ways, from the post-absorption energy and mass shell and from the
    expanded form in K0.  The shell form subtracts (s+1)^2 - K_mu^2, so its
    round-off grows with that cancellation scale; the agreement gate accounts
    for it, and a disagreement beyond it would indicate a broken invariant
    and raises.  The stable expanded form is returned.
    """
    if K0 == 0.0:
        raise DegenerateInputError(
            "probe at rest: every mode satisfies the selection rule only in the "
            "zero-frequency limit, outside this fixed-frequency model"
        )
    kx = math.copysign(math.sqrt(1.0 + (K_mu / K0) ** 2), K0)
    kz = complex(0.0, K_mu / abs(K0))
    s = math.hypot(K0, K_mu)
    from_shell = math.sqrt((s + 1.0) ** 2 - K_mu * K_mu)
    expanded = math.sqrt(K0 * K0 + 2.0 * s + 1.0)
    tol = 1e-12 * max(expanded, (s + 1.0) ** 2 / expanded)
    if abs(from_shell - expanded) > tol:
        raise ArithmeticError(
            f"exit-momentum forms disagree: {from_shell!r} vs {expanded!r}"
        )
    return TransferResult(
        kx_selected=kx,
        kz_transferred=kz,
        final_state=ProbeState(omega=s + 1.0, Kx=K0 + kx, Kz=kz, K_mu=K_mu),
        ff_momentum_magnitude=expanded,
    )
