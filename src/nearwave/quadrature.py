"""Global-adaptive panel integration with an embedded Gauss pair.

Each panel is estimated with 15- and 31-point Gauss-Legendre rules and the
difference between the two serves as the local error estimate.  Panels whose
estimate exceeds their prorated share of the error budget are bisected, and
every pending panel of a round is evaluated in one vectorized sweep, so the
integrand must accept numpy arrays.  Complex integrands are supported
directly, and so are vector-valued ones returning one column per component:
each component keeps its own error budget and a panel is accepted only when
every component is within its share.  The procedure is deterministic for
fixed inputs.

Oscillatory integrands should be seeded with breakpoints at roughly one
half-oscillation per panel; the refinement loop then only has to mop up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

_X_LO, _W_LO = leggauss(15)
_X_HI, _W_HI = leggauss(31)


@dataclass(frozen=True)
class QuadResult:
    """Value and attained error estimate of an adaptive integration."""

    value: complex
    error: float
    panels: int

    @property
    def real(self) -> float:
        return self.value.real


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the low/high rules on a batch of panels.

    Returns per-panel values and error estimates, shaped (panels,) for a
    scalar integrand and (panels, m) for one returning m components.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x_lo = mid[:, None] + half[:, None] * _X_LO[None, :]
    x_hi = mid[:, None] + half[:, None] * _X_HI[None, :]
    f_lo = np.asarray(f(x_lo.ravel()))
    f_hi = np.asarray(f(x_hi.ravel()))
    if f_lo.ndim == 1:
        est_lo = (f_lo.reshape(x_lo.shape) @ _W_LO) * half
        est_hi = (f_hi.reshape(x_hi.shape) @ _W_HI) * half
    else:  # (panels, nodes, m): contract over the nodes
        est_lo = (_W_LO @ f_lo.reshape(x_lo.shape + f_lo.shape[1:])) * half[:, None]
        est_hi = (_W_HI @ f_hi.reshape(x_hi.shape + f_hi.shape[1:])) * half[:, None]
    return est_hi, np.abs(est_hi - est_lo)


def adaptive_quad(
    f,
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    breakpoints=None,
    max_rounds: int = 40,
    max_panels: int = 400_000,
) -> QuadResult:
    """Integrate ``f`` over [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand; maps an ndarray of n abscissas to n values
        (real or complex), or to an (n, m) array of m components.
    a, b : float
        Integration limits, a < b assumed after orientation fix.
    abs_tol, rel_tol : float
        The run succeeds once the summed panel error of every component
        drops below ``max(abs_tol, rel_tol * |integral of that component|)``.
    breakpoints : sequence of float, optional
        Interior seed points, e.g. oscillation nodes.  Points outside
        (a, b) are ignored.

    Returns
    -------
    QuadResult
        ``value`` and ``error`` are scalars for a scalar integrand and
        length-m arrays for a vector-valued one.

    Raises
    ------
    QuadratureError
        If the budget is exhausted; the exception carries the best value
        and the achieved error estimate.  A refinement that would exceed
        ``max_panels`` is refused before it is evaluated, and a sweep that
        returns a non-finite panel value raises at once.
    """
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    edges = np.array([a, b], dtype=float)
    if breakpoints is not None:
        bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        edges = np.concatenate([edges, bp[(bp > a) & (bp < b)]])
    edges = np.unique(edges)
    lo = edges[:-1]
    hi = edges[1:]

    total_len = b - a
    done_val = 0.0 + 0.0j
    done_err = 0.0
    n_panels = len(lo)

    for _ in range(max_rounds):
        vals, errs = _panel_estimates(f, lo, hi)
        if not np.isfinite(errs).all():  # a non-finite rule value makes its error non-finite
            raise QuadratureError(
                f"integrand is not finite on [{a:g}, {b:g}]",
                value=None,
                achieved=float(np.max(errs)),
            )
        est_total = done_val + vals.sum(axis=0)
        budget = np.maximum(abs_tol, rel_tol * np.abs(est_total))
        total_err = done_err + errs.sum(axis=0)
        if np.all(total_err <= budget):
            value = est_total if np.iscomplexobj(vals) else est_total.real
            return QuadResult(sign * value, total_err, n_panels)
        width = hi - lo if errs.ndim == 1 else (hi - lo)[:, None]
        share = budget * width / total_len
        ok = (errs <= share).reshape(len(lo), -1).all(axis=1)
        done_val += vals[ok].sum(axis=0)
        done_err += errs[ok].sum(axis=0)
        if ok.all():
            value = done_val if np.iscomplexobj(vals) else done_val.real
            return QuadResult(sign * value, done_err, n_panels)
        bad = ~ok
        if n_panels + np.count_nonzero(bad) > max_panels:
            break
        lo_bad, hi_bad = lo[bad], hi[bad]
        mid_bad = 0.5 * (lo_bad + hi_bad)
        lo = np.concatenate([lo_bad, mid_bad])
        hi = np.concatenate([mid_bad, hi_bad])
        n_panels += len(lo_bad)

    # budget exhausted: report the best composite estimate, taking the
    # unaccepted panels at their last (unrefined) values
    value = sign * (done_val + vals[bad].sum(axis=0))
    achieved = float(np.max(done_err + errs[bad].sum(axis=0)))  # worst component
    raise QuadratureError(
        f"integration over [{a:g}, {b:g}] did not converge: achieved error "
        f"{achieved:.3e} with {n_panels} panels",
        value=value,
        achieved=achieved,
    )


def oscillation_breakpoints(a: float, b: float, rate: float, max_points: int = 200_000) -> np.ndarray:
    """Seed points spaced pi/rate apart, one half-oscillation per panel.

    ``rate`` is the largest |d(phase)/dx| expected on the interval.  A zero
    or tiny rate yields no interior points.
    """
    if rate <= 0.0:
        return np.empty(0)
    step = np.pi / rate
    n = int((b - a) / step)
    if n <= 1:
        return np.empty(0)
    if n > max_points:
        raise QuadratureError(
            f"oscillation seeding would need {n} panels on [{a:g}, {b:g}]",
            value=None,
            achieved=None,
        )
    return a + step * np.arange(1, n + 1)
