"""Global-adaptive panel integration with the 31-point Gauss-Kronrod rule.

Each panel is estimated with the Kronrod rule K31 and the 15-point
Gauss-Legendre rule G15 embedded in it (Kronrod 1965; QUADPACK ``qk31``,
Piessens et al. 1983): G15 uses the odd-indexed K31 nodes, so one integrand
call on 31 abscissas gives both.  K31 is the value and |K31 - G15| the
local error estimate.  The budget is fixed: a run succeeds once each
component's summed estimate is within max(``_ABS_TOL`` = 5e-13,
``_REL_TOL`` = 1e-10 |its integral|), and a panel is accepted only when
every component is within its prorated share; the others are bisected.
Every pending panel of a round is evaluated in one vectorized sweep, so
the integrand must accept numpy arrays.  The integrand is real and
separable: it returns a component-major pair (L, R) of (a, n) and (b, n)
arrays for the a*b components L[i] * R[j] (row-major), so its
elementwise work runs along rows of n abscissas.  Each panel weights the
narrower factor along its 31 nodes by both rules, applies the other one
to it through a transposed view in one batched matmul, and never builds
the product.  Every round's pending panels are kept in ascending order.
The procedure is deterministic for fixed inputs.

A sweep is passed to the integrand in chunks of at most ``_MAX_ELEMENTS``
abscissas x components, so one sweep of a wide integrand cannot allocate
hundreds of MB at once.  The caller states the component count
(``components``) so that every chunk, the first included, is sized before
the integrand is called; a result of another width raises ``ValueError``.

Every caller passes its seeds (``breakpoints``, possibly none); seeds a
few half-oscillations apart at most suit an oscillatory integrand (K31
resolves three per panel to rounding; ``oscillation_breakpoints(a, b,
rate / n)`` spaces them n apart), and refinement then only mops up.  A
``QuadratureError`` says what failed, not where: the caller appends what
the interval stands for.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError

_ABS_TOL = 5e-13  # every integral is within max(_ABS_TOL, _REL_TOL |integral|), per component
_REL_TOL = 1e-10
_MAX_ELEMENTS = 1 << 18  # abscissas x components per integrand call
_MAX_ROUNDS = 40  # refinement sweeps before a run gives up
_MAX_PANELS = 400_000  # a refinement that would pass this many panels is refused unevaluated
# a round that would hold more pending panels x components is refused unevaluated: ~17 bytes each at peak
_MAX_ROUND_ELEMENTS = 1 << 27
_MAX_SEEDS = 200_000  # oscillation_breakpoints refuses to seed more panels

# The K31 rule (Kronrod 1965) and its embedded G15 rule, tabulated as QUADPACK's
# qk31 tabulates them (Piessens et al. 1983).  Each float64 is written as its repr,
# which reads back bit for bit; tests/test_quadrature.py rebuilds the rule at 40
# digits with mpmath and holds every entry to 1e-15.
_X_K = np.array([  # K31 nodes, ascending
    -0.9980022986933967, -0.9879925180204854, -0.967739075679139, -0.9372733924007058, -0.8972645323440821,
    -0.8482065834104272, -0.7904185014424658, -0.7244177313601701, -0.6509967412974169, -0.5709721726085388,
    -0.48508186364023964, -0.3941513470775634, -0.2991800071531688, -0.20119409399743451, -0.10114206691871752,
    0.0, 0.10114206691871752, 0.20119409399743451, 0.2991800071531688, 0.3941513470775634, 0.48508186364023964,
    0.5709721726085388, 0.6509967412974169, 0.7244177313601701, 0.7904185014424658, 0.8482065834104272,
    0.8972645323440821, 0.9372733924007058, 0.967739075679139, 0.9879925180204854, 0.9980022986933967
])
_W_K = np.array([  # K31 weights
    0.005377479872923701, 0.015007947329315693, 0.02546084732671562, 0.0353463607913754, 0.044589751324765024,
    0.05348152469092828, 0.06200956780067064, 0.06985412131872823, 0.07684968075772047, 0.0830805028231329,
    0.08856444305621179, 0.09312659817082519, 0.09664272698362379, 0.09917359872179181, 0.10076984552387575,
    0.10133000701479133, 0.10076984552387575, 0.09917359872179181, 0.09664272698362379, 0.09312659817082519,
    0.08856444305621179, 0.0830805028231329, 0.07684968075772047, 0.06985412131872823, 0.06200956780067064,
    0.05348152469092828, 0.044589751324765024, 0.0353463607913754, 0.02546084732671562, 0.015007947329315693,
    0.005377479872923701
])
_W_G = np.array([  # G15 weights on _X_K[1::2]
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444, 0.16626920581699398,
    0.1861610000155622, 0.1984314853271116, 0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
    0.16626920581699398, 0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203
])
_RULES = np.stack([_W_K, _W_K - np.insert(_W_G, np.arange(16), 0.0)])  # K31 and K31 - G15 on the K31 nodes


class QuadResult(NamedTuple):
    """Per-component values and attained error estimates of an adaptive integration of a real integrand."""

    value: np.ndarray
    error: np.ndarray
    panels: int


def _separable_sums(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """K31 and K31 - G15 sums of left[i] * right[j] on each of p panels, shaped (p, 2, a*b).

    ``left`` is (a, 31 p) and ``right`` (b, 31 p), 31 nodes per panel.
    The narrower factor is weighted by both rules, (p, 2, a or b, 31), and
    the other one is applied to it through a transposed view, so the
    product of the two is never built.
    """
    a, b = len(left), len(right)
    left = left.reshape(a, p, _X_K.size).transpose(1, 0, 2)  # (p, a, nodes) views
    right = right.reshape(b, p, _X_K.size).transpose(1, 0, 2)
    if a <= b:
        weighted = left[:, None] * _RULES[:, None, :]  # (p, 2, a, nodes)
        r = weighted.reshape(p, 2 * a, _X_K.size) @ right.transpose(0, 2, 1)  # (p, 2a, b)
    else:
        weighted = right[:, None] * _RULES[:, None, :]  # (p, 2, b, nodes)
        r = left[:, None] @ weighted.transpose(0, 1, 3, 2)  # (p, 2, a, b)
    return r.reshape(p, 2, a * b)


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray, components: int):
    """K31 values and |K31 - G15| error estimates on a batch of panels, each shaped (panels, components).

    ``components`` is the integrand's stated output width; each call gets
    at most ``_MAX_ELEMENTS // (31 * components)`` panels (at least one).
    Each call's (panels, 2, components) sums are scaled by the half widths
    straight into one preallocated array, whose two halves are returned as
    views.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _X_K
    step = max(1, _MAX_ELEMENTS // (_X_K.size * components))
    # filled in place: a list of chunks plus their concatenation would hold two copies
    sums = np.empty((len(lo), 2, components))
    for start in range(0, len(lo), step):
        h = half[start:start + step, None, None]
        left, right = f(x[start:start + step].ravel())
        width = len(left) * len(right)
        if width != components:
            raise ValueError(f"integrand returned {width} components per abscissa, not components={components}")
        np.multiply(_separable_sums(left, right, len(h)), h, out=sums[start:start + len(h)])
    errs = sums[:, 1]
    np.abs(errs, out=errs)  # the half widths are positive, so |sum| * h = |sum * h|
    return sums[:, 0], errs


def adaptive_quad(
    f,
    a: float,
    b: float,
    *,
    breakpoints,
    components: int,
) -> QuadResult:
    """Integrate ``f`` over [a, b].

    Parameters
    ----------
    f : callable
        Vectorized real integrand; maps an ndarray of n abscissas to a
        separable pair (L, R) of (a, n) and (b, n) arrays, component-major,
        whose m = a*b components are L[i] * R[j] in row-major order.
    a, b : float
        Integration limits, a < b.
    breakpoints : sequence of float
        Interior seed points, e.g. oscillation nodes, possibly none.
        Points outside (a, b) are ignored.
    components : int
        The integrand's output width m = a*b.  Integrand calls are sized
        from it, at most ``_MAX_ELEMENTS`` abscissas x components each.

    Returns
    -------
    QuadResult
        ``value`` and ``error`` are length-m arrays.

    Raises
    ------
    QuadratureError
        If the budget of ``_MAX_ROUNDS`` sweeps is exhausted; the exception
        carries the achieved error estimate.  A refinement that would
        exceed ``_MAX_PANELS``, or a round whose panels x components would
        exceed ``_MAX_ROUND_ELEMENTS``, is refused before it is evaluated,
        and a sweep that yields a non-finite panel value or error raises at
        once.
    ValueError
        If not a < b, or if the integrand's output width is not ``components``.
    """
    if not a < b:
        raise ValueError(f"integration limits must satisfy a < b, got a = {a!r}, b = {b!r}")

    edges = np.array([a, b], dtype=float)
    bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
    bp = bp[(bp > a) & (bp < b)]
    if bp.size:
        edges = np.sort(np.concatenate([edges, bp]))
        edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]  # np.unique would import numpy.ma
    lo = edges[:-1]
    hi = edges[1:]
    if len(lo) * components > _MAX_ROUND_ELEMENTS:
        raise QuadratureError(f"{len(lo)} seeded panels x {components} components "
                              f"exceed the cap of {_MAX_ROUND_ELEMENTS} per round")

    total_len = b - a
    done_val = 0.0
    done_err = 0.0
    n_panels = len(lo)

    for _ in range(_MAX_ROUNDS):
        vals, errs = _panel_estimates(f, lo, hi, components)
        finite_errs = np.isfinite(errs).all()  # a non-finite rule value makes its error non-finite
        if not (finite_errs and np.isfinite(vals).all()):  # an overflowed sum can carry a finite error
            raise QuadratureError(
                "panel sums overflow" if finite_errs else "integrand is not finite",
                achieved=float(np.max(errs)),
            )
        est_total = done_val + vals.sum(axis=0)
        budget = np.maximum(_ABS_TOL, _REL_TOL * np.abs(est_total))
        total_err = done_err + errs.sum(axis=0)
        if np.all(total_err <= budget):
            return QuadResult(est_total, total_err, n_panels)
        ok = (errs <= budget * (hi - lo)[:, None] / total_len).all(axis=1)
        done_val += vals[ok].sum(axis=0)
        done_err += errs[ok].sum(axis=0)
        if ok.all():
            return QuadResult(done_val, done_err, n_panels)
        bad = ~ok
        n_bad = np.count_nonzero(bad)
        if n_panels + n_bad > _MAX_PANELS or 2 * n_bad * components > _MAX_ROUND_ELEMENTS:
            break
        lo_bad, hi_bad = lo[bad], hi[bad]
        mid_bad = 0.5 * (lo_bad + hi_bad)
        lo = np.stack([lo_bad, mid_bad], axis=1).ravel()  # halves interleaved: the panels stay ascending
        hi = np.stack([mid_bad, hi_bad], axis=1).ravel()
        n_panels += len(lo_bad)

    # budget exhausted: the unaccepted panels count at their last (unrefined) errors
    achieved = float(np.max(done_err + errs[bad].sum(axis=0)))  # worst component
    raise QuadratureError(f"integration did not converge: achieved error {achieved:.3e} with {n_panels} panels",
                          achieved=achieved)


def oscillation_breakpoints(a: float, b: float, rate: float) -> np.ndarray:
    """Seed points spaced pi/rate apart, one half-oscillation per panel.

    ``rate`` is the largest |d(phase)/dx| expected on the interval.  A zero
    or tiny rate yields no interior points; one that would need more than
    ``_MAX_SEEDS`` points, an infinite one included, raises QuadratureError.
    """
    if rate <= 0.0:
        return np.empty(0)
    step = np.pi / rate
    count = (b - a) / step if step > 0.0 else math.inf  # an infinite rate has no step
    if count >= _MAX_SEEDS + 1:  # int(count) > _MAX_SEEDS, without int(inf)
        raise QuadratureError(f"oscillation seeding would need more than {_MAX_SEEDS} panels")
    n = int(count)
    if n <= 1:
        return np.empty(0)
    return a + step * np.arange(1, n + 1)
