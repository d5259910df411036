"""Global-adaptive panel integration with the 31-point Gauss-Kronrod rule.

Each panel is estimated with the Kronrod rule K31 and the 15-point
Gauss-Legendre rule G15 embedded in it (Kronrod 1965; QUADPACK ``qk31``,
Piessens et al. 1983): G15 uses the odd-indexed K31 nodes, so one integrand
call on 31 abscissas gives both.  K31 is the value and |K31 - G15| the
local error estimate.  The budget is fixed: a run succeeds once each
component's summed estimate is within max(``_ABS_TOL`` = 5e-13,
``_REL_TOL`` = 1e-10 |its integral|), and a panel is accepted only when
every component is within its prorated share; the others are bisected.
The pending panels of a round are evaluated in vectorized sweeps, so
the integrand must accept numpy arrays.  The integrand is real and
separable: it returns a component-major pair (L, R) of (a, n) and (b, n)
arrays for the a*b components L[i] * R[j] (row-major), so its
elementwise work runs along rows of n abscissas.  Each panel weights the
narrower factor along its 31 nodes by both rules, applies the other one
to it through a transposed view in batched matmuls, and never builds
the product.  Every round's pending panels are kept in ascending order.
The procedure is deterministic for fixed inputs.

A run holds one block of at most ``_ROUND_ELEMENTS`` panels x components
at a time; integrand calls get at most ``_MAX_ELEMENTS`` abscissas x
components, one panel at least, and each call's sums are one gemm per
panel, on the one BLAS thread that :mod:`nearwave.cli` pins.  A first
pass sums a round's totals and decides every panel but the held last
block's against the last round's budget; a round that misses its own
budget takes a second pass, which decides the held block and evaluates
again only the panels whose decision the budget's move can change.
``components`` sizes all of these before any integrand call; another
width raises ``ValueError``.

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
_ROUND_ELEMENTS = 1 << 19  # panels x components of one block of a round, the most a run holds at once
_MAX_PANELS = 400_000  # a refinement that would pass this many panels is refused unevaluated
_MAX_ROUND_ELEMENTS = 1 << 27  # a round of more panels x components (a row's) is refused: a bound on work, not memory
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


def _separable_sums(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """K31 and K31 - G15 sums of left[i] * right[j] on each of p panels, written into ``out``, (p, 2, a*b).

    ``left`` is (a, 31 p) and ``right`` (b, 31 p), 31 nodes per panel.
    The narrower factor is weighted by both rules, (p, 2, a or b, 31), and
    the other one is applied to it through a transposed view in one
    batched matmul, so the product of the two is never built.
    """
    p, a, b = len(out), len(left), len(right)
    left = left.reshape(a, p, _X_K.size).transpose(1, 0, 2)  # (p, a, nodes) views
    right = right.reshape(b, p, _X_K.size).transpose(1, 0, 2)
    if a <= b:  # a gemm of (2a, nodes) by (nodes, b) per panel into (p, 2a, b)
        weighted = (left[:, None] * _RULES[:, None, :]).reshape(p, 2 * a, _X_K.size)
        np.matmul(weighted, right.transpose(0, 2, 1), out=out.reshape(p, 2 * a, b))  # a view: out is contiguous
    else:  # a gemm of (a, nodes) by (nodes, b) per panel and rule into (p, 2, a, b)
        weighted = (right[:, None] * _RULES[:, None, :]).transpose(0, 1, 3, 2)
        np.matmul(left[:, None], weighted, out=out.reshape(p, 2, a, b))


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray, components: int):
    """K31 values and |K31 - G15| error estimates on a batch of panels, each shaped (panels, components).

    Each integrand call gets at most ``_MAX_ELEMENTS // (31 * components)``
    panels (at least one); the sums of all calls fill one preallocated
    array in place, whose two halves are returned as views.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _X_K
    step = max(1, _MAX_ELEMENTS // (_X_K.size * components))
    sums = np.empty((len(lo), 2, components))
    for start in range(0, len(lo), step):
        h = half[start:start + step, None, None]
        left, right = f(x[start:start + step].ravel())
        width = len(left) * len(right)
        if width != components:
            raise ValueError(f"integrand returned {width} components per abscissa, not components={components}")
        _separable_sums(left, right, chunk := sums[start:start + len(h)])
        chunk *= h
    errs = sums[:, 1]
    np.abs(errs, out=errs)  # the half widths are positive, so |sum| * h = |sum * h|
    return sums[:, 0], errs


def adaptive_quad(f, a: float, b: float, *, breakpoints, components) -> QuadResult:
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
    components : int or (int, int)
        The integrand's output width m = a*b, or (rows, w) for m = rows*w
        in rows of w, such as a field grid's: the caps on a round's work
        then count one row.  Blocks, calls and gemms are sized from m.

    Returns
    -------
    QuadResult
        ``value`` and ``error`` are length-m arrays.

    Raises
    ------
    QuadratureError
        If the budget of ``_MAX_ROUNDS`` sweeps is exhausted; the exception
        carries the achieved error estimate.  A refinement that would
        exceed ``_MAX_PANELS``, or a round whose panels x components (of
        a row) would exceed ``_MAX_ROUND_ELEMENTS``, is refused before it
        is evaluated, and a non-finite panel value or error raises at once.
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
    lo, hi = edges[:-1], edges[1:]
    rows, width = components if isinstance(components, tuple) else (1, components)
    components = rows * width
    if len(lo) * width > _MAX_ROUND_ELEMENTS:
        raise QuadratureError(f"{len(lo)} seeded panels x {width} components{' a row' if rows > 1 else ''} "
                              f"exceed the cap of {_MAX_ROUND_ELEMENTS} per round")

    total_len, n_panels = b - a, len(lo)
    done_val = done_err = 0.0
    step = max(1, _ROUND_ELEMENTS // components)  # panels per block
    ref = _ABS_TOL  # the budget that a first pass decides against: the last round's

    for _ in range(_MAX_ROUNDS):
        # first pass: the totals, and each panel but the held last block's decided by its error under ref
        est_total, total_err, rejected = done_val, done_err, (0.0, 0.0)
        # the first block takes the remainder, so the held last one is full
        blocks = [slice(max(0, end - step), end) for end in range(len(lo) % step or step, len(lo) + 1, step)]
        ratio, share = (np.zeros(len(lo)), (hi - lo) / total_len) if len(blocks) > 1 else (None, None)
        for block in blocks:
            vals = errs = None  # the previous block goes before the next is evaluated
            vals, errs = _panel_estimates(f, lo[block], hi[block], components)
            finite_errs = np.isfinite(errs).all()  # a non-finite rule value makes its error non-finite
            if not (finite_errs and np.isfinite(vals).all()):  # an overflowed sum can carry a finite error
                raise QuadratureError("panel sums overflow" if finite_errs else "integrand is not finite",
                                      achieved=float(np.max(errs)))
            est_total, total_err = est_total + vals.sum(axis=0), total_err + errs.sum(axis=0)
            if block.stop < len(lo):
                errs /= ref  # in place: a rejected sum below is scaled back
                ratio[block] = errs.max(axis=1)  # a panel's largest error over ref: accepted up to its share
                if (reject := ratio[block] > share[block]).any():  # einsum: no rejected rows copied out
                    rejected = (rejected[0] + np.einsum("i,ij", reject, vals),
                                rejected[1] + np.einsum("i,ij", reject, errs) * ref)
        budget = np.maximum(_ABS_TOL, _REL_TOL * np.abs(est_total))
        if np.all(total_err <= budget):
            return QuadResult(est_total, total_err, n_panels)
        # second pass: the held block, and the panels that the budget's move from ref may flip, evaluated again
        bad, again = np.empty(len(lo), dtype=bool), []
        if ratio is not None:  # the first pass accepted every other panel that it did not reject
            done_val, done_err = est_total - rejected[0] - vals.sum(axis=0), total_err - rejected[1] - errs.sum(axis=0)
            moved = budget / ref  # a decision flips only if ratio / share lies between 1 and one of these
            low, high = min(1.0, moved.min()) * (1.0 - 1e-9), max(1.0, moved.max()) * (1.0 + 1e-9)
            bad, again, moved = ratio > share, np.flatnonzero((ratio > low * share) & (ratio <= high * share)), None
        ok = (errs <= budget * (hi[block] - lo[block])[:, None] / total_len).all(axis=1)
        done_val, done_err = done_val + vals[ok].sum(axis=0), done_err + errs[ok].sum(axis=0)
        np.logical_not(ok, out=bad[block])
        for at in (again[i:i + step] for i in range(0, len(again), step)):
            vals = errs = None
            vals, errs = _panel_estimates(f, lo[at], hi[at], components)
            ok = (errs <= budget * (hi[at] - lo[at])[:, None] / total_len).all(axis=1)
            change = ok - (1.0 - bad[at])  # +1 accepted now, -1 accepted by the first pass alone
            done_val, done_err = done_val + np.einsum("i,ij", change, vals), done_err + np.einsum("i,ij", change, errs)
            bad[at] = ~ok
        ref = budget
        if not (n_bad := np.count_nonzero(bad)):
            return QuadResult(done_val, done_err, n_panels)
        if n_panels + n_bad > _MAX_PANELS or 2 * n_bad * width > _MAX_ROUND_ELEMENTS:
            break
        lo_bad, hi_bad = lo[bad], hi[bad]
        mid_bad = 0.5 * (lo_bad + hi_bad)
        lo = np.stack([lo_bad, mid_bad], axis=1).ravel()  # halves interleaved: the panels stay ascending
        hi = np.stack([mid_bad, hi_bad], axis=1).ravel()
        n_panels += len(lo_bad)

    achieved = float(np.max(total_err))  # the worst component, its unaccepted panels at their last (unrefined) errors
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
