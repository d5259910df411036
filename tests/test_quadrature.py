import collections
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nearwave import quadrature
from nearwave.errors import QuadratureError
from nearwave.quadrature import adaptive_quad, oscillation_breakpoints


def _legendre_rational(n_max):
    """P_0..P_n_max as exact rational coefficient lists in the monomial basis."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(1, n_max):
        up = [Fraction(0)] + [(2 * n + 1) * c for c in polys[n]]
        down = polys[n - 1] + [Fraction(0), Fraction(0)]
        polys.append([(u - n * d) / (n + 1) for u, d in zip(up, down)])
    return polys


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _integral(p):
    """Exact integral over [-1, 1] of a monomial-basis polynomial."""
    return sum(c * Fraction(2, m + 1) for m, c in enumerate(p) if m % 2 == 0)


def _mp_kronrod31(dps=40):
    """K31 nodes and weights and the G15 weights, built independently at dps digits.

    E16 = P16 + sum_(j even < 16) c_j P_j with exact rational orthogonality
    integrals against P15 P_k, its roots by mpmath.polyroots, and the
    weights from the monomial moment system sum_i w_i x_i^k = 2/(k+1).
    """
    with mpmath.workdps(dps):
        P = _legendre_rational(16)
        odd, even = range(1, 16, 2), range(0, 16, 2)

        def mp(fr):
            return mpmath.mpf(fr.numerator) / fr.denominator

        gram = mpmath.matrix([[mp(_integral(_times(_times(P[15], P[k]), P[j]))) for j in even] for k in odd])
        rhs = mpmath.matrix([-mp(_integral(_times(_times(P[15], P[k]), P[16]))) for k in odd])
        c = mpmath.lu_solve(gram, rhs)
        e16 = [mp(v) for v in P[16]]
        for i, j in enumerate(even):
            for m, v in enumerate(P[j]):
                e16[m] += c[i] * mp(v)
        kronrod = mpmath.polyroots(e16[::-1], maxsteps=200, extraprec=200)
        gauss = mpmath.polyroots([mp(v) for v in P[15][::-1]], maxsteps=200, extraprec=200)
        x = sorted([mpmath.re(r) for r in kronrod] + [mpmath.re(r) for r in gauss])

        def weights(nodes):
            n = len(nodes)
            vander = mpmath.matrix([[t**k for t in nodes] for k in range(n)])
            moments = mpmath.matrix([mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0 for k in range(n)])
            return mpmath.lu_solve(vander, moments)

        w = weights(x)
        w_g = weights(x[1::2])
        return (np.array([float(v) for v in x]), np.array([float(v) for v in w]),
                np.array([float(v) for v in w_g]))


def _one_row(f):
    """A scalar integrand as a separable pair: its values as one left row against a row of ones."""
    return lambda t: (f(t)[None], np.ones((1, len(t))))


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        res = adaptive_quad(_one_row(lambda x: 3.0 * x * x), 0.0, 2.0, breakpoints=(), components=1)
        assert res.value[0] == pytest.approx(8.0, rel=1e-14)
        assert res.error[0] < 1e-12

    def test_limits_must_ascend(self):
        res = adaptive_quad(_one_row(np.exp), 0.0, 1.0, breakpoints=(), components=1)
        assert res.value[0] == pytest.approx(math.e - 1.0, rel=1e-13)
        for a, b in ((1.0, 0.0), (1.0, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="a < b"):
                adaptive_quad(_one_row(np.exp), a, b, breakpoints=(), components=1)

    def test_oscillatory_with_breakpoints(self):
        # int_0^20pi cos(40 t) dt = 0, needs seeding to converge quickly
        omega = 40.0
        hi = 20.0 * math.pi
        res = adaptive_quad(
            _one_row(lambda t: np.cos(omega * t)),
            0.0,
            hi,
            breakpoints=oscillation_breakpoints(0.0, hi, omega),
            components=1,
        )
        assert abs(res.value[0]) < 1e-11

    def test_narrow_spike_found_by_refinement(self, monkeypatch):
        # gaussian of width 1e-3 centered mid-interval, no seeding
        monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-11)
        res = adaptive_quad(
            _one_row(lambda x: np.exp(-0.5 * ((x - 0.37) / 1e-3) ** 2)),
            0.0,
            1.0,
            breakpoints=(),
            components=1,
        )
        want = math.sqrt(2.0 * math.pi) * 1e-3
        assert res.value[0] == pytest.approx(want, rel=1e-10, abs=0)

    def test_failure_reports_value_and_error(self, monkeypatch):
        # |x - 1/3| has a kink and the budget below is unreachable fast
        monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 6)
        monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-300)
        message = r"^integration did not converge: achieved error \S+ with \d+ panels$"  # what failed, not where
        with pytest.raises(QuadratureError, match=message) as err:
            adaptive_quad(
                _one_row(lambda x: np.abs(x - 1.0 / 3.0) ** 0.5),
                0.0,
                1.0,
                breakpoints=(),
                components=1,
            )
        assert err.value.achieved is not None and err.value.achieved > 0

    def test_non_finite_integrand_raises_after_one_sweep(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > 0.5, np.nan, x)

        with pytest.raises(QuadratureError, match="^integrand is not finite$") as err:
            adaptive_quad(_one_row(f), 0.0, 1.0, breakpoints=(), components=1)
        assert calls == [31]  # one K31 call: the first and only sweep
        assert math.isnan(err.value.achieved)

    def test_overflowed_panel_sum_raises(self):
        # each panel's K31 sum of 1.7e308 overflows to inf while |K31 - G15| stays finite
        with pytest.raises(QuadratureError, match="^panel sums overflow$") as err, np.errstate(over="ignore"):
            adaptive_quad(lambda x: (np.full((2, x.size), 1.7e308), np.ones((1, x.size))), 0.0, 3.0, breakpoints=(),
                          components=2)
        assert math.isfinite(err.value.achieved)

    def test_integrable_decay_on_long_interval(self):
        res = adaptive_quad(_one_row(lambda x: np.exp(-x)), 0.0, 200.0, breakpoints=(), components=1)
        assert res.value[0] == pytest.approx(1.0, rel=1e-12)

    def test_runaway_refinement_refused_before_evaluation(self, monkeypatch):
        # 1e9 radians of unseeded oscillation: every panel stays over its
        # share, so each round would double the batch; the sweep that would
        # pass _MAX_PANELS must never be evaluated
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 1000)
        batches = []

        def f(x):
            batches.append(x.size)
            return np.cos(1e9 * x)

        with pytest.raises(QuadratureError) as err:
            adaptive_quad(_one_row(f), 0.0, 1.0, breakpoints=(), components=1)
        assert max(batches) <= 31 * 1000
        assert math.isfinite(err.value.achieved) and err.value.achieved > 0

    def test_oversized_round_refused_before_evaluation(self, monkeypatch):
        # a round of pending panels x components past _MAX_ROUND_ELEMENTS is never evaluated: a seeded
        # round that passes it is refused before the first integrand call, and a refinement that would
        # pass it ends the run with the achieved error, as a refinement past _MAX_PANELS does
        monkeypatch.setattr(quadrature, "_MAX_ROUND_ELEMENTS", 40)
        batches = []

        def f(x):  # 4 components of unseeded oscillation: every panel stays over its share
            batches.append(x.size)
            return np.cos(np.multiply.outer([1e9, 2e9], x)), np.ones((2, len(x)))

        with pytest.raises(QuadratureError, match=r"^11 seeded panels x 4 components exceed the cap of 40 per round$"):
            adaptive_quad(f, 0.0, 1.0, breakpoints=np.linspace(0.05, 0.95, 10), components=4)
        assert batches == []
        with pytest.raises(QuadratureError, match="did not converge") as err:
            adaptive_quad(f, 0.0, 1.0, breakpoints=np.linspace(0.2, 0.8, 4), components=4)
        assert sum(batches) == 31 * (5 + 10)  # the 5 seeded panels, then their 10 halves; 20 halves would pass
        assert math.isfinite(err.value.achieved) and err.value.achieved > 0

    def test_round_cap_counts_one_row(self, monkeypatch):
        # stated as 2 rows of 2 components, the integrand above is capped a row at a time, as a field
        # grid's rows are: 6 seeded panels are bisected, as 12 halves x 2 components stay within the cap
        # of 40 (x 4 would pass it), and the run ends before 24 halves; 21 seeded panels x 2 are refused
        monkeypatch.setattr(quadrature, "_MAX_ROUND_ELEMENTS", 40)
        batches = []

        def f(x):
            batches.append(x.size)
            return np.cos(np.multiply.outer([1e9, 2e9], x)), np.ones((2, len(x)))

        with pytest.raises(QuadratureError, match="did not converge"):
            adaptive_quad(f, 0.0, 1.0, breakpoints=np.linspace(1 / 6, 5 / 6, 5), components=(2, 2))
        assert sum(batches) == 31 * (6 + 12)
        with pytest.raises(QuadratureError, match=r"^21 seeded panels x 2 components a row exceed the cap of 40"):
            adaptive_quad(f, 0.0, 1.0, breakpoints=np.linspace(0.025, 0.975, 20), components=(2, 2))
        assert sum(batches) == 31 * (6 + 12)


class TestVectorIntegrand:
    def test_components_in_columns(self):
        res = adaptive_quad(lambda t: (np.stack([np.exp(t), np.sin(t)]), np.ones((1, len(t)))), 0.0, math.pi,
                            breakpoints=(), components=2)
        assert res.value.shape == (2,) and res.error.shape == (2,)
        assert res.value[0] == pytest.approx(math.exp(math.pi) - 1.0, rel=1e-13)
        assert res.value[1] == pytest.approx(2.0, rel=1e-13)

    def test_each_component_meets_its_own_tolerance(self, monkeypatch):
        # a smooth component of size 1e8 next to an O(1) one with an endpoint
        # singularity: a budget shared with the large component would accept
        # the small one far too early
        rel_tol = 1e-12
        monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(quadrature, "_REL_TOL", rel_tol)
        res = adaptive_quad(
            lambda t: (np.stack([1e8 * np.exp(t), np.sqrt(t)]), np.ones((1, len(t)))),
            0.0,
            1.0,
            breakpoints=(),
            components=2,
        )
        want = np.array([1e8 * (math.e - 1.0), 2.0 / 3.0])
        assert np.all(res.error <= rel_tol * np.abs(res.value))
        assert np.all(np.abs(res.value - want) <= 10.0 * rel_tol * want)


class TestKronrodRule:
    def test_nodes_and_weights_against_mpmath(self):
        x, w, w_g = _mp_kronrod31()
        assert np.all(np.abs(quadrature._X_K - x) <= 1e-15)
        assert np.all(np.abs(quadrature._W_K - w) <= 1e-15)
        assert np.all(np.abs(quadrature._W_G - w_g) <= 1e-15)
        # QUADPACK qk31's outermost node
        assert quadrature._X_K[-1] == pytest.approx(0.998002298693397060285172840152271, abs=1e-15)

    def test_embedded_nodes_are_gauss_legendre(self):
        x_g, w_g = np.polynomial.legendre.leggauss(15)
        assert np.all(np.abs(quadrature._X_K[1::2] - x_g) <= 1e-15)
        assert np.all(np.abs(quadrature._W_G - w_g) <= 1e-15)

    def test_monomials_exact_to_degree_46(self):
        x, w = quadrature._X_K, quadrature._W_K
        for k in range(47):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) <= 1e-15, k

    @pytest.mark.parametrize(("f", "antiderivative", "panels"), [
        # oscillatory: 40 rad per unit, panels of 4.5 to 13 oscillations
        (lambda t: np.cos(40.0 * t), lambda t: np.sin(40.0 * t) / 40.0,
         [(0.1, 0.8), (0.0, 1.0), (2.0, 3.3), (0.0, 2.0)]),
        # endpoint square-root singularity
        (np.sqrt, lambda t: 2.0 / 3.0 * t**1.5, [(0.0, 1.0), (0.0, 1e-3), (0.0, 7.0)]),
        # interior square-root kink at 1/3
        (lambda t: np.abs(t - 1.0 / 3.0) ** 0.5,
         lambda t: 2.0 / 3.0 * np.sign(t - 1.0 / 3.0) * np.abs(t - 1.0 / 3.0) ** 1.5,
         [(0.0, 1.0), (0.3, 0.4), (0.0, 1.0 / 3.0)]),
    ], ids=["oscillatory", "endpoint-singular", "interior-kink"])
    def test_error_estimate_bounds_true_error(self, f, antiderivative, panels):
        lo, hi = np.array(panels).T
        vals, errs = quadrature._panel_estimates(_one_row(f), lo, hi, 1)
        vals, errs = vals[:, 0], errs[:, 0]
        true_err = np.abs(vals - (antiderivative(hi) - antiderivative(lo)))
        assert np.all(true_err <= errs), (true_err, errs)
        assert np.all(errs > 1e-13)  # each case is above rounding, so the bound says something

    def test_no_integrand_call_exceeds_the_element_cap(self):
        m = 40
        sizes = []

        def f(t):
            out = np.cos(np.multiply.outer(np.arange(1.0, m + 1.0), t))
            sizes.append(out.size)
            return out, np.ones((1, len(t)))

        hi = 30.0
        res = adaptive_quad(f, 0.0, hi, breakpoints=oscillation_breakpoints(0.0, hi, m), components=m)
        assert max(sizes) <= quadrature._MAX_ELEMENTS
        # the first and only sweep (382 panels x 31 nodes x 40) was split, its first chunk full
        assert sizes == [211 * 31 * m, 171 * 31 * m] and 212 * 31 * m > quadrature._MAX_ELEMENTS
        want = np.sin(hi * np.arange(1.0, m + 1.0)) / np.arange(1.0, m + 1.0)
        assert np.all(np.abs(res.value - want) <= 1e-10)


class TestOscillationBreakpoints:
    def test_spacing(self):
        pts = oscillation_breakpoints(0.0, 10.0, 2.0)
        assert pts.size > 0
        assert np.allclose(np.diff(pts), math.pi / 2.0)

    def test_zero_rate_gives_nothing(self):
        assert oscillation_breakpoints(0.0, 10.0, 0.0).size == 0

    def test_runaway_rate_raises(self):
        with pytest.raises(QuadratureError, match="panels"):
            oscillation_breakpoints(0.0, 1e9, 1e6)

    def test_infinite_rate_raises(self):
        # an overflowed phase rate has no step (pi/inf = 0): refused as a finite rate past _MAX_SEEDS is
        message = rf"^oscillation seeding would need more than {quadrature._MAX_SEEDS} panels$"
        with pytest.raises(QuadratureError, match=message):
            oscillation_breakpoints(0.0, 1.0, math.inf)


def _dense(f):
    """The dense twin of a separable integrand: a row of ones against the full product of its (a, n) and (b, n)
    factors as a*b rows, so every panel contracts the product as the dense form did."""
    def twin(t):
        left, right = f(t)
        return np.ones((1, len(t))), (left[:, None] * right[None, :]).reshape(-1, len(t))
    return twin


def _cos_sin_rows(t):
    """Rows cos(t), sin(t), cos(2t), sin(2t)."""
    mt = np.multiply.outer([1.0, 2.0], t)
    return np.stack([np.cos(mt), np.sin(mt)], axis=1).reshape(4, len(t))


def _three_blocks(t):
    """Twelve left rows, three blocks of four, each zero on one side of t = 0, against six right rows.

    Split at t = 0 with one ``searchsorted``, which needs ascending
    abscissas: cos(z t) and sin(z t) for t < 0, e^{-z t} for t > 0,
    against cos(k u) and -k sin(k u) with k = 1 + t^2.
    """
    m = np.searchsorted(t, 0.0)
    z = np.array([0.5, 1.0, 2.0, 4.0])
    left = np.zeros((3, 4, len(t)))
    left[0, :, :m] = np.cos(np.multiply.outer(z, t[:m]))
    left[1, :, :m] = np.sin(np.multiply.outer(z, t[:m]))
    left[2, :, m:] = np.exp(-np.multiply.outer(z, t[m:]))
    k = 1.0 + t * t
    ku = np.multiply.outer([0.5, 1.5, 3.0], k)
    return left.reshape(12, len(t)), np.concatenate([np.cos(ku), -k * np.sin(ku)])


class TestSeparable:
    CASES = {
        # (f, a, b, seeding rate, components); rows 1, t against cos(w t) for
        # w = 10, 25, 40 over ~20 oscillations
        "oscillatory": (lambda t: (np.stack([np.ones_like(t), t]),
                                   np.cos(np.multiply.outer([10.0, 25.0, 40.0], t))), 0.0, 3.0, None, 6),
        # t^(1/2) and t^(-1/4) at the left end, against three smooth rows
        "endpoint-singular": (lambda t: (np.stack([np.sqrt(t), t**-0.25]),
                                         np.stack([np.ones_like(t), np.cos(t), np.exp(-t)])),
                              0.0, 1.0, None, 6),
        # e^{i m t} as real rows cos(m t), sin(m t), as the field splits psi, against the psi and d/dx rows
        # cos(5t), -5 sin(5t)
        "complex": (lambda t: (_cos_sin_rows(t), np.stack([np.cos(5.0 * t), -5.0 * np.sin(5.0 * t)])),
                    0.0, 6.0, 7.0, 8),
        # a = 12 left rows in three blocks split at the seed t = 0, mostly zero; a > b, so the
        # right factor is the one weighted by the rules
        "three-blocks": (_three_blocks, -1.0, 2.0, math.pi, 72),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_its_dense_twin(self, name):
        f, a, b, rate, m = self.CASES[name]
        bp = () if rate is None else oscillation_breakpoints(a, b, rate)
        sep = adaptive_quad(f, a, b, breakpoints=bp, components=m)
        dense = adaptive_quad(_dense(f), a, b, breakpoints=bp, components=m)
        assert sep.panels == dense.panels
        assert sep.value.shape == dense.value.shape and sep.value.dtype == dense.value.dtype
        assert np.all(np.abs(sep.value - dense.value) <= 1e-14 * np.abs(dense.value))
        # the estimates differ only by rounding of the panel sums
        assert np.all(np.abs(sep.error - dense.error) <= 1e-14 * np.abs(dense.value).max())

    def test_complex_rows_against_mpmath(self):
        f, a, b, rate, m = self.CASES["complex"]
        res = adaptive_quad(f, a, b, breakpoints=oscillation_breakpoints(a, b, rate), components=m)
        with mpmath.workdps(30):
            rows = [lambda t, m=m, part=part: part(m * t) for m in (1, 2) for part in (mpmath.cos, mpmath.sin)]
            for i, row in enumerate(rows):
                for j, col in enumerate((lambda t: mpmath.cos(5 * t), lambda t: -5 * mpmath.sin(5 * t))):
                    want = float(mpmath.quad(lambda t: row(t) * col(t), [a, b]))
                    assert abs(res.value[i * 2 + j] - want) <= 1e-12, (i, j)

    def test_chunks_count_abscissas_times_components(self, monkeypatch):
        seen = []

        def f(t):
            seen.append(len(t))
            return self.CASES["oscillatory"][0](t)

        seeds = [0.75, 1.5, 2.25]  # four seed panels, refined over several rounds
        want = adaptive_quad(f, 0.0, 3.0, breakpoints=seeds, components=6)
        assert max(seen) > 4 * 31  # one chunk per sweep under the default cap
        seen.clear()
        monkeypatch.setattr(quadrature, "_MAX_ELEMENTS", 31 * 6 * 4)  # four panels of 2 x 3 components
        got = adaptive_quad(f, 0.0, 3.0, breakpoints=seeds, components=6)
        assert seen[0] == 4 * 31 and max(seen) == 4 * 31  # the first chunk is full too
        assert got.panels == want.panels and np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("case", ["oscillatory", "shrinking"])
    def test_streaming_changes_no_decision(self, monkeypatch, case):
        # blocks of two panels make rounds of many blocks: the first pass
        # decides the panels of all blocks but the last against the last
        # round's budget, and the second pass evaluates again those whose
        # decision this round's budget may change.  "oscillatory": ten
        # unseeded oscillations per unit over [0, 30], where the budget
        # barely moves and no panel is evaluated twice.  "shrinking": a spike
        # at the centre node of a seed panel inflates the first round's
        # second component, so its budget shrinks ~20x in the next round and
        # panels accepted under the old budget are rejected, and others the
        # other way round
        if case == "oscillatory":
            f, a, b, seeds = self.CASES["oscillatory"][0], 0.0, 30.0, ()
        else:
            def f(t):
                spike = 1e3 * np.exp(-(((t - 9.5) / 1e-3) ** 2))
                return np.ones((1, len(t))), np.stack([10.0 + np.cos(22.0 * t), spike + np.sin(22.0 * t)])
            a, b, seeds = 0.0, 10.0, np.arange(2.0, 10.0)
        components = len(f(np.zeros(1))[0]) * len(f(np.zeros(1))[1])
        held = adaptive_quad(f, a, b, breakpoints=seeds, components=components)
        evaluated, blocks = collections.Counter(), []
        estimates = quadrature._panel_estimates

        def counted(f, lo, hi, components):
            evaluated.update(zip(lo.tolist(), hi.tolist()))
            blocks.append(len(lo))
            return estimates(f, lo, hi, components)

        monkeypatch.setattr(quadrature, "_panel_estimates", counted)
        monkeypatch.setattr(quadrature, "_ROUND_ELEMENTS", 2 * components)
        streamed = adaptive_quad(f, a, b, breakpoints=seeds, components=components)
        assert max(blocks) == 2 and len(blocks) > 10
        assert streamed.panels == held.panels and type(streamed.panels) is int  # a numpy int would not reach JSON
        assert np.all(np.abs(streamed.value - held.value) <= 1e-14 * np.abs(held.value).max())
        assert np.all(np.abs(streamed.error - held.error) <= 1e-14 * np.abs(held.value).max())
        # a panel belongs to one round, and is evaluated at most twice in it
        twice = sum(n == 2 for n in evaluated.values())
        assert set(evaluated.values()) <= {1, 2} and (twice == 0) == (case == "oscillatory"), twice

    def test_one_integrand_call_per_sweep(self, monkeypatch):
        # a sweep within the element cap is one integrand call, the first
        # sweep included; sweeps are counted as _panel_estimates calls
        sweeps, calls = [], []
        estimates = quadrature._panel_estimates

        def counted(f, lo, hi, components):
            sweeps.append(len(lo))
            return estimates(f, lo, hi, components)

        def f(t):
            calls.append(len(t))
            return self.CASES["endpoint-singular"][0](t)

        monkeypatch.setattr(quadrature, "_panel_estimates", counted)
        adaptive_quad(f, 0.0, 1.0, breakpoints=[0.25, 0.5, 0.75], components=6)
        assert len(sweeps) > 2  # the endpoint singularity takes refinement rounds
        assert calls == [31 * n for n in sweeps]

    def test_pending_panels_stay_ascending(self):
        # bisected halves are interleaved, so every sweep passes its
        # abscissas in ascending order, as the searchsorted split of
        # _three_blocks needs
        seen = []

        def f(t):
            seen.append(bool(np.all(np.diff(t) > 0.0)))
            return _three_blocks(t)

        adaptive_quad(f, -1.0, 4.0, breakpoints=[0.0], components=72)
        assert len(seen) > 2 and all(seen)  # several refinement rounds, each ascending

    @pytest.mark.parametrize("components", [1, 5, 7])
    def test_wrong_component_count_raises(self, components):
        f = self.CASES["oscillatory"][0]  # 2 x 3 = 6 components
        with pytest.raises(ValueError, match=f"6 components per abscissa, not components={components}"):
            adaptive_quad(f, 0.0, 3.0, breakpoints=(), components=components)
