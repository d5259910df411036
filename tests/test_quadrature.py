import math

import numpy as np
import pytest

from nearwave.errors import QuadratureError
from nearwave.quadrature import adaptive_quad, oscillation_breakpoints


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        res = adaptive_quad(lambda x: 3.0 * x * x, 0.0, 2.0)
        assert res.value == pytest.approx(8.0, rel=1e-14)
        assert res.error < 1e-12

    def test_reversed_limits_flip_sign(self):
        fwd = adaptive_quad(np.exp, 0.0, 1.0).value
        rev = adaptive_quad(np.exp, 1.0, 0.0).value
        assert rev == pytest.approx(-fwd, rel=1e-14)
        assert fwd == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_empty_interval(self):
        res = adaptive_quad(np.exp, 1.0, 1.0)
        assert res.value == 0.0 and res.error == 0.0

    def test_complex_integrand(self):
        # int_0^pi e^{i t} dt = 2i
        res = adaptive_quad(lambda t: np.exp(1j * t), 0.0, math.pi)
        assert res.value == pytest.approx(2j, rel=1e-13)

    def test_oscillatory_with_breakpoints(self):
        # int_0^20pi cos(40 t) dt = 0, needs seeding to converge quickly
        omega = 40.0
        hi = 20.0 * math.pi
        res = adaptive_quad(
            lambda t: np.cos(omega * t),
            0.0,
            hi,
            breakpoints=oscillation_breakpoints(0.0, hi, omega),
        )
        assert abs(res.value) < 1e-11

    def test_narrow_spike_found_by_refinement(self):
        # gaussian of width 1e-3 centered mid-interval, no seeding
        res = adaptive_quad(
            lambda x: np.exp(-0.5 * ((x - 0.37) / 1e-3) ** 2),
            0.0,
            1.0,
            abs_tol=1e-300,
            rel_tol=1e-11,
        )
        want = math.sqrt(2.0 * math.pi) * 1e-3
        assert res.value == pytest.approx(want, rel=1e-10, abs=0)

    def test_failure_reports_value_and_error(self):
        # |x - 1/3| has a kink and the budget below is unreachable fast
        with pytest.raises(QuadratureError) as err:
            adaptive_quad(
                lambda x: np.abs(x - 1.0 / 3.0) ** 0.5,
                0.0,
                1.0,
                abs_tol=1e-300,
                rel_tol=1e-300,
                max_rounds=6,
            )
        assert err.value.achieved is not None and err.value.achieved > 0
        # the partial value is still a sane estimate
        assert err.value.value == pytest.approx(0.455, abs=0.05)

    def test_non_finite_integrand_raises_after_one_sweep(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > 0.5, np.nan, x)

        with pytest.raises(QuadratureError, match="not finite") as err:
            adaptive_quad(f, 0.0, 1.0)
        assert calls == [15, 31]  # the two rules of the first sweep
        assert math.isnan(err.value.achieved)

    def test_integrable_decay_on_long_interval(self):
        res = adaptive_quad(lambda x: np.exp(-x), 0.0, 200.0)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_scalar_integrand_gives_scalar_result(self):
        res = adaptive_quad(np.exp, 0.0, 1.0)
        assert np.ndim(res.value) == 0 and np.ndim(res.error) == 0

    def test_runaway_refinement_refused_before_evaluation(self):
        # 1e9 radians of unseeded oscillation: every panel stays over its
        # share, so each round would double the batch; the sweep that would
        # pass max_panels must never be evaluated
        batches = []

        def f(x):
            batches.append(x.size)
            return np.cos(1e9 * x)

        with pytest.raises(QuadratureError) as err:
            adaptive_quad(f, 0.0, 1.0, max_panels=1000)
        assert max(batches) <= 31 * 1000
        assert math.isfinite(err.value.achieved) and err.value.achieved > 0


class TestVectorIntegrand:
    def test_components_in_columns(self):
        res = adaptive_quad(lambda t: np.stack([np.exp(t), np.exp(1j * t)], axis=1), 0.0, math.pi)
        assert res.value.shape == (2,) and res.error.shape == (2,)
        assert res.value[0] == pytest.approx(math.exp(math.pi) - 1.0, rel=1e-13)
        assert res.value[1] == pytest.approx(2j, rel=1e-13)

    def test_each_component_meets_its_own_tolerance(self):
        # a smooth component of size 1e8 next to an O(1) one with an endpoint
        # singularity: a budget shared with the large component would accept
        # the small one far too early
        rel_tol = 1e-12
        res = adaptive_quad(
            lambda t: np.stack([1e8 * np.exp(t), np.sqrt(t)], axis=1),
            0.0,
            1.0,
            abs_tol=1e-300,
            rel_tol=rel_tol,
        )
        want = np.array([1e8 * (math.e - 1.0), 2.0 / 3.0])
        assert np.all(res.error <= rel_tol * np.abs(res.value))
        assert np.all(np.abs(res.value - want) <= 10.0 * rel_tol * want)


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
