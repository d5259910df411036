import math
import warnings

import numpy as np
import pytest
from conftest import log_slope

from nearwave import quadrature
from nearwave.aperture import (
    GaussianProfile,
    SingleSlitProfile,
    TabulatedProfile,
    tail_probability,
)
from nearwave.quadrature import adaptive_quad


def _slit_sq(kx, a):
    """|F(kx)|^2 of the slit mode, squared from its amplitude."""
    return SingleSlitProfile(a).amplitude(kx) ** 2


class TestSlitAmplitudeSq:
    def test_center_value(self):
        # cos(0) = 1, denominator pi^4
        assert _slit_sq(0.0, 1.0) == pytest.approx(4.0 / math.pi**3, rel=1e-15)
        a = 0.37
        assert _slit_sq(0.0, a) == pytest.approx(4.0 * a / math.pi**3, rel=1e-14)

    def test_removable_singularity_limit(self):
        # with u = a*kx - pi the form tends to a/(4*pi); numeric evaluation
        # just off the point (a*kx = pi +- 1e-4) must approach the same value.
        # Each side carries a genuine O(u/pi) slope, so the one-sided match
        # is ~3e-5 and the two-sided average cancels to O(u^2).
        for a in (1.0, 2.5):
            limit = a / (4.0 * math.pi)
            assert _slit_sq(math.pi / a, a) == pytest.approx(limit, rel=1e-14)
            lo = _slit_sq((math.pi - 1e-4) / a, a)
            hi = _slit_sq((math.pi + 1e-4) / a, a)
            assert lo == pytest.approx(limit, rel=1e-4)
            assert hi == pytest.approx(limit, rel=1e-4)
            assert 0.5 * (lo + hi) == pytest.approx(limit, rel=1e-8)

    def test_continuity_window(self):
        a = 1.0
        limit = a / (4.0 * math.pi)
        for fac in (1.0 - 1e-6, 1.0 + 1e-6):
            val = _slit_sq(math.pi * fac, a)
            assert abs(val - limit) < 1e-4 * limit

    def test_zero_at_three_pi(self):
        assert _slit_sq(3.0 * math.pi, 1.0) < 1e-30

    def test_overflowing_a_kx_gives_the_zero_limit(self):
        # F falls like 1/(a kx)^2, so where a |kx| passes the float range it is 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = SingleSlitProfile(1e8).amplitude([100.0, 1.7e308, -1.7e308])
            assert SingleSlitProfile(1e8).amplitude(1.7e308) == 0.0
        assert amp[0] == SingleSlitProfile(1e8).amplitude(100.0) != 0.0 and amp[1:].tolist() == [0.0, 0.0]

    def test_even(self):
        kx = np.array([0.3, 1.0, math.pi, 7.7])
        assert np.array_equal(_slit_sq(kx, 1.2), _slit_sq(-kx, 1.2))

    def test_profile_amplitude_squares_to_density(self):
        # |F|^2 = 4 pi a cos^2(a kx/2)/(pi^2 - a^2 kx^2)^2 at 40 digits.  The
        # rounding of a*kx shifts cos^2(a kx/2) by a relative a kx eps tan(a kx/2),
        # so the points keep |cos(a kx/2)| >= 1/2 and a*kx <= 12
        import mpmath

        qs = np.concatenate([np.linspace(0.0, 12.0, 49), math.pi + np.linspace(-2e-3, 2e-3, 9)])
        with mpmath.workdps(40):
            for a in (0.3, 1.0, 2.7, 10.0):
                for q in qs[np.abs(np.cos(0.5 * qs)) >= 0.5].tolist():
                    kx = q / a
                    k = mpmath.mpf(kx)
                    want = 4 * mpmath.pi * a * mpmath.cos(a * k / 2) ** 2 / (mpmath.pi**2 - (a * k) ** 2) ** 2
                    assert _slit_sq(kx, a) == pytest.approx(float(want), rel=1e-14, abs=0)


class TestTailProbability:
    def test_full_norm_is_one(self):
        # Parseval for the unit-norm slit mode fixes the two-sided norm to 1;
        # the quadrature route must agree
        assert tail_probability(1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_norm_is_width_invariant(self):
        assert tail_probability(1e-9 / 3.0, 3.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q_prime", [5.0, 50.0, 500.0, 5e5])
    def test_fields_are_builtin_floats(self, q_prime):
        # the series sums numpy coefficients, and below q' = 10 the panel adds a numpy sum
        assert type(tail_probability(q_prime, 1.0)) is float

    def test_monotone_decreasing(self):
        vals = [tail_probability(k, 1.0) for k in (0.5, 2.0, 5.0, 20.0, 80.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_scale_covariance(self):
        # depends on a and k' only through a*k'
        t1 = tail_probability(40.0, 1.0)
        t2 = tail_probability(8.0, 5.0)
        assert t1 == pytest.approx(t2, rel=1e-10, abs=0)

    def test_cubic_scaling_halves_eightfold(self):
        t1 = tail_probability(300.0, 1.0)
        t2 = tail_probability(600.0, 1.0)
        assert t1 / t2 == pytest.approx(8.0, rel=0.02)

    def test_loglog_slope_is_minus_three(self):
        ks = np.geomspace(50.0, 500.0, 7)
        vals = [tail_probability(float(k), 1.0) for k in ks]
        slope = log_slope(ks, vals)
        assert slope == pytest.approx(-3.0, abs=0.05)

    def test_converged_prefactor_versus_quoted(self):
        # quadrature is authoritative: the integrated tail approaches
        # (4/3)*pi/(a k')^3, half of the quoted 8*pi/3 coefficient
        k = 2000.0
        tail = tail_probability(k, 1.0)
        prefactor = tail * k**3
        assert prefactor == pytest.approx((4.0 / 3.0) * math.pi, rel=5e-3)
        assert tail / ((8.0 / 3.0) * math.pi / k**3) == pytest.approx(0.5, abs=0.01)

    def test_analytic_tail_joins_panel_route(self):
        # around a*k' = 1e4, deep in the 1/q series: after removing the
        # known cubic trend the tail must be smooth across it
        # (abs=0 matters: these values sit at the 1e-12 scale where the
        # pytest.approx default absolute tolerance would accept anything)
        below = tail_probability(9.99e3, 1.0)
        above = tail_probability(1.001e4, 1.0)
        mid = tail_probability(1.0e4, 1.0)
        assert below > mid > above
        assert below * 9.99e3**3 == pytest.approx(above * 1.001e4**3, rel=2e-3, abs=0)
        assert mid * 1.0e4**3 == pytest.approx(above * 1.001e4**3, rel=2e-3, abs=0)

    def test_extreme_arguments_stay_positive(self):
        # the large-argument exponential integrals must use the asymptotic
        # series: upward recurrence noise once flipped these tails negative
        for a, kp in ((64.19184365714445, 23265859.587479208), (1.0, 1e9), (1e-3, 1e9), (1e3, 1e6)):
            t = tail_probability(kp, a)
            assert math.isfinite(t) and t >= 0.0
            q = a * kp
            assert t == pytest.approx(4.0 * math.pi / (3.0 * q**3), rel=1e-3, abs=0)

    def test_exp_integral_switch_seam(self):
        # recurrence and asymptotic regimes meet at |z| = 1e4; on the
        # purely imaginary axis both sides must track the true values.
        # The recurrence side carries eps*|z|^(n-2) relative noise by
        # construction (harmless to consumers, whose coefficients divide
        # by K^(n-1)), so the gate reflects that floor per order.
        import mpmath

        from nearwave.aperture import _exp_integrals

        for mag in (9.999e3, 1.0001e4):
            en = _exp_integrals(-1j * mag, 4)
            with mpmath.workdps(40):
                for n, got in enumerate(en[1:], start=1):
                    want = complex(mpmath.expint(n, mpmath.mpc(0.0, -mag)))
                    floor = 2.22e-16 * mag ** max(0, n - 2) * mag  # rel: eps*|z|^(n-2)/|E_n|, |E_n|~1/|z|
                    assert got == pytest.approx(want, rel=max(1e-11, 10.0 * floor), abs=0)

    def test_exp_integrals_against_mpmath(self):
        # every order 1..12 on both sides of each route switch: |z| = 1 (exp1
        # start / continued-fraction start), |z| = n_max (start order ceil|z|
        # capped at n_max) and |z| = 1e4 (asymptotic series), on the imaginary
        # axis and with Re z > 0
        import cmath

        import mpmath

        from nearwave.aperture import _exp_integrals

        orders = tuple(range(1, 13))
        points = []
        for mag in (0.999, 1.001, 11.999, 12.001):
            points += [cmath.rect(mag, phase) for phase in (-math.pi / 2, math.pi / 2, -1.0, 0.4)]
        for mag in (9.999e3, 1.0001e4):
            points += [complex(0.0, -mag), complex(0.0, mag), complex(30.0, -math.sqrt(mag * mag - 900.0))]
        with mpmath.workdps(40):
            for z in points:
                en = _exp_integrals(z, orders[-1])
                for n in orders:
                    want = complex(mpmath.expint(n, mpmath.mpc(z.real, z.imag)))
                    assert en[n] == pytest.approx(want, rel=1e-14, abs=0), (z, n)
            # the tail odds' 1/q series reads E_n(-i q_s) through order 38 at q_s = 10
            for mag in (10.0, 10.001, 31.7, 99.99, 100.0):
                en = _exp_integrals(complex(0.0, -mag), 40)
                for n in range(1, 41):
                    want = complex(mpmath.expint(n, mpmath.mpc(0.0, -mag)))
                    assert en[n] == pytest.approx(want, rel=1e-14, abs=0), (mag, n)

    def test_exp1_series_against_mpmath(self):
        # E_1 at |z| <= 1 comes from its power series: the right half-disc,
        # the |z| = 1 seam with the continued fraction and |z| = 1e-300
        import cmath

        import mpmath

        from nearwave.aperture import _exp_integrals

        rng = np.random.default_rng(11)
        points = [cmath.rect(math.sqrt(r), phase)
                  for r, phase in zip(rng.uniform(0.0, 1.0, 400), rng.uniform(-math.pi / 2, math.pi / 2, 400))]
        for mag in (1e-300, 1e-8, 1.0):
            points += [cmath.rect(mag, phase) for phase in np.linspace(-math.pi / 2, math.pi / 2, 9)]
        with mpmath.workdps(40):
            for z in points:
                want = complex(mpmath.expint(1, mpmath.mpc(z.real, z.imag)))
                assert _exp_integrals(z, 1)[1] == pytest.approx(want, rel=1e-14, abs=0), z

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_probability(0.0, 1.0)
        with pytest.raises(ValueError):
            tail_probability(1.0, -1.0)

    def test_validation_rejects_non_finite(self):
        for k_prime, a in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                tail_probability(k_prime, a)

    def test_matches_mpmath_reference(self):
        # reference: pi-panel mp.quad up to 96*pi, then 40 terms of the 1/q
        # series 4 pi sum_n (n+1) pi^(2n) [q^-(3+2n)/(3+2n) + Re E_(4+2n)(-iq) q^-(3+2n)]
        # with closed-form coefficients and mpmath's E_n; q' on both sides of
        # the panel/series switch at 10, at 5.05 and 9.18 (where a Si/Cin closed
        # form loses ~1e-14 to cancellation), and on both sides of 100 and of
        # the reference's own switch at 96*pi
        import mpmath as mp

        def density(q):
            u = q - mp.pi
            return 8 * mp.pi * mp.sin(u / 2) ** 2 / (u * u * (2 * mp.pi + u) ** 2)

        def series(q, terms=40):
            q = mp.mpf(q)
            total = mp.mpf(0)
            for n in range(terms):
                m = 4 + 2 * n
                osc = mp.re(mp.expint(m, mp.mpc(0, -q)))
                total += (n + 1) * mp.pi ** (2 * n) * (1 / mp.mpf(m - 1) + osc) * q ** (1 - m)
            return 4 * mp.pi * total

        with mp.workdps(30):
            top = 96
            panels = [mp.quad(density, [j * mp.pi, (j + 1) * mp.pi]) for j in range(top)]
            beyond = series(top * mp.pi)
            for qp in (0.7, 3.0, 5.05, 9.18, 9.999, 10.0, 10.001, 57.3, 99.9, 100.0, 100.1, 317.0, 2500.0, 9999.0, 1e4,
                       2.3e4, 1e6):
                if qp < top * math.pi:
                    j = math.ceil(qp / math.pi)
                    want = mp.quad(density, [qp, j * mp.pi]) + mp.fsum(panels[j:]) + beyond
                else:
                    want = series(qp)
                for a in (1.0, 2.7):
                    got = tail_probability(qp / a, a)
                    assert got == pytest.approx(float(want), rel=1e-14, abs=0), (qp, a)

    def test_series_converged_at_its_start(self, monkeypatch):
        # four more orders of the 1/q series than its start q_s = max(q', 10) asks for move no value,
        # on either side of q' = 10
        from nearwave import aperture

        qs = (3.0, 9.99, 10.0, 10.01, 100.0, 2500.0, 1e6)
        base = [tail_probability(q, 1.0) for q in qs]
        order = aperture._odds_series_order
        monkeypatch.setattr(aperture, "_odds_series_order", lambda q: order(q) + 4)
        aperture._odds_series_at_start.cache_clear()  # below q' = 10 the series sum is cached; redo it longer
        try:
            for q, want in zip(qs, base):
                assert tail_probability(q, 1.0) == pytest.approx(want, rel=1e-16, abs=0), q
        finally:
            aperture._odds_series_at_start.cache_clear()

    def test_series_below_its_start_is_summed_once(self, monkeypatch):
        # below q' = 10 the series part is the constant sum at q_s = 10: built once, then no E_n table per call
        from nearwave import aperture

        aperture._odds_series_at_start.cache_clear()
        first = tail_probability(3.0, 1.0)
        assert aperture._odds_series_at_start() == aperture._odds_series(10.0)
        tables = []
        monkeypatch.setattr(aperture, "_exp_integrals", lambda *args: tables.append(args))
        again = [tail_probability(q, 1.0) for q in (3.0, 0.5, 9.99)]
        assert tables == [] and again[0] == first

    def test_series_joins_panel_route(self):
        # just below and just above the panel/series switch at a*k' = 10;
        # after removing the cubic trend the seam must be smooth (the
        # cos(q)/q ripple moves q^3*tail by ~2.5e-4 per 0.001 here; abs=0
        # matters, as pytest.approx's default absolute tolerance would
        # accept anything at this scale)
        below = tail_probability(9.999, 1.0)
        above = tail_probability(10.001, 1.0)
        mid = tail_probability(10.0, 1.0)
        assert below > mid > above
        assert below * 9.999**3 == pytest.approx(above * 10.001**3, rel=2e-3, abs=0)
        assert mid * 10.0**3 == pytest.approx(above * 10.001**3, rel=2e-3, abs=0)
        # and the drop across the seam is the density's integral over it
        nodes, weights = np.polynomial.legendre.leggauss(20)
        q = 10.0 + 0.001 * nodes
        drop = 0.001 * np.dot(weights, 8.0 * math.pi * np.cos(q / 2) ** 2 / (math.pi**2 - q * q) ** 2)
        assert below - above == pytest.approx(drop, rel=0, abs=1e-14 * mid)


class TestGaussianProfile:
    def test_amplitude_and_norm(self, monkeypatch):
        w = 1.7
        profile = GaussianProfile(w=w)
        assert profile.amplitude(0.0) == 1.0
        assert profile.amplitude(2.0) == pytest.approx(math.exp(-(2.0 * w) ** 2 / 4.0), rel=1e-15)
        want = math.sqrt(2.0 * math.pi) / w
        monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-12)
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-13)
        res = adaptive_quad(lambda k: (profile.amplitude(k)[None] ** 2, np.ones((1, len(k)))), 0.0, 40.0 / w,
                            breakpoints=(), components=1)
        got = 2.0 * res.value[0]
        assert got == pytest.approx(want, rel=1e-12)


def _norm_sq(profile):
    """Two-sided norm of a tabulated profile: 2 * integral of |F|^2 over [0, k_max], panels seeded at its knots."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_ABS_TOL", 1e-14)
        return 2.0 * adaptive_quad(lambda k: (profile.amplitude(k)[None] ** 2, np.ones((1, len(k)))), 0.0,
                                   profile.k_max, breakpoints=profile.knots(), components=1).value[0]


class TestTabulatedProfile:
    def _gaussian_csv(self, tmp_path, asymmetric=False):
        w = 1.0
        ks = np.linspace(-6.0, 6.0, 241)
        f = np.exp(-0.25 * (ks * w) ** 2)
        if asymmetric:
            f = f * (1.0 + 0.2 * np.sign(ks))  # folded average restores the even part
        path = tmp_path / "profile.csv"
        lines = ["kx,F"] + [f"{k},{v}" for k, v in zip(ks, f)]
        path.write_text("\n".join(lines) + "\n")
        return path, w

    def test_csv_roundtrip_matches_analytic(self, tmp_path):
        path, w = self._gaussian_csv(tmp_path)
        profile = TabulatedProfile.from_csv(path)
        for kx in (0.0, 0.7, 2.3, -1.1):
            want = math.exp(-0.25 * (kx * w) ** 2)
            assert profile.amplitude(kx) == pytest.approx(want, rel=1e-6)
        assert profile.amplitude(7.5) == 0.0

    def test_even_symmetrized_on_load(self, tmp_path):
        path, w = self._gaussian_csv(tmp_path, asymmetric=True)
        profile = TabulatedProfile.from_csv(path)
        for kx in (0.4, 1.9, 3.3):
            assert profile.amplitude(kx) == profile.amplitude(-kx)
            # the +-20% odd perturbation averages away on folding
            assert profile.amplitude(kx) == pytest.approx(math.exp(-0.25 * kx * kx), rel=1e-6)

    def test_norm_against_analytic(self, tmp_path):
        path, w = self._gaussian_csv(tmp_path)
        profile = TabulatedProfile.from_csv(path)
        assert _norm_sq(profile) == pytest.approx(math.sqrt(2.0 * math.pi) / w, rel=1e-5)

    def test_norm_sq_matches_mpmath_in_one_sweep(self, monkeypatch):
        # a tapered, rippled profile on a mirrored 81-sample grid; |F|^2 is a
        # degree-6 polynomial between knots, so seeded there K31 is exact and
        # the first sweep is accepted
        import mpmath
        from scipy.interpolate import CubicSpline

        k_max = 5.3
        ks = np.linspace(-k_max, k_max, 81)
        f = np.exp(-0.25 * (1.4 * ks) ** 2) * (1.0 + 0.3 * np.cos(2.2 * ks)) * np.cos(0.5 * np.pi * ks / k_max) ** 2
        profile = TabulatedProfile(ks, f)
        sweeps = []
        estimates = quadrature._panel_estimates
        monkeypatch.setattr(quadrature, "_panel_estimates", lambda *args: sweeps.append(1) or estimates(*args))
        got = _norm_sq(profile)
        assert len(sweeps) == 1
        half = ks[40:]
        spline = CubicSpline(half, f[40:], bc_type="natural")
        with mpmath.workdps(30):
            want = 0
            for i, (lo, hi) in enumerate(zip(half[:-1].tolist(), half[1:].tolist())):
                c = [mpmath.mpf(float(v)) for v in spline.c[:, i]]
                want += mpmath.quad(lambda k: (((c[0] * (k - lo) + c[1]) * (k - lo) + c[2]) * (k - lo) + c[3]) ** 2,
                                    [lo, hi])
        assert abs(got - 2.0 * float(want)) <= 1e-15 * got

    def test_held_below_first_sample(self):
        # clustered knots make the end cubic steep: extrapolated to kx = 0 it
        # reached 1.43e5 against max|F| = 0.78, so F holds its first sample there
        ks = np.array([0.5, 0.5 + 1e-7, 1.0, 1.0 + 1e-7, 1.5, 2.0, 3.0])
        f = np.exp(-ks * ks)
        profile = TabulatedProfile(ks, f)
        assert profile.amplitude(0.0) == profile.amplitude(0.5)
        assert np.abs(profile.amplitude(np.linspace(0.0, profile.k_max, 3001))).max() <= np.abs(f).max()

    def test_bom_prefixed_csv_keeps_its_first_sample(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM; read in the locale's encoding,
        # '\ufeff0.0' fails float() and the first sample would be taken for a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0.0,1.0\n0.5,0.9\n1.0,0.7\n1.5,0.4\n2.0,0.1\n")
        profile = TabulatedProfile.from_csv(path)
        assert profile.amplitude(0.0) == 1.0
        assert profile.knots().tolist() == [0.5, 1.0, 1.5, 2.0]

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            TabulatedProfile([0.0, 1.0, 2.0], [1.0, 0.5, 0.1])

    def test_spline_matches_scipy_on_quasi_uniform_grids(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(4, 401))
            k_max = rng.uniform(1.0, 50.0)
            ks = np.linspace(0.0, k_max, n)
            ks[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * k_max / (n - 1)
            f = np.exp(-0.25 * ks * ks * rng.uniform(0.1, 3.0)) * np.cos(rng.uniform(0.0, 3.0) * ks)
            probe = np.concatenate([ks, rng.uniform(0.0, k_max, 300)])
            want = CubicSpline(ks, f, bc_type="natural")(probe)
            got = TabulatedProfile(ks, f).amplitude(probe)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(f))

    def test_spline_matches_mpmath_on_clustered_grids(self):
        # knot pairs 1e-7..1e-5 apart make the spline ill-conditioned: scipy's
        # CubicSpline drifts from the exact spline by 2e-12 of max|F| on these
        # grids, so the oracle is the same natural spline solved at 40 digits
        import mpmath

        rng = np.random.default_rng(8)
        with mpmath.workdps(40):
            for _ in range(12):
                base = rng.uniform(0.0, 6.0, int(rng.integers(3, 12)))
                ks = np.sort(np.concatenate([base, base + 10.0 ** rng.uniform(-7.0, -5.0, base.size)]))
                f = np.exp(-0.25 * ks * ks) * np.cos(ks)
                x = [mpmath.mpf(float(k)) for k in ks]
                y = [mpmath.mpf(float(v)) for v in f]
                n = len(x)
                lhs = mpmath.zeros(n, n)
                rhs = mpmath.zeros(n, 1)
                lhs[0, 0] = lhs[n - 1, n - 1] = 1
                for i in range(1, n - 1):
                    h0, h1 = x[i] - x[i - 1], x[i + 1] - x[i]
                    lhs[i, i - 1], lhs[i, i], lhs[i, i + 1] = h0, 2 * (h0 + h1), h1
                    rhs[i] = 6 * ((y[i + 1] - y[i]) / h1 - (y[i] - y[i - 1]) / h0)
                m = mpmath.lu_solve(lhs, rhs)
                probe = np.concatenate([ks, rng.uniform(ks[0], ks[-1], 60)])
                got = TabulatedProfile(ks, f).amplitude(probe)
                for k, g in zip(probe, got):
                    i = min(int(np.searchsorted(ks, k, side="right")) - 1, n - 2)
                    h = x[i + 1] - x[i]
                    lo, hi = (x[i + 1] - mpmath.mpf(float(k))) / h, (mpmath.mpf(float(k)) - x[i]) / h
                    want = lo * y[i] + hi * y[i + 1] + ((lo**3 - lo) * m[i] + (hi**3 - hi) * m[i + 1]) * h * h / 6
                    assert abs(g - float(want)) <= 1e-13 * np.max(np.abs(f))
