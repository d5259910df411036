import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cli_record, screen_momentum_magnitude

from nearwave.aperture import tail_probability
from nearwave.modes import WaveKind, classify
from nearwave.quantities import HBAR, ScaledUnits, compton_wavenumber_ratio
from nearwave.recoil import (
    ScreenSpec,
    critical_threshold,
    lifetimes,
    recoil_solution,
    root_residual,
)

KM_SWEEP = (2.0, 10.0, 1e3, 1e6, 1e12)


def kx_grid():
    return np.concatenate([np.linspace(0.0, 0.98, 20), np.geomspace(1.02, 50.0, 30)])


class TestThreshold:
    def test_heavy_screen_limit(self):
        thr = critical_threshold(ScreenSpec(K_M=1e30))
        assert thr.eta == 1.0  # saturates double precision

    def test_km_two(self):
        thr = critical_threshold(ScreenSpec(K_M=2.0))
        assert thr.eta == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_one_minus_eta_extended_precision(self):
        for km in (1e6, 1e18, 1e30):
            thr = critical_threshold(ScreenSpec(K_M=km))
            with mpmath.workdps(50):
                want = float(1 - 1 / mpmath.sqrt(1 + 2 / mpmath.mpf(km)))
            assert thr.one_minus_eta == pytest.approx(want, rel=1e-12, abs=0)
            # first-order value 1/K_M
            assert thr.one_minus_eta == pytest.approx(1.0 / km, rel=2.0 / km + 1e-12, abs=0)

    def test_overlap_with_first_order_expansion(self):
        # agreement window between full form and 1/K_M - 3/(2 K_M^2)
        for inv_km in np.geomspace(1e-10, 1e-6, 9):
            km = 1.0 / inv_km
            full = critical_threshold(ScreenSpec(K_M=km)).one_minus_eta
            first = inv_km - 1.5 * inv_km * inv_km
            assert full == pytest.approx(first, rel=1e-10, abs=0)


class TestOutputWavenumber:
    def test_undeflected_mode(self):
        for km in KM_SWEEP:
            assert recoil_solution(0.0, ScreenSpec(K_M=km)).k_tilde == 1.0

    def test_worked_complex_value(self):
        kt = recoil_solution(2.0, ScreenSpec(K_M=10.0)).k_tilde
        assert kt.real == pytest.approx(11.0 / 12.0, rel=1e-15)
        assert kt.imag == pytest.approx(math.sqrt(3.8) / 12.0, rel=1e-14)

    def test_worked_value_solves_balance_exactly(self):
        # substitute the analytic root into the energy balance at 50 digits
        with mpmath.workdps(50):
            km, kx = mpmath.mpf(10), mpmath.mpf(2)
            kt = (km + 1 + mpmath.sqrt(1 - (1 + 2 / km) * kx**2)) / (km + 2)
            kz = mpmath.sqrt(kt * kt - kx * kx)
            lhs = mpmath.sqrt(km * km + 1 - 2 * kz + kt * kt) - km
            residual = abs(lhs - (1 - kt))
            assert residual < mpmath.mpf(10) ** -20

    def test_heavy_screen_reduces_to_unit(self):
        kt = recoil_solution(7.0, ScreenSpec(K_M=1e15)).k_tilde
        assert kt.real == pytest.approx(1.0, rel=1e-12)
        assert kt.imag == pytest.approx(0.0, abs=1e-7)

    def test_root_residual_sweep(self):
        worst = 0.0
        for km in KM_SWEEP:
            screen = ScreenSpec(K_M=km)
            for kx in kx_grid():
                worst = max(worst, root_residual(recoil_solution(float(kx), screen)))
        assert worst < 1e-10


class TestRecoilSolution:
    def test_undeflected_energies(self):
        sol = recoil_solution(0.0, ScreenSpec(K_M=10.0))
        assert sol.k_tilde == 1.0
        assert sol.chi_z == 0.0
        assert sol.eps_real == 1.0  # photon keeps all of eps0 when undeflected
        assert sol.E_real == 0.0
        assert sol.kind is WaveKind.RUNNING

    def test_worked_crawling_values(self):
        sol = recoil_solution(2.0, ScreenSpec(K_M=10.0))
        eta = math.sqrt(10.0 / 12.0)
        chi_want = eta * 1.1 * math.sqrt(4.0 - eta * eta)
        assert sol.chi_z == pytest.approx(chi_want, rel=1e-13)
        assert sol.chi_z == pytest.approx(1.7869123, rel=1e-7)
        assert sol.gamma == pytest.approx(0.16244657, rel=1e-7)
        assert sol.gamma == sol.Gamma
        assert sol.eps_real == pytest.approx(11.0 / 12.0, rel=1e-15)
        assert sol.E_real == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_two_width_routes_agree(self):
        # the threshold form chi/(K_M+1) against the imaginary part of the
        # root; recoil_solution itself enforces 1e-12, verify tighter here
        for km in KM_SWEEP:
            screen = ScreenSpec(K_M=km)
            for kx in (1.01, 2.0, 5.0, 50.0):
                sol = recoil_solution(kx, screen)
                kt = sol.k_tilde
                assert sol.gamma == pytest.approx(kt.imag, rel=1e-12, abs=0)

    def test_sign_structure(self):
        for km in KM_SWEEP:
            screen = ScreenSpec(K_M=km)
            for kx in (1.05, 3.0, 20.0):
                sol = recoil_solution(kx, screen)
                assert sol.kz_tilde.imag > 0
                assert sol.Kz_tilde.imag == -sol.kz_tilde.imag
                assert sol.Kz_tilde == 1.0 - sol.kz_tilde

    def test_momentum_closure(self):
        sol = recoil_solution(3.0, ScreenSpec(K_M=7.0))
        assert sol.Kx_screen == -3.0
        assert sol.kz_tilde + sol.Kz_tilde == 1.0 + 0.0j

    def test_energy_ledger_exact(self):
        for km in KM_SWEEP:
            screen = ScreenSpec(K_M=km)
            for kx in kx_grid():
                sol = recoil_solution(float(kx), screen)
                assert abs(sol.eps_real + sol.E_real - 1.0) <= 4 * np.finfo(float).eps
                assert sol.gamma == sol.Gamma

    def test_real_parts_kx_independent_past_threshold(self):
        screen = ScreenSpec(K_M=10.0)
        sols = [recoil_solution(kx, screen) for kx in (1.5, 3.0, 30.0)]
        assert len({s.eps_real for s in sols}) == 1
        assert len({s.E_real for s in sols}) == 1
        assert len({s.kz_tilde.real for s in sols}) == 1

    def test_gamma_monotone_in_kx(self):
        screen = ScreenSpec(K_M=10.0)
        gammas = [recoil_solution(kx, screen).Gamma for kx in (1.1, 2.0, 5.0, 20.0, 100.0)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    def test_threshold_identities(self):
        for km in KM_SWEEP:
            eta = critical_threshold(ScreenSpec(K_M=km)).eta
            assert (1.0 + 2.0 / km) == pytest.approx(1.0 / (eta * eta), rel=1e-12)
            lhs = (km + 1.0) / ((km + 2.0) * eta)
            rhs = eta * (km + 1.0) / km
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_magnitude_two_routes(self):
        for km in (2.0, 10.0, 1e3):
            screen = ScreenSpec(K_M=km)
            for kx in (0.0, 0.5, 2.0, 7.0):
                mag = screen_momentum_magnitude(kx, screen)  # raises on >1e-12 mismatch
                assert cmath.isfinite(mag)

    def test_fixed_screen_reduction(self):
        screen = ScreenSpec(K_M=1e12)
        for kx in (0.5, 2.0, 5.0, 10.0):
            sol = recoil_solution(kx, screen)
            fixed = classify(kx).kz
            scale = max(1.0, abs(fixed))
            assert abs(sol.kz_tilde.real - fixed.real) <= 1e-6 * scale
            assert abs(sol.kz_tilde.imag - fixed.imag) <= 1e-6 * scale

    def test_threshold_torture_all_mass_scales(self):
        # every route cross-check must survive threshold-adjacent inputs on
        # both sides, from featherweight to macroscopic screens
        for km in np.geomspace(1e-6, 1e28, 18):
            eta = critical_threshold(ScreenSpec(K_M=float(km))).eta
            for gap in (1e-16, 1e-14, 1e-11, 1e-8, 1e-4):
                for sign in (-1.0, 1.0):
                    kx = eta * (1.0 + sign * gap)
                    sol = recoil_solution(kx, ScreenSpec(K_M=float(km)))
                    screen_momentum_magnitude(kx, ScreenSpec(K_M=float(km)))
                    assert abs(sol.eps_real + sol.E_real - 1.0) <= 4 * np.finfo(float).eps

    def test_branch_point_approach(self):
        # walking onto the threshold from either side must not trip the
        # internal route cross-checks (the width's branch-point conditioning
        # is accounted for) and the width must grow continuously as sqrt(gap)
        screen = ScreenSpec(K_M=10.0)
        eta = critical_threshold(screen).eta
        gammas = []
        for off in (-1e-12, 0.0, 1e-15, 1e-12, 1e-9, 1e-6):
            kx = eta * (1.0 + off)
            sol = recoil_solution(kx, screen)
            screen_momentum_magnitude(kx, screen)
            assert root_residual(sol) < 1e-10
            gammas.append(sol.gamma)
        assert gammas[0] == gammas[1] == 0.0
        assert all(a < b for a, b in zip(gammas[1:], gammas[2:]))
        # sqrt scaling: gap ratio 1e3 per step -> width ratio ~sqrt(1e3)
        assert gammas[4] / gammas[3] == pytest.approx(math.sqrt(1e3), rel=1e-2)

    @given(
        st.floats(min_value=1e-1, max_value=1e14),
        st.floats(min_value=0.0, max_value=60.0),
    )
    def test_invariants_hold_everywhere(self, km, kx):
        # property sweep: ledger, width symmetry, momentum closure and the
        # balance residual across the whole (K_M, kx) plane; the internal
        # cross-checks of recoil_solution raise on any route mismatch
        screen = ScreenSpec(K_M=km)
        sol = recoil_solution(kx, screen)
        assert abs(sol.eps_real + sol.E_real - 1.0) <= 4 * np.finfo(float).eps
        assert sol.gamma == sol.Gamma
        assert sol.kz_tilde + sol.Kz_tilde == 1.0 + 0.0j
        assert root_residual(sol) < 1e-10
        if sol.kind is WaveKind.CRAWLING:
            assert sol.kz_tilde.imag > 0.0 and sol.Kz_tilde.imag < 0.0


class TestWidthsAndLifetimes:
    UNITS = ScaledUnits(k0=7.5e6)

    def _screen(self):
        return ScreenSpec(K_M=compton_wavenumber_ratio(0.1, self.UNITS))

    def _routes(self, kx, K_M):
        return lifetimes(recoil_solution(kx, ScreenSpec(K_M=K_M)), self.UNITS)

    def test_asymptotic_width_accuracy(self):
        # the deep-CW width |kx|/K_M against the exact Gamma, as lifetimes
        routes = self._routes(100.0, 1e6)
        assert abs(routes.exact_s / routes.deep_cw_s - 1.0) < 1e-3

    def test_asymptotic_ratio_approaches_one(self):
        # deviation bounded by the 1/K_M + (k_c/kx)^2/2 budget of the deep-CW route
        for km, kx in ((1e3, 50.0), (1e6, 50.0), (1e9, 50.0)):
            routes = self._routes(kx, km)
            budget = 2.0 * (1.0 / km + 0.5 / (kx * kx))
            assert abs(routes.exact_s / routes.deep_cw_s - 1.0) <= budget

    def test_width_unbounded(self):
        screen = ScreenSpec(K_M=1e6)
        g1 = recoil_solution(50.0, screen).Gamma
        g10 = recoil_solution(500.0, screen).Gamma
        assert g10 / g1 == pytest.approx(10.0, rel=1e-3)

    def test_macroscopic_lifetime_value(self):
        tau = lifetimes(recoil_solution(10.0, self._screen()), self.UNITS).exact_s
        assert tau == pytest.approx(1.6943e18, rel=1e-4)
        assert 1.6e18 <= tau <= 1.8e18

    def test_route_agreement_at_heavy_mass(self):
        routes = lifetimes(recoil_solution(10.0, self._screen()), self.UNITS)
        assert abs(routes.exact_s - routes.chi_route_s) / routes.chi_route_s < 1e-6
        assert routes.deep_cw_s == pytest.approx(0.1 / (HBAR * 7.5e6 * 7.5e7), rel=1e-12)

    def test_lifetime_halves_when_kx_doubles(self):
        screen = self._screen()
        t1 = lifetimes(recoil_solution(10.0, screen), self.UNITS).deep_cw_s
        t2 = lifetimes(recoil_solution(20.0, screen), self.UNITS).deep_cw_s
        assert t1 / t2 == pytest.approx(2.0, rel=1e-12)

    def test_running_mode_has_no_lifetime(self):
        with pytest.raises(ValueError, match="no finite lifetime"):
            lifetimes(recoil_solution(0.5, self._screen()), self.UNITS)

    def test_overflowed_width_has_no_lifetime(self):
        sol = recoil_solution(1e200, ScreenSpec(K_M=1e300))
        assert sol.Gamma == math.inf
        with pytest.raises(OverflowError, match="Gamma = inf, chi_z = inf"):
            lifetimes(sol, self.UNITS)

    def test_traverse_equals_lifetime_in_regime(self):
        screen = self._screen()
        sol = recoil_solution(10.0, screen)
        lt = lifetimes(sol, self.UNITS)
        assert not lt.regime_warning
        assert lt.traverse_s == pytest.approx(lt.exact_s, rel=1e-10)

    def test_traverse_flags_light_screen(self):
        sol = recoil_solution(2.0, ScreenSpec(K_M=10.0))
        lt = lifetimes(sol, self.UNITS)
        assert lt.regime_warning
        # outside the regime the two times genuinely part ways; the ratio is
        # K_M (K_M+2) / (K_M+1)^2 = 120/121 here
        assert lt.traverse_s / lt.exact_s == pytest.approx(120.0 / 121.0, rel=1e-12)
        assert abs(lt.traverse_s / lt.exact_s - 1.0) > 1e-3


class TestShortLifetime:
    # the short_lifetime block of a lifetime record: a 0.1 kg screen at k0 = 7.5e6/m behind an a = 1 slit
    def _short(self, tmp_path, tau_max):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"k0_si": 7.5e6, "screen": {"mass_kg": 0.1},
                                    "aperture": {"kind": "single_slit", "a": 1.0}, "grids": {"kx": [10.0]},
                                    "scenario": {"tau_max_s": tau_max}}))
        return cli_record("lifetime", "--config", str(path))["outputs"]["short_lifetime"]

    def test_inversion_wavenumber(self, tmp_path):
        short = self._short(tmp_path, 1e17)
        assert short["k_prime_ratio"] == pytest.approx(168.578, rel=1e-4)
        assert short["in_regime"]

    def test_matches_tail_probability(self, tmp_path):
        short = self._short(tmp_path, 1e17)
        tail = tail_probability(short["k_prime_ratio"], 1.0)  # JSON floats round-trip
        assert short["probability"] == tail.value
        assert short["cubic_asymptote"] == tail.asymptote

    def test_cubic_scaling_under_halved_tau(self, tmp_path):
        # halving tau_max doubles k', shrinking the tail eightfold
        p1 = self._short(tmp_path, 1e17)["probability"]
        p2 = self._short(tmp_path, 5e16)["probability"]
        assert p1 / p2 == pytest.approx(8.0, rel=0.02)

    def test_long_tau_saturates(self, tmp_path):
        short = self._short(tmp_path, 1e40)
        assert short["probability"] == 1.0
        assert not short["in_regime"]
        assert short["cubic_asymptote"] is None


class TestEntangledTerm:
    # the joint photon-screen mode: its two complex energies sum to the sharp input energy
    def test_energy_sum_imaginary_part_cancels(self):
        for km in KM_SWEEP:
            sol = recoil_solution(3.0, ScreenSpec(K_M=km))
            total = complex(sol.eps_real, sol.gamma) + complex(sol.E_real, -sol.Gamma)
            assert abs(total.imag) < 1e-15
            assert total.real == pytest.approx(1.0, abs=4 * np.finfo(float).eps)


class TestScenario:
    def test_report_structure_and_values(self):
        rep = cli_record("scenario-lifetime")  # bundled: 0.1 kg, kx 10, tau_max 1e17 s, reference 1.8e18 s
        out = rep["outputs"]
        assert out["tau_deep_cw_s"] == pytest.approx(1.68578e18, rel=1e-4)
        assert out["reference_relative_deviation"] < 0.10
        assert out["short_lifetime"]["in_regime"]
        assert rep["residuals"]["energy_ledger"] == 0.0
        assert rep["warnings"] == []
