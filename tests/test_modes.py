import math
import random

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearwave.modes import (
    WaveKind,
    classify,
    decay_constant,
    decay_depth_conventions,
    grating_modes,
    phase_velocity,
)


class TestGratingModes:
    def test_period_2p5_boundary(self):
        by_m = dict(grating_modes(2.5, 4))
        for m in (0, 1, 2, -1, -2):
            assert by_m[m].kind is WaveKind.RUNNING
        for m in (3, 4, -3, -4):
            assert by_m[m].kind is WaveKind.CRAWLING

    def test_period_one_keeps_first_order(self):
        by_m = dict(grating_modes(1.0, 3))
        assert by_m[0].kind is WaveKind.RUNNING
        assert by_m[1].kind is WaveKind.RUNNING and by_m[-1].kind is WaveKind.RUNNING
        assert by_m[2].kind is WaveKind.CRAWLING

    def test_subwavelength_period(self):
        by_m = dict(grating_modes(0.9, 3))
        assert by_m[0].kind is WaveKind.RUNNING
        assert all(by_m[m].kind is WaveKind.CRAWLING for m in (1, 2, 3, -1, -2, -3))

    def test_sorted_and_counted(self):
        out = grating_modes(2.5, 5)
        assert [m for m, _ in out] == list(range(-5, 6))

    def test_invalid_period(self):
        with pytest.raises(ValueError, match="positive"):
            grating_modes(0.0, 3)

    def test_matches_classify_rule(self):
        for m, mode in grating_modes(2.5, 6):
            assert mode.kind is classify(mode.kx).kind

    def test_rows_against_mpmath(self):
        # kx = m/period and kz = sqrt(1 - (m/period)^2) from the exact binary period; the periods
        # sit at random in 0.3-6 and one ulp either side of the integers, where |m| = period
        rng = random.Random(0)
        periods = [rng.uniform(0.3, 6.0) for _ in range(200)]
        periods += [math.nextafter(float(n), side) for n in range(1, 40) for side in (0.0, math.inf)]
        worst = 0.0
        with mpmath.workdps(50):
            for period in periods:
                for m, mode in grating_modes(period, 40):
                    kx = mpmath.mpf(m) / mpmath.mpf(period)
                    kz = mpmath.sqrt(abs(1 - kx * kx))
                    assert mode.kind is (WaveKind.CRAWLING if abs(kx) > 1 else WaveKind.RUNNING)
                    got = mode.chi_z if mode.kind is WaveKind.CRAWLING else mode.kz.real
                    for value, want in ((mode.kx, kx), (got, kz)):
                        if want != 0:
                            worst = max(worst, float(abs(value - want) / abs(want)))
                        else:
                            assert value == 0.0
        assert worst <= 4e-16, worst


class TestClassify:
    def test_deep_crawling(self):
        mode = classify(5.0)
        assert mode.kind is WaveKind.CRAWLING
        assert mode.chi_z == pytest.approx(math.sqrt(24.0), rel=1e-15)
        assert mode.kz == pytest.approx(1j * math.sqrt(24.0), rel=1e-15)

    def test_running(self):
        mode = classify(0.5)
        assert mode.kind is WaveKind.RUNNING
        assert mode.kz == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_boundary_counts_running(self):
        mode = classify(1.0)
        assert mode.kind is WaveKind.RUNNING
        assert mode.kz == 0.0

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_dispersion_closure(self, kx):
        mode = classify(kx)
        resid = abs(mode.kz * mode.kz + kx * kx - 1.0)
        assert resid <= 1e-12 * max(1.0, kx * kx)

    def test_chi_monotone_and_depth_antitone(self):
        kxs = [1.2, 1.7, 3.0, 8.0, 30.0]
        chis = [classify(k).chi_z for k in kxs]
        assert all(a < b for a, b in zip(chis, chis[1:]))
        zds = [1.0 / decay_constant(k) for k in kxs]
        assert all(a > b for a, b in zip(zds, zds[1:]))


class TestScalarKinematics:
    def test_phase_velocity_values(self):
        assert phase_velocity(2.0) == 0.5
        assert phase_velocity(-4.0) == -0.25

    def test_frozen_wave_limit(self):
        assert abs(phase_velocity(1e12)) < 1e-11

    def test_phase_velocity_zero_error(self):
        with pytest.raises(ValueError, match="undefined"):
            phase_velocity(0.0)

    @given(st.floats(min_value=0.01, max_value=1e6))
    def test_reciprocal_identities_exact(self, kx):
        assert abs(phase_velocity(kx)) * abs(kx) == pytest.approx(1.0, rel=4e-16)


class TestDecayDepth:
    def test_chi_of_one(self):
        assert decay_constant(math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_vanishes_at_large_kx(self):
        assert 1.0 / decay_constant(1e8) < 2e-8

    def test_running_has_none(self):
        with pytest.raises(ValueError, match="no decay depth"):
            decay_constant(0.9)

    def test_both_conventions_at_kx5(self):
        # direct evaluation: 1/(2*pi*sqrt(24)) and 1/sqrt(24) per lambda0;
        # the two readings of k0 (2*pi/lambda0 vs 1/lambda0) differ by 2*pi
        exact, reduced = decay_depth_conventions(5.0)
        assert exact == pytest.approx(0.0324874, rel=1e-5)
        assert reduced == pytest.approx(0.2041241, rel=1e-5)
        assert reduced / exact == pytest.approx(2.0 * math.pi, rel=1e-12)
