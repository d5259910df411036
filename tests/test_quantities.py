import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearwave.quantities import (
    C_LIGHT,
    ELECTRON_MASS,
    HBAR,
    ScaledUnits,
    complex_close,
    compton_wavenumber_ratio,
    stable_one_minus_inv_sqrt1p,
)


class TestConstants:
    def test_codata_values(self):
        assert HBAR == 1.054571817e-34
        assert C_LIGHT == 2.99792458e8
        assert ELECTRON_MASS == 9.1093837015e-31


class TestScaledUnits:
    def test_wavenumber_identity_scale(self):
        units = ScaledUnits(k0=7.5e6)
        assert units.to_si(1.0, "wavenumber") == 7.5e6

    def test_length_gives_wavelength(self):
        units = ScaledUnits(k0=7.5e6)
        lam = units.to_si(2.0 * math.pi, "length")
        assert lam == pytest.approx(8.3776e-7, rel=1e-4, abs=0)
        assert lam == units.lambda0

    def test_energy_unit(self):
        # hbar*c*k0 checked against an independent hand multiplication of
        # the CODATA factors: 1.054571817 * 2.99792458 = 3.161526772,
        # times 7.5 gives 23.71145079
        units = ScaledUnits(k0=7.5e6)
        assert units.to_si(1.0, "energy") == pytest.approx(2.371145079e-19, rel=1e-9, abs=0)

    def test_velocity_and_time(self):
        units = ScaledUnits(k0=2.0e6)
        assert units.to_si(0.5, "velocity") == 0.5 * C_LIGHT
        assert units.to_si(1.0, "time") == 1.0 / (C_LIGHT * 2.0e6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown quantity kind"):
            ScaledUnits(k0=1.0).to_si(1.0, "charge")

    def test_invalid_k0(self):
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ScaledUnits(k0=bad)

    @given(
        st.floats(min_value=1e-12, max_value=1e12),
        st.sampled_from(["wavenumber", "energy", "length", "time", "velocity"]),
    )
    def test_roundtrip_exact(self, value, kind):
        units = ScaledUnits(k0=7.5e6)
        back = units.from_si(units.to_si(value, kind), kind)
        assert abs(back - value) <= 2.0 * math.ulp(value)

    def test_compton_ratio_for_macroscopic_screen(self):
        units = ScaledUnits(k0=7.5e6)
        km = compton_wavenumber_ratio(0.1, units)
        assert km == pytest.approx(3.790385e34, rel=1e-6)


class TestStablePrimitive:
    def test_zero(self):
        assert stable_one_minus_inv_sqrt1p(0.0) == 0.0

    def test_exact_half(self):
        # 1 - 1/sqrt(4)
        assert stable_one_minus_inv_sqrt1p(3.0) == pytest.approx(0.5, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            stable_one_minus_inv_sqrt1p(-1e-9)

    @pytest.mark.parametrize("mu", [1e-30, 1e-25, 1e-18, 1e-12, 1e-6, 1.0, 1e3])
    def test_against_extended_precision(self, mu):
        # the naive form loses ~|log10 mu| digits to cancellation, so the
        # oracle needs working precision well past 30 + that loss
        with mpmath.workdps(80):
            want = float(1 - 1 / mpmath.sqrt(1 + mpmath.mpf(mu)))
        got = stable_one_minus_inv_sqrt1p(mu)
        assert got == pytest.approx(want, rel=4 * 2.22e-16, abs=0)

    @given(st.floats(min_value=1e-6, max_value=1e3))
    def test_overlap_with_naive_form(self, mu):
        naive = 1.0 - 1.0 / math.sqrt(1.0 + mu)
        stable = stable_one_minus_inv_sqrt1p(mu)
        assert stable == pytest.approx(naive, rel=1e-10)


class TestComplexClose:
    def test_tolerant_equality(self):
        assert complex_close(1.0 + 1e-13j, 1.0)
        assert not complex_close(1.0 + 1e-6j, 1.0)

    def test_absolute_floor(self):
        assert complex_close(0.0, 1e-20, abs_tol=1e-15)
