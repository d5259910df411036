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
    compton_wavenumber_ratio,
    stable_one_minus_inv_sqrt1p,
)


class TestConstants:
    def test_codata_values(self):
        assert HBAR == 1.054571817e-34
        assert C_LIGHT == 2.99792458e8
        assert ELECTRON_MASS == 9.1093837015e-31


class TestScaledUnits:
    def test_energy_unit(self):
        # hbar*c*k0 checked against an independent hand multiplication of
        # the CODATA factors: 1.054571817 * 2.99792458 = 3.161526772,
        # times 7.5 gives 23.71145079
        units = ScaledUnits(k0=7.5e6)
        assert units.eps0 == pytest.approx(2.371145079e-19, rel=1e-9, abs=0)

    def test_invalid_k0(self):
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ScaledUnits(k0=bad)

    def test_compton_ratio_for_macroscopic_screen(self):
        units = ScaledUnits(k0=7.5e6)
        km = compton_wavenumber_ratio(0.1, units)
        assert km == pytest.approx(3.790385e34, rel=1e-6)

    @pytest.mark.parametrize("mass, k0", [(1e300, 7.5e6), (ELECTRON_MASS, 1e-300), (1e-300, 1e300), (0.0, 7.5e6),
                                          (-1.0, 7.5e6), (math.nan, 7.5e6)])
    def test_compton_ratio_outside_float_range_refused(self, mass, k0):
        with pytest.raises(ValueError, match="not finite and positive"):
            compton_wavenumber_ratio(mass, ScaledUnits(k0=k0))


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

