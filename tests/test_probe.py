import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from conftest import cli_record

from nearwave.probe import (
    GaussianPacket,
    absorption_probability,
    overlap_integral,
    packet_spread,
)
from nearwave.aperture import SingleSlitProfile
from nearwave.quantities import ELECTRON_MASS


def _quad_overlap(chi, sigma, z0):
    """Independent adaptive-quadrature route for the overlap integral.

    Integrated piecewise over explicit windows around the packet center and
    the exponential decay scale, so narrow spikes cannot be skipped.
    """
    w = 14.0 / sigma if sigma > 0 else math.inf
    decay_floor = max(0.0, z0 - w)  # exp(-chi z) peaks here within the packet window
    upper = min(z0 + w, decay_floor + 60.0 / chi)
    cuts = {0.0, decay_floor, z0, upper}
    cuts.update(decay_floor + j / chi for j in (1.0, 5.0, 20.0))
    cuts = sorted(c for c in cuts if 0.0 <= c <= upper)
    total = 0.0
    with warnings.catch_warnings():
        # roundoff-limited segments still return full-precision values here
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(cuts, cuts[1:]):
            if hi <= lo:
                continue
            val, _ = quad(
                lambda z: math.exp(-0.5 * (sigma * (z - z0)) ** 2 - chi * z),
                lo,
                hi,
                epsabs=0.0,
                epsrel=1e-13,
                limit=400,
            )
            total += val
    return total


class TestPacket:
    def test_sigma_definition(self):
        packet = GaussianPacket(z0=1.0, delta_z=0.5)
        assert packet.sigma * packet.delta_z == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPacket(z0=1.0, delta_z=0.0)
        with pytest.raises(ValueError):
            GaussianPacket(z0=-0.1, delta_z=1.0)


class TestOverlapIntegral:
    @pytest.mark.parametrize("sigma_ratio", [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3])
    @pytest.mark.parametrize("z0chi", [0.0, 1.0, 10.0, 50.0])
    def test_closed_form_vs_quadrature_box(self, sigma_ratio, z0chi):
        chi = math.sqrt(24.0)  # kx = 5
        sigma = sigma_ratio * chi
        z0 = z0chi / chi
        closed = overlap_integral(chi, sigma, z0)
        assert math.isfinite(closed) and closed > 0.0
        assert closed == pytest.approx(_quad_overlap(chi, sigma, z0), rel=1e-10, abs=0)

    def test_branch_switch_continuity(self):
        # the erfcx reflection takes over when the packet center passes the
        # decay depth (argument sign flip); the value must be continuous
        chi = 2.0
        for sigma in (0.5, 5.0, 50.0):
            z0_star = chi / (sigma * sigma)  # argument zero crossing
            below = overlap_integral(chi, sigma, z0_star * (1.0 - 1e-9))
            above = overlap_integral(chi, sigma, z0_star * (1.0 + 1e-9))
            assert below == pytest.approx(above, rel=1e-7, abs=0)

    def test_extreme_corner_against_mpmath(self):
        # overflow-prone corner: enormous sigma/chi with the packet far out
        chi, sigma, z0 = 2.0, 2.0e3, 25.0
        closed = overlap_integral(chi, sigma, z0)
        with mpmath.workdps(40):
            want = float(
                mpmath.quad(
                    lambda z: mpmath.exp(-mpmath.mpf(0.5) * (sigma * (z - z0)) ** 2 - chi * z),
                    [0, z0 - 12.0 / sigma, z0, z0 + 12.0 / sigma],
                )
            )
        assert closed == pytest.approx(want, rel=1e-10, abs=0)


    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 25.99, 26.0, 26.01, 1e3, 1e300])
    def test_erfcx_against_mpmath(self, x):
        # erfc with x^2 split exactly below 26, the Laplace continued fraction from 26 on
        from nearwave.probe import _erfcx

        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            if x > 1e5:  # mpmath's erfc overflows there; erfcx(x) = U(1/2, 1/2, x^2)/sqrt(pi)
                want = mpmath.hyperu(0.5, 0.5, xm * xm) / mpmath.sqrt(mpmath.pi)
            else:
                want = mpmath.exp(xm * xm) * mpmath.erfc(xm)
            assert _erfcx(x) == pytest.approx(float(want), rel=1e-15, abs=0)

class TestAbsorptionProbability:
    def test_worked_point_against_quadrature(self):
        profile = SingleSlitProfile(a=1.0)
        packet = GaussianPacket(z0=1.0, delta_z=0.5)
        chi = math.sqrt(24.0)
        p, _ = absorption_probability(5.0, packet, profile.amplitude(5.0))
        i_quad = _quad_overlap(chi, packet.sigma, packet.z0)
        want = profile.amplitude(5.0) ** 2 * i_quad * i_quad
        assert p == pytest.approx(want, rel=1e-10, abs=0)

    def test_rejects_running_modes(self):
        profile = SingleSlitProfile(a=1.0)
        packet = GaussianPacket(z0=1.0, delta_z=0.5)
        with pytest.raises(ValueError, match="not an evanescent mode"):
            absorption_probability(0.8, packet, profile.amplitude(0.8))

    def test_monotone_in_z0(self):
        profile = SingleSlitProfile(a=1.0)
        vals = [
            absorption_probability(5.0, GaussianPacket(z0=z0, delta_z=0.5), profile.amplitude(5.0))[0]
            for z0 in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_vanishes_at_deep_evanescence(self):
        profile = SingleSlitProfile(a=1.0)
        packet = GaussianPacket(z0=1.0, delta_z=0.5)
        assert absorption_probability(200.0, packet, profile.amplitude(200.0))[0] < 1e-12

    def test_zero_width_limit_and_convergence(self):
        # the sigma -> 0 value approaches |F|^2/chi^2 regardless of z0;
        # the deviation is bounded by C * sigma/chi (the observed decay is
        # in fact quadratic, which satisfies the linear envelope)
        profile = SingleSlitProfile(a=1.0)
        kx = 5.0
        chi = math.sqrt(24.0)
        devs = []
        ratios = (1e-2, 1e-3, 1e-4)
        for r in ratios:
            sigma = r * chi
            packet = GaussianPacket(z0=0.5, delta_z=1.0 / (math.sqrt(2.0) * sigma))
            p, lim = absorption_probability(kx, packet, profile.amplitude(kx))
            devs.append(abs(p - lim) / lim)
        big_c = max(dev / r for dev, r in zip(devs, ratios))
        assert all(dev <= big_c * r * 1.0001 for dev, r in zip(devs, ratios))
        assert devs[0] > devs[1] > devs[2]
        packet = GaussianPacket(z0=0.0, delta_z=1.0 / (math.sqrt(2.0) * 1e-7 * chi))
        p, lim = absorption_probability(kx, packet, profile.amplitude(kx))
        assert p == pytest.approx(lim, rel=1e-6)


class TestHighKxLimit:
    def test_slit_value_at_kx5(self):
        profile = SingleSlitProfile(a=1.0)
        _, per_chi = absorption_probability(5.0, GaussianPacket(z0=1.0, delta_z=0.5), profile.amplitude(5.0))
        assert per_chi == pytest.approx(profile.amplitude(5.0) ** 2 / 24.0, rel=1e-14, abs=0)

    def test_cross_check_via_tiny_sigma(self):
        profile = SingleSlitProfile(a=1.0)
        packet = GaussianPacket(z0=0.0, delta_z=1.0 / (math.sqrt(2.0) * 1e-8))
        p, per_chi = absorption_probability(5.0, packet, profile.amplitude(5.0))
        assert p == pytest.approx(per_chi, rel=1e-6)


class TestPacketSpread:
    def test_identity_at_t0(self):
        assert packet_spread(1e-7, 0.0, ELECTRON_MASS) == 1e-7

    def test_electron_flight_ratio(self):
        # 0.1 m at 1e-3 c gives t = 3.3356e-7 s; the ratio lands near 1.9e3
        t = 0.1 / (1e-3 * 2.99792458e8)
        assert t == pytest.approx(3.3356e-7, rel=1e-4)
        ratio = packet_spread(1e-7, t, ELECTRON_MASS) / 1e-7
        assert ratio == pytest.approx(1.93e3, rel=1e-2)

    def test_quadrupled_width_scaling(self):
        # the large-t ratio goes like 1/delta_z^2
        t = 1e-3
        r1 = packet_spread(1e-7, t, ELECTRON_MASS) / 1e-7
        r4 = packet_spread(4e-7, t, ELECTRON_MASS) / 4e-7
        assert r1 / r4 == pytest.approx(16.0, rel=1e-5)

    def test_monotone_and_asymptotically_linear(self):
        dz, m = 1e-7, ELECTRON_MASS
        ts = np.geomspace(1e-9, 1e-3, 7)
        vals = [packet_spread(dz, t, m) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        t = 1.0
        linear = 1.054571817e-34 * t / (2.0 * m * dz)
        assert packet_spread(dz, t, m) == pytest.approx(linear, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            packet_spread(0.0, 1.0, ELECTRON_MASS)
        with pytest.raises(ValueError):
            packet_spread(1e-7, -1.0, ELECTRON_MASS)
        with pytest.raises(ValueError):
            packet_spread(1e-7, 1.0, 0.0)


class TestSpreadScenario:
    def test_report_values(self):
        rep = cli_record("scenario-probe-spread")  # bundled: reference spread ratio 1500
        out = rep["outputs"]
        assert out["time_of_flight_s"] == pytest.approx(3.33564e-7, rel=1e-5)
        assert out["decay_depth_exact_per_lambda0"] == pytest.approx(0.0324874, rel=1e-5)
        assert out["decay_depth_reduced_per_lambda0"] == pytest.approx(0.2041241, rel=1e-5)
        assert 1.5e3 <= out["spread_ratio"] <= 2.0e3
        assert out["spread_exceeds_three_orders"] is True
        assert out["reference_relative_deviation"] <= 0.25
        # reduced-convention depth reading matches the prepared 1e-7 m packet
        assert out["decay_depth_reduced_si"] == pytest.approx(1.0206e-7, rel=1e-4)

    def test_spread_at_exact_depth_is_larger(self):
        out = cli_record("scenario-probe-spread")["outputs"]
        assert out["spread_ratio_at_exact_depth"] > out["spread_ratio_at_reduced_depth"] > 1e3
