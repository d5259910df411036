import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearwave.errors import DegenerateInputError
from nearwave.kinematics import evanescence_transfer, selection_residual

_ratio = st.floats(min_value=1e-3, max_value=1e3)
_signed_ratio = st.one_of(_ratio, _ratio.map(lambda v: -v))


class TestSelectedMode:
    def test_equal_wavenumbers(self):
        assert evanescence_transfer(1.0, 1.0).kx_selected == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_half_compton(self):
        k = 1.0
        assert evanescence_transfer(k / 2.0, k).kx_selected == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_ultrarelativistic_limit(self):
        assert evanescence_transfer(1e9, 1.0).kx_selected == pytest.approx(1.0, rel=1e-12)
        # still strictly evanescent wherever the excess is representable
        assert evanescence_transfer(1e6, 1.0).kx_selected > 1.0

    def test_sign_follows_probe(self):
        assert evanescence_transfer(-2.0, 1.0).kx_selected < 0
        assert evanescence_transfer(2.0, 1.0).kx_selected > 0

    def test_rest_probe_degenerate(self):
        with pytest.raises(DegenerateInputError):
            evanescence_transfer(0.0, 1.0)

    @given(_signed_ratio, _ratio)
    def test_always_evanescent(self, K0, K_mu):
        assert abs(evanescence_transfer(K0, K_mu).kx_selected) > 1.0

    @given(_signed_ratio, _ratio)
    def test_selection_residual_small(self, K0, K_mu):
        kx = evanescence_transfer(K0, K_mu).kx_selected
        scale = max(1.0, kx * kx, K0 * K0 + K_mu * K_mu)
        assert abs(selection_residual(K0, K_mu, kx)) <= 1e-12 * scale


class TestTransferredKz:
    def test_unit_ratio(self):
        assert evanescence_transfer(1.0, 1.0).kz_transferred == 1j

    def test_half_ratio(self):
        assert evanescence_transfer(2.0, 1.0).kz_transferred == 0.5j

    def test_purely_imaginary_positive(self):
        kz = evanescence_transfer(-3.0, 2.0).kz_transferred
        assert kz.real == 0.0 and kz.imag > 0

    @given(_signed_ratio, _ratio)
    def test_mode_dispersion_closes(self, K0, K_mu):
        rec = evanescence_transfer(K0, K_mu)
        kx, kz = rec.kx_selected, rec.kz_transferred
        assert abs(kz * kz + kx * kx - 1.0) <= 1e-12 * max(1.0, kx * kx)


class TestPostAbsorptionState:
    def test_equal_wavenumber_composition(self):
        state = evanescence_transfer(1.0, 1.0).final_state
        assert state.Kx == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
        assert state.Kz == pytest.approx(1j, rel=1e-15)
        assert state.omega == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-15)

    @given(_signed_ratio, _ratio)
    def test_on_shell_after_absorption(self, K0, K_mu):
        state = evanescence_transfer(K0, K_mu).final_state
        # the residual cancels Kx^2 against -Kz^2, both near (K_mu/K0)^2 for a slow probe
        # (K0 = 0.001, K_mu = 3: omega^2 = 16, Kx^2 = 9e6, residual one ulp of Kx^2)
        scale = max(1.0, state.omega**2, state.Kx**2, abs(state.Kz) ** 2)
        assert state.on_shell_residual() <= 1e-12 * scale

    @given(_signed_ratio, _ratio)
    def test_probe_never_turns_back(self, K0, K_mu):
        state = evanescence_transfer(K0, K_mu).final_state
        assert math.copysign(1.0, state.Kx) == math.copysign(1.0, K0)
        assert abs(state.Kx) > abs(K0)

    def test_compton_sweep_residuals(self):
        # mass from far below to far above the photon scale
        for K_mu in (1e-3, 1e-1, 1.0, 10.0, 1e3):
            state = evanescence_transfer(0.7, K_mu).final_state
            assert state.on_shell_residual() <= 1e-12 * max(1.0, state.omega**2)


class TestExitMomentum:
    def test_massless_formal_limit(self):
        assert evanescence_transfer(3.0, 1e-300).ff_momentum_magnitude == pytest.approx(4.0, rel=1e-12)

    def test_unit_case_both_forms(self):
        want = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
        assert evanescence_transfer(1.0, 1.0).ff_momentum_magnitude == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(2.1974, rel=1e-4)

    def test_kx_independent_reconstruction(self):
        # recompute from the complex intermediate state's energy and mass:
        # K = sqrt(omega^2 - K_mu^2) must agree without referencing kx
        for K0, K_mu in ((1.0, 1.0), (0.3, 2.0), (-5.0, 0.4)):
            rec = evanescence_transfer(K0, K_mu)
            recon = math.sqrt(rec.final_state.omega**2 - rec.final_state.K_mu**2)
            assert rec.ff_momentum_magnitude == pytest.approx(recon, rel=1e-12)

    @given(_signed_ratio, _ratio)
    def test_forms_agree_across_sweep(self, K0, K_mu):
        s = math.hypot(K0, K_mu)
        shell = math.sqrt((s + 1.0) ** 2 - K_mu * K_mu)
        expanded = math.sqrt(K0 * K0 + 2.0 * s + 1.0)
        assert abs(shell - expanded) <= 1e-12 * max(expanded, (s + 1.0) ** 2 / expanded)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            evanescence_transfer(0.0, 1.0)


class TestTransferRecord:
    def test_full_record_coherent(self):
        rec = evanescence_transfer(0.5, 2.0)
        assert rec.kx_selected == pytest.approx(math.sqrt(1.0 + (2.0 / 0.5) ** 2), rel=0)
        assert rec.final_state.Kx == 0.5 + rec.kx_selected
        assert rec.ff_momentum_magnitude > abs(rec.final_state.K_mu) * 0
        # energy conservation by construction: omega = omega0 + 1
        assert rec.final_state.omega == math.hypot(0.5, 2.0) + 1.0
