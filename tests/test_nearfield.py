import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import simpson

import nearwave
from nearwave import aperture, nearfield, quadrature
from nearwave.aperture import GaussianProfile, SingleSlitProfile, TabulatedProfile
from nearwave.nearfield import (
    FieldSample,
    cw_fraction_profile,
    field_at,
    field_dx_at,
    field_grid,
    probability_current_x,
)
from nearwave.quadrature import adaptive_quad


def cosine_transform_oracle(profile, x, k_max, n=2**22 + 1):
    """Uniform-grid cosine-transform of the amplitude: 2*int_0^inf F cos(kx) dk.

    Composite Simpson on a dense grid, independent of the adaptive panel
    machinery used by the implementation.
    """
    k = np.linspace(0.0, k_max, n)
    return 2.0 * simpson(profile.amplitude(k) * np.cos(k * x), x=k)


class TestFieldAtZ0:
    def test_gaussian_against_closed_form(self):
        w = 1.3
        profile = GaussianProfile(w=w)
        for x in (0.0, 0.5, 2.0):
            got = field_at(x, 0.0, profile).psi_total
            want = 2.0 * math.sqrt(math.pi) / w * math.exp(-((x / w) ** 2))
            assert got.real == pytest.approx(want, rel=1e-10)
            assert abs(got.imag) < 1e-12

    def test_gaussian_against_grid_oracle(self):
        profile = GaussianProfile(w=1.3)
        for x in (0.0, 0.8):
            got = field_at(x, 0.0, profile).psi_total.real
            want = cosine_transform_oracle(profile, x, k_max=16.0, n=2**16 + 1)
            assert got == pytest.approx(want, rel=1e-8)

    def test_slit_against_grid_oracle(self):
        profile = SingleSlitProfile(a=1.0)
        for x in (0.0, 0.2, 0.35):
            got = field_at(x, 0.0, profile).psi_total.real
            want = cosine_transform_oracle(profile, x, k_max=1e5)
            assert got == pytest.approx(want, rel=1e-8)

    def test_slit_reconstructs_aperture_mode(self):
        # at the screen the superposition reproduces the slit mode itself:
        # 2*sqrt(pi/a)*cos(pi x/a) inside, zero outside
        a = 1.0
        profile = SingleSlitProfile(a=a)
        for x in (0.0, 0.2, 0.4):
            want = 2.0 * math.sqrt(math.pi / a) * math.cos(math.pi * x / a)
            got = field_at(x, 0.0, profile).psi_total
            assert got.real == pytest.approx(want, rel=1e-9)
        outside = field_at(1.7, 0.0, profile).psi_total
        assert abs(outside) < 1e-9

    def test_even_in_x(self):
        profile = SingleSlitProfile(a=1.0)
        for x, z in ((0.7, 0.0), (1.3, 0.6)):
            plus = field_at(x, z, profile)
            minus = field_at(-x, z, profile)
            assert plus.psi_rw == minus.psi_rw
            assert plus.psi_cw == minus.psi_cw

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            field_at(0.0, -0.1, SingleSlitProfile(a=1.0))


class TestFieldStructure:
    def test_linearity_in_amplitude(self):
        class Doubled(SingleSlitProfile):
            def amplitude(self, kx):
                return 2.0 * super().amplitude(kx)

            def field_tail(self, k_hi, xs, z):
                return tuple(2.0 * col for col in super().field_tail(k_hi, xs, z))

        base = field_at(0.7, 0.3, SingleSlitProfile(a=1.0)).psi_total
        twice = field_at(0.7, 0.3, Doubled(a=1.0)).psi_total
        assert twice == pytest.approx(2.0 * base, rel=1e-12)

    def test_cw_suppressed_with_height(self):
        profile = SingleSlitProfile(a=1.0)
        low = field_at(0.0, 0.1, profile)
        high = field_at(0.0, 5.0, profile)
        frac_low = abs(low.psi_cw) / abs(low.psi_total)
        frac_high = abs(high.psi_cw) / abs(high.psi_total)
        assert frac_high < frac_low

    def test_cw_envelope_bound(self):
        # |psi_cw| <= 2 * int_1^inf |F| e^{-chi z} dk
        profile = SingleSlitProfile(a=1.0)
        for x, z in ((0.0, 0.5), (1.5, 0.5), (0.3, 2.0)):
            sample = field_at(x, z, profile)

            def envelope(k):
                chi = np.sqrt((k - 1.0) * (k + 1.0))
                return np.abs(profile.amplitude(k)) * np.exp(-z * chi)

            # |cos| corners in |F| limit the attainable tolerance; a coarse
            # absolute target is ample for an upper bound
            bound = 2.0 * adaptive_quad(envelope, 1.0, 400.0, abs_tol=1e-9, rel_tol=1e-8).value
            assert abs(sample.psi_cw) <= bound * (1.0 + 1e-9)

    def test_far_field_cw_to_rw_ratio(self):
        # the evanescent set dies off only algebraically (like z^-3/2
        # relative to the running part) because decay constants extend
        # down to zero at the threshold; document the measured scaling
        profile = SingleSlitProfile(a=1.0)
        ratios = {}
        for z in (10.0, 50.0, 200.0):
            s = field_at(0.0, z, profile)
            ratios[z] = abs(s.psi_cw) / abs(s.psi_rw)
        assert ratios[50.0] < 3e-3
        assert ratios[50.0] / ratios[200.0] == pytest.approx(4.0**1.5, rel=0.15)
        assert ratios[10.0] / ratios[50.0] == pytest.approx(5.0**1.5, rel=0.15)

    def test_cw_fraction_profile(self):
        profile = SingleSlitProfile(a=1.0)
        scan = cw_fraction_profile(0.0, (0.0, 0.3, 3.0), profile)
        zs = [z for z, _ in scan]
        fracs = [f for _, f in scan]
        assert zs == [0.0, 0.3, 3.0]
        # entry at z = 0 equals the ratio from two direct field calls
        direct = field_at(0.0, 0.0, profile)
        assert fracs[0] == pytest.approx(
            abs(direct.psi_cw) ** 2 / abs(direct.psi_total) ** 2, rel=1e-12
        )
        assert fracs[2] < fracs[1]

    def test_cw_fraction_nan_where_total_cancels(self):
        # slit a=1 at x=0.6, z=0: the RW and CW parts (each ~0.671) cancel,
        # so the total is rounding noise and the fraction is undefined there
        profile = SingleSlitProfile(a=1.0)
        with pytest.warns(RuntimeWarning, match=r"x=0\.6, z=0\.0"):
            scan = cw_fraction_profile(0.6, [0.0, 0.5], profile)
        assert [z for z, _ in scan] == [0.0, 0.5]
        assert math.isnan(scan[0][1])
        assert 0.0 < scan[1][1] < 1.0

    def test_cw_fraction_grid_validation(self):
        profile = SingleSlitProfile(a=1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            cw_fraction_profile(0.0, (0.5, 0.5), profile)
        with pytest.raises(ValueError, match="non-negative"):
            cw_fraction_profile(0.0, (-1.0, 0.5), profile)


def tail_window(profile, k_lo, k_hi, xs, z):
    """Analytic psi and d(psi)/dx tails over the window [k_lo, k_hi], one entry per x of the row."""
    (psi_lo, dpsi_lo), (psi_hi, dpsi_hi) = (profile.field_tail(k, xs, z) for k in (k_lo, k_hi))
    return psi_lo - psi_hi, dpsi_lo - dpsi_hi


class TestSlitAnalyticTails:
    def test_tail_difference_matches_direct_integration(self):
        # tail(K) - tail(K3) equals the directly integrated window [K, K3],
        # with no truncation ambiguity on the oracle side; this pins the
        # exponential-integral continuation used beyond a*k = 1e4
        profile = SingleSlitProfile(a=1.0)
        k_lo, k_hi = 1e4, 3e5
        k = np.linspace(k_lo, k_hi, 2**22 + 1)
        chi = np.sqrt(k * k - 1.0)
        for xs, z in (((0.0, 0.5, 2.0), 0.0), ((0.2,), 1e-3)):
            ana = tail_window(profile, k_lo, k_hi, xs, z)[0]
            for x, got in zip(xs, ana):
                f = profile.amplitude(k) * np.exp(-z * chi) * np.cos(k * x)
                brute = 2.0 * simpson(f, x=k)
                assert got == pytest.approx(brute, abs=5e-14, rel=1e-7)

    def test_dx_tail_difference_matches_direct_integration(self):
        profile = SingleSlitProfile(a=1.0)
        k_lo, k_hi = 1e4, 3e5
        k = np.linspace(k_lo, k_hi, 2**22 + 1)
        xs = (0.3, 0.5, 2.0)
        ana = tail_window(profile, k_lo, k_hi, xs, 0.0)[1]
        for x, got in zip(xs, ana):
            f = profile.amplitude(k) * (-k * np.sin(k * x))
            brute = 2.0 * simpson(f, x=k)
            assert got == pytest.approx(brute, abs=5e-10, rel=1e-5)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    def test_tail_window_from_series_start_matches_direct_integration(self, a):
        # the series takes over at k_t = cutoff(); tail(k_t) - tail(4 k_t) must
        # equal the directly integrated window, for psi and d(psi)/dx alike
        profile = SingleSlitProfile(a=a)
        k_lo = 100.0 / min(a, math.pi)
        assert profile.cutoff() == k_lo
        k_hi = 4.0 * k_lo
        k = np.linspace(k_lo, k_hi, 2**20 + 1)
        amp = profile.amplitude(k)
        chi = np.sqrt((k - 1.0) * (k + 1.0))
        xs = (0.3 * a, 1.4 * a)
        for z in (0.0, 1e-3, 0.05, 0.3):
            weight = amp * np.exp(-z * chi)
            for x, ana, ana_dx in zip(xs, *tail_window(profile, k_lo, k_hi, xs, z)):
                psi = 2.0 * simpson(weight * np.cos(k * x), x=k)
                dpsi = 2.0 * simpson(weight * (-k * np.sin(k * x)), x=k)
                assert ana == pytest.approx(psi, abs=1e-16, rel=1e-12), (x, z)
                assert ana_dx == pytest.approx(dpsi, abs=1e-14, rel=1e-12), (x, z)

    @pytest.mark.parametrize("a", [0.5, math.pi, 50.0])
    def test_tail_series_converged_at_its_start(self, a, monkeypatch):
        # four more orders of the 1/k series move neither tail at k_t
        profile = SingleSlitProfile(a=a)
        k_t = profile.cutoff()
        xs = (0.0, 0.3 * a, 0.5 * a + 1e-3, 1.4 * a, 4.0 * a)
        zs = (0.0, 0.01, 0.2)
        base = [profile.field_tail(k_t, xs, z) for z in zs]
        monkeypatch.setattr(aperture, "_TAIL_ORDER", aperture._TAIL_ORDER + 4)
        for z, want in zip(zs, base):
            for name, got, v in zip(("psi", "dpsi"), profile.field_tail(k_t, xs, z), want):
                assert np.all(np.abs(got - v) <= 1e-16), (name, z)

    def test_one_series_per_row_and_one_table_per_edge(self, monkeypatch):
        # a z = 0 slit row of n points builds the tail series once and one
        # E_n table per point and edge, shared by psi and d(psi)/dx
        calls = {"series": 0, "tables": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(aperture, "_slit_tail_series", counted("series", aperture._slit_tail_series))
        monkeypatch.setattr(aperture, "_exp_integrals", counted("tables", aperture._exp_integrals))
        xs = [-1.3, -0.5, 0.0, 0.2, 0.7]
        field_grid(xs, 0.0, SingleSlitProfile(a=1.0))
        assert calls == {"series": 1, "tables": 2 * len(xs)}


def _peak_mb(call: str) -> float:
    """Peak RSS in MB of a fresh interpreter that runs ``call`` with numpy, the slit and field_grid imported.

    VmHWM, not ru_maxrss: the latter keeps the forking test process's own
    peak across exec.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("peak RSS is read from /proc/self/status")
    code = (
        "import numpy as np\n"
        "from nearwave.aperture import SingleSlitProfile\n"
        "from nearwave.nearfield import field_grid\n"
        f"{call}\n"
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
    )
    src = os.path.dirname(os.path.dirname(nearwave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=env, timeout=300)
    return int(proc.stdout) / 1024.0  # VmHWM is in kB


def _row_profiles():
    ks = np.linspace(0.0, 6.0, 61)
    return {
        "slit": SingleSlitProfile(a=1.0),
        "gaussian": GaussianProfile(w=1.3),
        "tabulated": TabulatedProfile(ks, np.exp(-0.3 * ks**2) * np.cos(np.pi * ks / 12.0) ** 2),
    }


def _bound(*parts):
    # each field value sums up to 3 integrals, each within
    # max(abs_tol / 2, rel_tol * |integral|); 4 is the safety factor the
    # field oracle uses
    return 4.0 * 3.0 * max(1e-12, 1e-10 * max(abs(p) for p in parts))


def _counting_quad(monkeypatch):
    """Patch nearfield's adaptive_quad to count its calls and record the size of every integrand result.

    A size is abscissas x components; a separable result (L, R) stands for
    L.shape[1] * R.shape[1] components.  Each entry of ``calls`` lists the
    component counts of its pass's integrand results.
    """
    calls, sizes = [], []

    def counted(f, *args, **kwargs):
        comps = []

        def recorded(t):
            out = f(t)
            left, right = out
            comps.append(left.shape[1] * right.shape[1])
            sizes.append(len(t) * comps[-1])
            return out

        calls.append(comps)
        return adaptive_quad(recorded, *args, **kwargs)

    monkeypatch.setattr(nearfield, "adaptive_quad", counted)
    return calls, sizes


def _cell(grid, i, j):
    """psi and d(psi)/dx at (grid.x[j], grid.z[i]), each as a FieldSample."""
    x, z = float(grid.x[j]), float(grid.z[i])
    return (FieldSample(x, z, complex(grid.psi_rw[i, j]), complex(grid.psi_cw[i, j])),
            FieldSample(x, z, complex(grid.dpsi_rw[i, j]), complex(grid.dpsi_cw[i, j])))


def _assert_matches(got, want):
    for part in ("psi_rw", "psi_cw"):
        bound = _bound(want.psi_rw, want.psi_cw, want.psi_total)
        assert abs(getattr(got, part) - getattr(want, part)) <= bound, (got, want)


def _assert_cell_matches_point(grid, i, j, profile):
    """Cell (i, j) of a grid agrees with a one-point grid at its (x, z)."""
    one = field_grid([grid.x[j]], [grid.z[i]], profile)
    for got, want in zip(_cell(grid, i, j), _cell(one, 0, 0)):
        _assert_matches(got, want)


def _assert_current_odd(grid, i):
    """J_x(-x) = -J_x(x) on row i of a grid over a symmetric x grid."""
    jx = grid.current_x[i]
    for j in range(len(grid.x)):
        psi, dpsi = _cell(grid, i, j)
        j_bound = (abs(dpsi.psi_total) * _bound(psi.psi_rw, psi.psi_cw, psi.psi_total)
                   + abs(psi.psi_total) * _bound(dpsi.psi_rw, dpsi.psi_cw, dpsi.psi_total))
        assert abs(jx[j] + jx[-1 - j]) <= 2.0 * j_bound, (psi.x, jx[j], jx[-1 - j])


class TestRowEngine:
    @pytest.mark.parametrize("n", [7, 21])
    @pytest.mark.parametrize("z", [0.0, 0.25, 3.0])
    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_row_is_three_passes_and_matches_each_point(self, monkeypatch, name, z, n):
        profile = _row_profiles()[name]
        calls, _ = _counting_quad(monkeypatch)
        xs = np.linspace(-4.0, 4.0, n)
        grid = field_grid(xs, z, profile)
        assert len(calls) == 3  # RW, the s-range and the k-range, whatever n is
        monkeypatch.undo()
        assert grid.psi_rw.shape == (1, n)
        for j in range(n):
            _assert_cell_matches_point(grid, 0, j, profile)
        _assert_current_odd(grid, 0)  # xs is symmetric

    def test_wide_row_peak_memory_is_bounded(self):
        # 101 points to |x| = 50 on the screen plane: one k-range pass with
        # 51 column pairs (one per distinct |x|) over ~530 panels,
        # evaluated in capped chunks
        assert _peak_mb("field_grid(np.linspace(-50.0, 50.0, 101), 0.0, SingleSlitProfile(a=1.0))") < 100.0


class TestGridEngine:
    # unsorted heights: z = 0 and 0.3 take the k-range (and the slit's
    # analytic tail); z = 60 ends at k = 1.5 on its own, so the k-range
    # pass leaves it out
    ZS = (0.3, 60.0, 0.0)
    XS = (-1.7, -0.4, -0.2, 0.0, 0.2, 0.4, 1.7)

    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_grid_is_three_passes_and_matches_each_point(self, monkeypatch, name):
        profile = _row_profiles()[name]
        calls, _ = _counting_quad(monkeypatch)
        grid = field_grid(self.XS, self.ZS, profile)
        assert len(calls) == 3  # RW, the s-range and the k-range, whatever the rows
        monkeypatch.undo()
        assert list(grid.z) == list(self.ZS) and list(grid.x) == list(self.XS)
        for name in ("psi_rw", "psi_cw", "dpsi_rw", "dpsi_cw", "current_x"):
            assert getattr(grid, name).shape == (len(self.ZS), len(self.XS)), name
        for i in range(len(self.ZS)):
            for j in range(len(self.XS)):
                _assert_cell_matches_point(grid, i, j, profile)
            _assert_current_odd(grid, i)

    def test_screen_row_meets_closed_form(self):
        # at z = 0 the slit superposition is the slit mode, 2 sqrt(pi/a) cos(pi x/a)
        # inside and zero outside, here on a row that shares its passes with z > 0
        a = 1.0
        grid = field_grid(self.XS, self.ZS, SingleSlitProfile(a=a))
        for j, x in enumerate(self.XS):
            psi, _ = _cell(grid, self.ZS.index(0.0), j)
            want = 2.0 * math.sqrt(math.pi / a) * math.cos(math.pi * x / a) if abs(x) < 0.5 * a else 0.0
            assert abs(psi.psi_total - want) <= _bound(psi.psi_rw, psi.psi_cw, want), (x, psi)

    def test_cw_fraction_scan_is_three_passes(self, monkeypatch):
        profile = SingleSlitProfile(a=1.0)
        zs = (0.0, 0.3, 1.0, 3.0, 60.0)
        calls, _ = _counting_quad(monkeypatch)
        scan = cw_fraction_profile(0.2, zs, profile)
        assert len(calls) == 3
        monkeypatch.undo()
        for (z, frac), want_z in zip(scan, zs):
            assert z == want_z
            s, _ = _cell(field_grid([0.2], [z], profile), 0, 0)
            cw, total = abs(s.psi_cw), abs(s.psi_total)
            delta = _bound(s.psi_rw, s.psi_cw, s.psi_total)
            # |psi_cw|^2/|psi_total|^2 moves by at most 2 f (delta/|psi_cw| + delta/|psi_total|), to first order
            assert abs(frac - cw**2 / total**2) <= 2.0 * frac * (delta / cw + delta / total), z

    @pytest.mark.parametrize("name", ["slit", "gaussian"])
    def test_point_queries_agree_with_a_wider_grid(self, monkeypatch, name):
        profile = _row_profiles()[name]
        zs = (0.0, 0.3, 60.0)
        grid = field_grid([-0.3, 0.3], zs, profile)
        calls, _ = _counting_quad(monkeypatch)
        scan = cw_fraction_profile(0.3, zs, profile)
        point = field_at(-0.3, 0.3, profile)
        assert len(calls) == 6
        monkeypatch.undo()
        for i, (z, frac) in enumerate(scan):
            s, _ = _cell(grid, i, 1)
            cw, total = abs(s.psi_cw), abs(s.psi_total)
            delta = _bound(s.psi_rw, s.psi_cw, s.psi_total)
            assert abs(frac - cw**2 / total**2) <= 2.0 * frac * (delta / cw + delta / total), z
        _assert_matches(point, _cell(grid, 1, 0)[0])

    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_point_queries_are_field_grid_cells(self, name):
        profile = _row_profiles()[name]
        x, zs = -0.2, [0.0, 0.3, 60.0]
        for z in zs:
            psi, dpsi = _cell(field_grid([x], [z], profile), 0, 0)
            assert field_at(x, z, profile) == psi
            assert field_dx_at(x, z, profile) == dpsi
            assert probability_current_x(x, z, profile) == field_grid(x, z, profile).current_x[0, 0]
        grid = field_grid([x], zs, profile)
        cells = [_cell(grid, i, 0)[0] for i in range(len(zs))]
        want = [(z, abs(s.psi_cw) ** 2 / abs(s.psi_total) ** 2) for z, s in zip(zs, cells)]
        assert cw_fraction_profile(x, zs, profile) == want

    def test_batches_keep_each_panel_within_the_element_cap(self, monkeypatch):
        # 500 distinct |x| leave room for 8 rows per pass, so 10 rows take
        # two batches of three passes
        profile = GaussianProfile(w=1.3)
        xs = np.linspace(-5.0, 5.0, 999)
        zs = np.linspace(0.0, 3.0, 10)
        calls, sizes = _counting_quad(monkeypatch)
        grid = field_grid(xs, zs, profile)
        assert len(calls) == 6
        assert max(sizes) <= quadrature._MAX_ELEMENTS
        monkeypatch.undo()
        for i, j in ((0, 0), (7, 499), (8, 730), (9, 998)):  # rows on both sides of the batch edge
            _assert_cell_matches_point(grid, i, j, profile)

    def test_wide_grid_calls_stay_within_the_element_cap(self, monkeypatch):
        # the 101 x by 40 z slit grid below: 51 column pairs per row, all
        # rows in one batch, chunked by abscissas x components
        calls, sizes = _counting_quad(monkeypatch)
        field_grid(np.linspace(-50.0, 50.0, 101), np.linspace(0.0, 1.0, 40), SingleSlitProfile(a=1.0))
        assert len(calls) == 3
        assert max(sizes) <= quadrature._MAX_ELEMENTS
        assert max(len(c) for c in calls) > 2  # a sweep was split into chunks

    @pytest.mark.parametrize("z_max", [100.0, 1.0])
    def test_wide_grid_peak_memory_is_bounded(self, z_max):
        # 101 x by 40 z of a slit: 51 column pairs per row, every row in one
        # batch and ~530 panels on the k-range, which carries the 11 rows
        # below z = 26.6 (z_max = 100) or all 40 (z_max = 1)
        assert _peak_mb(
            f"field_grid(np.linspace(-50.0, 50.0, 101), np.linspace(0.0, {z_max!r}, 40), SingleSlitProfile(a=1.0))"
        ) < 100.0


class TestProbabilityCurrent:
    def test_zero_on_axis(self):
        assert probability_current_x(0.0, 0.5, SingleSlitProfile(a=1.0)) == 0.0

    def test_odd_in_x(self):
        profile = SingleSlitProfile(a=1.0)
        jp = probability_current_x(1.5, 0.5, profile)
        jm = probability_current_x(-1.5, 0.5, profile)
        assert jm == pytest.approx(-jp, rel=1e-10)
        assert jp != 0.0

    def test_against_finite_difference(self):
        profile = SingleSlitProfile(a=1.0)
        x, z, h = 2.0, 0.5, 1e-4
        psi = field_at(x, z, profile).psi_total
        dnum = (field_at(x + h, z, profile).psi_total - field_at(x - h, z, profile).psi_total) / (2 * h)
        want = (psi.conjugate() * dnum).imag
        got = probability_current_x(x, z, profile)
        assert got == pytest.approx(want, rel=1e-5)
        assert got != 0.0

    def test_derivative_field_against_finite_difference(self):
        profile = SingleSlitProfile(a=1.0)
        x, z, h = 1.2, 0.8, 1e-4
        dana = field_dx_at(x, z, profile).psi_total
        dnum = (field_at(x + h, z, profile).psi_total - field_at(x - h, z, profile).psi_total) / (2 * h)
        assert dana == pytest.approx(dnum, rel=1e-6)

    def test_gaussian_profile_current(self):
        # works for profiles without analytic tails too
        profile = GaussianProfile(w=1.0)
        j = probability_current_x(1.0, 0.5, profile)
        assert math.isfinite(j)
        assert probability_current_x(0.0, 0.5, profile) == 0.0
