import math
import os
import subprocess
import sys
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from conftest import current_x, psi_total

import nearwave
from nearwave import aperture, nearfield, quadrature
from nearwave.aperture import GaussianProfile, SingleSlitProfile, TabulatedProfile
from nearwave.nearfield import field_grid
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
            got = psi_total(field_grid(x, 0.0, profile))[0, 0]
            want = 2.0 * math.sqrt(math.pi) / w * math.exp(-((x / w) ** 2))
            assert got.real == pytest.approx(want, rel=1e-10)
            assert abs(got.imag) < 1e-12

    def test_gaussian_against_grid_oracle(self):
        profile = GaussianProfile(w=1.3)
        for x in (0.0, 0.8):
            got = psi_total(field_grid(x, 0.0, profile))[0, 0].real
            want = cosine_transform_oracle(profile, x, k_max=16.0, n=2**16 + 1)
            assert got == pytest.approx(want, rel=1e-8)

    def test_slit_against_grid_oracle(self):
        profile = SingleSlitProfile(a=1.0)
        for x in (0.0, 0.2, 0.35):
            got = psi_total(field_grid(x, 0.0, profile))[0, 0].real
            want = cosine_transform_oracle(profile, x, k_max=1e5)
            assert got == pytest.approx(want, rel=1e-8)

    def test_slit_reconstructs_aperture_mode(self):
        # at the screen the superposition reproduces the slit mode itself:
        # 2*sqrt(pi/a)*cos(pi x/a) inside, zero outside
        a = 1.0
        profile = SingleSlitProfile(a=a)
        for x in (0.0, 0.2, 0.4):
            want = 2.0 * math.sqrt(math.pi / a) * math.cos(math.pi * x / a)
            got = psi_total(field_grid(x, 0.0, profile))[0, 0]
            assert got.real == pytest.approx(want, rel=1e-9)
        outside = psi_total(field_grid(1.7, 0.0, profile))[0, 0]
        assert abs(outside) < 1e-9

    def test_even_in_x(self):
        profile = SingleSlitProfile(a=1.0)
        for x, z in ((0.7, 0.0), (1.3, 0.6)):
            plus = field_grid(x, z, profile)
            minus = field_grid(-x, z, profile)
            assert plus.psi_rw[0, 0] == minus.psi_rw[0, 0]
            assert plus.psi_cw[0, 0] == minus.psi_cw[0, 0]

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            field_grid(0.0, -0.1, SingleSlitProfile(a=1.0))


class TestFieldStructure:
    def test_linearity_in_amplitude(self):
        class Doubled(SingleSlitProfile):
            def amplitude(self, kx):
                return 2.0 * super().amplitude(kx)

            def field_tail(self, k_hi, xs, z):
                return tuple(2.0 * col for col in super().field_tail(k_hi, xs, z))

        base = psi_total(field_grid(0.7, 0.3, SingleSlitProfile(a=1.0)))[0, 0]
        twice = psi_total(field_grid(0.7, 0.3, Doubled(a=1.0)))[0, 0]
        assert twice == pytest.approx(2.0 * base, rel=1e-12)

    def test_cw_suppressed_with_height(self):
        profile = SingleSlitProfile(a=1.0)
        low, _ = _cell(field_grid(0.0, 0.1, profile), 0, 0)
        high, _ = _cell(field_grid(0.0, 5.0, profile), 0, 0)
        frac_low = abs(low.psi_cw) / abs(low.psi_total)
        frac_high = abs(high.psi_cw) / abs(high.psi_total)
        assert frac_high < frac_low

    def test_cw_envelope_bound(self):
        # |psi_cw| <= 2 * int_1^inf |F| e^{-chi z} dk
        profile = SingleSlitProfile(a=1.0)
        for x, z in ((0.0, 0.5), (1.5, 0.5), (0.3, 2.0)):
            psi_cw = field_grid(x, z, profile).psi_cw[0, 0]

            def envelope(k):
                chi = np.sqrt((k - 1.0) * (k + 1.0))
                return np.abs(profile.amplitude(k)) * np.exp(-z * chi)

            # |cos| corners in |F| limit the attainable tolerance; a coarse
            # absolute target is ample for an upper bound, and field_grid keeps its own
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quadrature, "_ABS_TOL", 1e-9)
                mp.setattr(quadrature, "_REL_TOL", 1e-8)
                bound = 2.0 * adaptive_quad(lambda k: (envelope(k)[None], np.ones((1, len(k)))), 1.0, 400.0,
                                            breakpoints=(), components=1).value[0]
            assert abs(psi_cw) <= bound * (1.0 + 1e-9)

    def test_far_field_cw_to_rw_ratio(self):
        # the evanescent set dies off only algebraically (like z^-3/2
        # relative to the running part) because decay constants extend
        # down to zero at the threshold; document the measured scaling
        profile = SingleSlitProfile(a=1.0)
        ratios = {}
        for z in (10.0, 50.0, 200.0):
            g = field_grid(0.0, z, profile)
            ratios[z] = abs(g.psi_cw[0, 0]) / abs(g.psi_rw[0, 0])
        assert ratios[50.0] < 3e-3
        assert ratios[50.0] / ratios[200.0] == pytest.approx(4.0**1.5, rel=0.15)
        assert ratios[10.0] / ratios[50.0] == pytest.approx(5.0**1.5, rel=0.15)

    def test_cw_fraction_profile(self):
        # the evanescent intensity fraction |psi_cw|^2/|psi_total|^2 along z
        profile = SingleSlitProfile(a=1.0)
        grid = field_grid(0.0, [0.0, 0.3, 3.0], profile)
        assert grid.psi_rw.shape == (3, 1)
        fracs = _cw_fractions(grid)
        # entry at z = 0 equals the ratio from a direct field call
        direct, _ = _cell(field_grid(0.0, 0.0, profile), 0, 0)
        assert fracs[0] == pytest.approx(
            abs(direct.psi_cw) ** 2 / abs(direct.psi_total) ** 2, rel=1e-12
        )
        assert fracs[2] < fracs[1]

    def test_cw_fraction_nan_where_total_cancels(self):
        # slit a=1 at x=0.6, z=0: the RW and CW parts (each ~0.671) cancel,
        # so the total is within abs_tol of zero and the fraction is undefined there
        profile = SingleSlitProfile(a=1.0)
        grid = field_grid(0.6, [0.0, 0.5], profile)
        assert grid.psi_rw.shape == (2, 1)
        (screen, _), (above, _) = _cell(grid, 0, 0), _cell(grid, 1, 0)
        assert abs(screen.psi_total) <= 1e-12
        assert abs(screen.psi_rw) == pytest.approx(0.671, abs=1e-3)
        assert abs(screen.psi_cw) == pytest.approx(0.671, abs=1e-3)
        assert 0.0 < abs(above.psi_cw) ** 2 / abs(above.psi_total) ** 2 < 1.0


def tail_window(profile, k_lo, k_hi, xs, z):
    """Analytic psi and d(psi)/dx tails over the window [k_lo, k_hi], one entry per x of the row."""
    (psi_lo, dpsi_lo), (psi_hi, dpsi_hi) = (profile.field_tail(k, xs, z) for k in (k_lo, k_hi))
    return psi_lo - psi_hi, dpsi_lo - dpsi_hi


class TestSlitAnalyticTails:
    def test_tail_difference_matches_direct_integration(self):
        # tail(K) - tail(K3) equals the directly integrated window [K, K3],
        # with no truncation ambiguity on the oracle side; this pins the
        # exponential-integral continuation used beyond k = 100/min(a, pi).
        # z = 1e-6 keeps the windows (1e-8 to 3.3e-4) far above the abs bound
        profile = SingleSlitProfile(a=1.0)
        k_lo, k_hi = 1e4, 3e5
        k = np.linspace(k_lo, k_hi, 2**22 + 1)
        chi = np.sqrt(k * k - 1.0)
        for xs, z in (((0.0, 0.5, 2.0), 1e-6), ((0.2,), 1e-6)):
            ana = tail_window(profile, k_lo, k_hi, xs, z)[0]
            for x, got in zip(xs, ana):
                f = profile.amplitude(k) * np.exp(-z * chi) * np.cos(k * x)
                brute = 2.0 * simpson(f, x=k)
                assert got == pytest.approx(brute, abs=5e-14, rel=1e-7)

    def test_dx_tail_difference_matches_direct_integration(self):
        profile = SingleSlitProfile(a=1.0)
        k_lo, k_hi = 1e4, 3e5
        k = np.linspace(k_lo, k_hi, 2**22 + 1)
        # at z = 1e-6 the windows (6.7e-6 to 1.6e-3) stay far above the abs bound
        xs, z = (0.3, 0.5, 2.0), 1e-6
        weight = profile.amplitude(k) * np.exp(-z * np.sqrt(k * k - 1.0))
        ana = tail_window(profile, k_lo, k_hi, xs, z)[1]
        for x, got in zip(xs, ana):
            f = weight * (-k * np.sin(k * x))
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
        for z in (1e-3, 0.05, 0.3):
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
        zs = (1e-3, 0.01, 0.2)
        base = [profile.field_tail(k_t, xs, z) for z in zs]
        monkeypatch.setattr(aperture, "_TAIL_ORDER", aperture._TAIL_ORDER + 4)
        for z, want in zip(zs, base):
            for name, got, v in zip(("psi", "dpsi"), profile.field_tail(k_t, xs, z), want):
                assert np.all(np.abs(got - v) <= 1e-16), (name, z)

    def test_one_series_per_row_and_one_table_per_edge(self, monkeypatch):
        # a slit row of n points at z = 1e-3, where the panels still end at
        # k = 100/min(a, pi), builds the tail series once and one E_n table
        # per point and edge, shared by psi and d(psi)/dx
        calls = {"series": 0, "tables": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(aperture, "_slit_tail_series", counted("series", aperture._slit_tail_series))
        monkeypatch.setattr(aperture, "_exp_integrals", counted("tables", aperture._exp_integrals))
        xs = [-1.3, -0.5, 0.0, 0.2, 0.7]
        field_grid(xs, 1e-3, SingleSlitProfile(a=1.0))
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
    # the benchmark's field-oracle bound: up to 3 integrals, each within
    # max(abs_tol / 2, rel_tol * |integral|), times its safety factor 4;
    # one quadrature run now gives every part, so the bound has room
    return 4.0 * 3.0 * max(1e-12, 1e-10 * max(abs(p) for p in parts))


def _counting_quad(monkeypatch):
    """Patch nearfield's adaptive_quad to count its calls and record the size of every integrand result.

    A size is abscissas x components; a separable result (L, R) of (a, n)
    and (b, n) factors stands for a * b components.  Each entry of
    ``calls`` lists the component counts of its run's integrand results.
    """
    calls, sizes = [], []

    def counted(f, *args, **kwargs):
        comps = []

        def recorded(t):
            out = f(t)
            left, right = out
            comps.append(len(left) * len(right))
            sizes.append(len(t) * comps[-1])
            return out

        calls.append(comps)
        return adaptive_quad(recorded, *args, **kwargs)

    monkeypatch.setattr(nearfield, "adaptive_quad", counted)
    return calls, sizes


def _counting_blocks_and_gemms(monkeypatch):
    """Patch quadrature to record the panels x components of every block it evaluates and, per
    ``_separable_sums`` call, the m*n*k of each matmul it makes (one gemm per panel each)."""
    blocks, gemms = [], []
    estimates, sums = quadrature._panel_estimates, quadrature._separable_sums

    def counted(f, lo, hi, components):
        blocks.append(len(lo) * components)
        return estimates(f, lo, hi, components)

    def counted_sums(left, right, out):
        gemms.append([])
        return sums(left, right, out)

    class CountingNumpy:  # numpy, as quadrature sees it, with its matmul counted
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(x, y, **kwargs):
            gemms[-1].append(x.shape[-2] * x.shape[-1] * y.shape[-1])
            return np.matmul(x, y, **kwargs)

    monkeypatch.setattr(quadrature, "_panel_estimates", counted)
    monkeypatch.setattr(quadrature, "_separable_sums", counted_sums)
    monkeypatch.setattr(quadrature, "np", CountingNumpy())
    return blocks, gemms


def _pop_screen_run(calls, n_u: int):
    """Remove a slit grid's screen run from ``calls``: the first run, 2 components per distinct |x| in each result."""
    screen = calls.pop(0)
    assert set(screen) == {2 * n_u}, screen


class Parts(NamedTuple):
    """RW and CW parts of psi, or of d(psi)/dx, at one point."""

    psi_rw: complex
    psi_cw: complex

    @property
    def psi_total(self) -> complex:
        return self.psi_rw + self.psi_cw


def _cell(grid, i, j):
    """psi and d(psi)/dx in row i, column j of a grid, each as Parts."""
    return (Parts(complex(grid.psi_rw[i, j]), complex(grid.psi_cw[i, j])),
            Parts(complex(grid.dpsi_rw[i, j]), complex(grid.dpsi_cw[i, j])))


def _cw_fractions(grid):
    """|psi_cw|^2/|psi_total|^2 down the first column of a grid, one entry per z."""
    return [abs(cw) ** 2 / abs(rw + cw) ** 2 for rw, cw in zip(grid.psi_rw[:, 0].tolist(), grid.psi_cw[:, 0].tolist())]


def _assert_matches(got, want):
    for part in ("psi_rw", "psi_cw"):
        bound = _bound(want.psi_rw, want.psi_cw, want.psi_total)
        assert abs(getattr(got, part) - getattr(want, part)) <= bound, (got, want)


def _assert_cell_matches_point(grid, xs, zs, i, j, profile):
    """Cell (i, j) of a grid over xs and zs agrees with a one-point grid at its (x, z)."""
    one = field_grid([xs[j]], [zs[i]], profile)
    for got, want in zip(_cell(grid, i, j), _cell(one, 0, 0)):
        _assert_matches(got, want)


def _assert_current_odd(grid, i):
    """J_x(-x) = -J_x(x) on row i of a grid over a symmetric x grid."""
    jx = current_x(grid)[i]
    for j in range(len(jx)):
        psi, dpsi = _cell(grid, i, j)
        j_bound = (abs(dpsi.psi_total) * _bound(psi.psi_rw, psi.psi_cw, psi.psi_total)
                   + abs(psi.psi_total) * _bound(dpsi.psi_rw, dpsi.psi_cw, dpsi.psi_total))
        assert abs(jx[j] + jx[-1 - j]) <= 2.0 * j_bound, (j, jx[j], jx[-1 - j])


class TestRowEngine:
    @pytest.mark.parametrize("n", [7, 21])
    @pytest.mark.parametrize("z", [0.0, 0.25, 3.0])
    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_row_is_three_passes_and_matches_each_point(self, monkeypatch, name, z, n):
        profile = _row_profiles()[name]
        calls, _ = _counting_quad(monkeypatch)
        xs = np.linspace(-4.0, 4.0, n)
        grid = field_grid(xs, z, profile)
        # the slit's screen run at z = 0, else one quadrature per side of t = 0, whatever n is
        assert len(calls) == (1 if name == "slit" and z == 0.0 else 2)
        if name == "tabulated":  # seeded at its knots, each run converges in one sweep, one integrand call
            assert [len(c) for c in calls] == [1, 1]
        monkeypatch.undo()
        assert grid.psi_rw.shape == (1, n)
        for j in range(n):
            _assert_cell_matches_point(grid, xs, [z], 0, j, profile)
        _assert_current_odd(grid, 0)  # xs is symmetric

    def test_wide_row_peak_memory_is_bounded(self):
        # 101 points to |x| = 50 at z = 1e-3, where the panels still end at
        # k = 100: one k-range pass with 51 column pairs (one per distinct
        # |x|) over ~530 panels, evaluated in capped chunks
        assert _peak_mb("field_grid(np.linspace(-50.0, 50.0, 101), 1e-3, SingleSlitProfile(a=1.0))") < 100.0


class TestGridEngine:
    # unsorted heights: z = 0 and 0.3 run to k_hi (and z = 0.3 takes the
    # slit's analytic tail; the slit's z = 0 row runs on its own over the RW
    # range); z = 60 ends at k = 1.5 on its own and carries less than e^-46
    # beyond
    ZS = (0.3, 60.0, 0.0)
    XS = (-1.7, -0.4, -0.2, 0.0, 0.2, 0.4, 1.7)

    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_grid_is_three_passes_and_matches_each_point(self, monkeypatch, name):
        profile = _row_profiles()[name]
        calls, _ = _counting_quad(monkeypatch)
        grid = field_grid(self.XS, self.ZS, profile)
        if name == "slit":
            _pop_screen_run(calls, n_u=4)
        assert len(calls) == 2  # one quadrature per side of t = 0, the RW and CW ranges, whatever the rows
        if name == "tabulated":  # seeded at its knots, each run converges in one sweep, one integrand call
            assert [len(c) for c in calls] == [1, 1]
        monkeypatch.undo()
        assert nearfield.FieldGrid._fields == ("psi_rw", "psi_cw", "dpsi_rw", "dpsi_cw")
        for part in (*grid, current_x(grid)):
            assert part.shape == (len(self.ZS), len(self.XS))
        for i in range(len(self.ZS)):
            for j in range(len(self.XS)):
                _assert_cell_matches_point(grid, self.XS, self.ZS, i, j, profile)
            _assert_current_odd(grid, i)

    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_no_left_row_is_zero_on_every_abscissa(self, monkeypatch, name):
        # each run integrates its own side of t = 0, so every row of its left
        # factor carries weight; one K31 panel per integrand call shows it
        # panel by panel
        monkeypatch.setattr(quadrature, "_MAX_ELEMENTS", 1)
        lefts = []

        def recorded(f, *args, **kwargs):
            def g(t):
                left, right = f(t)
                lefts.append(left)
                return left, right
            return adaptive_quad(g, *args, **kwargs)

        monkeypatch.setattr(nearfield, "adaptive_quad", recorded)
        field_grid(self.XS, (0.3, 2.0), _row_profiles()[name])
        assert len(lefts) > 2  # panels on both sides of t = 0
        assert all(np.any(left != 0.0, axis=1).all() for left in lefts)

    def test_screen_row_meets_closed_form(self):
        # at z = 0 the slit superposition is the slit mode, 2 sqrt(pi/a) cos(pi x/a)
        # inside and zero outside, here on a row that shares its run with z > 0
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
        scan = field_grid(0.2, zs, profile)
        _pop_screen_run(calls, n_u=1)
        assert len(calls) == 2
        monkeypatch.undo()
        assert scan.psi_rw.shape == (len(zs), 1)
        for z, frac in zip(zs, _cw_fractions(scan)):
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
        scan = field_grid(0.3, zs, profile)
        if name == "slit":
            _pop_screen_run(calls, n_u=1)
        point, _ = _cell(field_grid(-0.3, 0.3, profile), 0, 0)
        assert len(calls) == 4  # a run per side of t = 0 for the scan's z > 0 rows and for the point
        monkeypatch.undo()
        for i, (z, frac) in enumerate(zip(zs, _cw_fractions(scan))):
            s, _ = _cell(grid, i, 1)
            cw, total = abs(s.psi_cw), abs(s.psi_total)
            delta = _bound(s.psi_rw, s.psi_cw, s.psi_total)
            assert abs(frac - cw**2 / total**2) <= 2.0 * frac * (delta / cw + delta / total), z
        _assert_matches(point, _cell(grid, 1, 0)[0])

    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_rows_and_columns_do_not_depend_on_their_neighbours(self, name):
        # -0.0 and 0.0, a duplicated x and +-x pairs share their |x|
        profile = _row_profiles()[name]
        xs = [0.4, -0.0, 1.7, 0.0, 0.4, -0.4, -1.7]
        zs = [0.5, 0.0, 2.0, 0.0]
        grid = field_grid(xs, zs, profile)
        parts = ("psi_rw", "psi_cw", "dpsi_rw", "dpsi_cw")
        for i, z in enumerate(zs):
            row = field_grid(xs, [z], profile)
            for part in parts:
                got, want = getattr(grid, part)[i], getattr(row, part)[0]
                if z == 0.0 and name == "slit":  # the screen run sees |x| alone, whatever the other rows
                    assert got.tobytes() == want.tobytes(), (part, z)
                else:  # a z > 0 row's seeds depend on the other rows of its run
                    assert np.all(np.abs(got - want) <= 2.0 * np.maximum(5e-13, 1e-10 * np.abs(want))), (part, z)
        perm = [3, 6, 0, 4, 1, 5, 2]
        shuffled = field_grid([xs[j] for j in perm], zs, profile)
        for got, want in zip((*shuffled, current_x(shuffled)), (*grid, current_x(grid))):
            want = want[:, perm]
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        for j, k, sign in ((1, 3, 1.0), (0, 4, 1.0), (0, 5, -1.0), (2, 6, -1.0)):
            for part in ("psi_rw", "psi_cw"):
                col = getattr(grid, part)
                assert np.ascontiguousarray(col[:, j]).tobytes() == np.ascontiguousarray(col[:, k]).tobytes()
            assert np.array_equal(current_x(grid)[:, k], sign * current_x(grid)[:, j]), (xs[j], xs[k])

    def test_wide_rows_contract_each_call_in_one_gemm(self, monkeypatch):
        # rounding keeps most +-x of this grid apart: 794 distinct |x|, so the
        # 10 rows' crawling run has 10 x 2 x 794 = 15,880 components and one
        # K31 panel of it passes the element cap; the grid is still two runs,
        # and each integrand call's sums are one matmul over the whole right
        # factor, whose per-panel gemm passes the cap on the CLI's one BLAS thread
        profile = GaussianProfile(w=1.3)
        xs = np.linspace(-5.0, 5.0, 999)
        zs = np.linspace(0.0, 3.0, 10)
        calls, _ = _counting_quad(monkeypatch)
        blocks, gemms = _counting_blocks_and_gemms(monkeypatch)
        grid = field_grid(xs, zs, profile)
        assert len(calls) == 2
        assert 31 * min(calls[0]) > quadrature._MAX_ELEMENTS
        assert gemms and all(len(g) == 1 for g in gemms) and max(blocks) <= quadrature._ROUND_ELEMENTS
        assert max(g[0] for g in gemms) > quadrature._MAX_ELEMENTS
        monkeypatch.undo()
        for i, j in ((0, 0), (7, 499), (8, 730), (9, 998)):
            _assert_cell_matches_point(grid, xs, zs, i, j, profile)

    def test_wide_grid_calls_stay_within_the_element_cap(self, monkeypatch):
        # the 101 x by 40 z slit grid below: the z = 0 row takes its own run;
        # the 39 others have 51 column pairs per row, 11,934 components over
        # both runs, and 553 seeds, so their first rounds span several
        # blocks; each is one run per side, its sweeps chunked by abscissas
        # x components, and each chunk's sums one matmul
        calls, sizes = _counting_quad(monkeypatch)
        blocks, gemms = _counting_blocks_and_gemms(monkeypatch)
        field_grid(np.linspace(-50.0, 50.0, 101), np.linspace(0.0, 1.0, 40), SingleSlitProfile(a=1.0))
        _pop_screen_run(calls, n_u=51)
        assert len(calls) == 2
        assert max(sizes) <= quadrature._MAX_ELEMENTS  # one panel is within the cap here
        assert gemms and all(len(g) == 1 for g in gemms) and max(blocks) <= quadrature._ROUND_ELEMENTS
        assert max(len(c) for c in calls) > 2  # a sweep was split into chunks

    @pytest.mark.parametrize("z_max", [100.0, 1.0])
    def test_wide_grid_peak_memory_is_bounded(self, z_max):
        # 101 x by 40 z of a slit: 51 column pairs per row; the 39 rows above
        # z = 0 take one run per side, whose first rounds at z_max = 1 span
        # several blocks (as in test_wide_grid_calls_stay_within_the_element_cap)
        assert _peak_mb(
            f"field_grid(np.linspace(-50.0, 50.0, 101), np.linspace(0.0, {z_max!r}, 40), SingleSlitProfile(a=1.0))"
        ) < 100.0

    def test_dense_tabulated_grid_peak_memory_is_bounded(self):
        # 2,001 noisy samples pass the knot-seed cap, so refinement sets the
        # panels: crawling rounds of up to ~5,000 panels x 510 components,
        # which quadrature evaluates a block at a time
        assert _peak_mb(
            "from nearwave.aperture import TabulatedProfile\n"
            "ks = np.linspace(0.0, 20.0, 2001)\n"
            "f = np.exp(-ks**2 / 4.0) + 1e-3 * np.random.default_rng(0).standard_normal(ks.size)\n"
            "field_grid(np.linspace(-20.0, 20.0, 101), [0.0, 0.1, 1.0], TabulatedProfile(ks, f))"
        ) < 100.0


def _mp_amplitude(profile):
    """The slit or Gaussian amplitude F(k) in mpmath."""
    if isinstance(profile, SingleSlitProfile):
        a = mpmath.mpf(profile.a)
        return lambda k: 2 * mpmath.sqrt(mpmath.pi * a) * mpmath.cos(a * k / 2) / (mpmath.pi**2 - (a * k) ** 2)
    w = mpmath.mpf(profile.w)
    return lambda k: mpmath.exp(-((k * w) ** 2) / 4)


def _mp_field_parts(profile, x: float, z: float) -> np.ndarray:
    """[psi_rw, psi_cw, dpsi_rw, dpsi_cw] at (x, z > 0) by mpmath.quad in k, split at k = 1.

    Independent of the engine's t-axis, seeds and slit tail: the RW
    integral runs over k in [0, 1], with subintervals shrinking towards the
    k = 1 root, and the CW integral over [1, inf), split where e^{-chi z}
    falls below e^-58 and at the slit's removable singularity k = pi/a.
    """
    amp = _mp_amplitude(profile)
    rw_pts = [0.0, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1.0]
    k_end = math.sqrt(1.0 + (58.0 / z) ** 2)
    cw_pts = {1.0, 1.0001, 1.001, 1.01, 1.1, 1.5, *np.arange(2.0, k_end, 4.0).tolist(), k_end}
    if isinstance(profile, SingleSlitProfile):
        cw_pts.add(math.pi / profile.a)
    x, z = mpmath.mpf(x), mpmath.mpf(z)

    def rw(k):
        return amp(k) * mpmath.expj(mpmath.sqrt(1 - k * k) * z)

    def cw(k):  # real weight: psi_cw and d(psi_cw)/dx as the real and imaginary parts of one integral
        return amp(k) * mpmath.exp(-mpmath.sqrt((k - 1) * (k + 1)) * z) * mpmath.mpc(mpmath.cos(k * x),
                                                                                    -k * mpmath.sin(k * x))

    psi_rw = 2 * mpmath.quad(lambda k: rw(k) * mpmath.cos(k * x), rw_pts)
    dpsi_rw = -2 * mpmath.quad(lambda k: k * rw(k) * mpmath.sin(k * x), rw_pts)
    both_cw = 2 * mpmath.quad(cw, [*sorted(cw_pts), mpmath.inf])
    return np.array([complex(psi_rw), float(both_cw.real), complex(dpsi_rw), float(both_cw.imag)])


class TestPartsAgainstMpmath:
    # The t-axis joins the RW range (k = cos t), the CW range up to k = 2 and
    # the CW range beyond it (both k = cosh t) in one quadrature; each part
    # of psi and d(psi)/dx is checked on its own against an integral in k.

    @pytest.mark.parametrize("z", [0.25, 3.0, 60.0])
    @pytest.mark.parametrize("name", ["slit", "gaussian"])
    def test_each_part_matches_mpmath(self, name, z):
        profile = _row_profiles()[name]
        xs = (-1.7, 0.3)
        grid = field_grid(xs, [z], profile)
        for j, x in enumerate(xs):
            psi_rw, psi_cw, dpsi_rw, dpsi_cw = _mp_field_parts(profile, x, z)
            got, want = _cell(grid, 0, j), (Parts(psi_rw, psi_cw), Parts(dpsi_rw, dpsi_cw))
            for g, w in zip(got, want):
                bound = _bound(w.psi_rw, w.psi_cw, w.psi_total)
                assert abs(g.psi_rw - w.psi_rw) <= bound, (x, g, w)
                assert abs(g.psi_cw - w.psi_cw) <= bound, (x, g, w)


def _mp_slit(a):
    """The slit amplitude in mpmath, written 2 sqrt(pi a) sin(w/2)/(w (2 pi + w)) with w = a k - pi.

    The form keeps every digit at the removable singularity w = 0, which
    lies inside [0, 1] for a > pi.
    """
    def amp(k):
        w = a * k - mpmath.pi
        sin_half_over_w = mpmath.mpf(0.5) if w == 0 else mpmath.sin(w / 2) / w
        return 2 * mpmath.sqrt(mpmath.pi * a) * sin_half_over_w / (2 * mpmath.pi + w)

    return amp


def _mp_screen_rw(x, a):
    """psi_rw and d(psi_rw)/dx at (x, z = 0): 2 integral_0^1 F [cos(k x), -k sin(k x)] dk, Gauss-Legendre pieces."""
    amp = _mp_slit(a)
    pieces = mpmath.linspace(0, 1, 3 + int(abs(x) + a / 2))  # under one half-wave of cos(k x) cos(a k/2) each
    psi = 2 * mpmath.quad(lambda k: amp(k) * mpmath.cos(k * x), pieces, method="gauss-legendre")
    dpsi = -2 * mpmath.quad(lambda k: k * amp(k) * mpmath.sin(k * x), pieces, method="gauss-legendre")
    return psi, dpsi


def _mp_screen_cw_direct(x, a):
    """psi_cw and d(psi_cw)/dx at (x, z = 0) as integrals over k in [1, inf), not from the slit mode.

    Up to K = max(1, 2 pi/a), past the removable singularity k = pi/a,
    mpmath.quad takes F itself; beyond K, F cos(k x) splits into
    sqrt(pi a)/(pi^2 - a^2 k^2) [cos(k b+) + cos(k b-)] with b+- = x +- a/2
    (sines likewise), and mpmath.quadosc takes each term between the zeros
    of its own oscillation beyond K.
    """
    amp = _mp_slit(a)
    k_split = max(mpmath.mpf(1), 2 * mpmath.pi / a)
    psi = dpsi = mpmath.mpf(0)
    if k_split > 1:
        pieces = mpmath.linspace(1, k_split, 2 + int((k_split - 1) * (abs(x) + a / 2)))
        psi += 2 * mpmath.quad(lambda k: amp(k) * mpmath.cos(k * x), pieces)
        dpsi -= 2 * mpmath.quad(lambda k: k * amp(k) * mpmath.sin(k * x), pieces)

    def envelope(k):
        return mpmath.sqrt(mpmath.pi * a) / (mpmath.pi**2 - (a * k) ** 2)

    for b in (x + a / 2, x - a / 2):
        if b == 0:  # cos(0 k) = 1 and sin(0 k) = 0
            psi += 2 * mpmath.quad(envelope, [k_split, mpmath.inf])
            continue
        step = mpmath.pi / abs(b)
        first = mpmath.floor(k_split / step)  # the zeros start past k_split, where no pole lies
        psi += 2 * mpmath.quadosc(lambda k: envelope(k) * mpmath.cos(k * b), [k_split, mpmath.inf],
                                  zeros=lambda n: (first + n + 0.5) * step)
        dpsi -= 2 * mpmath.quadosc(lambda k: k * envelope(k) * mpmath.sin(k * b), [k_split, mpmath.inf],
                                   zeros=lambda n: (first + n) * step)
    return psi, dpsi


def _mp_slit_mode(x, a):
    """The slit mode 2 sqrt(pi/a) cos(pi x/a) inside |x| < a/2 and its d/dx; at |x| = a/2 the mean of both sides."""
    scale = 2 * mpmath.sqrt(mpmath.pi / a)
    inside = 1 if abs(x) < a / 2 else mpmath.mpf(0.5) if abs(x) == a / 2 else 0
    psi = scale * mpmath.cos(mpmath.pi * x / a) if abs(x) < a / 2 else mpmath.mpf(0)
    return psi, -inside * scale * mpmath.pi / a * mpmath.sin(mpmath.pi * x / a)


def _screen_points():
    """(x, a) spots on the screen plane: 40 seeded draws, a log-uniform in [1e-8, 50], and the edge cases."""
    rng = np.random.default_rng(2602)
    points = []
    for i in range(40):
        a = float(10.0 ** rng.uniform(-8.0, math.log10(50.0)))
        # odd draws sit within a few widths of the slit, even ones anywhere to |x| = 60
        x = a * 10.0 ** rng.uniform(-2.0, math.log10(2.0)) if i % 2 else rng.uniform(0.0, 60.0)
        points.append((float(rng.choice((-1.0, 1.0)) * x), a))
    for a in (1e-8, 0.01, math.pi, 50.0):
        points += [(0.0, a), (0.5 * a, a), (-0.5 * a, a), (60.0, a), (-60.0, a)]
    return points


def _engine_screen_parts(x: float, a: float) -> np.ndarray:
    """[psi_rw, psi_cw, dpsi_rw, dpsi_cw] of the slit a at (x, z = 0) from field_grid."""
    g = field_grid([x], [0.0], SingleSlitProfile(a=a))
    return np.array([g.psi_rw[0, 0], g.psi_cw[0, 0], g.dpsi_rw[0, 0], g.dpsi_cw[0, 0]])


def _assert_within_part_budget(got, want, where):
    """Each part within the field's fixed quadrature budget max(5e-13, 1e-10 |part|)."""
    for name, g, w in zip(("psi_rw", "psi_cw", "dpsi_rw", "dpsi_cw"), got, want):
        assert abs(mpmath.mpc(g) - w) <= max(5e-13, 1e-10 * abs(w)), (name, where, g, w)


class TestScreenPartsAgainstMpmath:
    # On the screen plane a slit row integrates its RW parts over k in [0, 1]
    # and takes its CW parts as the slit mode minus them.  The oracle
    # integrates the RW parts at 30 digits and takes the CW parts from the
    # mode at 30 digits; test_cw_parts_as_direct_integrals checks that split
    # against the CW integrals themselves.

    def test_each_part_matches_mpmath(self):
        with mpmath.workdps(30):
            for x, a in _screen_points():
                xm, am = mpmath.mpf(x), mpmath.mpf(a)
                psi_rw, dpsi_rw = _mp_screen_rw(xm, am)
                mode, dmode = _mp_slit_mode(xm, am)
                want = (psi_rw, mode - psi_rw, dpsi_rw, dmode - dpsi_rw)
                _assert_within_part_budget(_engine_screen_parts(x, a), want, (x, a))

    @pytest.mark.parametrize("x, a", [(0.5, 1.0), (1.2, math.pi), (6.0, 12.0), (30.0, 12.0)])
    def test_cw_parts_as_direct_integrals(self, x, a):
        # the slit's edge x = a/2 (for a below and above pi), a point inside and one outside
        with mpmath.workdps(30):
            xm, am = mpmath.mpf(x), mpmath.mpf(a)
            psi_rw, dpsi_rw = _mp_screen_rw(xm, am)
            psi_cw, dpsi_cw = _mp_screen_cw_direct(xm, am)
            _assert_within_part_budget(_engine_screen_parts(x, a), (psi_rw, psi_cw, dpsi_rw, dpsi_cw), (x, a))
            mode, dmode = _mp_slit_mode(xm, am)
            # the RW and CW integrals add up to the mode, the oracle of test_each_part_matches_mpmath
            assert abs(psi_rw + psi_cw - mode) < 1e-25 and abs(dpsi_rw + dpsi_cw - dmode) < 1e-25 * (1 + abs(dmode))


def _mp_tabulated_field(ks, fs, x: float, z: float) -> np.ndarray:
    """[psi_rw, psi_cw, dpsi_rw, dpsi_cw] at (x, z) for the natural cubic spline through (ks, fs), ks from 0 up.

    An oracle independent of the engine's spline and panels: scipy's
    natural spline, each piece evaluated in mpmath and integrated by
    mpmath.quad between its knots, with k = 1 as a further split and the
    range ending at k_max, where F drops to zero.
    """
    spline = CubicSpline(ks, fs, bc_type="natural")
    edges = sorted({float(k) for k in ks} | ({1.0} if ks[-1] > 1.0 else set()))
    parts = [mpmath.mpc(0)] * 4
    with mpmath.workdps(20):
        x, z = mpmath.mpf(x), mpmath.mpf(z)
        for lo, hi in zip(edges, edges[1:]):
            i = min(int(np.searchsorted(ks, lo, side="right")) - 1, len(ks) - 2)
            k0 = mpmath.mpf(float(ks[i]))
            c = [mpmath.mpf(float(v)) for v in spline.c[:, i]]

            def amp(k):
                t = k - k0
                return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

            if hi <= 1.0:
                j, height = 0, lambda k: mpmath.expj(mpmath.sqrt(1 - k * k) * z)
            else:
                j, height = 1, lambda k: mpmath.exp(-mpmath.sqrt(k * k - 1) * z)
            parts[j] += 2 * mpmath.quad(lambda k: amp(k) * height(k) * mpmath.cos(k * x), [lo, hi])
            parts[j + 2] -= 2 * mpmath.quad(lambda k: k * amp(k) * height(k) * mpmath.sin(k * x), [lo, hi])
    return np.array([complex(v) for v in parts])


def _assert_grid_matches_mpmath(grid, xs, zs, ks, fs, rel: float):
    """Every RW and CW part of psi and d(psi)/dx within rel of its size, J_x within rel of |psi| |d(psi)/dx|."""
    jx = current_x(grid)
    for i, z in enumerate(zs):
        for j, x in enumerate(xs):
            want = _mp_tabulated_field(ks, fs, x, z)
            got = np.array([grid.psi_rw[i, j], grid.psi_cw[i, j], grid.dpsi_rw[i, j], grid.dpsi_cw[i, j]])
            assert np.all(np.abs(got - want) <= rel * np.abs(want)), (x, z, got, want)
            psi, dpsi = want[0] + want[1], want[2] + want[3]
            scale = (abs(want[0]) + abs(want[1])) * (abs(want[2]) + abs(want[3]))
            assert abs(jx[i, j] - (psi.conjugate() * dpsi).imag) <= rel * scale, (x, z)


class TestTabulatedKnots:
    # A natural spline's third derivative jumps at every knot, and F may
    # jump to zero at k_max: panels that straddle either lose K31's
    # polynomial exactness.  Seeded at the knots, the grid converges in
    # its first sweep and meets mpmath to rounding.

    def test_profile_knots(self):
        ks = np.linspace(0.0, 6.0, 13)
        assert np.array_equal(TabulatedProfile(ks, np.exp(-ks)).knots(), ks[1:])
        # the held constant below a first sample above 0 ends at that sample
        assert np.array_equal(TabulatedProfile(ks[2:], np.exp(-ks[2:])).knots(), ks[2:])
        for analytic in (SingleSlitProfile(a=1.0), GaussianProfile(w=1.3)):
            assert analytic.knots().size == 0

    def test_dense_profile_seeds_k_max_alone(self, monkeypatch):
        # 20,000 pieces: a panel per piece would take 6e5 evaluations, while
        # refinement finds the few third-derivative jumps that matter
        ks = np.linspace(0.0, 8.0, 20001)
        profile = TabulatedProfile(ks, np.exp(-0.4 * ks**2) * (1.0 + 0.2 * np.cos(2.0 * ks)))
        assert np.array_equal(profile.knots(), [8.0])
        calls, sizes = _counting_quad(monkeypatch)
        field_grid([-3.0, 0.2, 1.0], [0.3, 30.0], profile)
        comps = [c for run_comps in calls for c in run_comps]
        abscissas = sum(size // c for size, c in zip(sizes, comps))
        assert abscissas < 5000, abscissas

    def test_grid_matches_piecewise_mpmath(self, monkeypatch):
        ks = np.linspace(0.0, 6.0, 13)
        fs = np.exp(-0.3 * ks**2) * np.cos(np.pi * ks / 12.0) ** 2
        calls, _ = _counting_quad(monkeypatch)
        xs, zs = [-1.7, 0.3, 4.0], [0.0, 0.4, 2.5]
        grid = field_grid(xs, zs, TabulatedProfile(ks, fs))
        assert [len(c) for c in calls] == [1, 1]  # one sweep, one integrand call per run
        _assert_grid_matches_mpmath(grid, xs, zs, ks, fs, 1e-13)

    @pytest.mark.parametrize("k_max", [0.8, 1.3, 4.0])
    def test_jump_at_k_max(self, tmp_path, monkeypatch, k_max):
        # the last sample is nonzero, so F jumps to zero at k_max in the RW
        # range, the s-range or the k-range
        ks = np.linspace(0.0, k_max, 9)
        fs = np.exp(-0.5 * ks**2) * (1.0 + 0.3 * np.cos(2.0 * ks))
        path = tmp_path / "jump.csv"
        path.write_text("kx,F\n" + "".join(f"{k!r},{f!r}\n" for k, f in zip(ks.tolist(), fs.tolist())))
        calls, _ = _counting_quad(monkeypatch)
        xs, zs = [0.3, 1.7], [0.4, 2.5]
        grid = field_grid(xs, zs, TabulatedProfile.from_csv(path))
        assert all(len(c) == 1 for c in calls), calls  # one sweep
        _assert_grid_matches_mpmath(grid, xs, zs, ks, fs, 1e-13)


class TestMixedHeights:
    # Rows at z = 0.25 and z = 100 share their runs.  The CW seeds follow the
    # oscillation of the widest |x| and the decay e^{-chi z} of the highest
    # row alone; panels that span six e-folds of the high row still carry
    # the low row's slower decay in the same first sweep.
    XS = (-2.5, 0.3, 1.7)
    ZS = (0.25, 100.0)

    @pytest.mark.parametrize("name", ["slit", "gaussian"])
    def test_each_part_matches_mpmath(self, monkeypatch, name):
        profile = _row_profiles()[name]
        calls, _ = _counting_quad(monkeypatch)
        grid = field_grid(self.XS, self.ZS, profile)
        assert [len(c) for c in calls] == [1, 1]  # one run per side, one sweep each
        for i, z in enumerate(self.ZS):
            for j, x in enumerate(self.XS):
                psi_rw, psi_cw, dpsi_rw, dpsi_cw = _mp_field_parts(profile, x, z)
                want = (Parts(psi_rw, psi_cw), Parts(dpsi_rw, dpsi_cw))
                for g, w in zip(_cell(grid, i, j), want):
                    bound = _bound(w.psi_rw, w.psi_cw, w.psi_total)
                    assert abs(g.psi_rw - w.psi_rw) <= bound, (x, z, g, w)
                    assert abs(g.psi_cw - w.psi_cw) <= bound, (x, z, g, w)

    def test_tabulated_matches_piecewise_mpmath(self, monkeypatch):
        ks = np.linspace(0.0, 6.0, 13)
        fs = np.exp(-0.3 * ks**2) * np.cos(np.pi * ks / 12.0) ** 2
        calls, _ = _counting_quad(monkeypatch)
        grid = field_grid(self.XS, self.ZS, TabulatedProfile(ks, fs))
        assert [len(c) for c in calls] == [1, 1]
        for i, z in enumerate(self.ZS):
            for j, x in enumerate(self.XS):
                want = _mp_tabulated_field(ks, fs, x, z)
                got = np.array([grid.psi_rw[i, j], grid.psi_cw[i, j], grid.dpsi_rw[i, j], grid.dpsi_cw[i, j]])
                # at z = 100 the small d/dx RW part is a sum of cancelling panels: rounding
                # puts it near 1e-13 of itself, so each part is held to 1e-13 of the largest
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max()), (x, z, got, want)


class TestSeeds:
    @pytest.mark.parametrize("name", ["slit", "gaussian", "tabulated"])
    def test_s_range_seeds_do_not_grow_with_height(self, name):
        # the CW range below k = 2 is seeded at the oscillation of |x| and
        # at the decay of e^{-chi z_max}: z_max moves the decay seeds, it
        # does not add to them
        profile = _row_profiles()[name]
        decay = int(nearfield._EXP_CUT / nearfield._EFOLDS_PER_PANEL)

        def s_range(zs):
            _, _, seeds = nearfield._axis(4.0, np.array(zs), profile)
            return np.count_nonzero((seeds > 0.0) & (seeds < math.acosh(2.0)))

        oscillation = s_range([0.0])
        counts = [s_range([0.25, z_max]) for z_max in (1.0, 100.0, 1e4)]
        assert all(oscillation <= n <= oscillation + decay for n in counts), (oscillation, counts)
        assert counts[1] == counts[2] == oscillation + decay, counts  # every decay seed lies below k = 2

    def test_decay_seeds_grade_the_highest_row(self):
        _, _, seeds = nearfield._axis(1.0, np.array([0.5, 100.0]), GaussianProfile(w=1.3))
        n = int(nearfield._EXP_CUT / nearfield._EFOLDS_PER_PANEL)
        want = np.arcsinh(nearfield._EFOLDS_PER_PANEL * np.arange(1, n + 1) / 100.0)
        assert np.isin(want, seeds).all()


class TestCosSin:
    def test_against_mpmath(self):
        rng = np.random.default_rng(7)
        half_pi = np.arange(-2000, 2001) * (0.5 * math.pi)  # k pi/2 rounded, where tan(x/2) is 0, +-1 or huge
        x = np.concatenate([
            rng.uniform(-1e6, 1e6, 2000), rng.uniform(-10.0, 10.0, 1000), half_pi,
            half_pi[::40] + rng.uniform(-1e-9, 1e-9, half_pi[::40].size),
            np.round(rng.uniform(-1e6, 1e6, 500) / (0.5 * math.pi)) * (0.5 * math.pi),
            [0.0, -0.0, 1e-300, 5e-324, 1e6, -1e6],
        ])
        cos, sin = nearfield._cos_sin(x)
        with mpmath.workdps(30):
            for v, c, s in zip(x.tolist(), cos.tolist(), sin.tolist()):
                assert abs(mpmath.cos(v) - c) <= 4e-16, v
                assert abs(mpmath.sin(v) - s) <= 4e-16, v

    def test_shape_and_non_finite(self):
        assert nearfield._cos_sin(np.zeros((3, 4))).shape == (2, 3, 4)
        with np.errstate(invalid="ignore"):
            out = nearfield._cos_sin(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(out).all()


class TestProbabilityCurrent:
    def test_zero_on_axis(self):
        assert current_x(field_grid(0.0, 0.5, SingleSlitProfile(a=1.0)))[0, 0] == 0.0

    def test_odd_in_x(self):
        profile = SingleSlitProfile(a=1.0)
        jp = current_x(field_grid(1.5, 0.5, profile))[0, 0]
        jm = current_x(field_grid(-1.5, 0.5, profile))[0, 0]
        assert jm == pytest.approx(-jp, rel=1e-10)
        assert jp != 0.0

    def test_against_finite_difference(self):
        profile = SingleSlitProfile(a=1.0)
        x, z, h = 2.0, 0.5, 1e-4
        psi = psi_total(field_grid(x, z, profile))[0, 0]
        dnum = (psi_total(field_grid(x + h, z, profile))[0, 0] - psi_total(field_grid(x - h, z, profile))[0, 0]) / (2 * h)
        want = (psi.conjugate() * dnum).imag
        got = current_x(field_grid(x, z, profile))[0, 0]
        assert got == pytest.approx(want, rel=1e-5)
        assert got != 0.0

    def test_derivative_field_against_finite_difference(self):
        profile = SingleSlitProfile(a=1.0)
        x, z, h = 1.2, 0.8, 1e-4
        g = field_grid(x, z, profile)
        dana = g.dpsi_rw[0, 0] + g.dpsi_cw[0, 0]
        dnum = (psi_total(field_grid(x + h, z, profile))[0, 0] - psi_total(field_grid(x - h, z, profile))[0, 0]) / (2 * h)
        assert dana == pytest.approx(dnum, rel=1e-6)

    def test_gaussian_profile_current(self):
        # works for profiles without analytic tails too
        profile = GaussianProfile(w=1.0)
        j = current_x(field_grid(1.0, 0.5, profile))[0, 0]
        assert math.isfinite(j)
        assert current_x(field_grid(0.0, 0.5, profile))[0, 0] == 0.0
