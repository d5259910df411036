import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import current_x, psi_total

from nearwave import aperture, cli, nearfield, quadrature, recoil
from nearwave.config import aperture_from, load_config
from nearwave.errors import ConfigError
from nearwave.kinematics import evanescence_transfer
from nearwave.modes import grating_modes
from nearwave.probe import GaussianPacket, absorption_probability
from nearwave.quantities import ScaledUnits
from nearwave.recoil import ScreenSpec, recoil_solution


def run_main(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write_cfg(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CFG = {
    "k0_si": 7.5e6,
    "screen": {"K_M_ratio": 10.0},
    "aperture": {"kind": "single_slit", "a": 1.0},
    "probe": {"particle": "electron", "K0_ratio": 1.0, "z0": 1.0, "delta_z": 0.5},
    "grating": {"period": 2.5, "m_max": 4},
    "grids": {
        "kx": [0.0, 2.0],
        "x": {"start": 0.0, "stop": 1.0, "num": 2},
        "z": {"start": 0.0, "stop": 0.5, "num": 2},
    },
    "scenario": {"tau_max_s": 1e17},
}


class TestSpectrum:
    def test_row_count_and_boundary(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        rc, out, _ = run_main(capsys, "spectrum", "--config", cfg)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 4 + 1
        kinds = {int(r["m"]): r["kind"] for r in rows}
        assert kinds[2] == "RW" and kinds[3] == "CW"
        # running rows leave the decay depth blank
        blank = [r for r in rows if r["kind"] == "RW"]
        assert all(r["z_d"] == "" for r in blank)

    def test_floats_roundtrip_exactly(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        _, out, _ = run_main(capsys, "spectrum", "--config", cfg)
        rows = list(csv.DictReader(io.StringIO(out)))
        m3 = next(r for r in rows if r["m"] == "3")
        want = math.sqrt((1.2) ** 2 - 1.0)
        assert float(m3["im_kz"]) == pytest.approx(want, rel=5e-15, abs=0)
        # 17g formatting is round-trip exact: the parsed cell reproduces the
        # library float bit for bit (kx = 3/2.5, not 3 * (1/2.5))
        assert float(m3["kx"]) == 3 / 2.5

    @pytest.mark.parametrize("period, kind, column", [(2.9999999999999996, "CW", "im_kz"),
                                                      (3.0000000000000004, "RW", "re_kz")])
    def test_order_one_ulp_from_the_threshold(self, capsys, tmp_path, period, kind, column):
        # 3/period rounds to 1 -/+ 1 ulp, but |3| vs period decides the kind and |3| - period is exact,
        # so |kz| = sqrt(|9/period^2 - 1|) = 1.7206e-8 on both sides, and z_d = 1/chi_z stays finite
        cfg = dict(BASE_CFG, grating={"period": period, "m_max": 4})
        rc, out, err = run_main(capsys, "spectrum", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0 and err == ""
        rows = {int(r["m"]): r for r in csv.DictReader(io.StringIO(out))}
        for m in (3, -3):
            assert rows[m]["kind"] == kind
            assert float(rows[m][column]) == pytest.approx(1.72063788530119e-08, rel=4e-16)

    @given(st.floats(min_value=5e-324, max_value=sys.float_info.max), st.integers(min_value=1, max_value=20))
    def test_any_finite_period_exits_cleanly(self, period, m_max):
        # a kx, chi_z or u_c that overflows is refused with exit 4; nothing divides by zero
        cfg = json.dumps({"grating": {"period": period, "m_max": m_max}})
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cfg)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["spectrum", "--config", path])
        assert rc in (0, 4), (rc, err.getvalue())
        assert (rc == 0) == (err.getvalue() == "") and "Traceback" not in err.getvalue()

    def test_m_max_above_cap_rejected_before_any_mode(self, capsys, tmp_path, monkeypatch):
        from nearwave import config, modes

        built = []
        monkeypatch.setattr(modes, "grating_modes", lambda *args: built.append(args) or [])
        cfg = dict(BASE_CFG, grating={"period": 2.5, "m_max": config._MAX_GRATING_ORDER + 1})
        rc, out, err = run_main(capsys, "spectrum", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and built == []
        assert json.loads(err)["error"]["field"] == "grating.m_max"

    def test_non_finite_cell_names_row_and_column(self, capsys, tmp_path):
        # kx = m/period overflows chi_z to inf; the CSV writer refuses it as the JSON writer would
        cfg = dict(BASE_CFG, grating={"period": 1e-300, "m_max": 3})
        rc, out, err = run_main(capsys, "spectrum", "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == "" and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input" and error["message"].startswith("row 0, column im_kz is inf")


class TestField:
    def test_tabulated_profile_through_config(self, capsys, tmp_path):
        import numpy as np

        ks = np.linspace(0.0, 8.0, 161)
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text(
            "kx,F\n" + "\n".join(f"{k},{math.exp(-0.25 * k * k)}" for k in ks) + "\n"
        )
        cfg = dict(BASE_CFG)
        cfg["aperture"] = {"kind": "tabulated", "path": str(csv_path)}
        cfg["grids"] = dict(BASE_CFG["grids"], x={"start": 0.0, "stop": 0.0, "num": 1},
                            z={"start": 0.0, "stop": 0.0, "num": 1})
        rc, out, _ = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0
        row = next(csv.DictReader(io.StringIO(out)))
        # tabulated gaussian with w = 1: field at the origin is 2 sqrt(pi)/w
        assert float(row["re_psi_total"]) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-4)

    def test_schema_and_values(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        rc, out, _ = run_main(capsys, "field", "--config", cfg)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert list(rows[0]) == [
            "x", "z", "re_psi_rw", "im_psi_rw", "re_psi_cw", "im_psi_cw",
            "re_psi_total", "im_psi_total", "J_x",
        ]
        first = rows[0]
        total = float(first["re_psi_rw"]) + float(first["re_psi_cw"])
        assert float(first["re_psi_total"]) == pytest.approx(total, rel=1e-12)


    def test_rows_agree_with_per_point_calls(self, capsys, tmp_path):
        # one row call per height shares abscissae across the row; each point
        # must still agree with its own one-point field_grid to what the
        # quadrature was asked for (3 integrals, safety factor 4)
        from nearwave.aperture import GaussianProfile, SingleSlitProfile, TabulatedProfile
        from nearwave.nearfield import field_grid

        abs_tol, rel_tol = 1e-12, 1e-10

        def err(scale):
            return 4.0 * 3.0 * max(abs_tol, rel_tol * scale)

        def scale(rw, cw):
            return max(abs(rw), abs(cw), abs(rw + cw))

        ks = [0.2 * i for i in range(-30, 31)]
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text("kx,F\n" + "\n".join(
            f"{k!r},{math.exp(-0.3 * k * k) * math.cos(math.pi * k / 12.0) ** 2!r}" for k in ks) + "\n")
        xs = [-2.0, -0.7, -0.3, 0.0, 0.3, 0.7, 2.0]
        zs = [0.0, 0.5, 40.0]
        cases = (
            ({"kind": "single_slit", "a": 1.0}, SingleSlitProfile(a=1.0)),
            ({"kind": "gaussian", "w": 1.3}, GaussianProfile(w=1.3)),
            ({"kind": "tabulated", "path": str(csv_path)}, TabulatedProfile.from_csv(csv_path)),
        )
        for aperture, profile in cases:
            cfg = dict(BASE_CFG, aperture=aperture, grids={"x": xs, "z": zs})
            rc, out, _ = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
            assert rc == 0
            rows = {(float(r["x"]), float(r["z"])): r for r in csv.DictReader(io.StringIO(out))}
            assert len(rows) == len(xs) * len(zs)
            for (x, z), r in rows.items():
                g = field_grid(x, z, profile)
                psi_rw, psi_cw, dpsi_rw, dpsi_cw = g.psi_rw[0, 0], g.psi_cw[0, 0], g.dpsi_rw[0, 0], g.dpsi_cw[0, 0]
                bound = err(scale(psi_rw, psi_cw))
                for got, want in (
                    (complex(float(r["re_psi_rw"]), float(r["im_psi_rw"])), psi_rw),
                    (complex(float(r["re_psi_cw"]), float(r["im_psi_cw"])), psi_cw),
                    (complex(float(r["re_psi_total"]), float(r["im_psi_total"])), psi_total(g)[0, 0]),
                ):
                    assert abs(got - want) <= bound, (aperture, x, z, got, want)
                j_bound = abs(dpsi_rw + dpsi_cw) * bound + abs(psi_total(g)[0, 0]) * err(scale(dpsi_rw, dpsi_cw))
                assert abs(float(r["J_x"]) - current_x(g)[0, 0]) <= j_bound
                mirror = float(rows[(-x, z)]["J_x"])
                assert abs(float(r["J_x"]) + mirror) <= 2.0 * j_bound, (aperture, x, z)

    def test_oversized_grid_refused_before_computing(self, capsys, tmp_path, monkeypatch):
        reached = []

        def sentinel(xs, zs, profile):
            reached.append(len(xs) * len(zs))
            raise AssertionError("stop here")

        def grids(nx, nz):
            return dict(BASE_CFG, grids={"x": {"start": 0.0, "stop": 1.0, "num": nx},
                                         "z": {"start": 0.5, "stop": 2.0, "num": nz}})

        monkeypatch.setattr(nearfield, "field_grid", sentinel)  # not cli.nearfield: cli may import it lazily
        cap = cli._MAX_FIELD_POINTS
        assert 41 * 97561 == cap + 1 and 40 * 100000 == cap
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, grids(97561, 41)))
        assert rc == 2 and out == "" and reached == []
        assert json.loads(err)["error"]["field"] == "grids"
        with pytest.raises(AssertionError, match="stop here"):
            cli.main(["field", "--config", write_cfg(tmp_path, grids(100000, 40))])
        assert reached == [cap]


    @pytest.mark.parametrize("a, x", [(0.5, 20.0), (1.0, 60.0), (1e-210, 1.0), (1e-250, 60.0), (5e-324, 0.0),
                                      (5e-324, 1.0)])
    def test_screen_plane_far_from_slit(self, capsys, tmp_path, a, x):
        # the long CW range once ran out to a*k = 1e4 here and hit the panel budget; below a ~ 1e-205 the mode's
        # slope 2 sqrt(pi/a) pi/a overflows, and 5e-324/2 rounds to 0, so x = 0 sits on the slit's edge
        cfg = dict(BASE_CFG, aperture={"kind": "single_slit", "a": a}, grids={"x": [-x, x], "z": [0.0]})
        rc, out, _ = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for r in rows:
            psi = [complex(float(r[f"re_psi_{p}"]), float(r[f"im_psi_{p}"])) for p in ("rw", "cw", "total")]
            scale = max(abs(v) for v in psi)
            assert abs(psi[2]) <= 4.0 * 3.0 * max(1e-12, 1e-10 * scale)  # closed form: 0 outside the slit
            assert float(r["J_x"]) == 0.0
        assert float(rows[0]["J_x"]) == -float(rows[1]["J_x"])

    def test_overflowing_slit_tail_is_quadrature_error(self, capsys, tmp_path):
        # a = 1e-30 overflows the slit tail's (pi/a)^(2n)/a^2 coefficients at z = 1e-31, where the
        # panels end at k = 100/a (on the screen plane itself the slit takes no tail)
        cfg = dict(BASE_CFG, aperture={"kind": "single_slit", "a": 1e-30}, grids={"x": [0.0], "z": [1e-31]})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 3 and out == ""
        assert "not finite" in json.loads(err)["error"]["message"]

    def test_tiny_slit_on_the_screen_plane_is_its_mode(self, capsys, tmp_path):
        # on the screen plane the slit's CW part is its mode minus the RW part, so a = 1e-30 takes
        # no tail series and psi_total is the mode's peak 2 sqrt(pi/a) at x = 0
        a = 1e-30
        cfg = dict(BASE_CFG, aperture={"kind": "single_slit", "a": a}, grids={"x": [0.0], "z": [0.0]})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0 and err == ""
        (row,) = csv.DictReader(io.StringIO(out))
        want = 2.0 * math.sqrt(math.pi / a)
        assert abs(float(row["re_psi_total"]) - want) <= 1e-15 * want and float(row["im_psi_total"]) == 0.0
        assert float(row["J_x"]) == 0.0

    def test_nan_integrand_error_line_is_strict_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(aperture.GaussianProfile, "amplitude", lambda self, kx: np.full(np.shape(kx), np.nan))
        cfg = dict(BASE_CFG, aperture={"kind": "gaussian", "w": 1.0}, grids={"x": [0.0], "z": [0.5]})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 3 and out == ""
        error = json.loads(err, parse_constant=_reject_constant)["error"]
        assert error["type"] == "quadrature" and error["achieved"] is None

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tabulated_sample_rejected(self, capsys, tmp_path, column, value):
        samples = [[0.0, 1.0], [1.0, 0.7], [2.0, 0.5], [3.0, 0.1], [4.0, 0.0]]
        samples[3][column] = value
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text("kx,F\n" + "\n".join(f"{k},{f}" for k, f in samples) + "\n")
        cfg = dict(BASE_CFG, aperture={"kind": "tabulated", "path": str(csv_path)})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2
        assert out == ""
        assert json.loads(err)["error"]["field"] == "aperture.path"

    @pytest.mark.parametrize("sub", ["field", "absorb"])
    def test_overflowing_spline_names_the_csv(self, capsys, tmp_path, sub):
        # finite samples of +-1e308 half a unit apart overflow the spline's chord slopes and coefficients
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text("kx,F\n0.0,1.0\n0.5,1e308\n1.0,-1e308\n2.0,0.5\n")
        cfg = dict(BASE_CFG, aperture={"kind": "tabulated", "path": str(csv_path)},
                   grids=dict(BASE_CFG["grids"], kx=[3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr outside pytest
            rc, out, err = run_main(capsys, sub, "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["field"] == "aperture.path"

    @pytest.mark.parametrize("line", ["0.5", "0.5,abc"])
    def test_malformed_tabulated_row_names_its_line(self, capsys, tmp_path, line):
        # a row with one field, or a second field that is not a number, after the samples began
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text(f"kx,F\n0.0,1.0\n1.0,0.7\n{line}\n3.0,0.1\n4.0,0.0\n")
        cfg = dict(BASE_CFG, aperture={"kind": "tabulated", "path": str(csv_path)})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["field"] == "aperture.path" and "line 4" in error["message"], error

    @pytest.mark.parametrize("text, line", [
        ("kx,F\n0.0,\n", 2),  # an empty F under the header
        ("0.0,abc\n", 1),  # a numeric kx makes line 1 a sample, not a header
        ("\nkx,F\nkx,F\n0.0,1.0\n", 3),  # only the first non-blank row may be a header
    ])
    def test_malformed_row_before_the_first_sample_names_its_line(self, capsys, tmp_path, text, line):
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text(text + "0.5,0.9\n1.0,0.5\n1.5,0.2\n2.0,0.1\n")
        cfg = dict(BASE_CFG, aperture={"kind": "tabulated", "path": str(csv_path)},
                   grids=dict(BASE_CFG["grids"], kx=[1.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr outside pytest
            rc, out, err = run_main(capsys, "absorb", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["field"] == "aperture.path" and f"line {line}:" in error["message"], error

    @staticmethod
    def _tabulated_cfg(tmp_path, top):
        """A field config over a tabulated profile falling linearly from F = top at kx = 0."""
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("kx,F\n" + "".join(f"{k},{top * (1 - k / 4)!r}\n" for k in (0.0, 0.5, 1.0, 1.5, 2.0)))
        return write_cfg(tmp_path, dict(BASE_CFG, aperture={"kind": "tabulated", "path": str(csv_path)},
                                        grids={"x": [0.3, 1.0], "z": [0.0, 0.5]}))

    @pytest.mark.parametrize("top, message", [
        # F ~ 1e160 keeps every psi finite, but J_x = Im(psi* dpsi/dx) overflows off the screen
        (1e160, "row 2, column J_x is inf, which CSV refuses"),
    ])
    def test_non_finite_cell_refused_by_row_and_column(self, capsys, tmp_path, top, message):
        cfg = self._tabulated_cfg(tmp_path, top)
        out_path = tmp_path / "field.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr outside pytest
            for argv in ([], ["--out", str(out_path)]):
                rc, out, err = run_main(capsys, "field", "--config", cfg, *argv)
                assert rc == 4 and out == "" and err.count("\n") == 1
                assert json.loads(err)["error"]["message"] == message
        assert not out_path.exists()

    def test_overflowing_panel_sum_is_quadrature_error(self, capsys, tmp_path):
        # F ~ 1.7e308 overflows each panel's K31 sum to inf while its error estimate stays finite
        cfg = self._tabulated_cfg(tmp_path, 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(capsys, "field", "--config", cfg)
        assert rc == 3 and out == "" and err.count("\n") == 1
        error = json.loads(err, parse_constant=_reject_constant)["error"]
        # the bounds are the run's kx, z and |x|, not those of the substitution variable t = -pi/2 .. acosh 2
        assert error["type"] == "quadrature" and error["message"] == (
            "panel sums overflow on kx in [0, 2] (z from 0 to 0.5, |x| up to 1)")
        assert math.isfinite(error["achieved"])

    def test_seeding_refusal_names_the_grid(self, capsys, tmp_path):
        # |x| = 1e7 needs more oscillation seeds than the cap allows on the running-wave range, whose
        # internal variable theta = t + pi/2 runs over [0, pi/2]: the message names kx and the points instead;
        # on the screen plane the slit's run over kx in [0, 1] is refused the same way
        for z, kx_range in ((0.5, "kx in [0, 92.0054]"), (0.0, "kx in [0, 1]")):
            cfg = dict(BASE_CFG, grids={"x": [1e7], "z": [z]})
            rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
            assert rc == 3 and out == "" and err.count("\n") == 1
            error = json.loads(err)["error"]
            assert error["type"] == "quadrature" and error["achieved"] is None
            assert f"{kx_range} (z from {z:g} to {z:g}, |x| up to 1e+07)" in error["message"], error
            assert "1.5708" not in error["message"], error

    @pytest.mark.parametrize("aperture, x, z", [
        # hypot(|x|, z) overflows, so the running-wave range's phase rate is inf
        ({"kind": "single_slit", "a": 1.0}, 1.7e308, 1.7e308),
        ({"kind": "gaussian", "w": 1.0}, 1.7e308, 1.7e308),
        # the screen run's |x| + a/2 overflows
        ({"kind": "single_slit", "a": 1e308}, 1.7e308, 0.0),
    ])
    def test_infinite_phase_rate_refusal_names_the_grid(self, capsys, tmp_path, aperture, x, z):
        cfg = dict(BASE_CFG, aperture=aperture, grids={"x": [x], "z": [z]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 3 and out == "" and err.count("\n") == 1 and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "quadrature" and error["achieved"] is None
        assert f"more than {quadrature._MAX_SEEDS} panels on kx in [0, " in error["message"], error
        assert f"(z from {z:g} to {z:g}, |x| up to {x:g})" in error["message"], error

    def test_astronomical_seed_count_is_refused_in_short(self, capsys, tmp_path):
        # a = 1e-30 at |x| = 1e300 would need a 300-digit number of seeds; the message gives the cap instead
        cfg = dict(BASE_CFG, aperture={"kind": "single_slit", "a": 1e-30}, grids={"x": [1e300], "z": [0.5]})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 3 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "quadrature" and error["achieved"] is None
        assert error["message"] == (f"oscillation seeding would need more than {quadrature._MAX_SEEDS} panels on "
                                    "kx in [0, 92.0054] (z from 0.5 to 0.5, |x| up to 1e+300)")

    def test_wide_row_refused_before_allocating(self, tmp_path):
        # 200,001 x to |x| = 50 at z = 0.5 make one row whose crawling run has 295,252 components (147,626
        # distinct |x|) over 503 seeded panels: its first round, 1.5e8 panels x components, passes the 2^27 cap on
        # a round's work.  adaptive_quad refuses it unevaluated, so a fresh process exits 3 within a 1 GB address space
        resource = pytest.importorskip("resource")
        cfg = dict(BASE_CFG, grids={"x": {"start": -50.0, "stop": 50.0, "num": 200001}, "z": [0.5]})
        limit = 1 << 30
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "nearwave.cli", "field", "--config", write_cfg(tmp_path, cfg)],
                              capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 3 and proc.stdout == "" and proc.stderr.count("\n") == 1, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "quadrature" and error["message"].startswith("503 seeded panels x 295252 components")

    def test_rows_sharing_a_run_are_capped_a_row_at_a_time(self, tmp_path, monkeypatch):
        # 1000 x to |x| = 50 by 400 z in [0, 1] of a slit: the 399 rows above z = 0 share a crawling run of
        # 546 seeded panels x 399 rows x 1,732 components, past the 2^27 cap on a round's work as a whole
        # but within it a row at a time, which is how the cap counts.  So the run starts; as the whole grid
        # takes seconds, it is stopped at its first integrand call
        class Evaluated(Exception):
            pass

        def first_call(t):
            raise Evaluated

        def stopped(f, a, b, **kwargs):  # the screen run of the z = 0 row, over k in [0, 1], goes through
            return nearfield_quad(f if (a, b) == (0.0, 1.0) else first_call, a, b, **kwargs)

        nearfield_quad = nearfield.adaptive_quad
        monkeypatch.setattr(nearfield, "adaptive_quad", stopped)
        grids = {"x": {"start": -50.0, "stop": 50.0, "num": 1000}, "z": {"start": 0.0, "stop": 1.0, "num": 400}}
        with pytest.raises(Evaluated):
            cli.main(["field", "--config", write_cfg(tmp_path, dict(BASE_CFG, grids=grids))])

    @pytest.mark.parametrize("num", [0, 10**6 + 1, 10**13])
    def test_grid_num_out_of_range_rejected(self, capsys, tmp_path, num):
        # refused before np.linspace allocates it: 10**13 points would need 80 TB
        cfg = dict(BASE_CFG, grids=dict(BASE_CFG["grids"], x={"start": 0, "stop": 1, "num": num}))
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["field"] == "grids.x.num"


    def test_grid_overflow_is_refused_without_a_warning(self, capsys, tmp_path):
        # stop - start overflows to inf
        cfg = dict(BASE_CFG, grids=dict(BASE_CFG["grids"], x={"start": -1e308, "stop": 1e308, "num": 3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr outside pytest
            rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["field"] == "grids.x"


class TestAbsorb:
    def test_values_match_library(self, capsys, tmp_path):
        cfg = dict(BASE_CFG)
        cfg["grids"] = dict(BASE_CFG["grids"], kx=[2.0, 5.0])
        path = write_cfg(tmp_path, cfg)
        rc, out, _ = run_main(capsys, "absorb", "--config", path)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        from nearwave.aperture import SingleSlitProfile
        from nearwave.probe import GaussianPacket, absorption_probability

        amp = SingleSlitProfile(a=1.0).amplitude(2.0)
        want, limit = absorption_probability(2.0, GaussianPacket(z0=1.0, delta_z=0.5), amp)
        assert float(rows[0]["probability"]) == want  # 17g serialization is bit-exact
        assert float(rows[0]["zero_width_limit"]) == limit

    @pytest.mark.parametrize("aperture_cfg", [
        {"kind": "single_slit", "a": 1.3},
        {"kind": "gaussian", "w": 0.4},
        {"kind": "tabulated"},
    ])
    def test_probability_is_per_kx_amplitude_bit_for_bit(self, capsys, tmp_path, aperture_cfg):
        # F is evaluated once over the grid; each row must equal a scalar amplitude call at its kx
        if aperture_cfg["kind"] == "tabulated":
            (tmp_path / "prof.csv").write_text("kx,F\n0.0,1.0\n0.7,0.9\n1.5,0.6\n2.5,0.45\n4.0,0.2\n6.0,0.05\n")
            aperture_cfg = dict(aperture_cfg, path=str(tmp_path / "prof.csv"))
        kxs = [1.05, -1.3, 1.7, 2.0, 2.35, 2.9, 3.3, -3.7, 4.1, 4.6, 5.2, 5.9, 6.0, 7.5, 9.25, 13.0, 40.0]
        cfg = dict(BASE_CFG, aperture=aperture_cfg, grids={"kx": kxs})
        rc, out, err = run_main(capsys, "absorb", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0 and err == ""
        profile = aperture_from(cfg)
        packet = GaussianPacket(z0=1.0, delta_z=0.5)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["kx"]) for r in rows] == kxs
        for kx, row in zip(kxs, rows):
            want, limit = absorption_probability(kx, packet, profile.amplitude(kx))
            assert (row["probability"], row["zero_width_limit"]) == (format(want, ".17g"), format(limit, ".17g")), kx

    def test_probe_k0_ratio_not_read(self, capsys, tmp_path):
        # absorption does not depend on the probe's K0_ratio; a non-number there is ignored
        cfg = dict(BASE_CFG, grids=dict(BASE_CFG["grids"], kx=[2.0]))
        runs = []
        for k0 in (1.0, [1, 2]):
            cfg["probe"] = dict(BASE_CFG["probe"], K0_ratio=k0)
            runs.append(run_main(capsys, "absorb", "--config", write_cfg(tmp_path, cfg)))
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] == runs[1][1]

    def test_running_mode_rejected(self, capsys, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)  # kx grid contains 0.0
        rc, _, err = run_main(capsys, "absorb", "--config", path)
        assert rc == 2
        assert json.loads(err)["error"]["field"] == "grids.kx"

    def test_degenerate_row_names_its_kx(self, capsys, tmp_path):
        # delta_z = 1e-300 overflows in overlap_integral
        cfg = dict(BASE_CFG, probe=dict(BASE_CFG["probe"], delta_z=1e-300), grids={"kx": [3.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr outside pytest
            rc, out, err = run_main(capsys, "absorb", "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == "" and err.count("\n") == 1 and "Traceback" not in err
        payload = json.loads(err)["error"]
        assert payload["type"] == "degenerate-input" and payload["message"].startswith("kx=3.0: OverflowError")

    @pytest.mark.parametrize("aperture, kx", [
        ({"kind": "gaussian", "w": 1e3}, 5.0),  # |F|^2 underflows
        ({"kind": "single_slit", "a": 1.0}, 1e200),
        ({"kind": "gaussian", "w": 2.0}, 1e200),  # (kx w)^2 overflows to inf, and exp(-inf) = 0 is the true |F|
        ({"kind": "tabulated"}, 3.0),  # beyond the last sample, at kx = 2
        ({"kind": "single_slit", "a": 1e8}, 1.7e308),  # a kx overflows to inf, where F's limit is 0
    ])
    def test_zero_amplitude_row_is_written(self, capsys, tmp_path, aperture, kx):
        # probability and its zero-width limit are both 0, and their 0/0 ratio is left empty
        if aperture["kind"] == "tabulated":
            (tmp_path / "prof.csv").write_text("kx,F\n0.0,1.0\n0.5,0.875\n1.0,0.75\n1.5,0.625\n2.0,0.5\n")
            aperture = dict(aperture, path=str(tmp_path / "prof.csv"))
        cfg = dict(BASE_CFG, aperture=aperture, grids={"kx": [kx]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(capsys, "absorb", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0 and err == ""
        (row,) = csv.DictReader(io.StringIO(out))
        assert float(row["kx"]) == kx
        assert (row["probability"], row["zero_width_limit"], row["ratio"]) == ("0", "0", "")


class TestTransfer:
    def test_record_matches_library(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        rc, out, _ = run_main(capsys, "transfer", "--config", cfg)
        assert rc == 0
        record = json.loads(out)
        units = ScaledUnits(k0=7.5e6)
        K_mu = 9.1093837015e-31 * 2.99792458e8 / (1.054571817e-34 * units.k0)
        want = evanescence_transfer(1.0, K_mu)
        assert record["outputs"]["kx_selected"] == want.kx_selected
        assert [s["stage"] for s in record["outputs"]["stages"]] == [
            "input", "near-field-evanescent", "far-field-free",
        ]
        assert record["residuals"]["selection_scaled"] < 1e-12

    def test_degenerate_exit_code(self, capsys, tmp_path):
        cfg = dict(BASE_CFG)
        cfg["probe"] = dict(BASE_CFG["probe"], K0_ratio=0.0)
        path = write_cfg(tmp_path, cfg)
        rc, _, err = run_main(capsys, "transfer", "--config", path)
        assert rc == 4
        assert json.loads(err)["error"]["type"] == "degenerate-input"

    @pytest.mark.parametrize("K0, K_mu", [(0.7, 1e300), (1e300, 1.0), (1e-300, 1.0), (1e200, 1e200)])
    def test_overflow_names_both_ratios(self, capsys, tmp_path, K0, K_mu):
        cfg = {"k0_si": 7.5e6, "probe": {"K0_ratio": K0, "K_mu_ratio": K_mu}}
        rc, out, err = run_main(capsys, "transfer", "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == "" and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input"
        assert error["message"].startswith(f"K0_ratio={K0!r}, K_mu_ratio={K_mu!r}: ")

    def test_direct_compton_ratio_input(self, capsys, tmp_path):
        cfg = dict(BASE_CFG)
        cfg["probe"] = {"K0_ratio": 1.0, "K_mu_ratio": 1.0}
        path = write_cfg(tmp_path, cfg)
        rc, out, _ = run_main(capsys, "transfer", "--config", path)
        assert rc == 0
        record = json.loads(out)
        assert record["outputs"]["kx_selected"] == pytest.approx(math.sqrt(2.0), rel=1e-15)


class TestRecoil:
    def test_records_match_library(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        rc, out, _ = run_main(capsys, "recoil", "--config", cfg)
        assert rc == 0
        record = json.loads(out)
        screen = ScreenSpec(K_M=10.0)
        modes = record["outputs"]["modes"]
        assert len(modes) == 2
        sol = recoil_solution(2.0, screen)
        got = next(m for m in modes if m["kx"] == 2.0)
        assert got["k_tilde"]["im"] == sol.k_tilde.imag  # json floats round-trip
        assert got["Gamma"] == sol.Gamma
        assert got["tau_s"] is not None
        undeflected = next(m for m in modes if m["kx"] == 0.0)
        assert undeflected["tau_s"] is None
        assert record["residuals"]["max_root"] < 1e-10


class TestLifetime:
    def test_routes_and_tail(self, capsys, tmp_path):
        cfg = dict(BASE_CFG)
        cfg["screen"] = {"mass_kg": 0.1}
        cfg["grids"] = dict(BASE_CFG["grids"], kx=[10.0])
        path = write_cfg(tmp_path, cfg)
        rc, out, _ = run_main(capsys, "lifetime", "--config", path)
        assert rc == 0
        record = json.loads(out)
        mode = record["outputs"]["modes"][0]
        assert mode["tau_exact_s"] == pytest.approx(1.6943e18, rel=1e-4)
        short = record["outputs"]["short_lifetime"]
        assert short["k_prime_ratio"] == pytest.approx(168.578, rel=1e-4)
        assert short["in_regime"]

    def test_running_mode_in_grid_rejected(self, capsys, tmp_path):
        cfg = dict(BASE_CFG)
        cfg["screen"] = {"mass_kg": 0.1}
        cfg["grids"] = dict(BASE_CFG["grids"], kx=[0.5, 10.0])
        path = write_cfg(tmp_path, cfg)
        rc, _, err = run_main(capsys, "lifetime", "--config", path)
        assert rc == 2
        assert json.loads(err)["error"]["field"] == "grids.kx"

    @pytest.mark.parametrize("name", ["lifetime", "scenario-lifetime"])
    @pytest.mark.parametrize("scenario", [[], False, 0, ""])
    def test_non_object_scenario_rejected(self, capsys, tmp_path, name, scenario):
        cfg = dict(BASE_CFG, screen={"mass_kg": 0.1}, grids={"kx": [10.0]}, scenario=scenario)
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == "scenario"

    def test_scenario_keys_besides_tau_max_not_read(self, capsys, tmp_path):
        cfg = dict(BASE_CFG, screen={"mass_kg": 0.1}, grids={"kx": [10.0]})
        plain = run_main(capsys, "lifetime", "--config", write_cfg(tmp_path, cfg))
        extra = dict(cfg, scenario={"tau_max_s": 1e17, "kx_ratio": 0.5, "unknown": "x"})
        assert run_main(capsys, "lifetime", "--config", write_cfg(tmp_path, extra)) == plain
        assert plain[0] == 0


class TestScenarios:
    def test_probe_spread_bundled_defaults(self, capsys):
        rc, out, _ = run_main(capsys, "scenario-probe-spread")
        assert rc == 0
        record = json.loads(out)
        assert record["outputs"]["spread_exceeds_three_orders"] is True
        assert 1.5e3 <= record["outputs"]["spread_ratio"] <= 2.0e3

    def test_lifetime_bundled_defaults(self, capsys):
        rc, out, _ = run_main(capsys, "scenario-lifetime")
        assert rc == 0
        record = json.loads(out)
        out_block = record["outputs"]
        # computed and quoted lifetimes side by side
        assert out_block["tau_deep_cw_s"] == pytest.approx(1.68578e18, rel=1e-4)
        assert out_block["reference_tau_s"] == 1.8e18
        assert out_block["reference_relative_deviation"] < 0.10

    @pytest.mark.parametrize("name, scenario, field", [
        ("scenario-lifetime", {"kx_ratio": 0.5}, "scenario.kx_ratio"),
        ("scenario-lifetime", {"mass_kg": -1}, "scenario.mass_kg"),
        ("scenario-lifetime", {"k0_si": 0}, "scenario.k0_si"),
        ("scenario-lifetime", {"tau_max_s": -5}, "scenario.tau_max_s"),
        ("scenario-lifetime", {"slit_width_ratio": -1, "tau_max_s": 1e17}, "scenario.slit_width_ratio"),
        ("scenario-probe-spread", {"kx_ratio": 0.5}, "scenario.kx_ratio"),
        ("scenario-probe-spread", {"delta_z_si": -1}, "scenario.delta_z_si"),
        ("scenario-probe-spread", {"velocity_ratio": 0}, "scenario.velocity_ratio"),
        ("scenario-probe-spread", {"lambda0_si": 0}, "scenario.lambda0_si"),
    ])
    def test_bad_scenario_value_names_its_key(self, capsys, tmp_path, name, scenario, field):
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, {"scenario": scenario}))
        assert rc == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == field


    @pytest.mark.parametrize("name, key, default", [
        ("scenario-probe-spread", "lambda0_si", 5e-7),
        ("scenario-probe-spread", "kx_ratio", 5.0),
        ("scenario-probe-spread", "velocity_ratio", 1e-3),
        ("scenario-probe-spread", "distance_si", 0.1),
        ("scenario-probe-spread", "delta_z_si", 1e-7),
        ("scenario-lifetime", "mass_kg", 0.1),
        ("scenario-lifetime", "k0_si", 7.5e6),
        ("scenario-lifetime", "kx_ratio", 10.0),
        ("scenario-lifetime", "slit_width_ratio", 1.0),
    ])
    def test_omitted_key_takes_its_default(self, capsys, tmp_path, name, key, default):
        bundled = {"scenario-probe-spread": "probe_spread.json", "scenario-lifetime": "lifetime.json"}[name]
        scenario = json.loads(resources.files("nearwave").joinpath("configs", bundled).read_text(encoding="utf-8"))
        scenario = scenario["scenario"]
        explicit = run_main(capsys, name, "--config", write_cfg(tmp_path, {"scenario": {**scenario, key: default}}))
        del scenario[key]
        assert run_main(capsys, name, "--config", write_cfg(tmp_path, {"scenario": scenario})) == explicit
        assert explicit[0] == 0


class TestRecoilSolvesPerRecord:
    @pytest.mark.parametrize("name, kxs", [
        ("recoil", [0.5, 2.0, 5.0]),
        ("lifetime", [2.0, 5.0]),
        ("scenario-lifetime", None),  # bundled config, kx_ratio = 10
    ])
    def test_one_recoil_solution_per_kx_record(self, capsys, tmp_path, monkeypatch, name, kxs):
        solved = []
        solve = recoil.recoil_solution

        def counted(kx, screen):
            solved.append(kx)
            return solve(kx, screen)

        monkeypatch.setattr(recoil, "recoil_solution", counted)
        argv = [name] if kxs is None else [name, "--config", write_cfg(tmp_path, dict(BASE_CFG, grids={"kx": kxs}))]
        rc, _, _ = run_main(capsys, *argv)
        assert rc == 0
        assert solved == (kxs or [10.0])


class TestNonFiniteRecords:
    def test_lifetime_k_prime_overflow_is_config_error(self, capsys, tmp_path):
        cfg = {"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e30}, "aperture": {"kind": "single_slit", "a": 1.0},
               "grids": {"kx": [3.0]}, "scenario": {"tau_max_s": 1e-300}}
        rc, out, err = run_main(capsys, "lifetime", "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["field"] == "scenario.tau_max_s"

    def test_scenario_lifetime_k_prime_overflow_is_config_error(self, capsys, tmp_path):
        rc, out, err = run_main(capsys, "scenario-lifetime", "--config",
                                write_cfg(tmp_path, {"scenario": {"tau_max_s": 1e-300}}))
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["field"] == "scenario.tau_max_s"

    @pytest.mark.parametrize("name, cfg", [
        ("lifetime", {"k0_si": 1e-290, "screen": {"K_M_ratio": 10.0}, "aperture": {"kind": "single_slit", "a": 1.0},
                      "grids": {"kx": [3.0]}, "scenario": {"tau_max_s": 1e-50}}),
        ("scenario-lifetime", {"scenario": {"mass_kg": 1e-300, "k0_si": 1e-250, "tau_max_s": 1e-300}}),
    ])
    def test_k_prime_rate_underflow_is_config_error(self, capsys, tmp_path, name, cfg):
        # c k0 tau_max rounds to 0, so k' = K_M/(c k0 tau_max) is past the float range
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == ""
        message = f"tau_max_s = {cfg['scenario']['tau_max_s']!r} inverts to a*k' = inf"
        assert json.loads(err)["error"] == {"type": "config", "field": "scenario.tau_max_s", "message": message}

    @pytest.mark.parametrize("name, cfg", [
        # a*k' = 4.4e-286: (a k')^-3 raises OverflowError
        ("lifetime", {"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e30}, "aperture": {"kind": "single_slit", "a": 1e-300},
                      "grids": {"kx": [2.0]}, "scenario": {"tau_max_s": 1.0}}),
        ("scenario-lifetime", {"scenario": {"slit_width_ratio": 1e-300, "tau_max_s": 1.0}}),
        # a*k' = 3e-103: (a k')^-3 is finite, but 8 pi/3 times it is inf
        ("lifetime", {"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e30},
                      "aperture": {"kind": "single_slit", "a": 3e-103 / 4.4475212693086945e14},
                      "grids": {"kx": [2.0]}, "scenario": {"tau_max_s": 1.0}}),
        # a*k' underflows to 0.0: (a k')^-3 raises ZeroDivisionError
        ("lifetime", {"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e-300}, "aperture": {"kind": "single_slit", "a": 1e-180},
                      "grids": {"kx": [2.0]}, "scenario": {"tau_max_s": 1e-170}}),
        ("scenario-lifetime", {"scenario": {"mass_kg": 1e-300, "slit_width_ratio": 1e-250, "tau_max_s": 1e-170,
                                            "kx_ratio": 2.0}}),
    ])
    def test_cubic_asymptote_overflow_is_config_error(self, capsys, tmp_path, name, cfg):
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and err.count("\n") == 1 and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == "scenario.tau_max_s"

    def test_probe_spread_division_by_zero_names_its_inputs(self, capsys, tmp_path):
        rc, out, err = run_main(capsys, "scenario-probe-spread", "--config",
                                write_cfg(tmp_path, {"scenario": {"lambda0_si": 1e-300}}))
        assert rc == 4 and out == "" and err.count("\n") == 1 and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input" and "lambda0_si=1e-300" in error["message"]

    def test_lifetime_huge_finite_k_prime_underflows_to_zero(self, capsys, tmp_path):
        # a*k' ~ 4e264: the tail odds underflow to 0 instead of overflowing q'^n
        cfg = {"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e30}, "aperture": {"kind": "single_slit", "a": 1.0},
               "grids": {"kx": [3.0]}, "scenario": {"tau_max_s": 1e-250}}
        rc, out, _ = run_main(capsys, "lifetime", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0
        short = json.loads(out)["outputs"]["short_lifetime"]
        assert short["in_regime"] and short["probability"] == 0.0

    def test_recoil_overflow_names_kx(self, capsys, tmp_path):
        cfg = {"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e300}, "grids": {"kx": [1e200, 5.0]}}
        rc, out, err = run_main(capsys, "recoil", "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input" and "kx=1e+200" in error["message"]

    @pytest.mark.parametrize("name", ["lifetime", "scenario-lifetime"])
    def test_lifetime_overflow_names_kx(self, capsys, tmp_path, name):
        # Gamma and chi_z overflow to inf, which would put 0.0 in every lifetime but the deep-CW one
        cfg = ({"k0_si": 7.5e6, "screen": {"K_M_ratio": 1e300}, "aperture": {"kind": "single_slit", "a": 1.0},
                "grids": {"kx": [1e200, 5.0]}} if name == "lifetime" else {"scenario": {"kx_ratio": 1e200}})
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input" and "kx=1e+200: OverflowError" in error["message"]

    @pytest.mark.parametrize("name, patch, field", [
        ("recoil", {"screen": {"mass_kg": 1e300}}, "screen.mass_kg"),
        ("lifetime", {"screen": {"mass_kg": 1e300}}, "screen.mass_kg"),
        ("transfer", {"probe": {"mass_kg": 1e300, "K0_ratio": 1.0}}, "probe.mass_kg"),
        ("transfer", {"k0_si": 1e-300}, "k0_si"),  # the electron's mass is no config field
        ("recoil", {"k0_si": 1e-300, "screen": {"mass_kg": 0.1}}, "screen.mass_kg"),
        ("scenario-lifetime", {"scenario": {"k0_si": 1e-300}}, "scenario.k0_si"),
        ("scenario-lifetime", {"scenario": {"mass_kg": 1e300}}, "scenario.mass_kg"),
    ])
    def test_compton_ratio_outside_float_range_names_its_field(self, capsys, tmp_path, name, patch, field):
        cfg = dict(BASE_CFG, grids={"kx": [3.0]}, **patch)
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == field

    def test_recoil_division_by_zero_names_kx(self, capsys, tmp_path):
        cfg = {"k0_si": 1e-300, "screen": {"K_M_ratio": 10}, "grids": {"kx": [2.0]}}
        rc, out, err = run_main(capsys, "recoil", "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input" and "kx=2.0" in error["message"]

    def test_emit_json_rejects_non_finite(self, capsys, tmp_path):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(cli.DegenerateInputError, match=r"^outputs\.value is "):
                cli._json_record({"outputs": {"value": bad}})
        # a lifetime record: the number sits in a mode dict, so the message names that mode's kx
        lifetime = {"inputs": {"kx": [3.0, 7.5]}, "outputs": {"modes": [
            {"kx": 3.0, "tau_exact_s": 2.0}, {"kx": 7.5, "tau_exact_s": math.inf}]}, "warnings": []}
        with pytest.raises(cli.DegenerateInputError, match=r"kx=7\.5: outputs\.modes\[1\]\.tau_exact_s is inf"):
            cli._json_record(lifetime)
        # a record the JSON writer refuses leaves no --out behind
        out = tmp_path / "rec.json"
        cfg = write_cfg(tmp_path, {"scenario": {"velocity_ratio": 1e-320}})
        rc, stdout, err = run_main(capsys, "scenario-probe-spread", "--config", cfg, "--out", str(out))
        assert rc == 4 and stdout == ""
        assert json.loads(err)["error"]["message"] == "outputs.spread_ratio is inf, which JSON cannot hold"
        assert not out.exists()


def _json_leaves():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.text(),  # non-ASCII and control characters included
        st.text(alphabet=st.characters(max_codepoint=127)),
        st.integers(),
        st.sampled_from([10**300, -(10**300)]),
        finite,
        st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
        finite.map(np.float64),
        st.booleans(),
        st.none(),
    )


def _json_trees():
    def containers(children):
        return st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple) | \
            st.dictionaries(st.text(max_size=6), children, max_size=4)

    return st.dictionaries(st.text(max_size=6), st.recursive(_json_leaves(), containers, max_leaves=20),
                           min_size=1, max_size=5)


def _positions(obj, path=()):
    """The path (keys and indices) of every value below ``obj``."""
    steps = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, (list, tuple)) else ()
    for step, value in steps:
        yield (*path, step)
        yield from _positions(value, (*path, step))


def _planted(obj, path, bad):
    """A copy of ``obj`` with the value at ``path`` replaced by ``bad``."""
    if not path:
        return bad
    step, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, step: _planted(obj[step], rest, bad)}
    items = list(obj)
    items[step] = _planted(items[step], rest, bad)
    return type(obj)(items)


class TestRecordEmitter:
    @given(_json_trees())
    def test_matches_json_dumps_byte_for_byte(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @given(_json_trees(), st.sampled_from([math.inf, -math.inf, math.nan]), st.data())
    def test_non_finite_number_named_by_its_path(self, obj, bad, data):
        path = data.draw(st.sampled_from(list(_positions(obj))))
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]  # path[0] is a key
        with pytest.raises(cli.DegenerateInputError) as excinfo:
            cli._json_record(_planted(obj, path, bad))
        assert f"{where} is {bad!r}, " in str(excinfo.value)

    def test_other_types_rejected(self):
        # record types are named tuples: one left in a record is an error, not a JSON array
        for value in ({1, 2}, np.int64(3), np.bool_(True), 1j, recoil.Threshold(eta=0.5, one_minus_eta=0.5)):
            with pytest.raises(TypeError):
                cli._json_text({"outputs": {"value": value}})

    @pytest.mark.parametrize("name, cfg", [
        ("transfer", BASE_CFG),
        ("recoil", BASE_CFG),
        ("lifetime", dict(BASE_CFG, grids={"kx": [2.0, 10.0]})),  # evanescent kx only
        ("scenario-lifetime", None),  # bundled configs
        ("scenario-probe-spread", None),
    ])
    def test_json_subcommands_print_json_dumps_layout(self, capsys, tmp_path, name, cfg):
        argv = [name] if cfg is None else [name, "--config", write_cfg(tmp_path, cfg)]
        rc, out, _ = run_main(capsys, *argv)
        assert rc == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestColdImport:
    def test_import_and_a_spectrum_call_load_no_scipy(self, tmp_path):
        # the package computes with numpy alone; scipy is a test dependency only
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "modes.csv")
        code = (
            "import sys\n"
            "import nearwave.cli\n"
            "print('scipy.interpolate' in sys.modules)\n"
            f"rc = nearwave.cli.main(['spectrum', '--config', {cfg!r}, '--out', {out!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.split("\n")[:2] == ["False", "0 []"]

    def test_no_class_building_at_import(self):
        # @dataclass execs six generated methods per class and numpy.polynomial
        # takes 3-7 ms to import; no call needs either
        code = "import sys, nearwave.cli; print(sorted({'dataclasses', 'numpy.polynomial'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_record_layers_load_neither_numpy_nor_the_field_layers(self):
        # recoil and probe compute with math alone, and the package namespace re-exports nothing
        code = (
            "import json, sys\n"
            "import nearwave\n"
            "public = sorted(name for name in vars(nearwave) if not name.startswith('_'))\n"
            "import nearwave.recoil, nearwave.probe, nearwave.kinematics, nearwave.modes, nearwave.quantities\n"
            "import nearwave.errors\n"
            "heavy = {'numpy', 'nearwave.aperture', 'nearwave.quadrature', 'nearwave.nearfield'}\n"
            "print(json.dumps({'public': public, 'version': hasattr(nearwave, '__version__'),\n"
            "                  'loaded': sorted(heavy & set(sys.modules))}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == {"public": [], "version": True, "loaded": []}

    def test_field_and_lifetime_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique without index outputs imports numpy.ma (10-18 ms) on the
        # first adaptive_quad call of a process; the edges are deduplicated
        # without it.  tau_max_s = 3e18 puts q' = a k' near 5.6, below the
        # series start q' = 10, so tail_probability runs its K31 panel too.
        cfg = dict(BASE_CFG, screen={"mass_kg": 0.1}, grids=dict(BASE_CFG["grids"], kx=[10.0]),
                   scenario={"tau_max_s": 3e18})
        path = write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        a = BASE_CFG["aperture"]["a"]
        code = (
            "import json, sys\n"
            "import nearwave.cli\n"
            f"rcs = [nearwave.cli.main([sub, '--config', {path!r}, '--out', {out!r}])\n"
            "       for sub in ('field', 'lifetime')]\n"
            f"q = json.load(open({out!r}))['outputs']['short_lifetime']['k_prime_ratio'] * {a!r}\n"
            "print(json.dumps({'rcs': rcs, 'q': q, 'ma': 'numpy.ma' in sys.modules}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        seen = json.loads(proc.stdout)
        assert seen["rcs"] == [0, 0] and seen["q"] < 10.0
        assert not seen["ma"]

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        ks = np.linspace(0.0, 8.0, 33)
        csv_path = tmp_path / "prof.csv"
        csv_path.write_text("kx,F\n" + "".join(f"{k},{math.exp(-0.25 * k * k)}\n" for k in ks))
        # x = 0.505 lies within 1/k_hi = 0.01 of the a = 1 slit's edge, so the
        # field tail takes E_1 from its series; for the probe (z0 = 1, delta_z
        # = 0.5) kx = 2 takes the erfcx reflection, 5 and 60 the two erfcx routes
        grids = {"kx": [2.0, 5.0, 60.0], "x": [0.2, 0.505], "z": [0.0, 0.005]}
        slit = write_cfg(tmp_path, dict(BASE_CFG, grids=grids), "slit.json")
        apertures = [{"kind": "gaussian", "w": 1.0}, {"kind": "tabulated", "path": str(csv_path)}]
        runs = [["field", "--config", slit]]
        runs += [["field", "--config", write_cfg(tmp_path, dict(BASE_CFG, grids=grids, aperture=ap), f"ap{i}.json")]
                 for i, ap in enumerate(apertures)]
        runs += [[sub, "--config", slit] for sub in ("spectrum", "absorb", "transfer", "recoil", "lifetime")]
        runs += [["scenario-lifetime"], ["scenario-probe-spread"]]
        out = str(tmp_path / "out")
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "import nearwave.cli\n"
            "from nearwave import aperture, probe\n"
            "erfcx, series, args, hits = probe._erfcx, aperture._exp1_series, [], []\n"
            "probe._erfcx = lambda x: args.append(x) or erfcx(x)\n"
            "aperture._exp1_series = lambda z: hits.append(z) or series(z)\n"
            f"rcs = [nearwave.cli.main([*argv, '--out', {out!r}]) for argv in {runs!r}]\n"
            "print(json.dumps({'rcs': rcs, 'erfcx': args, 'series': len(hits)}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        seen = json.loads(proc.stdout)
        assert seen["rcs"] == [0] * len(runs)
        assert min(seen["erfcx"]) < 26.0 <= max(seen["erfcx"])
        assert seen["series"] > 0

    @staticmethod
    def _blas_setting(imports: str, value: str | None = None) -> dict:
        """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter after ``imports``, started with
        the variable unset or set to ``value``; the count is None where /proc is absent."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        code = (
            f"import json, os\n{imports}\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
            "print(json.dumps({'value': os.environ.get('OPENBLAS_NUM_THREADS'), 'tasks': tasks}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        return json.loads(proc.stdout)

    def test_cli_pins_one_blas_thread_before_numpy_loads(self):
        seen = self._blas_setting("import nearwave.cli")
        assert seen["value"] == "1"
        if seen["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert seen["tasks"] == 1

    def test_cli_keeps_a_blas_thread_count_the_user_set(self):
        assert self._blas_setting("import nearwave.cli", "2")["value"] == "2"

    def test_cli_leaves_blas_alone_once_numpy_is_loaded(self):
        # the pin could no longer act: OpenBLAS read the variable as numpy loaded
        assert self._blas_setting("import numpy\nimport nearwave.cli")["value"] is None


class TestErrorsAndChecks:
    def test_missing_config(self, capsys):
        rc, _, err = run_main(capsys, "spectrum")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "config"

    def test_nonexistent_config_file(self, capsys):
        rc, _, err = run_main(capsys, "spectrum", "--config", "/nonexistent.json")
        assert rc == 2

    @pytest.mark.parametrize("config, out, field", [
        ("run.json", "missing/modes.csv", "--out"),  # --out in a directory that does not exist
        ("run.json", ".", "--out"),  # --out naming a directory
        (".", None, "<file>"),  # --config naming a directory
    ])
    def test_unwritable_out_or_unreadable_config_names_it(self, capsys, tmp_path, config, out, field):
        write_cfg(tmp_path, BASE_CFG)
        argv = ["--config", str(tmp_path / config)] + ([] if out is None else ["--out", str(tmp_path / out)])
        rc, stdout, err = run_main(capsys, "spectrum", *argv)
        assert rc == 2 and stdout == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == field

    @pytest.mark.parametrize("name, cfg, field", [
        ("recoil", [BASE_CFG], "<root>"),
        ("recoil", {k: v for k, v in BASE_CFG.items() if k != "screen"}, "screen"),
        ("recoil", dict(BASE_CFG, screen=[10.0]), "screen"),
        ("recoil", {k: v for k, v in BASE_CFG.items() if k != "k0_si"}, "k0_si"),
        ("recoil", dict(BASE_CFG, screen={"mass_kg": 0.1, "K_M_ratio": 10.0}), "screen"),
        ("recoil", dict(BASE_CFG, screen={}), "screen"),
        ("field", dict(BASE_CFG, aperture={"kind": "tabulated", "path": 1}), "aperture.path"),
        ("field", dict(BASE_CFG, aperture={"kind": "square", "a": 1.0}), "aperture.kind"),
        ("absorb", dict(BASE_CFG, probe=dict(BASE_CFG["probe"], z0=-1.0), grids={"kx": [2.0]}), "probe.z0"),
        ("transfer", dict(BASE_CFG, probe={"K0_ratio": 1.0}), "probe"),
        ("recoil", dict(BASE_CFG, grids={}), "grids.kx"),
        ("recoil", dict(BASE_CFG, grids={"kx": []}), "grids.kx"),
        ("field", dict(BASE_CFG, grids=dict(BASE_CFG["grids"], x={"start": 1.0, "stop": 0.0, "num": 2})), "grids.x"),
        ("field", dict(BASE_CFG, grids=dict(BASE_CFG["grids"], x="0:1")), "grids.x"),
        ("scenario-lifetime", {"scenario": {"kx": 10.0}}, "scenario.kx"),
        ("field", dict(BASE_CFG, grids=dict(BASE_CFG["grids"], z=[0.5, -0.5])), "grids.z"),
        ("lifetime", dict(BASE_CFG, aperture={"kind": "gaussian", "w": 1.0}, grids={"kx": [10.0]}), "aperture.kind"),
    ])
    def test_refusal_names_its_field(self, capsys, tmp_path, name, cfg, field):
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, cfg))
        assert rc == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == field

    def test_malformed_section_path(self, capsys, tmp_path):
        cfg = dict(BASE_CFG)
        cfg["aperture"] = {"kind": "single_slit"}
        path = write_cfg(tmp_path, cfg)
        rc, _, err = run_main(capsys, "field", "--config", path)
        assert rc == 2
        assert json.loads(err)["error"]["field"] == "aperture.a"

    @pytest.mark.parametrize("name, patch, field", [
        ("recoil", {"screen": {"K_M_ratio": 10**400}}, "screen.K_M_ratio"),
        ("recoil", {"k0_si": 10**400}, "k0_si"),
        ("scenario-lifetime", {"scenario": {"kx_ratio": 10**400}}, "scenario.kx_ratio"),
        ("field", {"grids": dict(BASE_CFG["grids"], x=[0.0, 10**400])}, "grids.x"),
        ("recoil", {"grids": {"kx": [2.0, 10**400]}}, "grids.kx"),
        ("lifetime", {"grids": {"kx": [2.0]}, "scenario": {"tau_max_s": 10**400}}, "scenario.tau_max_s"),
    ])
    def test_integer_beyond_float_range_names_its_field(self, capsys, tmp_path, name, patch, field):
        rc, out, err = run_main(capsys, name, "--config", write_cfg(tmp_path, dict(BASE_CFG, **patch)))
        assert rc == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "config" and error["field"] == field

    def test_integer_past_digit_limit_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"k0_si": 1' + "0" * 5000 + "}")
        rc, out, err = run_main(capsys, "recoil", "--config", str(path))
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["field"] == "<file>"

    @pytest.mark.parametrize("arg, content, field, message", [
        ("nope.json", None, "<file>", "config file not found: nope.json"),
        ("./nope.json", None, "<file>", "config file not found: nope.json"),
        ("d/", None, "<file>", f"cannot read the config file: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'd'"),
        ("run.json", b'\xef\xbb\xbf{"k0_si": 1.0}', "<file>",
         "config is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("run.json", b'{"k0_si": "\xff"}', "<file>",
         "config is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
        ("run.json", b"[1, 2]", "<root>", "config must be a JSON object"),
        ("run.json", b'{"k0_si": 1' + b"0" * 4999 + b"}", "<file>",
         "config is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
         "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
        # positions count each CR LF and lone CR as one newline, as a text-mode read translates them
        ("run.json", b'{\r\n  "k0_si": 1.0,\r\n  "screen": \r}', "<file>",
         "config is not valid JSON: Expecting value: line 4 column 1 (char 31)"),
    ], ids=["missing", "dot-prefixed", "directory-with-slash", "bom", "invalid-utf-8", "array", "5000-digits", "crlf"])
    def test_config_read_error_names_field_and_message(self, tmp_path, monkeypatch, arg, content, field, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        if content is not None:
            (tmp_path / arg).write_bytes(content)
        with pytest.raises(ConfigError) as exc:
            load_config(arg)
        assert (exc.value.field, exc.value.message) == (field, message)

    def test_dot_prefixed_config_path_loads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, BASE_CFG)
        assert load_config("./run.json") == BASE_CFG

    @pytest.mark.parametrize("name", sorted(cli._HANDLERS))
    def test_tolerance_offered_on_no_subcommand(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--tolerance", "0.5"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["field", "--help"], ["scenario-lifetime", "-h"], ["field", "--bogus"], ["field", "extra"],
        ["field", "--tolerance", "abc"], ["recoil", "--config"], ["spectrum", "--tolerance", "1"],
    ])
    def test_parser_exit_codes(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == (0 if argv[-1] in ("--help", "-h") else 2)

    def test_repeated_main_reuses_the_parser(self, capsys, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, BASE_CFG)
        run_main(capsys, "spectrum", "--config", cfg)
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        rc, _, _ = run_main(capsys, "spectrum", "--config", cfg)
        assert rc == 0 and built == []
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0 and built == []
        out = capsys.readouterr().out
        assert all(name in out for name in cli._HANDLERS)

    def test_cached_parser_carries_no_option_into_the_next_call(self, tmp_path, monkeypatch):
        outs = []
        monkeypatch.setitem(cli._HANDLERS, "field", lambda cfg: "")
        monkeypatch.setattr(cli, "_write_text", lambda out, text: outs.append(out))
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["field", "--config", cfg, "--out", "p"]) == 0
        assert cli.main(["field", "--config", cfg]) == 0
        assert outs == ["p", None]

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["field", "--bogus"]])
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: nearwave [-h]")
        assert "{" + ",".join(cli._HANDLERS) + "}" in err  # every subcommand, also after "field"
        assert "\nnearwave: error: " in err

    def test_help_lists_each_subcommand_on_its_own_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "40")  # a narrow terminal rewraps no line of the list
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        assert exc.value.code == 0
        for name in cli._HANDLERS:
            assert any(re.fullmatch(rf" +{name} +run the {name} computation", line) for line in lines), name

    def test_subcommand_help_exits_0_and_names_both_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["field", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--config CONFIG" in out and "--out OUT" in out

    def test_options_before_the_subcommand_write_the_same_bytes(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        before = run_main(capsys, "--config", cfg, "spectrum")
        assert before[0] == 0 and before == run_main(capsys, "spectrum", "--config", cfg)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_main(capsys, "--out", str(first), "--config", cfg, "spectrum") == (0, "", "")
        assert run_main(capsys, "spectrum", "--config", cfg, "--out", str(second)) == (0, "", "")
        assert first.read_bytes() == second.read_bytes()


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["spectrum", "--config"], ["scenario-lifetime"]])
    def test_closed_pipe_exits_141_quietly(self, tmp_path, argv):
        # stdout is a pipe whose read end is already closed; with and without
        # Python's own stdout buffering the write must end in 141, not a traceback
        if argv[-1] == "--config":
            argv = [*argv, write_cfg(tmp_path, BASE_CFG)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            r, w = os.pipe()
            os.close(r)
            try:
                proc = subprocess.run([sys.executable, "-m", "nearwave.cli", *argv], stdout=w,
                                      stderr=subprocess.PIPE, env={**env, **extra}, timeout=120)
            finally:
                os.close(w)
            assert (proc.returncode, proc.stderr) == (141, b""), extra

    @pytest.mark.parametrize("stdout", ["/dev/full", "closed"])
    def test_unwritable_stdout_exits_2_naming_it(self, stdout):
        # a full device, or a stdout closed before Python starts (>&-), is refused as an unwritable --out is:
        # one JSON error line, and no traceback, also from the interpreter's final flush
        if stdout == "/dev/full" and not os.path.exists(stdout):
            pytest.skip("this system has no /dev/full")
        argv = [sys.executable, "-m", "nearwave.cli", "scenario-lifetime"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            if stdout == "closed":
                proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], stderr=subprocess.PIPE,
                                      env={**env, **extra}, timeout=120)
            else:
                with open(stdout, "wb") as fh:
                    proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, env={**env, **extra}, timeout=120)
            err = proc.stderr.decode()
            assert proc.returncode == 2 and err.count("\n") == 1, (extra, err)
            assert json.loads(err)["error"]["field"] == "<stdout>", extra


class TestOutFileAndDeterminism:
    def test_out_file_written(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out_path = tmp_path / "modes.csv"
        rc, out, _ = run_main(capsys, "spectrum", "--config", cfg, "--out", str(out_path))
        assert rc == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("period,m,kx")
        assert "\r" not in text

    @pytest.mark.parametrize("name", sorted(cli._HANDLERS))
    def test_handler_returns_the_text_main_writes(self, capsys, tmp_path, monkeypatch, name):
        # a subcommand maps its config to its text; main alone writes it, so the handler makes no file
        if name in cli._BUNDLED:
            cfg = str(resources.files("nearwave").joinpath("configs", cli._BUNDLED[name]))
        else:
            cfg = write_cfg(tmp_path, dict(BASE_CFG, grids=dict(BASE_CFG["grids"], kx=[2.0, 10.0])))
        out_path = tmp_path / "out.txt"
        assert run_main(capsys, name, "--config", cfg, "--out", str(out_path)) == (0, "", "")
        written = out_path.read_bytes()
        out_path.unlink()
        monkeypatch.chdir(tmp_path)
        files = sorted(tmp_path.iterdir())
        assert cli._HANDLERS[name](load_config(cfg)).encode() == written
        assert sorted(tmp_path.iterdir()) == files and capsys.readouterr() == ("", "")

    def test_repeated_runs_byte_identical(self, tmp_path):
        for sub in ("scenario-probe-spread", "scenario-lifetime"):
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "nearwave.cli", sub],
                    capture_output=True,
                    check=True,
                )
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]


@pytest.mark.parametrize("build, message", [
    (lambda: aperture.SingleSlitProfile(a=0.0), "slit width must be positive, got 0.0"),
    (lambda: aperture.GaussianProfile(w=-1.0), "width must be positive, got -1.0"),
    (lambda: grating_modes(0.0, 1), "grating period must be positive, got 0.0"),
    (lambda: ScreenSpec(K_M=-2.0), "K_M must be positive, got -2.0"),
    (lambda: GaussianPacket(z0=1.0, delta_z=0.0), "delta_z must be positive, got 0.0"),
    (lambda: GaussianPacket(z0=-0.5, delta_z=1.0), "z0 must be non-negative, got -0.5"),
    (lambda: ScaledUnits(k0=0.0), "k0 must be positive and finite, got 0.0"),
])
def test_spec_constructors_refuse_non_positive_values(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message
