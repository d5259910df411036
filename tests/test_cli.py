import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nearwave import aperture, cli, recoil
from nearwave.kinematics import evanescence_transfer
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
        # library float bit for bit (kx = 3 * (1/2.5), not 3/2.5)
        assert float(m3["kx"]) == 3 * (1.0 / 2.5)


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
        # must still agree with its own field_at / probability_current_x to
        # what the quadrature was asked for (3 integrals, safety factor 4)
        from nearwave.aperture import GaussianProfile, SingleSlitProfile, TabulatedProfile
        from nearwave.nearfield import field_at, field_dx_at, probability_current_x

        abs_tol, rel_tol = 1e-12, 1e-10

        def err(scale):
            return 4.0 * 3.0 * max(abs_tol, rel_tol * scale)

        def scale(s):
            return max(abs(s.psi_rw), abs(s.psi_cw), abs(s.psi_total))

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
                s = field_at(x, z, profile)
                d = field_dx_at(x, z, profile)
                bound = err(scale(s))
                for got, want in (
                    (complex(float(r["re_psi_rw"]), float(r["im_psi_rw"])), s.psi_rw),
                    (complex(float(r["re_psi_cw"]), float(r["im_psi_cw"])), s.psi_cw),
                    (complex(float(r["re_psi_total"]), float(r["im_psi_total"])), s.psi_total),
                ):
                    assert abs(got - want) <= bound, (aperture, x, z, got, want)
                j_bound = abs(d.psi_total) * bound + abs(s.psi_total) * err(scale(d))
                assert abs(float(r["J_x"]) - probability_current_x(x, z, profile)) <= j_bound
                mirror = float(rows[(-x, z)]["J_x"])
                assert abs(float(r["J_x"]) + mirror) <= 2.0 * j_bound, (aperture, x, z)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_rejected_before_computing(self, capsys, tmp_path, monkeypatch, value):
        def refuse(*args, **kwargs):
            raise AssertionError("field computed despite an invalid --tolerance")

        monkeypatch.setattr(cli.nearfield, "field_grid", refuse)
        cfg = write_cfg(tmp_path, BASE_CFG)
        rc, out, err = run_main(capsys, "field", "--config", cfg, "--tolerance", value)
        assert rc == 2
        assert out == ""
        assert json.loads(err)["error"]["field"] == "--tolerance"


    @pytest.mark.parametrize("a, x", [(0.5, 20.0), (1.0, 60.0)])
    def test_screen_plane_far_from_slit(self, capsys, tmp_path, a, x):
        # the long CW range once ran out to a*k = 1e4 here and hit the panel budget
        cfg = dict(BASE_CFG, aperture={"kind": "single_slit", "a": a}, grids={"x": [-x, x], "z": [0.0]})
        rc, out, _ = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for r in rows:
            psi = [complex(float(r[f"re_psi_{p}"]), float(r[f"im_psi_{p}"])) for p in ("rw", "cw", "total")]
            scale = max(abs(v) for v in psi)
            assert abs(psi[2]) <= 4.0 * 3.0 * max(1e-12, 1e-10 * scale)  # closed form: 0 outside the slit
        assert float(rows[0]["J_x"]) == -float(rows[1]["J_x"])

    def test_overflowing_slit_tail_is_quadrature_error(self, capsys, tmp_path):
        # a = 1e-30 overflows the slit tail's (pi/a)^(2n)/a^2 coefficients at z = 0
        cfg = dict(BASE_CFG, aperture={"kind": "single_slit", "a": 1e-30}, grids={"x": [0.0], "z": [0.0]})
        rc, out, err = run_main(capsys, "field", "--config", write_cfg(tmp_path, cfg))
        assert rc == 3 and out == ""
        assert "not finite" in json.loads(err)["error"]["message"]

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

        want = absorption_probability(2.0, GaussianPacket(z0=1.0, delta_z=0.5), SingleSlitProfile(a=1.0))
        assert float(rows[0]["probability"]) == want  # 17g serialization is bit-exact

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

    def test_recoil_division_by_zero_names_kx(self, capsys, tmp_path):
        cfg = {"k0_si": 1e-300, "screen": {"K_M_ratio": 10}, "grids": {"kx": [2.0]}}
        rc, out, err = run_main(capsys, "recoil", "--config", write_cfg(tmp_path, cfg))
        assert rc == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "degenerate-input" and "kx=2.0" in error["message"]

    def test_emit_json_rejects_non_finite(self, tmp_path):
        out = tmp_path / "rec.json"
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(cli.DegenerateInputError):
                cli._emit_json(str(out), {"outputs": {"value": bad}})
        assert not out.exists()


class TestColdImport:
    def test_scipy_deferred_to_first_use(self, tmp_path):
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


class TestErrorsAndChecks:
    def test_missing_config(self, capsys):
        rc, _, err = run_main(capsys, "spectrum")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "config"

    def test_nonexistent_config_file(self, capsys):
        rc, _, err = run_main(capsys, "spectrum", "--config", "/nonexistent.json")
        assert rc == 2

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

    @pytest.mark.parametrize("name", sorted(set(cli._HANDLERS) - {"field"}))
    def test_tolerance_only_offered_on_field(self, capsys, name):
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
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        rc, _, _ = run_main(capsys, "spectrum", "--config", cfg)
        assert rc == 0 and built == []
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0 and built == []
        out = capsys.readouterr().out
        assert all(name in out for name in cli._HANDLERS)

    def test_cached_parser_carries_no_option_into_the_next_call(self, tmp_path, monkeypatch):
        tolerances = []

        def record(cfg, out, tol):
            tolerances.append(tol)
            return 0

        monkeypatch.setattr(cli, "_cmd_field", record)
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["field", "--config", cfg, "--tolerance", "1e-9"]) == 0
        assert cli.main(["field", "--config", cfg]) == 0
        assert tolerances == [1e-9, 1e-12]

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["field", "--bogus"]])
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: nearwave [-h]")
        assert "{" + ",".join(cli._HANDLERS) + "}" in err  # every subcommand, also after "field"
        assert "\nnearwave: error: " in err


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
