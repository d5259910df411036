"""Command-line front end.

Usage:
    nearwave spectrum --config run.json [--out modes.csv]
    nearwave field    --config run.json [--out field.csv] [--tolerance 1e-10]
    nearwave absorb   --config run.json [--out absorb.csv]
    nearwave transfer --config run.json [--out transfer.json]
    nearwave recoil   --config run.json [--out recoil.json]
    nearwave lifetime --config run.json [--out lifetime.json]
    nearwave scenario-probe-spread [--config run.json] [--out report.json]
    nearwave scenario-lifetime     [--config run.json] [--out report.json]

Grid subcommands emit CSV (UTF-8, LF, header row, floats printed with 17
significant digits so repeated runs are byte-identical); single-record
subcommands emit one JSON object with ``inputs``, ``outputs``,
``residuals`` and ``warnings`` keys.  Every row echoes the dimensionless
inputs it was computed from.  The scenario subcommands fall back to bundled
example configs when --config is omitted.

Exit codes: 0 success, 2 configuration errors, 3 quadrature failure,
4 degenerate kinematic input or a record whose numbers overflow (JSON
records never hold NaN or Infinity), 141 (128 + SIGPIPE) when the reader
of stdout has closed it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import aperture as aperture_mod
from . import kinematics, modes, nearfield, probe, recoil
from .config import (
    aperture_from,
    finite_number,
    grating_from,
    grid_from,
    load_config,
    packet_from,
    probe_kinematics_from,
    scenario_kwargs,
    screen_from,
    units_from,
)
from .errors import ConfigError, DegenerateInputError, QuadratureError
from .modes import GratingSpec, WaveKind


def _fmt(value) -> str:
    """17-significant-digit, round-trip-exact float formatting for CSV."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at interpreter exit
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_csv(out_path: str | None, header: list[str], rows: list[list]) -> None:
    """Header and rows as LF-terminated CSV; no field holds a comma, quote or newline."""
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    _write_text(out_path, "\n".join(lines) + "\n")


def _emit_json(out_path: str | None, record: dict) -> None:
    try:
        text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise DegenerateInputError("the record holds a non-finite number") from None
    _write_text(out_path, text + "\n")


def _finite(obj) -> bool:
    """True when no float nested in the dicts and lists of ``obj`` is inf or nan."""
    if isinstance(obj, (dict, list, tuple)):
        return all(map(_finite, obj.values() if isinstance(obj, dict) else obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def _kx_record(build, kx: float, *args) -> dict:
    """build(kx, *args), or DegenerateInputError naming kx if it overflows, divides by zero or holds inf/nan."""
    try:
        rec = build(kx, *args)
        if not _finite(rec):
            raise ValueError("Out of range float values are not JSON compliant")  # json.dumps's own words
    except (ArithmeticError, ValueError) as e:
        raise DegenerateInputError(f"kx={kx!r}: {type(e).__name__}: {e}") from e
    return rec


def _emit_error(kind: str, message: str, **extra) -> None:
    """One JSON error line on stderr; a non-finite number in ``extra`` is written as null."""
    extra = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in extra.items()}
    payload = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _bundled_config(name: str) -> dict:
    ref = resources.files("nearwave").joinpath("configs", name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _cmd_spectrum(cfg: dict, out: str | None) -> int:
    period, m_max = grating_from(cfg)
    grating = GratingSpec(period=period)
    header = ["period", "m", "kx", "kind", "re_kz", "im_kz", "z_d", "u_c"]
    rows = []
    for m, mode in modes.grating_modes(grating, m_max):
        z_d = 1.0 / mode.chi_z if mode.kind is WaveKind.CRAWLING else None
        u_c = modes.phase_velocity(mode.kx) if m != 0 else None
        rows.append([period, m, mode.kx, mode.kind.value, mode.kz.real, mode.kz.imag, z_d, u_c])
    _emit_csv(out, header, rows)
    return 0


def _cmd_field(cfg: dict, out: str | None, tol: float) -> int:
    profile = aperture_from(cfg)
    xs = grid_from(cfg, "x")
    zs = grid_from(cfg, "z")
    if any(z < 0 for z in zs):
        raise ConfigError("grids.z", "field heights must be non-negative")
    g = nearfield.field_grid(xs, zs, profile, abs_tol=tol)
    total = g.psi_total
    table = np.stack([*np.meshgrid(g.x, g.z), g.psi_rw.real, g.psi_rw.imag, g.psi_cw.real, g.psi_cw.imag,
                      total.real, total.imag, g.current_x], axis=-1).reshape(-1, 9)  # one row per (z, x)
    line = ",".join(["%.17g"] * 9) + "\n"  # "%.17g" % v is format(v, ".17g"), -0.0 included
    header = "x,z,re_psi_rw,im_psi_rw,re_psi_cw,im_psi_cw,re_psi_total,im_psi_total,J_x\n"
    _write_text(out, header + "".join(line % row for row in map(tuple, table.tolist())))
    return 0


def _cmd_absorb(cfg: dict, out: str | None) -> int:
    profile = aperture_from(cfg)
    packet = packet_from(cfg)
    kxs = grid_from(cfg, "kx")
    if any(abs(k) <= 1.0 for k in kxs):
        raise ConfigError("grids.kx", "absorption needs evanescent modes, all |kx| > 1")
    header = ["z0", "delta_z", "kx", "probability", "zero_width_limit", "ratio"]
    rows = []
    for kx in kxs:
        p = probe.absorption_probability(float(kx), packet, profile)
        lim, _ = probe.high_kx_limit(float(kx), profile)
        rows.append([packet.z0, packet.delta_z, float(kx), p, lim, p / lim])
    _emit_csv(out, header, rows)
    return 0


def _cmd_transfer(cfg: dict, out: str | None) -> int:
    K0, K_mu = probe_kinematics_from(cfg)
    result = kinematics.evanescence_transfer(K0, K_mu)
    fs = result.final_state
    scale = max(1.0, result.kx_selected**2, K0 * K0 + K_mu * K_mu)
    record = {
        "inputs": {"K0_ratio": K0, "K_mu_ratio": K_mu},
        "outputs": {
            "kx_selected": result.kx_selected,
            "kz_transferred": {"re": result.kz_transferred.real, "im": result.kz_transferred.imag},
            "final_state": {
                "omega": fs.omega,
                "Kx": fs.Kx,
                "Kz": {"re": fs.Kz.real, "im": fs.Kz.imag},
                "K_mu": fs.K_mu,
            },
            "ff_momentum_magnitude": result.ff_momentum_magnitude,
            "stages": [
                {"stage": "input", "Kx": K0, "Kz": {"re": 0.0, "im": 0.0}},
                {
                    "stage": "near-field-evanescent",
                    "Kx": fs.Kx,
                    "Kz": {"re": fs.Kz.real, "im": fs.Kz.imag},
                },
                {
                    "stage": "far-field-free",
                    "momentum_magnitude": result.ff_momentum_magnitude,
                    "direction": "edge-geometry dependent, not computed",
                },
            ],
        },
        "residuals": {
            "selection_scaled": abs(kinematics.selection_residual(K0, K_mu, result.kx_selected)) / scale,
            "on_shell_scaled": fs.on_shell_residual() / scale,
            "mode_dispersion": abs(
                result.kz_transferred * result.kz_transferred + result.kx_selected**2 - 1.0
            ),
        },
        "warnings": [],
    }
    _emit_json(out, record)
    return 0


def _recoil_mode_record(kx: float, screen, units) -> dict:
    sol = recoil.recoil_solution(kx, screen)
    rec = {
        "kx": kx,
        "kind": sol.kind.value,
        "k_tilde": {"re": sol.k_tilde.real, "im": sol.k_tilde.imag},
        "kz_tilde": {"re": sol.kz_tilde.real, "im": sol.kz_tilde.imag},
        "Kz_tilde": {"re": sol.Kz_tilde.real, "im": sol.Kz_tilde.imag},
        "Kx_screen": sol.Kx_screen,
        "eps_real": sol.eps_real,
        "gamma": sol.gamma,
        "E_real": sol.E_real,
        "Gamma": sol.Gamma,
        "eta": sol.eta,
        "k_c": sol.eta,
        "si": {
            "eps_real_joule": sol.eps_real * units.eps0,
            "Gamma_joule": sol.Gamma * units.eps0,
            "chi_z_per_m": sol.chi_z * units.k0,
        },
        "residuals": {
            "root": recoil.root_residual(kx, screen),
            "energy_ledger": abs(sol.eps_real + sol.E_real - 1.0),
            "width_symmetry": abs(sol.gamma - sol.Gamma),
        },
    }
    rec.update(tau_s=None, tau_deep_cw_s=None, tau_traverse_s=None, traverse_regime_warning=None)
    if sol.kind is WaveKind.CRAWLING:
        routes = recoil.lifetime_routes(sol, units)
        trav = recoil.traverse_time(sol, units)
        rec["tau_s"] = routes.exact_s
        rec["tau_deep_cw_s"] = routes.deep_cw_s
        rec["tau_traverse_s"] = trav.seconds
        rec["traverse_regime_warning"] = trav.regime_warning
    return rec


def _cmd_recoil(cfg: dict, out: str | None) -> int:
    units = units_from(cfg)
    screen = screen_from(cfg)
    kxs = grid_from(cfg, "kx")
    records = [_kx_record(_recoil_mode_record, float(kx), screen, units) for kx in kxs]
    record = {
        "inputs": {"k0_si": units.k0, "K_M_ratio": screen.K_M, "kx": [float(k) for k in kxs]},
        "outputs": {"modes": records},
        "residuals": {
            "max_root": max(r["residuals"]["root"] for r in records),
            "max_energy_ledger": max(r["residuals"]["energy_ledger"] for r in records),
        },
        "warnings": [],
    }
    _emit_json(out, record)
    return 0


def _cmd_lifetime(cfg: dict, out: str | None) -> int:
    units = units_from(cfg)
    screen = screen_from(cfg)
    profile = aperture_from(cfg)
    if not isinstance(profile, aperture_mod.SingleSlitProfile):
        raise ConfigError("aperture.kind", "lifetime tail odds are defined for the single_slit profile")
    kxs = grid_from(cfg, "kx")
    threshold = recoil.critical_threshold(screen).eta
    if any(abs(float(kx)) <= threshold for kx in kxs):
        raise ConfigError("grids.kx", f"lifetimes need evanescent modes, all |kx| > {threshold:.6g}")
    scen = cfg.get("scenario") or {}
    if not isinstance(scen, dict):
        raise ConfigError("scenario", "section must be an object")
    tau_max = scen.get("tau_max_s")
    if tau_max is not None:
        tau_max = finite_number(tau_max, "scenario.tau_max_s", positive=True)
    warnings = []

    def mode(kx: float) -> dict:
        sol = recoil.recoil_solution(kx, screen)
        routes = recoil.lifetime_routes(sol, units)
        trav = recoil.traverse_time(sol, units)
        if trav.regime_warning:
            warnings.append(f"kx={kx:g}: traverse-time regime conditions not met")
        return {
            "kx": kx,
            "tau_exact_s": routes.exact_s,
            "tau_chi_route_s": routes.chi_route_s,
            "tau_deep_cw_s": routes.deep_cw_s,
            "tau_traverse_s": trav.seconds,
        }

    modes_out = [_kx_record(mode, float(kx)) for kx in kxs]
    outputs = {"modes": modes_out}
    if tau_max is not None:
        short = outputs["short_lifetime"] = recoil.short_lifetime_outputs(tau_max, profile.a, screen, units)
        if not short["in_regime"]:
            warnings.append("tau_max inverts below the evanescence threshold")
    record = {
        "inputs": {"k0_si": units.k0, "K_M_ratio": screen.K_M, "slit_a": profile.a,
                   "kx": [float(k) for k in kxs]},
        "outputs": outputs,
        "residuals": {},
        "warnings": warnings,
    }
    _emit_json(out, record)
    return 0


def _cmd_scenario_probe_spread(cfg: dict, out: str | None) -> int:
    kwargs = scenario_kwargs(cfg, (
        "lambda0_si", "kx_ratio", "velocity_ratio", "distance_si",
        "delta_z_si", "reference_spread_ratio",
    ))
    _emit_json(out, probe.probe_spread_scenario(**kwargs))
    return 0


def _cmd_scenario_lifetime(cfg: dict, out: str | None) -> int:
    kwargs = scenario_kwargs(cfg, (
        "mass_kg", "k0_si", "kx_ratio", "slit_width_ratio", "tau_max_s", "reference_tau_s",
    ))
    _emit_json(out, recoil.lifetime_scenario(**kwargs))
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "field": _cmd_field,
    "absorb": _cmd_absorb,
    "transfer": _cmd_transfer,
    "recoil": _cmd_recoil,
    "lifetime": _cmd_lifetime,
    "scenario-probe-spread": _cmd_scenario_probe_spread,
    "scenario-lifetime": _cmd_scenario_lifetime,
}

_BUNDLED = {
    "scenario-probe-spread": "probe_spread.json",
    "scenario-lifetime": "lifetime.json",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nearwave",
        description="Evanescent near-field spectra, probe absorption and screen-recoil calculations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", help="path to the JSON scenario config")
        p.add_argument("--out", help="output file (stdout when omitted)")
        if name == "field":
            p.add_argument("--tolerance", type=float, default=1e-12,
                           help="absolute quadrature tolerance (default 1e-12)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    handler = _HANDLERS[name]
    try:
        if name == "field":
            if not (math.isfinite(args.tolerance) and args.tolerance > 0):
                raise ConfigError("--tolerance", f"must be a finite positive number, got {args.tolerance!r}")
            handler = functools.partial(_cmd_field, tol=args.tolerance)
        if args.config is not None:
            cfg = load_config(args.config)
        elif name in _BUNDLED:
            cfg = _bundled_config(_BUNDLED[name])
        else:
            raise ConfigError("<args>", f"{name} requires --config")
        return handler(cfg, args.out)
    except ConfigError as e:
        _emit_error("config", e.message, field=e.field)
        return 2
    except QuadratureError as e:
        _emit_error("quadrature", str(e), achieved=e.achieved)
        return 3
    except DegenerateInputError as e:
        _emit_error("degenerate-input", str(e))
        return 4
    except BrokenPipeError:
        # the unwritten bytes go to devnull, so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
