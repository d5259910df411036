"""Command-line front end.

Usage (options may come before or after the subcommand; ``nearwave --help``
is the one help page, as one flat parser serves every subcommand):
    nearwave {spectrum,field,absorb,transfer,recoil,lifetime} --config run.json [--out FILE]
    nearwave {scenario-probe-spread,scenario-lifetime} [--config run.json] [--out FILE]

Grid subcommands emit CSV (UTF-8, LF, header row, floats printed with 17
significant digits so repeated runs are byte-identical, an empty cell where
a value is undefined, such as ``absorb``'s 0/0 ratio where |F|^2 is 0);
single-record subcommands emit one JSON object with ``inputs``,
``outputs``, ``residuals`` and ``warnings`` keys, laid out byte for byte as
``json.dumps(record, sort_keys=True, indent=2)`` would lay it out.  Every
row echoes the dimensionless inputs it was computed from.  The scenario
subcommands fall back to bundled example configs when --config is omitted;
each scenario's keys and defaults are one dict here.  This module builds
every record, and it and :mod:`nearwave.config` alone name config fields.
Each subcommand returns its whole text, and :func:`main` alone writes it.

Exit codes: 0 success, 2 configuration errors (an unreadable config file, an
unwritable --out or standard output, named ``<stdout>``, among them, and a
``tau_max_s`` whose a*k' or cubic asymptote leaves the float range, a*k' =
0.0 included), 3 quadrature failure (a ``field`` grid whose phase rate,
infinite included, needs too many seeds, or one quadrature round too large
for memory, is refused unevaluated), 4 degenerate kinematic input or a
record whose numbers overflow or divide by zero (:func:`_record` refuses it
with its kx, transfer's two ratios or a scenario's values; no record or CSV
holds NaN or Infinity: the error names the JSON path of the first one, such
as ``outputs.modes[0].si.Gamma_joule``, with the kx of the mode record it
sits in, or the CSV row and column), 141 (128 + SIGPIPE) when the reader of
stdout has closed it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources

# One BLAS thread is the whole design, as every gemm of a run is one panel's.  OpenBLAS reads
# the variable once, as numpy loads, so a process that loaded numpy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # a value the user set is kept

import numpy as np

from . import aperture as aperture_mod
from . import kinematics, modes, nearfield, probe, recoil
from .config import (
    aperture_from,
    compton_ratio,
    grating_from,
    grid_from,
    load_config,
    packet_from,
    probe_kinematics_from,
    scenario_from,
    screen_from,
    tau_max_from,
    units_from,
)
from .errors import ConfigError, DegenerateInputError, QuadratureError
from .modes import WaveKind
from .quantities import C_LIGHT, ELECTRON_MASS, ScaledUnits


def _fmt(value) -> str:
    """17-significant-digit, round-trip-exact float formatting for CSV."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_text(out_path: str | None, text: str) -> None:
    """``text`` to stdout or, encoded once, to ``out_path``; ConfigError naming ``<stdout>`` or ``--out`` on failure."""
    if out_path is not None:
        try:
            with open(out_path, "wb") as fh:
                fh.write(text.encode())
        except OSError as e:
            raise ConfigError("--out", f"cannot write the output file: {e}") from None
        return
    if sys.stdout is None:  # the process started with stdout closed, as under >&-
        raise ConfigError("<stdout>", "cannot write the standard output: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe or a full device raises here, inside main, not at interpreter exit
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the unwritten bytes: a quiet final flush
        if isinstance(e, BrokenPipeError):
            raise  # main's 141: a closed pipe is no error
        raise ConfigError("<stdout>", f"cannot write the standard output: {e}") from None


def _csv_rows(rows) -> str:
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _csv_text(header: str, body: str) -> str:
    """The CSV ``header`` over ``body``; DegenerateInputError names the row (from 0) and column of an inf or nan."""
    hit = body.find("n")  # "inf", "-inf" and "nan" print one; %.17g floats, ints, RW/CW kinds and empty cells do not
    if hit < 0:
        return header + "\n" + body
    start = body.rfind("\n", 0, hit) + 1
    row, column = body.count("\n", 0, start), body.count(",", start, hit)
    cell = body[start:body.index("\n", hit)].split(",")[column]
    raise DegenerateInputError(f"row {row}, column {header.split(',')[column]} is {cell}, which CSV refuses")


_ESCAPE = json.encoder.encode_basestring_ascii


class _NonFinite(Exception):
    """An inf or nan met by :func:`_json_text`; each container it leaves adds its key or index to ``path``."""

    def __init__(self, value: float):
        self.value, self.path, self.kx = value, [], None  # kx: from the innermost dict around it that has one


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` in one walk that raises _NonFinite on inf or nan.

    Floats and ints print through ``float.__repr__`` and ``int.__repr__``, so
    subclasses such as numpy.float64 print as the built-in would.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        raise _NonFinite(obj)
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        try:
            for key, value in sorted(obj.items()):
                parts.append(_ESCAPE(key) + ": " + _json_text(value, inner))
        except _NonFinite as e:
            e.path.append(key)
            if e.kx is None and "kx" in obj:
                e.kx = obj["kx"]
            raise
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if type(obj) in (list, tuple):  # a record type that subclasses tuple is no JSON array
        if not obj:
            return "[]"
        parts = []
        try:
            for value in obj:
                parts.append(_json_text(value, inner))
        except _NonFinite as e:
            e.path.append(len(parts))
            raise
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_record(record: dict) -> str:
    """The record as indented, key-sorted JSON and an LF; DegenerateInputError naming the path of an inf or nan."""
    try:
        return _json_text(record) + "\n"
    except _NonFinite as e:
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in reversed(e.path))
        text = f"{where.removeprefix('.')} is {float.__repr__(e.value)}, which JSON cannot hold"
        raise DegenerateInputError(text if e.kx is None else f"kx={e.kx!r}: {text}") from None


def _record(build, names: tuple[str, ...], *args):
    """build(*args), or DegenerateInputError naming the leading args, one per name, on overflow or division by zero.

    A ConfigError passes unchanged, as it names its config field.
    """
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ArithmeticError, ValueError) as e:
        given = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
        raise DegenerateInputError(f"{given}: {type(e).__name__}: {e}") from e


def _emit_error(kind: str, message: str, **extra) -> None:
    """One JSON error line on stderr; a non-finite number in ``extra`` is written as null."""
    extra = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in extra.items()}
    payload = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _cmd_spectrum(cfg: dict) -> str:
    period, m_max = grating_from(cfg)
    rows = []
    for m, mode in modes.grating_modes(period, m_max):
        z_d = 1.0 / mode.chi_z if mode.kind is WaveKind.CRAWLING else None
        u_c = modes.phase_velocity(mode.kx) if m != 0 else None
        rows.append([period, m, mode.kx, mode.kind.value, mode.kz.real, mode.kz.imag, z_d, u_c])
    return _csv_text("period,m,kx,kind,re_kz,im_kz,z_d,u_c", _csv_rows(rows))


_MAX_FIELD_POINTS = 4 * 10**6  # largest x-by-z grid; a slit field peaks near 0.75 kB of memory a point


def _cmd_field(cfg: dict) -> str:
    profile = aperture_from(cfg)
    xs, zs = grid_from(cfg, "x"), grid_from(cfg, "z")
    if any(z < 0 for z in zs):
        raise ConfigError("grids.z", "field heights must be non-negative")
    if len(xs) * len(zs) > _MAX_FIELD_POINTS:
        raise ConfigError("grids", f"{len(xs)} x by {len(zs)} z points exceed the cap of {_MAX_FIELD_POINTS}")
    table = np.empty((len(zs), len(xs), 9))  # one row per (z, x)
    psi = table[..., 2:8].view(complex)  # psi_rw, psi_cw and psi_total as (re, im) column pairs
    with np.errstate(over="ignore", invalid="ignore"):  # the quadrature, then _csv_text, refuse an inf or nan
        g = nearfield.field_grid(xs, zs, profile)
        table[..., 0] = xs
        table[..., 1] = np.reshape(zs, (-1, 1))
        psi[..., 0] = g.psi_rw
        psi[..., 1] = g.psi_cw
        np.add(g.psi_rw, g.psi_cw, out=psi[..., 2])
        table[..., 8] = (psi[..., 2].conj() * (g.dpsi_rw + g.dpsi_cw)).imag  # J_x = Im(psi* d(psi)/dx)
    line = ",".join(["%.17g"] * 9) + "\n"  # "%.17g" % v is format(v, ".17g"), -0.0 included
    return _csv_text("x,z,re_psi_rw,im_psi_rw,re_psi_cw,im_psi_cw,re_psi_total,im_psi_total,J_x",
                     (line * (len(zs) * len(xs))) % tuple(table.ravel().tolist()))


def _cmd_absorb(cfg: dict) -> str:
    profile = aperture_from(cfg)
    packet = packet_from(cfg)
    kxs = grid_from(cfg, "kx")
    if any(abs(k) <= 1.0 for k in kxs):
        raise ConfigError("grids.kx", "absorption needs evanescent modes, all |kx| > 1")

    def row(kx: float, amp: float) -> list:
        p, lim = probe.absorption_probability(kx, packet, amp)
        # |F|^2 is 0 or underflows: the ratio is 0/0, so its cell stays empty
        return [packet.z0, packet.delta_z, kx, p, lim, p / lim if lim != 0.0 else None]

    amps = profile.amplitude(kxs).tolist()  # F over the whole grid in one call
    return _csv_text("z0,delta_z,kx,probability,zero_width_limit,ratio",
                     _csv_rows(_record(row, ("kx",), kx, amp) for kx, amp in zip(kxs, amps)))


def _transfer_record(K0: float, K_mu: float) -> dict:
    result = kinematics.evanescence_transfer(K0, K_mu)
    fs = result.final_state
    scale = max(1.0, result.kx_selected**2, K0 * K0 + K_mu * K_mu)
    return {
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


def _cmd_transfer(cfg: dict) -> str:
    K0, K_mu = probe_kinematics_from(cfg)
    return _json_record(_record(_transfer_record, ("K0_ratio", "K_mu_ratio"), K0, K_mu))


def _residuals(sol: recoil.RecoilSolution, root: str) -> dict:
    """Root, energy-ledger and width-symmetry residuals of ``sol``, the first under the key ``root``."""
    return {
        root: recoil.root_residual(sol),
        "energy_ledger": abs(sol.eps_real + sol.E_real - 1.0),
        "width_symmetry": abs(sol.gamma - sol.Gamma),
    }


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
        "residuals": _residuals(sol, "root"),
    }
    rec.update(tau_s=None, tau_deep_cw_s=None, tau_traverse_s=None, traverse_regime_warning=None)
    if sol.kind is WaveKind.CRAWLING:
        lt = recoil.lifetimes(sol, units)
        rec.update(tau_s=lt.exact_s, tau_deep_cw_s=lt.deep_cw_s, tau_traverse_s=lt.traverse_s,
                   traverse_regime_warning=lt.regime_warning)
    return rec


def _cmd_recoil(cfg: dict) -> str:
    units = units_from(cfg)
    screen = screen_from(cfg)
    kxs = grid_from(cfg, "kx")
    records = [_record(_recoil_mode_record, ("kx",), kx, screen, units) for kx in kxs]
    return _json_record({
        "inputs": {"k0_si": units.k0, "K_M_ratio": screen.K_M, "kx": kxs},
        "outputs": {"modes": records},
        "residuals": {
            "max_root": max(r["residuals"]["root"] for r in records),
            "max_energy_ledger": max(r["residuals"]["energy_ledger"] for r in records),
        },
        "warnings": [],
    })


def _short_lifetime(tau_max: float, a: float, screen: recoil.ScreenSpec, units: ScaledUnits) -> dict:
    """The ``short_lifetime`` block of a lifetime record: the odds that a slit-profile collapse lives under tau_max.

    The deep-evanescent lifetime inverts to the wavenumber k' = K_M/(c k0 tau_max), and the odds are the slit mode
    density above it.  A k' that does not clear the evanescence threshold saturates them at 1, out of regime.
    ConfigError for ``scenario.tau_max_s`` if a*k' overflows, or is so small that the cubic asymptote
    8 pi/(3 (a k')^3) overflows or divides by zero.
    """
    rate = C_LIGHT * units.k0 * tau_max
    k_prime = screen.K_M / rate if rate > 0.0 else math.inf
    block = {"tau_max_s": tau_max, "k_prime_ratio": k_prime, "probability": 1.0, "in_regime": False,
             "cubic_asymptote": None}
    if k_prime <= recoil.critical_threshold(screen).eta:
        return block
    q = a * k_prime
    try:
        asymptote = 8.0 * math.pi / 3.0 * q**-3.0
    except (OverflowError, ZeroDivisionError):  # q is below about 1e-103, or 0.0
        asymptote = math.inf
    if not (math.isfinite(q) and math.isfinite(asymptote)):
        raise ConfigError("scenario.tau_max_s", f"tau_max_s = {tau_max!r} inverts to a*k' = {q!r}")
    probability = aperture_mod.tail_probability(k_prime, a)
    return block | {"probability": probability, "in_regime": True, "cubic_asymptote": asymptote}


def _cmd_lifetime(cfg: dict) -> str:
    units = units_from(cfg)
    screen = screen_from(cfg)
    profile = aperture_from(cfg)
    if not isinstance(profile, aperture_mod.SingleSlitProfile):
        raise ConfigError("aperture.kind", "lifetime tail odds are defined for the single_slit profile")
    kxs = grid_from(cfg, "kx")
    threshold = recoil.critical_threshold(screen).eta
    if any(abs(kx) <= threshold for kx in kxs):
        raise ConfigError("grids.kx", f"lifetimes need evanescent modes, all |kx| > {threshold:.6g}")
    tau_max = tau_max_from(cfg)
    warnings = []

    def mode(kx: float) -> dict:
        lt = recoil.lifetimes(recoil.recoil_solution(kx, screen), units)
        if lt.regime_warning:
            warnings.append(f"kx={kx:g}: traverse-time regime conditions not met")
        return {
            "kx": kx,
            "tau_exact_s": lt.exact_s,
            "tau_chi_route_s": lt.chi_route_s,
            "tau_deep_cw_s": lt.deep_cw_s,
            "tau_traverse_s": lt.traverse_s,
        }

    outputs = {"modes": [_record(mode, ("kx",), kx) for kx in kxs]}
    if tau_max is not None:
        short = outputs["short_lifetime"] = _short_lifetime(tau_max, profile.a, screen, units)
        if not short["in_regime"]:
            warnings.append("tau_max inverts below the evanescence threshold")
    return _json_record({
        "inputs": {"k0_si": units.k0, "K_M_ratio": screen.K_M, "slit_a": profile.a, "kx": kxs},
        "outputs": outputs,
        "residuals": {},
        "warnings": warnings,
    })


# each scenario's keys with their defaults; None leaves an optional output out
_PROBE_SPREAD = {"lambda0_si": 0.5e-6, "kx_ratio": 5.0, "velocity_ratio": 1e-3, "distance_si": 0.1,
                 "delta_z_si": 1e-7, "reference_spread_ratio": None}
_LIFETIME = {"mass_kg": 0.1, "k0_si": 7.5e6, "kx_ratio": 10.0, "slit_width_ratio": 1.0,
             "tau_max_s": None, "reference_tau_s": None}


def _probe_spread_record(*values) -> dict:
    """Electron-probe record from the _PROBE_SPREAD values, in its key order.

    An electron at ``velocity_ratio * c`` flies ``distance_si`` to the screen while its packet, prepared at the
    decay depth of the ``kx_ratio`` mode (under both k0 conventions, see :func:`modes.decay_depth_conventions`),
    spreads; the record flags a spread of at least three orders of magnitude.
    """
    s = dict(zip(_PROBE_SPREAD, values))
    reference = s.pop("reference_spread_ratio")  # every other value is echoed as an input
    lambda0, delta_z = s["lambda0_si"], s["delta_z_si"]
    t = s["distance_si"] / (s["velocity_ratio"] * C_LIGHT)
    zd_exact_per_lam, zd_reduced_per_lam = modes.decay_depth_conventions(s["kx_ratio"])
    zd_exact_si = zd_exact_per_lam * lambda0
    zd_reduced_si = zd_reduced_per_lam * lambda0

    def ratio_for(dz: float) -> float:
        return probe.packet_spread(dz, t, ELECTRON_MASS) / dz

    spread_ratio = ratio_for(delta_z)
    outputs = {
        "time_of_flight_s": t,
        "decay_depth_exact_per_lambda0": zd_exact_per_lam,
        "decay_depth_reduced_per_lambda0": zd_reduced_per_lam,
        "decay_depth_exact_si": zd_exact_si,
        "decay_depth_reduced_si": zd_reduced_si,
        "spread_ratio": spread_ratio,
        "spread_ratio_at_exact_depth": ratio_for(zd_exact_si),
        "spread_ratio_at_reduced_depth": ratio_for(zd_reduced_si),
        "spread_exceeds_three_orders": spread_ratio >= 1e3,
    }
    if reference is not None:
        outputs["reference_spread_ratio"] = reference
        outputs["reference_relative_deviation"] = abs(reference - spread_ratio) / spread_ratio
    return {
        "inputs": {**s, "k0_si": 2.0 * math.pi / lambda0},
        "outputs": outputs,
        "residuals": {},
        "warnings": [],
    }


def _cmd_scenario_probe_spread(cfg: dict) -> str:
    s = _PROBE_SPREAD | scenario_from(cfg, _PROBE_SPREAD)
    if s["kx_ratio"] <= 1.0:
        raise ConfigError("scenario.kx_ratio", f"must exceed the evanescence threshold 1, got {s['kx_ratio']!r}")
    return _json_record(_record(_probe_spread_record, tuple(s), *s.values()))


def _lifetime_scenario_record(kx: float, screen: recoil.ScreenSpec, thr: recoil.Threshold, units: ScaledUnits,
                              s: dict) -> dict:
    """Screen record from the _LIFETIME values ``s``: lifetime routes, traverse time, tail odds."""
    inputs = dict(s)
    tau_max, reference = inputs.pop("tau_max_s"), inputs.pop("reference_tau_s")  # the others are echoed
    sol = recoil.recoil_solution(kx, screen)
    lt = recoil.lifetimes(sol, units)
    outputs = {
        "K_M_ratio": screen.K_M,
        "eta": thr.eta,
        "one_minus_eta": thr.one_minus_eta,
        "chi_z": sol.chi_z,
        "Gamma_eps0": sol.Gamma,
        "Gamma_si_joule": sol.Gamma * units.eps0,
        "tau_exact_s": lt.exact_s,
        "tau_chi_route_s": lt.chi_route_s,
        "tau_deep_cw_s": lt.deep_cw_s,
        "traverse_time_s": lt.traverse_s,
        "traverse_regime_warning": lt.regime_warning,
    }
    warnings = ["traverse-time regime conditions not met"] if lt.regime_warning else []
    if reference is not None:
        outputs["reference_tau_s"] = reference
        outputs["reference_relative_deviation"] = abs(reference - lt.deep_cw_s) / lt.deep_cw_s
    if tau_max is not None:
        short = outputs["short_lifetime"] = _short_lifetime(tau_max, s["slit_width_ratio"], screen, units)
        if not short["in_regime"]:
            warnings.append("tau_max inverts below the evanescence threshold; probability saturated at 1")
    return {
        "inputs": inputs,
        "outputs": outputs,
        "residuals": _residuals(sol, "root_residual"),
        "warnings": warnings,
    }


def _cmd_scenario_lifetime(cfg: dict) -> str:
    given = scenario_from(cfg, _LIFETIME)
    s = _LIFETIME | given
    units = ScaledUnits(k0=s["k0_si"])
    mass_path = "scenario.mass_kg" if "mass_kg" in given else "scenario.k0_si"  # at the default mass, k0 is at fault
    screen = recoil.ScreenSpec(K_M=compton_ratio(s["mass_kg"], units, mass_path))
    kx, thr = s["kx_ratio"], recoil.critical_threshold(screen)
    if kx <= thr.eta:
        raise ConfigError("scenario.kx_ratio", f"must exceed the evanescence threshold {thr.eta!r}, got {kx!r}")
    return _json_record(_record(_lifetime_scenario_record, ("kx",), kx, screen, thr, units, s))


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
    """The one parser of every subcommand, built once per process; options may come before or after the subcommand."""
    width = max(map(len, _HANDLERS)) + 2
    parser = argparse.ArgumentParser(
        prog="nearwave",
        description="Evanescent near-field spectra, probe absorption and screen-recoil\ncalculations.",
        epilog="subcommands:\n" + "".join(f"  {name:<{width}}run the {name} computation\n" for name in _HANDLERS),
        formatter_class=argparse.RawDescriptionHelpFormatter,  # one line per subcommand, as laid out above
    )
    parser.add_argument("subcommand", choices=_HANDLERS, help="the computation to run, one of those below")
    parser.add_argument("--config", help="path to the JSON scenario config")
    parser.add_argument("--out", help="output file (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        elif name in _BUNDLED:
            cfg = load_config(resources.files("nearwave").joinpath("configs", _BUNDLED[name]))
        else:
            raise ConfigError("<args>", f"{name} requires --config")
        _write_text(args.out, _HANDLERS[name](cfg))
        return 0
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
        return 141


if __name__ == "__main__":
    sys.exit(main())
