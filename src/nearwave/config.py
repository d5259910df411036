"""Scenario configuration: a single JSON file drives every CLI subcommand.

Top-level sections (each subcommand reads the ones it needs):

    k0_si     input wavenumber [1/m]
    screen    {"mass_kg": ...} or {"K_M_ratio": ...}, exactly one
    aperture  {"kind": "single_slit", "a": ...}
              {"kind": "gaussian", "w": ...}
              {"kind": "tabulated", "path": ...}
    probe     {"particle": "electron" | "mass_kg": ... | "K_mu_ratio": ...,
               "K0_ratio": ..., "z0": ..., "delta_z": ...}
    grating   {"period": ..., "m_max": ...}        (period in lambda0 units)
    grids     {"kx": [..] or range, "x": range, "z": range}
              where range = {"start": ..., "stop": ..., "num": ...}
    scenario  values for the scenario subcommands (and lifetime's tau_max_s), each > 0

Validation failures raise :class:`~nearwave.errors.ConfigError` carrying the
dotted path of the offending field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .aperture import ApertureProfile, GaussianProfile, SingleSlitProfile, TabulatedProfile
from .errors import ConfigError
from .probe import GaussianPacket
from .quantities import ELECTRON_MASS, ScaledUnits, compton_wavenumber_ratio
from .recoil import ScreenSpec

_MAX_GRID_POINTS = 10**6  # a start/stop/num grid's largest num; the whole grid is built at once
_MAX_GRATING_ORDER = 10**5  # largest grating.m_max; spectrum builds and formats all 2 m_max + 1 rows in memory


def load_config(path) -> dict:
    p = Path(path)
    try:
        text = p.read_bytes().decode()
        if "\r" in text:  # universal newlines, as a text-mode read gives them: JSON error positions count characters
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {p}")
    except OSError as e:  # a directory, a permission, an I/O error
        raise ConfigError("<file>", f"cannot read the config file: {e}")
    except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError("<file>", f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return raw


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name)
    if sec is None:
        raise ConfigError(name, "required section is missing")
    if not isinstance(sec, dict):
        raise ConfigError(name, "section must be an object")
    return sec


def finite_number(val, path: str, *, positive: bool = False) -> float:
    """``val`` as a float if it is a finite JSON number (> 0 if ``positive``), else ConfigError at ``path``.

    An integer beyond the float range counts as non-finite instead of
    raising OverflowError.
    """
    try:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(path, f"must be a finite number, got {val!r}")
    if positive and not (val > 0):
        raise ConfigError(path, f"must be positive, got {val!r}")
    return float(val)


def _number(sec: dict, key: str, path: str, *, positive: bool = False) -> float:
    if key not in sec:
        raise ConfigError(f"{path}.{key}", "required value is missing")
    return finite_number(sec[key], f"{path}.{key}", positive=positive)


def units_from(cfg: dict) -> ScaledUnits:
    if "k0_si" not in cfg:
        raise ConfigError("k0_si", "required value is missing")
    return ScaledUnits(k0=finite_number(cfg["k0_si"], "k0_si", positive=True))


def compton_ratio(mass_kg: float, units: ScaledUnits, path: str) -> float:
    """compton_wavenumber_ratio, or ConfigError at ``path`` where it leaves the float range."""
    try:
        return compton_wavenumber_ratio(mass_kg, units)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


def screen_from(cfg: dict) -> ScreenSpec:
    sec = _section(cfg, "screen")
    has_mass = "mass_kg" in sec
    has_ratio = "K_M_ratio" in sec
    if has_mass == has_ratio:
        raise ConfigError("screen", "exactly one of mass_kg / K_M_ratio must be present")
    if has_mass:
        mass = _number(sec, "mass_kg", "screen", positive=True)
        return ScreenSpec(K_M=compton_ratio(mass, units_from(cfg), "screen.mass_kg"))
    return ScreenSpec(K_M=_number(sec, "K_M_ratio", "screen", positive=True))


def aperture_from(cfg: dict) -> ApertureProfile:
    sec = _section(cfg, "aperture")
    kind = sec.get("kind")
    if kind == "single_slit":
        return SingleSlitProfile(a=_number(sec, "a", "aperture", positive=True))
    if kind == "gaussian":
        return GaussianProfile(w=_number(sec, "w", "aperture", positive=True))
    if kind == "tabulated":
        path = sec.get("path")
        if not isinstance(path, str):
            raise ConfigError("aperture.path", "tabulated profiles need a CSV path")
        try:
            return TabulatedProfile.from_csv(path)
        except (OSError, ValueError) as e:
            raise ConfigError("aperture.path", str(e))
    raise ConfigError("aperture.kind", f"unknown profile kind {kind!r}")


def packet_from(cfg: dict) -> GaussianPacket:
    sec = _section(cfg, "probe")
    z0 = _number(sec, "z0", "probe")
    delta_z = _number(sec, "delta_z", "probe", positive=True)
    if z0 < 0:
        raise ConfigError("probe.z0", f"z0 must be non-negative, got {z0!r}")
    return GaussianPacket(z0=z0, delta_z=delta_z)


def probe_kinematics_from(cfg: dict) -> tuple[float, float]:
    """(K0_ratio, K_mu_ratio) for the transfer solver."""
    sec = _section(cfg, "probe")
    K0 = _number(sec, "K0_ratio", "probe")
    if "K_mu_ratio" in sec:
        return K0, _number(sec, "K_mu_ratio", "probe", positive=True)
    if "mass_kg" in sec:
        mass, path = _number(sec, "mass_kg", "probe", positive=True), "probe.mass_kg"
    elif sec.get("particle") == "electron":
        mass, path = ELECTRON_MASS, "k0_si"
    else:
        raise ConfigError("probe", "need one of K_mu_ratio, mass_kg, or particle = 'electron'")
    return K0, compton_ratio(mass, units_from(cfg), path)


def grating_from(cfg: dict) -> tuple[float, int]:
    sec = _section(cfg, "grating")
    period = _number(sec, "period", "grating", positive=True)
    m_max = sec.get("m_max")
    if not isinstance(m_max, int) or isinstance(m_max, bool) or not 1 <= m_max <= _MAX_GRATING_ORDER:
        raise ConfigError("grating.m_max", f"must be an integer from 1 to {_MAX_GRATING_ORDER}, got {m_max!r}")
    return period, m_max


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) bit for bit, in Python floats: an overflow gives inf or nan, not a warning."""
    div = max(num - 1, 1)
    delta = stop - start
    step = delta / div
    if step == 0.0:  # a delta too small to divide: numpy scales each index by delta instead
        xs = [i / div * delta + start for i in range(num)]
    else:
        xs = [i * step + start for i in range(num)]
    if num > 1:
        xs[-1] = stop
    return xs


def _grid(sec: dict, key: str, path: str) -> list[float]:
    if key not in sec:
        raise ConfigError(f"{path}.{key}", "required grid is missing")
    spec = sec[key]
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{path}.{key}", "grid list must be non-empty")
        xs = [finite_number(v, f"{path}.{key}") for v in spec]
    elif isinstance(spec, dict):
        start = _number(spec, "start", f"{path}.{key}")
        stop = _number(spec, "stop", f"{path}.{key}")
        num = spec.get("num")
        if not isinstance(num, int) or isinstance(num, bool) or not 1 <= num <= _MAX_GRID_POINTS:
            raise ConfigError(f"{path}.{key}.num", f"must be an integer from 1 to {_MAX_GRID_POINTS}, got {num!r}")
        if not (stop >= start):
            raise ConfigError(f"{path}.{key}", "stop must be >= start")
        xs = _linspace(start, stop, num)
        if not all(map(math.isfinite, xs)):
            raise ConfigError(f"{path}.{key}", "grid values must be finite")
    else:
        raise ConfigError(f"{path}.{key}", "grid must be a list or a start/stop/num object")
    return xs


def grid_from(cfg: dict, key: str) -> list[float]:
    return _grid(_section(cfg, "grids"), key, "grids")


def _scenario(cfg: dict) -> dict:
    """The optional scenario section, {} when absent."""
    sec = cfg.get("scenario", {})
    if not isinstance(sec, dict):
        raise ConfigError("scenario", "section must be an object")
    return sec


def tau_max_from(cfg: dict) -> float | None:
    """scenario.tau_max_s, None when absent; the section's other keys are not read."""
    sec = _scenario(cfg)
    return finite_number(sec["tau_max_s"], "scenario.tau_max_s", positive=True) if "tau_max_s" in sec else None


def scenario_from(cfg: dict, allowed: dict) -> dict:
    """The scenario values the config gives, each checked against the keys of ``allowed``; {} when absent."""
    out = {}
    for key, val in _scenario(cfg).items():
        if key not in allowed:
            raise ConfigError(f"scenario.{key}", f"unknown key; allowed: {sorted(allowed)}")
        out[key] = finite_number(val, f"scenario.{key}", positive=True)
    return out
