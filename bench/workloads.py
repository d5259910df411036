"""Seeded request streams and output oracles for the nearwave benchmark.

A workload's deck is an endless stream of CLI calls drawn from a random
generator seeded by the workload name and the seed, so the same seed gives
the same calls in the same order and no call repeats within a run (an
in-process memo would see no repeated request, as no CLI user gives it one).
Each call carries its input files (config JSON, tabulated-profile CSV) as
text; the runner writes them just before the call, outside the timed span,
so the program under test only ever sees generated inputs.  Each call also
carries the number of output rows it should produce and an oracle that
turns the output text into a failure reason (or ``None``).

The stream is made of blocks whose parameters are stratified (one draw per
stratum, shuffled), so the mix of cheap and expensive calls is nearly the
same for every seed and seed-to-seed spread stays small.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"
BUNDLED_CONFIGS = BENCH_DIR.parent / "src" / "nearwave" / "configs"

C_LIGHT = 299_792_458.0
EPS = 2.220446049250313e-16

# Field oracle bounds follow from the accuracy the program asks for.  The
# field command passes --tolerance (default 1e-12) as abs_tol and keeps
# field_at's default rel_tol of 1e-10; a field value is the sum of up to
# three adaptive integrals, each doubled and each good to
# max(abs_tol / 2, rel_tol * |integral|), so |error| <= 3 * max(abs_tol,
# rel_tol * scale) with scale the size of the largest part.  FIELD_SAFETY
# covers parts that cancel inside the evanescent sum.
CLI_ABS_TOL = 1e-12
FIELD_REL_TOL = 1e-10
FIELD_INTEGRALS = 3
FIELD_SAFETY = 4.0
_EXP_CUT = 46.0  # e^-46 ~ 1e-20: where the evanescent weight stops mattering

ROOT_TOL = 1e-10  # recoil balance residual
LEDGER_TOL = 4.0 * EPS  # eps_real + E_real - 1
SCALED_TOL = 1e-12  # transfer residuals already divided by their scale
DISPERSION_TOL = 1e-12  # |kz^2 + kx^2 - 1| relative to max(1, kx^2)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv without ``--out``, inputs, expected rows, oracle."""

    kind: str
    argv: tuple[str, ...]
    inputs: tuple[tuple[Path, str], ...]  # files to write before the call
    rows: int
    check: Callable[[str], str | None]
    records: int = 0  # recoil-layer records (kx records and scenario records)


@dataclass(frozen=True)
class Workload:
    name: str
    deck: Iterator[Call]  # endless, deterministic for the seed
    minimal: list[Call]  # one smallest request of each kind, for setup_s
    trace_calls: int  # calls from the start of the deck the traced run replays
    # call_tail_ms percentile: fixed per workload, the highest with at
    # least ten slower calls in a run at this workload's baseline speed
    tail_percentile: float


def write_inputs(call: Call) -> None:
    for path, text in call.inputs:
        path.write_text(text, encoding="utf-8")


def _config_call(kind: str, path: Path, cfg: dict, rows: int, check, records: int = 0,
                 extra: tuple[tuple[Path, str], ...] = ()) -> Call:
    return Call(kind, (kind, "--config", str(path)),
                ((path, json.dumps(cfg, sort_keys=True)), *extra), rows, check, records)


# ----------------------------------------------------------------- parsing


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str) -> dict:
    """Strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV output")
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _walk_numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk_numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _guard(check):
    """Turn parse errors inside an oracle into failure reasons."""

    def wrapped(text: str) -> str | None:
        try:
            return check(text)
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable output: {e}"

    return wrapped


# ---------------------------------------------------------------- helpers


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _kx_grid(rng: random.Random, n: int) -> list[float]:
    """n evanescent kx spanning 1.05..1e4, one per log stratum, sorted."""
    return sorted(_strata(rng, n, 1.05, 1e4, log=True))


def _field_err(scale: float) -> float:
    """Bound on the error of a field value whose largest part has size scale."""
    return FIELD_SAFETY * FIELD_INTEGRALS * max(CLI_ABS_TOL, FIELD_REL_TOL * scale)


def _psi_scale(r: dict[str, float]) -> float:
    return max(math.hypot(r["re_psi_rw"], r["im_psi_rw"]), math.hypot(r["re_psi_cw"], r["im_psi_cw"]),
               math.hypot(r["re_psi_total"], r["im_psi_total"]))


def _dpsi_bound(amp_bound: Callable[[np.ndarray], np.ndarray], z: float) -> float:
    """Upper bound on |d psi/dx| at height z > 0.

    |d psi/dx| <= 2 int_0^inf |F(k)| k e^{-Re sqrt(k^2 - 1) z} dk, taken by
    the trapezoid rule on a fine grid; the rule's own error is far inside
    FIELD_SAFETY.
    """
    k = np.linspace(0.0, 1.0 + _EXP_CUT / z, 20_001)
    weight = np.exp(-z * np.sqrt(np.maximum(k * k - 1.0, 0.0)))
    return 2.0 * float(np.trapezoid(amp_bound(k) * k * weight, k))


def _current_err(psi_scale: float, dpsi: float) -> float:
    """Bound on the error of J_x = Im(conj(psi) d psi/dx)."""
    return dpsi * _field_err(psi_scale) + psi_scale * _field_err(dpsi)


def _slit_bound(a: float):
    """|F| of the slit profile, bounded by its peak and by |cos| <= 1."""
    pref = 2.0 * math.sqrt(math.pi * a)
    return lambda k: pref / np.maximum(math.pi**2, np.abs(math.pi**2 - (a * k) ** 2))


def _gaussian_bound(w: float):
    return lambda k: np.exp(-0.25 * (k * w) ** 2)


# ------------------------------------------------------------ field-screen


def _slit_z0(x: float, a: float) -> float:
    """Closed form of the slit field on the screen plane."""
    if abs(x) < 0.5 * a:
        return math.sqrt(2.0 * math.pi) * math.sqrt(2.0 / a) * math.cos(math.pi * x / a)
    return 0.0


def _field_rows(text: str, xs: list[float], zs: list[float]) -> list[dict[str, float]]:
    header, rows = parse_csv(text)
    if len(rows) != len(xs) * len(zs):
        raise ValueError(f"{len(rows)} rows, expected {len(xs) * len(zs)}")
    return [{k: finite(v) for k, v in r.items()} for r in rows]


def _screen_check(xs: list[float], a: float):
    def check(text: str) -> str | None:
        for r in _field_rows(text, xs, [0.0]):
            want = _slit_z0(r["x"], a)
            err = math.hypot(r["re_psi_total"] - want, r["im_psi_total"])
            bound = _field_err(max(_psi_scale(r), abs(want)))
            if err > bound:
                return f"slit a={a!r} x={r['x']!r}: |psi - closed form| = {err:.3e} > {bound:.3e}"
        return None

    return _guard(check)


def _field_call(path: Path, aperture: dict, xs: list[float], zs: list[float], check,
                extra: tuple[tuple[Path, str], ...] = ()) -> Call:
    cfg = {"aperture": aperture, "grids": {"x": xs, "z": zs}}
    return _config_call("field", path, cfg, len(xs) * len(zs), check, extra=extra)


def field_screen(seed: int, work: Path) -> Workload:
    """z=0 rows of slit profiles: one point inside the slit, one outside.

    Cost per point grows with |x|/a (more oscillation breakpoints out to
    a*k = 1e4), so both a and x/a are stratified within each block.
    """
    rng = random.Random(f"field-screen/{seed}")
    cfg = work / "cfg.json"

    def deck() -> Iterator[Call]:
        block = 8
        while True:
            widths = _strata(rng, block, 0.5, 3.0)
            # pair the i-th smallest |x|/a inside with the i-th smallest outside,
            # so every block has the same spread of call costs and the tail
            # latency does not hinge on how the draws happened to pair up
            fracs = list(zip(sorted(_strata(rng, block, 0.02, 0.45)), sorted(_strata(rng, block, 0.55, 1.5))))
            rng.shuffle(fracs)
            for a, (fi, fo) in zip(widths, fracs):
                xs = [rng.choice((-1.0, 1.0)) * fi * a, rng.choice((-1.0, 1.0)) * fo * a]
                yield _field_call(cfg, {"kind": "single_slit", "a": a}, xs, [0.0], _screen_check(xs, a))

    minimal = [_field_call(work / "min0.json", {"kind": "single_slit", "a": 1.0}, [0.2], [0.0],
                           _screen_check([0.2], 1.0))]
    return Workload("field-screen", deck(), minimal, trace_calls=64, tail_percentile=90.0)


# --------------------------------------------------------- field-offscreen


def _odd_current_check(xs: list[float], zs: list[float], amp_bound, refs: list[dict] | None = None):
    """J_x(-x) = -J_x(x) on every row; psi and J_x against stored references.

    Both within the error the program's tolerances allow, with |d psi/dx|
    bounded from the profile (see _dpsi_bound).
    """

    def check(text: str) -> str | None:
        rows = _field_rows(text, xs, zs)
        by_point = {(r["x"], r["z"]): r for r in rows}
        dpsi = {z: _dpsi_bound(amp_bound, z) for z in zs}
        for (x, z), r in by_point.items():
            mirror = by_point.get((-x, z))
            if mirror is None:
                return f"row z={z!r} lacks the mirror of x={x!r}"
            jx, jm = r["J_x"], mirror["J_x"]
            bound = _current_err(_psi_scale(r), dpsi[z]) + _current_err(_psi_scale(mirror), dpsi[z])
            if abs(jx + jm) > bound:
                return f"J_x not odd at x={x!r} z={z!r}: {jx!r} vs {jm!r} (bound {bound:.3e})"
        for ref in refs or ():
            r = by_point[(ref["x"], ref["z"])]
            err = math.hypot(r["re_psi_total"] - ref["re_psi"], r["im_psi_total"] - ref["im_psi"])
            jerr = abs(r["J_x"] - ref["J_x"])
            if err > _field_err(_psi_scale(r)) or jerr > _current_err(_psi_scale(r), dpsi[ref["z"]]):
                return (f"x={ref['x']!r} z={ref['z']!r} vs mpmath: |dpsi| = {err:.3e}, "
                        f"|dJ_x| = {jerr:.3e}")
        return None

    return _guard(check)


def _symmetric_x(rng: random.Random, half: int, x_max: float) -> list[float]:
    pos = sorted(_strata(rng, half, 0.05 * x_max, x_max))
    return [-x for x in reversed(pos)] + [0.0] + pos


def tabulated_profile(rng: random.Random):
    """A smooth, compactly supported profile sampled on a mirrored kx grid.

    Returns the CSV text and a bound on |F| for the oracle.
    """
    k_max = rng.uniform(4.0, 8.0)
    width = rng.uniform(0.8, 2.0)
    ripple = rng.uniform(0.1, 0.4)
    freq = rng.uniform(1.0, 3.0)
    n = 40
    ks = [k_max * i / n for i in range(n + 1)]
    lines = ["kx,F"]
    peak = 0.0
    for k in [-k for k in reversed(ks[1:])] + ks:
        taper = math.cos(0.5 * math.pi * abs(k) / k_max) ** 2
        f = math.exp(-0.25 * (k * width) ** 2) * (1.0 + ripple * math.cos(freq * k)) * taper
        peak = max(peak, abs(f))
        lines.append(f"{k!r},{f!r}")
    return "\n".join(lines) + "\n", lambda k: np.where(k <= k_max, peak, 0.0)


def load_refs() -> list[dict]:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))["spots"]


def _bound_for(aperture: dict):
    if aperture["kind"] == "single_slit":
        return _slit_bound(aperture["a"])
    return _gaussian_bound(aperture["w"])


def field_offscreen(seed: int, work: Path) -> Workload:
    """Multi-row grids off the screen: 7 symmetric x by 2 near and 2 far z.

    Profiles rotate slit, Gaussian, tabulated (a fresh seeded CSV for each
    call).  The first blocks each end with one of the fixed mpmath spot
    calls; after that no call repeats.
    """
    rng = random.Random(f"field-offscreen/{seed}")
    cfg, tab = work / "cfg.json", work / "tab.csv"
    spots = []
    for spot in load_refs():
        xs, zs = spot["grid"]["x"], spot["grid"]["z"]
        spots.append(_field_call(cfg, spot["aperture"], xs, zs,
                                 _odd_current_check(xs, zs, _bound_for(spot["aperture"]), spot["points"])))

    def deck() -> Iterator[Call]:
        block = 6
        b = 0
        while True:
            widths = _strata(rng, block, 0.5, 3.0)
            gauss_w = _strata(rng, block, 0.5, 3.0)
            spans = _strata(rng, 3 * block, 1.0, 4.0)
            for i in range(block):
                csv_text, tab_bound = tabulated_profile(rng)
                for j, (aperture, bound, extra) in enumerate((
                    ({"kind": "single_slit", "a": widths[i]}, _slit_bound(widths[i]), ()),
                    ({"kind": "gaussian", "w": gauss_w[i]}, _gaussian_bound(gauss_w[i]), ()),
                    ({"kind": "tabulated", "path": str(tab)}, tab_bound, ((tab, csv_text),)),
                )):
                    xs = _symmetric_x(rng, 3, spans[3 * i + j])
                    zs = sorted(_strata(rng, 2, 0.25, 3.0) + _strata(rng, 2, 20.0, 100.0))
                    yield _field_call(cfg, aperture, xs, zs, _odd_current_check(xs, zs, bound), extra)
            if b < len(spots):
                yield spots[b]
            b += 1

    min_csv, min_bound = tabulated_profile(random.Random(f"tabulated-minimal/{seed}"))
    min_tab = work / "min-tab.csv"
    minimal = [
        _field_call(work / f"min{n}.json", ap, [0.0], [1.0], _odd_current_check([0.0], [1.0], bound), extra)
        for n, (ap, bound, extra) in enumerate((
            ({"kind": "single_slit", "a": 1.0}, _slit_bound(1.0), ()),
            ({"kind": "gaussian", "w": 1.0}, _gaussian_bound(1.0), ()),
            ({"kind": "tabulated", "path": str(min_tab)}, min_bound, ((min_tab, min_csv),)),
        ))
    ]
    return Workload("field-offscreen", deck(), minimal, trace_calls=95, tail_percentile=90.0)


# ----------------------------------------------------------------- records


def _spectrum_check(m_max: int):
    def check(text: str) -> str | None:
        _, rows = parse_csv(text)
        if len(rows) != 2 * m_max + 1:
            return f"{len(rows)} modes, expected {2 * m_max + 1}"
        for r in rows:
            kx, re_kz, im_kz = finite(r["kx"]), finite(r["re_kz"]), finite(r["im_kz"])
            disp = abs(re_kz * re_kz - im_kz * im_kz + kx * kx - 1.0)
            if disp > DISPERSION_TOL * max(1.0, kx * kx):
                return f"mode m={r['m']} violates kz^2 + kx^2 = 1 by {disp:.3e}"
        return None

    return _guard(check)


def _absorb_check(n: int):
    def check(text: str) -> str | None:
        _, rows = parse_csv(text)
        if len(rows) != n:
            return f"{len(rows)} rows, expected {n}"
        for r in rows:
            p, ratio = finite(r["probability"]), finite(r["ratio"])
            finite(r["zero_width_limit"])
            if p < 0.0 or not 0.0 <= ratio <= 1.0 + 1e-12:
                return f"kx={r['kx']}: probability {p!r}, ratio to zero-width limit {ratio!r}"
        return None

    return _guard(check)


def _transfer_check(text: str) -> str | None:
    rec = parse_json(text)
    res = rec["residuals"]
    kx = rec["outputs"]["kx_selected"]
    if res["selection_scaled"] > SCALED_TOL or res["on_shell_scaled"] > SCALED_TOL:
        return f"transfer residuals {res}"
    if res["mode_dispersion"] > DISPERSION_TOL * max(1.0, kx * kx):
        return f"mode dispersion residual {res['mode_dispersion']!r} at kx={kx!r}"
    return None


def _recoil_check(n: int):
    def check(text: str) -> str | None:
        rec = parse_json(text)
        modes = rec["outputs"]["modes"]
        if len(modes) != n:
            return f"{len(modes)} modes, expected {n}"
        for m in modes:
            r = m["residuals"]
            if r["root"] > ROOT_TOL or r["energy_ledger"] > LEDGER_TOL or r["width_symmetry"] != 0.0:
                return f"kx={m['kx']!r}: residuals {r}"
            if not m["tau_s"] > 0:
                return f"kx={m['kx']!r}: lifetime {m['tau_s']!r}"
        top = rec["residuals"]
        if top["max_root"] > ROOT_TOL or top["max_energy_ledger"] > LEDGER_TOL:
            return f"record residuals {top}"
        return None

    return _guard(check)


def _lifetime_check(n: int):
    def check(text: str) -> str | None:
        rec = parse_json(text)
        modes = rec["outputs"]["modes"]
        if len(modes) != n:
            return f"{len(modes)} modes, expected {n}"
        if any(not v > 0 for m in modes for v in _walk_numbers(m)):
            return "non-positive lifetime"
        short = rec["outputs"]["short_lifetime"]
        if not short["in_regime"] or not 0.0 < short["probability"] <= 1.0:
            return f"short-lifetime odds {short}"
        return None

    return _guard(check)


def _scenario_check(text: str) -> str | None:
    rec = parse_json(text)
    res = rec["residuals"]
    if res and (res["root_residual"] > ROOT_TOL or res["energy_ledger"] > LEDGER_TOL
                or res["width_symmetry"] != 0.0):
        return f"scenario residuals {res}"
    return None


def _scenario(rng: random.Random, name: str) -> dict:
    """A bundled scenario config with each input moved by up to +-12% from the seed."""
    cfg = json.loads((BUNDLED_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    return {"scenario": {k: v * 10 ** rng.uniform(-0.05, 0.05) for k, v in cfg["scenario"].items()}}


def _records_block(rng: random.Random, q_prime: float, n_kx: int, path: Callable[[int], Path]) -> list[Call]:
    """One call of each record kind; the i-th call reads its config from path(i)."""
    k0_si = 7.5e6 * 10 ** rng.uniform(-1.0, 1.0)
    K_M = 10 ** rng.uniform(1.0, 34.0)
    a = rng.uniform(0.5, 3.0)
    kxs = _kx_grid(rng, n_kx)
    tau_max = K_M / (C_LIGHT * k0_si * q_prime / a)
    m_max = rng.randint(2, 12)
    screen = {"K_M_ratio": K_M}
    slit = {"kind": "single_slit", "a": a}
    probe = {"z0": rng.uniform(0.0, 3.0), "delta_z": 10 ** rng.uniform(-1.0, 1.0)}
    transfer_probe = {"K0_ratio": rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-2.0, 2.0),
                      "K_mu_ratio": 10 ** rng.uniform(-3.0, 6.0)}
    grating = {"period": rng.uniform(0.3, 6.0), "m_max": m_max}
    return [
        _config_call("spectrum", path(0), {"grating": grating}, 2 * m_max + 1, _spectrum_check(m_max)),
        _config_call("absorb", path(1), {"aperture": slit, "probe": probe, "grids": {"kx": kxs}},
                     n_kx, _absorb_check(n_kx)),
        _config_call("transfer", path(2), {"probe": transfer_probe}, 1, _guard(_transfer_check)),
        _config_call("recoil", path(3), {"k0_si": k0_si, "screen": screen, "grids": {"kx": kxs}},
                     n_kx, _recoil_check(n_kx), records=n_kx),
        _config_call("lifetime", path(4), {"k0_si": k0_si, "screen": screen, "aperture": slit,
                                           "grids": {"kx": kxs}, "scenario": {"tau_max_s": tau_max}},
                     n_kx, _lifetime_check(n_kx), records=n_kx),
        _config_call("scenario-probe-spread", path(5), _scenario(rng, "probe_spread"), 1,
                     _guard(_scenario_check)),
        _config_call("scenario-lifetime", path(6), _scenario(rng, "lifetime"), 1,
                     _guard(_scenario_check), records=1),
    ]


def records(seed: int, work: Path) -> Workload:
    """JSON/CSV record subcommands over seeded kx grids and both scenarios."""
    rng = random.Random(f"records/{seed}")

    def deck() -> Iterator[Call]:
        cfg = work / "cfg.json"
        # tail_probability integrates by panels below q' = a*k' = 1e4 and uses
        # its analytic expansion above; blocks alternate the two routes, with
        # q' log-stratified within each round of eight
        while True:
            panels = _strata(rng, 8, 10**0.5, 10**3.7, log=True)
            analytic = _strata(rng, 8, 10**4.3, 1e6, log=True)
            for q_panels, q_analytic in zip(panels, analytic):
                yield from _records_block(rng, q_panels, 8, lambda i: cfg)
                yield from _records_block(rng, q_analytic, 8, lambda i: cfg)

    minimal = _records_block(random.Random(f"records-minimal/{seed}"), 10.0, 1,
                             lambda i: work / f"min{i}.json")
    return Workload("records", deck(), minimal, trace_calls=7 * 24, tail_percentile=99.0)


WORKLOADS = {
    "field-screen": field_screen,
    "field-offscreen": field_offscreen,
    "records": records,
}
