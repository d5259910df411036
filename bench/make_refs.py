"""Regenerate refs.json: mpmath reference values for the field-offscreen spots.

The benchmark only reads refs.json; run this script (it needs mpmath, which
the test extras already require) when the spot set changes:

    python3 bench/make_refs.py

The references evaluate the same integral representation the package uses,

    psi(x, z) = 2 int_0^1 F(k) e^{i sqrt(1-k^2) z} cos(kx) dk
              + 2 int_1^inf F(k) e^{-sqrt(k^2-1) z} cos(kx) dk,

and its x-derivative, by mpmath.quad at 30 digits on panels of half an
oscillation, with the running range mapped by k = sin(theta).  The
evanescent range is cut where the integrand bound drops below 1e-25.
J_x = Im(conj(psi) d_x psi).  Each point takes seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

SPOTS = [
    {"aperture": {"kind": "single_slit", "a": 1.0},
     "grid": {"x": [-1.2, -0.4, 0.4, 1.2], "z": [0.5, 40.0]}},
    {"aperture": {"kind": "gaussian", "w": 1.5},
     "grid": {"x": [-0.9, 0.0, 0.9], "z": [0.25, 2.0, 60.0]}},
]


def _amplitude(aperture: dict):
    if aperture["kind"] == "single_slit":
        a = mp.mpf(aperture["a"])
        return (lambda k: 2 * mp.sqrt(mp.pi * a) * mp.cos(a * k / 2) / (mp.pi**2 - (a * k) ** 2)), a / 2
    w = mp.mpf(aperture["w"])
    return (lambda k: mp.exp(-((k * w) ** 2) / 4)), mp.mpf(0)


def _panels(lo, hi, step):
    n = max(1, int(mp.ceil((hi - lo) / step)))
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def field_and_dx(aperture: dict, x: float, z: float) -> tuple[mp.mpc, mp.mpc]:
    F, rate0 = _amplitude(aperture)
    x, z = mp.mpf(x), mp.mpf(z)
    rate = abs(x) + rate0 + z + 1

    def rw(kernel):
        f = lambda t: F(mp.sin(t)) * mp.exp(1j * z * mp.cos(t)) * kernel(mp.sin(t)) * mp.cos(t)
        return 2 * mp.quad(f, _panels(mp.mpf(0), mp.pi / 2, mp.pi / (2 * rate)))

    # cut where e^{-z chi} (1 + k) |F|-bound < 1e-25; the slit bound is 2 sqrt(pi a)/k^2 scale
    k_end = 1 + 60 / z + 10
    while mp.exp(-z * mp.sqrt(k_end**2 - 1)) * k_end > mp.mpf(10) ** -25:
        k_end *= 1.5

    def cw(kernel):
        f = lambda k: F(k) * mp.exp(-z * mp.sqrt(k * k - 1)) * kernel(k)
        return 2 * mp.quad(f, _panels(mp.mpf(1), k_end, mp.pi / (abs(x) + rate0 + 1)))

    cos_k = lambda k: mp.cos(k * x)
    dcos_k = lambda k: -k * mp.sin(k * x)
    return rw(cos_k) + cw(cos_k), rw(dcos_k) + cw(dcos_k)


def main() -> None:
    out = []
    for spot in SPOTS:
        points = []
        for z in spot["grid"]["z"]:
            for x in spot["grid"]["x"]:
                if x < 0:
                    continue  # psi is even and J_x odd in x; mirrors added below
                psi, dpsi = field_and_dx(spot["aperture"], x, z)
                jx = float(mp.im(mp.conj(psi) * dpsi))
                ref = {"x": x, "z": z, "re_psi": float(mp.re(psi)), "im_psi": float(mp.im(psi)), "J_x": jx}
                points.append(ref)
                if x > 0 and -x in spot["grid"]["x"]:
                    points.append({**ref, "x": -x, "J_x": -jx})
                print(ref, flush=True)
        out.append({**spot, "points": points})
    path = Path(__file__).resolve().parent / "refs.json"
    path.write_text(json.dumps({"spots": out}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
