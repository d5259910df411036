import cmath
import contextlib
import io
import json
import math

from hypothesis import HealthCheck, settings

# nearwave.cli must be imported before numpy, so that it pins OpenBLAS to the one thread
# the CLI runs on and the whole suite runs that way
from nearwave import cli
from nearwave.modes import WaveKind
from nearwave.recoil import _EPS, ScreenSpec, _branch_conditioning, recoil_solution

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def sig_figs(value: float, n: int) -> str:
    """Value formatted to n significant figures, for digit-level assertions."""
    return format(value, f".{n}g")


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    num = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    den = sum((x - mx) ** 2 for x in lx)
    return num / den


def psi_total(grid):
    """psi = psi_rw + psi_cw of a :class:`~nearwave.nearfield.FieldGrid`, as (len(zs), len(xs))."""
    return grid.psi_rw + grid.psi_cw


def current_x(grid):
    """J_x = Im(psi* d(psi)/dx) of a FieldGrid, the expression of the ``field`` command's J_x column."""
    return (psi_total(grid).conj() * (grid.dpsi_rw + grid.dpsi_cw)).imag


def cli_record(*argv: str) -> dict:
    """The JSON record that ``nearwave *argv`` prints, from ``cli.main`` in this process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def screen_momentum_magnitude(kx: float, screen: ScreenSpec) -> complex:
    """Complex 'magnitude' sqrt(Kx^2 + Kz~^2) of the recoiling screen momentum.

    Computed from the components and from the equivalent form
    sqrt(1 - 2 sqrt(k~^2 - kx^2) + k~^2); the two must agree to 1e-12.
    An oracle of :func:`recoil_solution`: no record prints this quantity, but
    its two routes read different fields of one solution.
    """
    sol = recoil_solution(kx, screen)
    w = kx * kx + sol.Kz_tilde * sol.Kz_tilde
    route_a = cmath.sqrt(w)
    kt = sol.k_tilde
    route_b = cmath.sqrt(1.0 - 2.0 * cmath.sqrt(kt * kt - kx * kx) + kt * kt)
    # agreement floor from rounding propagation: the strict identity gate,
    # the cancellation of terms of magnitude t_scale down to |w|=|route|^2
    # amplified by 1/|kz~| from the inner square root, the branch-point
    # conditioning of the stored decay constant on the evanescent side,
    # and, within rounding of the branch point itself, the sqrt(eps)-scale
    # residue that makes the branch ambiguous for one route only
    t_scale = max(1.0, kx * kx) + abs(sol.Kz_tilde) ** 2
    kz_mag = max(abs(sol.kz_tilde), 1e-300)
    route_mag = max(abs(route_a), 1e-300)
    amplify = (1.0 + 1.0 / kz_mag) / route_mag
    tol = 1e-12 * max(1.0, abs(route_a)) + 8.0 * _EPS * t_scale * amplify
    if sol.kind is WaveKind.CRAWLING:
        tol += 4.0 * sol.chi_z * _branch_conditioning(kx, sol.eta) * amplify
    r = 1.0 - (1.0 + 2.0 / screen.K_M) * kx * kx
    r_scale = max(1.0, (1.0 + 2.0 / screen.K_M) * kx * kx)
    if abs(r) <= 32.0 * _EPS * r_scale:
        im_floor = math.sqrt(32.0 * _EPS * r_scale) / (screen.K_M + 2.0)
        tol += 4.0 * (1.0 + abs(kt)) * im_floor * amplify
    if abs(route_a - route_b) > tol:
        raise ArithmeticError(f"momentum-magnitude routes disagree: {route_a!r} vs {route_b!r}")
    return route_a
