import contextlib
import io
import json
import math

from hypothesis import HealthCheck, settings

from nearwave import cli

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


def cli_record(*argv: str) -> dict:
    """The JSON record that ``nearwave *argv`` prints, from ``cli.main`` in this process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())
