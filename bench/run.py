"""nearwave benchmark: CLI calls in one closed loop, plus cold start.

    python3 bench/run.py --workload field-screen --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one report

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.

One client, one process, no threads: each ``nearwave.cli.main([...])``
call waits for the previous one, as a CLI user or a sweep script does.
Every call runs at the default ``--tolerance`` and writes ``--out`` to a
file in a scratch directory under ``bench/.work/``, removed on exit.  The
calls come from an endless seeded stream (workloads.py), so none repeats
however many a run gets through.

``--trace 0`` measures the end-to-end metrics with no instrumentation:

* ``setup_s``: median wall time of fresh interpreters that import
  ``nearwave.cli`` and complete one minimal request of each kind the
  workload sends (after one unmeasured interpreter that writes the
  bytecode cache and warms the file cache), scaled by a reference
  interpreter run next to each (see ``measure_setup``);
* ``points_per_s``: output rows of successful calls over the summed call
  latency, during ``--seconds`` of closed-loop calls;
* ``call_p50_ms`` and ``call_tail_ms``: median latency and a fixed
  percentile per workload (``Workload.tail_percentile``; the report line
  names it, gives the sample count and warns when fewer than ten calls
  lie beyond it);
* ``peak_rss_mb``: peak resident memory of this process.

The call times are scaled to a nominal host speed (see ``HostSpeed``);
the report prints the median of the run's scale factors.

A call fails when it raises, exits nonzero, or its output misses its
oracle (see workloads.py); ``failed_frac`` = failed / attempted is
reported on its own line and through the ``failed`` field.

``--trace 1`` runs each call of a fixed prefix of the deck twice, once
untraced and once under layertrace.LayerTrace, and reports per-layer
metrics.  Counters repeat exactly for a fixed seed; times are not scaled.
Import times come from ``python -X importtime`` on the same set-up script
(median of three); ``import.nearwave_s`` is the package's own share,
without the numpy and scipy imports nested in it.  ``-X importtime``
adds its own overhead, so the ``import.*`` figures sum to more than
``setup_s``.  ``trace.overhead_s`` (traced minus untraced time of the same
calls) and ``src.lines`` are reported for information; they are never
gated.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from workloads import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
# fresh interpreters cache bytecode as an installed CLI does, whatever the caller's setting
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
IMPORTTIME_RUNS = 3
REF_ARGV = [sys.executable, "-c", "import numpy, scipy.special, scipy.interpolate"]
REF_START_S = 0.62  # REF_ARGV wall time on an idle 2-vCPU 2.1 GHz Xeon VM

SETUP_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
from nearwave.cli import main
for argv in {calls!r}:
    if main(argv) != 0:
        sys.exit(1)
"""


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_cli():
    if not (SRC / "nearwave" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'nearwave'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nearwave.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "nearwave").resolve():
        fail(f"imported nearwave from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Runs deck calls through ``cli.main`` and applies their oracles."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def call(self, call) -> tuple[float, bool]:
        """Run one call; returns its latency in seconds and whether it passed."""
        write_inputs(call)
        self.out.write_bytes(b"")  # no stale output can pass an oracle
        argv = [*call.argv, "--out", str(self.out)]
        reason = None
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)  # looked up per call, so tracing can patch it
        except (Exception, SystemExit) as e:  # noqa: BLE001 - a failing call must not stop the run
            dt = perf_counter() - t0
            reason = f"raised {e!r}"
        else:
            dt = perf_counter() - t0
            if code != 0:
                reason = f"exit code {code}"
            else:
                try:
                    reason = call.check(self.out.read_text(encoding="utf-8"))
                except OSError as e:
                    reason = f"no output: {e}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(call.argv)}: {reason}")
        return dt, reason is None


def setup_script(work: Path, wl) -> Path:
    out = work / "setup-out"
    calls = [[*c.argv, "--out", str(out)] for c in wl.minimal]
    for c in wl.minimal:
        write_inputs(c)
    path = work / "setup.py"
    path.write_text(SETUP_SCRIPT.format(src=str(SRC), calls=calls), encoding="utf-8")
    return path


class HostSpeed:
    """Speed of the shared host right now, from a fixed reference kernel.

    The kernel (numpy math on an array that fits in cache, then a
    pure-Python loop) does not touch the package, so its time moves only
    with the host.  On shared hosts that speed drifts by +-15% or more within
    a run, which no run length averages out.  The kernel is timed (best of
    three) every RECHECK_S through the run, and every measured time is
    multiplied by ``REF_KERNEL_S / kernel time`` of the check just before
    it.  This reports times at a nominal host speed and leaves changes in
    the program visible at their full size.  In three comparisons of five
    or six seeds on field-offscreen and records, points_per_s spread
    (IQR/median) by 0.03 to 0.08 with the factor of the moment and by 0.03
    to 0.24 with one factor per run (0.15 unscaled).
    """

    REF_KERNEL_S = 0.0048  # typical kernel time on a 2-vCPU 2.1 GHz Xeon VM
    RECHECK_S = 0.5

    def __init__(self):
        self._x = np.linspace(0.0, 10.0, 50_000)
        self.factors: list[float] = []
        self._checked = -math.inf

    def _kernel_s(self) -> float:
        t0 = perf_counter()
        for _ in range(5):
            (np.sin(self._x) * np.exp(-self._x)).sum()
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        return perf_counter() - t0

    def check(self) -> float:
        """Multiplier from measured to nominal time now.

        Times the kernel again if the last check is older than RECHECK_S.
        """
        if perf_counter() - self._checked >= self.RECHECK_S:
            self.factors.append(self.REF_KERNEL_S / min(self._kernel_s() for _ in range(3)))
            self._checked = perf_counter()
        return self.factors[-1]


def _wall_s(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, cwd=ROOT, env=CHILD_ENV)
    return perf_counter() - t0, proc


def measure_setup(script: Path, runner: Runner) -> float:
    """Median set-up time, each scaled by a reference interpreter run next to it.

    The reference (``REF_ARGV``) is a cold interpreter that imports the
    package's third-party dependencies and nothing of the package, so it
    tracks the host's start-up speed (file cache, page faults, CPU) the way
    the set-up interpreter does, and no change to the package moves it: a
    change that defers or drops a dependency import shortens the set-up
    time and leaves the reference as it was.  Each set-up time is
    multiplied by ``REF_START_S / reference time``.  On eight
    field-offscreen seeds on a loaded host, set-up spread (IQR/median) was
    0.34 unscaled, 0.32 with a numpy-only reference and 0.06 with this one;
    scaling by HostSpeed did no better than unscaled.
    """
    ratios = []
    for i in range(SETUP_RUNS + 1):
        dt, proc = _wall_s([sys.executable, str(script)])
        ref_s, _ = _wall_s(REF_ARGV)
        runner.attempted += 1
        if proc.returncode != 0:
            runner.failed += 1
            runner.reasons.append(f"set-up interpreter exited {proc.returncode}: "
                                  f"{proc.stderr.decode(errors='replace')[-300:]}")
        elif i > 0:  # the first interpreter only warms caches
            ratios.append(dt / ref_s)
    return statistics.median(ratios) * REF_START_S if ratios else math.nan


IMPORT_GROUPS = {
    "nearwave": "import.nearwave_s",
    "numpy": "import.numpy_s",
    "scipy.special": "import.scipy_special_s",
    "scipy.interpolate": "import.scipy_interpolate_s",
}


def _family(name: str) -> str:
    return name.split(".", 1)[0]


def _import_seconds(stderr: str) -> dict[str, float]:
    """Time spent importing each group, from ``-X importtime`` output.

    A group's time is the summed cumulative time of its outermost entries
    (those whose parent import is outside the group), so lazily loaded
    submodules without an entry of their own, like the ones scipy's lazy
    attribute loader pulls in for ``scipy.interpolate``, still count.
    nearwave imports numpy and scipy itself, so the outermost numpy and
    scipy entries nested in it are taken out of its time; what remains is
    its own modules and the standard-library modules they load.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2][1:]
        name = raw.lstrip(" ")
        entries.append(((len(raw) - len(name)) // 2, name, int(parts[1]) * 1e-6))
    totals = dict.fromkeys(IMPORT_GROUPS.values(), 0.0)
    ancestors: list[tuple[str | None, str]] = []  # (group, family) of the open import at each depth
    # children are printed before their parent; walk backwards to see parents first
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        group = next((g for prefix, g in IMPORT_GROUPS.items()
                      if name == prefix or name.startswith(prefix + ".")), None)
        families = {f for _, f in ancestors}
        if group is not None and group not in (g for g, _ in ancestors):
            totals[group] += cumulative
        if (_family(name) in ("numpy", "scipy") and "nearwave" in families
                and not families & {"numpy", "scipy"}):
            totals["import.nearwave_s"] -= cumulative
        ancestors.append((group, _family(name)))
    return totals


def import_times(script: Path) -> dict[str, float]:
    runs = [
        _import_seconds(subprocess.run([sys.executable, "-X", "importtime", str(script)],
                                       capture_output=True, text=True, cwd=ROOT,
                                       env=CHILD_ENV).stderr)
        for _ in range(IMPORTTIME_RUNS)
    ]
    return {k: statistics.median(r[k] for r in runs) for k in IMPORT_GROUPS.values()}


def percentile(latencies: list[float], p: float) -> float:
    s = sorted(latencies)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def untraced(wl, runner: Runner, script: Path, seconds: float) -> dict:
    host = HostSpeed()
    setup_s = measure_setup(script, runner)
    for c in wl.minimal:
        runner.call(c)  # warm the in-process caches
    lat, rows = [], 0
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        c = next(wl.deck)
        scale = host.check()
        dt, ok = runner.call(c)
        if ok:
            lat.append(dt * scale)
            rows += c.rows
    if not lat:
        return {"setup_s": (setup_s, "s")}, {"samples": 0}
    p = wl.tail_percentile
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (rows / sum(lat), "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_tail_ms": (percentile(lat, p) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"samples": len(lat), "tail_percentile": p,
                     "host_speed": statistics.median(host.factors)}


def traced(wl, runner: Runner, script: Path) -> dict:
    from layertrace import LayerTrace

    metrics = {k: (v, "s") for k, v in import_times(script).items()}
    for c in wl.minimal:
        runner.call(c)
    prefix = list(itertools.islice(wl.deck, wl.trace_calls))
    lt = LayerTrace()
    plain_s = traced_s = 0.0
    emit_bytes = rows = records = 0
    # each call runs untraced and traced back to back, in alternating order,
    # so drift and warm-up fall evenly on both sides of the overhead
    for i, c in enumerate(prefix):
        for tracing in ((False, True) if i % 2 else (True, False)):
            if not tracing:
                plain_s += runner.call(c)[0]
                continue
            lt.install()
            try:
                dt, ok = runner.call(c)
            finally:
                lt.uninstall()
            traced_s += dt
            if ok:
                rows += c.rows
                records += c.records
                emit_bytes += runner.out.stat().st_size

    n, busy, own = lt.counts, lt.busy_s, lt.self_s
    field_calls = n["nearfield.field_at"] + n["nearfield.field_dx_at"]
    field_points = sum(c.rows for c in prefix if c.kind == "field")

    def per(num, den):
        return num / den if den else 0.0

    metrics.update({
        "cli.self_s": (own["cli"], "s"),
        "cli.emit_bytes": (emit_bytes, "bytes"),
        "config.busy_s": (busy["config"], "s"),
        "nearfield.field_at.calls": (n["nearfield.field_at"], "count"),
        "nearfield.field_dx_at.calls": (n["nearfield.field_dx_at"], "count"),
        "nearfield.calls_per_point": (per(field_calls, field_points), "calls/point"),
        "nearfield.self_s": (own["nearfield"], "s"),
        "quadrature.calls": (n["quadrature.calls"], "count"),
        "quadrature.panels": (n["quadrature.panels"], "count"),
        "quadrature.evals": (n["quadrature.evals"], "count"),
        "quadrature.evals_per_point": (per(n["quadrature.evals"], rows), "evals/row"),
        "quadrature.self_s": (own["quadrature"], "s"),
        "quadrature.failed": (n["quadrature.failed"], "count"),
        "aperture.amplitude.points": (n["aperture.amplitude.points"], "count"),
        "aperture.amplitude.busy_s": (busy["aperture.amplitude"], "s"),
        "aperture.field_tail.busy_s": (busy["aperture.field_tail"], "s"),
        "aperture.tail_probability.calls": (n["aperture.tail_probability"], "count"),
        "aperture.tail_probability.busy_s": (busy["aperture.tail_probability"], "s"),
        "recoil.recoil_solution.calls": (n["recoil.recoil_solution"], "count"),
        "recoil.solutions_per_record": (per(n["recoil.recoil_solution"], records), "calls/record"),
        "recoil.busy_s": (busy["recoil"], "s"),
        "probe.busy_s": (busy["probe"], "s"),
        "kinematics.busy_s": (busy["kinematics"], "s"),
        "modes.busy_s": (busy["modes"], "s"),
        "trace.calls": (len(prefix), "count"),
        "trace.rows": (rows, "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "src.lines": (src_lines(), "lines"),
    })
    return metrics, {}


def run_one(args) -> int:
    cli = import_cli()
    scratch_root = BENCH / ".work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        script = setup_script(work, wl)
        runner = Runner(cli, work)
        if args.trace:
            metrics, info = traced(wl, runner, script)
        else:
            metrics, info = untraced(wl, runner, script, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()  # only when no other run is using it

    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    for name, (value, unit) in metrics.items():
        print(f"{tag}  {name:34s} {value:.6g} {unit}")
    print(f"{tag}  {'failed_frac':34s} {failed_frac:.6g} 1  "
          f"({runner.failed} of {runner.attempted} calls)")
    if "tail_percentile" in info:
        print(f"{tag}  call_tail_ms is p{info['tail_percentile']:g} of {info['samples']} calls")
        beyond = info["samples"] * (1.0 - info["tail_percentile"] / 100.0)
        if beyond < 10.0:
            print(f"{tag}  WARNING: only {beyond:.0f} calls beyond p{info['tail_percentile']:g}; "
                  "call_tail_ms is noisy in this run", file=sys.stderr)
        print(f"{tag}  times are scaled to nominal host speed by factors of median "
              f"{info['host_speed']:.4f} (below 1: host slower than nominal)")
    for reason in runner.reasons:
        print(f"{tag}  FAILED {reason}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    missing = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if missing or not runner.attempted:
        sys.stderr.write(f"bench: could not measure {missing or 'anything'}\n")
        return 1
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
