"""Per-layer spans and counters, taken from outside the package.

``LayerTrace.install()`` replaces the public functions of each layer module
with timing wrappers, under every name they are looked up by: the defining
module, every package module that imported the name (``cli`` imports the
config readers, ``nearfield`` and ``aperture`` import ``adaptive_quad``,
``recoil`` imports ``tail_probability``) and the package namespace.  The
aperture profile methods are patched on their classes.  ``uninstall()``
restores every original, so untraced runs execute the unmodified program.

Spans nest on a stack.  A layer's self time is the time its spans ran
minus the time of the spans they called; a key's busy time counts only
its outermost spans, so recursion within a layer is not counted twice.
Integrand calls made by ``adaptive_quad`` are spans of the layer that
supplied the integrand, which leaves ``quadrature.self_s`` as the panel
bookkeeping alone.  Evaluations are counted as the array sizes passed to
the integrand.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "nearwave"
LAYERS = ("config", "nearfield", "quadrature", "aperture", "recoil", "probe", "kinematics", "modes")
PROFILE_METHODS = {
    "amplitude": "aperture.amplitude",
    "amplitude_sq": "aperture.amplitude",
    "field_tail": "aperture.field_tail",
    "field_tail_dx": "aperture.field_tail",
    "from_csv": "aperture",
}
# functions timed under their own busy key rather than their layer's
OWN_KEYS = {"tail_probability": "aperture.tail_probability"}


class LayerTrace:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list[float]] = []  # [start, time spent in child spans]
        self._depth = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _run(self, layer: str, key: str, fn, args, kwargs):
        outermost = self._depth[key] == 0
        self._depth[key] += 1
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[0]
            self._stack.pop()
            self._depth[key] -= 1
            self.self_s[layer] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            if outermost:
                self.busy_s[key] += dur

    def _wrap(self, fn, layer: str, key: str, name: str):
        counter = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            if key == "aperture.amplitude" and self._depth[key] == 0:
                # args are (self, kx); kx may be a scalar or an array
                self.counts["aperture.amplitude.points"] += np.size(args[1])
            return self._run(layer, key, fn, args, kwargs)

        return wrapper

    def _wrap_quad(self, fn, integrand_layer: str, error_type: type):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                self.counts["quadrature.evals"] += np.size(x)
                return self._run(integrand_layer, integrand_layer, f, (x,), {})

            self.counts["quadrature.calls"] += 1
            try:
                res = self._run("quadrature", "quadrature", fn, (integrand,) + args, kwargs)
            except error_type:
                self.counts["quadrature.failed"] += 1
                raise
            self.counts["quadrature.panels"] += res.panels
            return res

        return wrapper

    # ---------------------------------------------------------- patching

    def _set(self, obj, name: str, value) -> None:
        self._patches.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__ and name != "consistency_checks"):
                    key = OWN_KEYS.get(name, layer)
                    wrappers[id(obj)] = self._wrap(obj, layer, key, name)
        quad = modules[f"{PACKAGE}.quadrature"].adaptive_quad
        quad_error = modules[f"{PACKAGE}.errors"].QuadratureError
        for mod_name, mod in modules.items():
            short = mod_name.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if obj is quad:
                    self._set(mod, name, self._wrap_quad(
                        obj, short if short in LAYERS else "quadrature", quad_error))
                elif inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod, name, wrappers[id(obj)])
        aperture = modules[f"{PACKAGE}.aperture"]
        for cls in (aperture.SingleSlitProfile, aperture.GaussianProfile,
                    aperture.TabulatedProfile, aperture.ApertureProfile):
            for name, key in PROFILE_METHODS.items():
                if name in vars(cls):
                    raw = vars(cls)[name]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, "aperture", key, name))
                    else:
                        wrapped = self._wrap(raw, "aperture", key, name)
                    self._set(cls, name, wrapped)
        cli = modules[f"{PACKAGE}.cli"]
        self._set(cli, "main", self._wrap(cli.main, "cli", "cli", "main"))

    def uninstall(self) -> None:
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)
