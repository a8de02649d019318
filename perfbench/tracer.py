"""Per-layer tracing of fracheat from outside the package.

Tracer wraps named public functions at every binding inside `fracheat.*`
(modules import each other by name, so `experiments.picard_terms` is the
same object as `picard.picard_terms` and both must be replaced) and counts
FFT calls on `numpy.fft` and `scipy.fft`. The FFT counters must be
installed before `fracheat` is imported, in case a module binds a
transform by name at import time.

Per layer it records calls, inclusive busy time (outermost activations
only) and self time (busy time minus the time of traced calls made from
inside it). FFT calls are counted, not timed. A function that no longer
exists is reported in `absent` and its metrics stay zero. So is a counter
that cannot read a call's arguments or result (after a signature change):
it is reported as `<layer>.<counter>`, reads 0 and is not called again.
"""

import importlib
import math
import os
import sys
import time
from functools import wraps


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mode_steps(args, kwargs, result):
    seed = _arg(args, kwargs, 0, "seed")
    n_terms = _arg(args, kwargs, 1, "n_terms")
    config = _arg(args, kwargs, 2, "config")
    return seed.grid.mode_count * config.n_steps * n_terms


def _pairs(args, kwargs, result):
    targets = _arg(args, kwargs, 0, "targets")
    nodes = _arg(args, kwargs, 1, "xi1")
    return len(targets) * len(nodes)


def _iterations(args, kwargs, result):
    return result[1].n_iter


def _emitted_bytes(args, kwargs, result):
    # the registry is counted whole: each sample emits into a fresh root
    paths = list(result["csv"]) + list(result["plots"]) + [result["registry"]]
    return sum(os.path.getsize(p) for p in paths)


# layer -> (module, functions, {counter: fn(args, kwargs, result) -> int})
LAYERS = {
    "picard.picard_terms": ("fracheat.picard", ("picard_terms",),
                            {"mode_steps": _mode_steps}),
    "picard.second_iterate_hat": ("fracheat.picard", ("second_iterate_hat",),
                                  {}),
    "kernels.second_iterate": ("fracheat._kernels",
                               ("second_iterate_values",), {"pairs": _pairs}),
    "grid.dealiased_product_coeffs": ("fracheat.grid",
                                      ("dealiased_product_coeffs",), {}),
    "grid.dealiased_product": ("fracheat.grid", ("dealiased_product",), {}),
    "dyadic.algebra_constant": ("fracheat.dyadic", ("algebra_constant",), {}),
    "dyadic.besov_norm": ("fracheat.dyadic", ("besov_norm",), {}),
    "dyadic.x_norm": ("fracheat.dyadic", ("x_norm",), {}),
    "dyadic.sobolev_norm": ("fracheat.dyadic", ("sobolev_norm",), {}),
    "evolution.fixed_point_solve": ("fracheat.evolution",
                                    ("fixed_point_solve",),
                                    {"iterations": _iterations}),
    "evolution.integral_residual": ("fracheat.evolution",
                                    ("integral_residual",), {}),
    "evolution.duhamel_integrate": ("fracheat.evolution",
                                    ("duhamel_integrate",), {}),
    "evolution.smoothing_constant": ("fracheat.evolution",
                                     ("smoothing_constant",), {}),
    "families.build": ("fracheat.families",
                       ("build_family", "build_phi_N", "build_phi_NR",
                        "build_psi_N"), {}),
    "families.verify_cascade": ("fracheat.families", ("verify_cascade",), {}),
    "families.pairing_lower_bound": ("fracheat.families",
                                     ("pairing_lower_bound",), {}),
    "experiments.emit_report": ("fracheat.experiments", ("emit_report",),
                                {"bytes": _emitted_bytes}),
}

# transform name -> kind; r2c transforms cost half a c2c of the same length
FFT_KINDS = {"fft": "c2c", "ifft": "c2c", "rfft": "r2c", "irfft": "r2c"}
FFT_MODULES = ("numpy.fft", "scipy.fft")


class Tracer:
    """Counters and span times for one traced sample."""

    def __init__(self):
        self.stats = {layer: dict({"calls": 0, "busy_s": 0.0, "self_s": 0.0},
                                  **{c: 0 for c in LAYERS[layer][2]})
                      for layer in LAYERS}
        self.fft = {kind: {"calls": 0, "points": 0} for kind in ("c2c", "r2c")}
        self.fft_flops = 0.0
        self.absent = []
        self._counters = {layer: dict(LAYERS[layer][2]) for layer in LAYERS}
        self._depth = {layer: 0 for layer in LAYERS}
        self._stack = []  # child time accumulated by each active span

    # ------------------------------------------------------------- FFT
    def install_fft_counters(self):
        """Count transforms on numpy.fft and, if installed, scipy.fft."""
        for modname in FFT_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for name, kind in FFT_KINDS.items():
                fn = getattr(mod, name, None)
                if fn is not None:
                    setattr(mod, name, self._count_fft(fn, name, kind))

    def _count_fft(self, fn, name, kind):
        tr = self

        @wraps(fn)
        def counted(a, n=None, axis=-1, *args, **kwargs):
            shape = getattr(a, "shape", None)
            if shape is None:
                shape = (len(a),)
            length = shape[axis] if shape else 1
            batch = math.prod(shape) // length if length else 0
            size = n if n is not None else (
                2 * (length - 1) if name == "irfft" else length)
            stat = tr.fft[kind]
            stat["calls"] += 1
            stat["points"] += batch * size
            if size > 1:
                per = 5.0 * size * math.log2(size)
                tr.fft_flops += batch * (per if kind == "c2c" else per / 2.0)
            return fn(a, n, axis, *args, **kwargs)

        return counted

    # ---------------------------------------------------------- layers
    def install_layers(self):
        """Wrap every layer function at each of its bindings in fracheat.*."""
        for layer, (modname, names, _) in LAYERS.items():
            try:
                home = importlib.import_module(modname)
            except ImportError:
                self.absent.extend(f"{modname}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    self.absent.append(f"{modname}.{name}")
                    continue
                wrapped = self._span(layer, fn)
                for mod in list(sys.modules.values()):
                    owner = getattr(mod, "__name__", "")
                    if owner != "fracheat" and \
                            not owner.startswith("fracheat."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)

    def _span(self, layer, fn):
        tr = self
        stat = self.stats[layer]
        counters = self._counters[layer]  # shared by the layer's functions

        @wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            tr._stack.append(child)
            tr._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tr._stack.pop()
                tr._depth[layer] -= 1
                stat["calls"] += 1
                stat["self_s"] += dur - child[0]
                if tr._depth[layer] == 0:
                    stat["busy_s"] += dur
                if tr._stack:
                    tr._stack[-1][0] += dur
            for counter, count in list(counters.items()):
                try:
                    stat[counter] += count(args, kwargs, result)
                except Exception:
                    del counters[counter]
                    stat[counter] = 0
                    tr.absent.append(f"{layer}.{counter}")
            return result

        return traced

    def snapshot(self):
        """Plain-data copy of every counter, for the sample's result file."""
        return {"layers": {k: dict(v) for k, v in self.stats.items()},
                "fft": {k: dict(v) for k, v in self.fft.items()},
                "fft_flops": self.fft_flops,
                "absent": list(self.absent)}
