"""Out-of-process-code tracing: wrap phscale's public functions from outside.

``Tracer.install`` replaces each target function with a wrapper that records
a span ``(request, span, parent, layer, name, t0, t1, raised)``. Because
``phscale.cli`` and ``phscale.scale`` bind names with ``from ... import``,
every ``phscale.*`` module attribute that *is* the target object is rebound,
not only the defining one. ``Tracer.uninstall`` restores the originals and
``Tracer.leftover_wrappers`` proves that none remain.

Two functions are counted rather than spanned, because they run thousands of
times per request: ``SnLevyModel.laplace_exponent`` and
``meromorphic.beta_psi``. Each call is charged to the layer of the innermost
open span, so ``psi calls / roots found`` is measured where the roots are
found.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "models", "roots", "wiener_hopf", "scale", "fluctuation",
          "meromorphic", "mc")

# (module, attribute path, layer); "Class.method" patches the class attribute.
SPAN_TARGETS = (
    ("phscale.cli", "main", "cli"),
    ("phscale.models", "builtin_model", "models"),
    ("phscale.models", "load_model_file", "models"),
    ("phscale.roots", "find_roots", "roots"),
    ("phscale.roots", "find_zeta", "roots"),
    ("phscale.wiener_hopf", "partial_fraction_coefficients", "wiener_hopf"),
    ("phscale.wiener_hopf", "wh_factor_minus", "wiener_hopf"),
    ("phscale.scale", "build_scale", "scale"),
    ("phscale.scale", "assemble", "scale"),
    ("phscale.scale", "boundary_identities", "scale"),
    ("phscale.scale", "ScaleFunction.w", "scale"),
    ("phscale.scale", "ScaleFunction.w_tilted", "scale"),
    ("phscale.scale", "ScaleFunction.w_prime", "scale"),
    ("phscale.scale", "ScaleFunction.z", "scale"),
    ("phscale.scale", "ScaleFunction.log_w", "scale"),
    ("phscale.scale", "ScaleFunction.laplace_transform_w", "scale"),
    ("phscale.fluctuation", "up_exit", "fluctuation"),
    ("phscale.fluctuation", "down_exit", "fluctuation"),
    ("phscale.fluctuation", "down_exit_unbounded", "fluctuation"),
    ("phscale.fluctuation", "joint_overshoot_undershoot", "fluctuation"),
    ("phscale.fluctuation", "overshoot_density", "fluctuation"),
    ("phscale.fluctuation", "undershoot_density", "fluctuation"),
    ("phscale.fluctuation", "conjecture_residuals", "fluctuation"),
    ("phscale.meromorphic", "truncated_coefficients", "meromorphic"),
    ("phscale.meromorphic", "mero_roots", "meromorphic"),
    ("phscale.meromorphic", "w_bounds", "meromorphic"),
    ("phscale.meromorphic", "z_bounds", "meromorphic"),
    ("phscale.meromorphic", "w_prime_bounds", "meromorphic"),
    ("phscale.meromorphic", "cgmy_limit_study", "meromorphic"),
    ("phscale.mc", "simulate_two_sided_exit", "mc"),
    ("phscale.mc", "simulate_overshoot_undershoot", "mc"),
)
COUNT_TARGETS = (
    ("phscale.models", "SnLevyModel.laplace_exponent", "psi"),
    ("phscale.meromorphic", "beta_psi", "beta_psi"),
)
SCALE_POINT_FNS = frozenset(t for _, t, _ in SPAN_TARGETS if t.startswith("ScaleFunction."))
FLUCTUATION_POINT_FNS = frozenset(("up_exit", "down_exit", "down_exit_unbounded",
                                   "joint_overshoot_undershoot", "overshoot_density",
                                   "undershoot_density"))
BOUNDS_FNS = frozenset(("w_bounds", "z_bounds", "w_prime_bounds"))


def _phscale_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "phscale" or name.startswith("phscale."))]


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, attr


def _work(name: str, args, out, seconds: float) -> Counter:
    """Exact work counts read off a call's arguments and result (and, for
    simulations, the seconds spent, to turn paths into a rate)."""
    c = Counter()
    if name == "find_roots":
        c["roots_found"] = out.n_roots + 1            # negative roots plus zeta
    elif name == "mero_roots":
        c["mero_roots_found"] = len(out[1]) + 1       # xi_1..xi_{m+1} plus zeta
    elif name.startswith("simulate_"):
        model, n_paths = args[0], args[4]
        key = "paths_brownian" if model.sigma > 0 else "paths_drift"
        c[key], c[key + "_s"] = n_paths, seconds
    return c


class Tracer:
    def __init__(self):
        self.spans = []        # (req, span, parent, layer, name, t0, t1, raised)
        self.request = -1
        self.work = Counter()  # exact counts: (layer, kind) and _work() keys
        self._stack = []       # (span id, layer) of open spans
        self._patches = []     # (owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str):
        spans, stack, work = self.spans, self._stack, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, layer))
            raised = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (self.request, sid, parent, layer, name, t0, t1, raised)
            if name in ("find_roots", "mero_roots") or name.startswith("simulate_"):
                work.update(_work(name, args, out, t1 - t0))
            if name == "find_zeta" and not (stack and stack[-1][1] == "roots"):
                work["roots_found"] += 1
            return out

        wrapper.__traced__ = fn
        return wrapper

    def _count_wrapper(self, fn, kind: str):
        stack, work = self._stack, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work[(stack[-1][1] if stack else "none", kind)] += 1
            return fn(*args, **kwargs)

        wrapper.__traced__ = fn
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch_everywhere(self, module_name: str, path: str, make):
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for _, mod in _phscale_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        for module_name, path, layer in SPAN_TARGETS:
            self._patch_everywhere(module_name, path,
                                   lambda fn: self._span_wrapper(fn, layer, path))
        for module_name, path, kind in COUNT_TARGETS:
            self._patch_everywhere(module_name, path,
                                   lambda fn: self._count_wrapper(fn, kind))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers() -> list:
        """Every phscale attribute (module level or class level) still wrapped."""
        left = []
        for mod_name, mod in _phscale_modules():
            for name, value in vars(mod).items():
                if hasattr(value, "__traced__"):
                    left.append(f"{mod_name}.{name}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    left += [f"{mod_name}.{name}.{a}" for a, v in vars(value).items()
                             if hasattr(v, "__traced__")]
        return left


def self_times(spans) -> list:
    """Per span: (req, layer, name, duration, self time, raised).

    Spans of one thread nest strictly, so the time a span's children cover is
    the sum of their durations.
    """
    child = defaultdict(float)
    for s in spans:
        if s[2] >= 0:
            child[s[2]] += s[6] - s[5]
    return [(s[0], s[3], s[4], s[6] - s[5], s[6] - s[5] - child[s[1]], s[7])
            for s in spans]


def layer_summary(spans) -> dict:
    """{layer: {"self_s", "calls", "errors"}} plus per-function totals.

    ``calls`` counts outermost entries into the layer (a span whose parent is
    in another layer); ``errors`` counts those that raised.
    """
    layer_of = {s[1]: s[3] for s in spans}
    layers = {name: {"self_s": 0.0, "calls": 0, "errors": 0} for name in LAYERS}
    per_fn = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for s, (_, layer, name, dur, own, raised) in zip(spans, self_times(spans)):
        entry = layers[layer]
        entry["self_s"] += own
        if layer_of.get(s[2]) != layer:
            entry["calls"] += 1
            entry["errors"] += raised
        fn = per_fn[name]
        fn["self_s"] += own
        fn["total_s"] += dur
        fn["calls"] += 1
    return {"layers": layers, "functions": dict(per_fn)}
