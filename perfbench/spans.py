"""Span tracing of the package from outside, by wrapping its entry points.

``Tracer.installed()`` rebinds each entry point below in every loaded
``sigmatoda`` module that holds it by name (``from .sigma import wp`` makes a
binding of its own in the importing module), patches ``_AbelEngine`` methods
on the class, and restores everything on exit. A wrapped call records a span:
entry name, start, end, parent span, op id and whether it raised. Spans stay
in memory; ``summarize`` turns them into per-layer metrics.

A layer's self time is the time of its spans minus that of their child spans,
so the self times of all layers plus the time in no span add up to the traced
loop time. An entry point that the package no longer has is recorded as
absent, and the metrics that need it are reported as ``None``, never as 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, qualified name) of each entry point that opens a span
SPAN_ENTRIES = {
    "sigma.abel": [("sigma", "abel_map"), ("sigma", "_AbelEngine.__init__"),
                   ("sigma", "_AbelEngine.to_point"), ("sigma", "_AbelEngine._leg"),
                   ("sigma", "_AbelEngine._final_branch_leg")],
    "theta": [("theta", "_theta_sum")],
    "sigma.eval": [("sigma", n) for n in (
        "sigma_with_scale", "sigma", "sigma_deriv", "sigma_jet2",
        "sigma_natural", "wp", "zeta")],
    "sigma.context": [("sigma", n) for n in (
        "sigma_context", "riemann_characteristics", "normalize_gamma0")],
    "periods": [("periods", "compute_periods")],
    "addition": [("addition", n) for n in (
        "thm_add_residual", "fay_residual", "baker_residual", "fs_residual",
        "fs_det", "mu_n", "reduce_divisor", "xi", "baker_rhs")],
    "toda": [("toda", n) for n in (
        "toda_frame", "V", "toda_residual_1d", "hirota_residual", "flaschka",
        "flaschka_wp_path", "frame_well_conditioned", "toda_state",
        "char_poly", "lax_det_residual", "spectral_morphism")],
    "division": [("division", n) for n in (
        "cantor_alpha", "xi_set", "torsion_to_frame", "phi_roots")],
    "polyutil.aberth": [("polyutil", "aberth_roots")],
    "curves": [("curves", n) for n in (
        "make_curve", "random_curve_points", "y_jet")],
}
LAYERS = list(SPAN_ENTRIES)

# metric -> entry point whose calls it counts; no span, so the time of these
# helpers stays with the layer that called them
COUNTED_ENTRIES = {
    "periods.continue_y.calls": ("periods", "_continue_y"),
    "periods.continuous_sqrt.calls": ("periods", "_continuous_sqrt"),
}
# Gauss-Legendre node sets built for the Abel engine, counted at numpy so
# that a cache in front of _gauss_nodes shows as fewer builds
NODE_SOURCE = ("numpy.polynomial.legendre", "leggauss")
NODE_CONSUMER = ("sigma", "_gauss_nodes")

THETA = ("theta", "_theta_sum")
# read from the arguments of _theta_sum
THETA_ARG_METRICS = ("theta.calls_d0", "theta.calls_d1", "theta.calls_d2",
                     "theta.terms")

# per op over the traced loop passes
LOOP_METRICS = {
    "sigma.abel.points": "1/op", "sigma.abel.legs": "1/op",
    "sigma.abel.node_builds": "1/op", "sigma.abel.self_s": "s/op",
    "theta.calls": "1/op", "theta.calls_d0": "1/op", "theta.calls_d1": "1/op",
    "theta.calls_d2": "1/op", "theta.terms": "1/op", "theta.self_s": "s/op",
    "theta.failed": "1/op",
    "sigma.eval.calls": "1/op", "sigma.eval.self_s": "s/op",
    "sigma.context.calls": "1/op", "sigma.context.self_s": "s/op",
    "sigma.context.failed": "1/op",
    "periods.calls": "1/op", "periods.self_s": "s/op", "periods.failed": "1/op",
    "periods.continue_y.calls": "1/op", "periods.continuous_sqrt.calls": "1/op",
    "addition.calls": "1/op", "addition.self_s": "s/op", "addition.failed": "1/op",
    "toda.calls": "1/op", "toda.self_s": "s/op", "toda.failed": "1/op",
    "division.calls": "1/op", "division.self_s": "s/op", "division.failed": "1/op",
    "polyutil.aberth.calls": "1/op", "polyutil.aberth.self_s": "s/op",
    "curves.calls": "1/op", "curves.self_s": "s/op",
    "trace.overhead_share": "share", "trace.unattributed_share": "share",
}
# totals over one traced set-up
SETUP_METRICS = {f"setup.{layer}.self_s": "s" for layer in LAYERS}
SETUP_METRICS.update({
    "setup.sigma.abel.points": "count", "setup.theta.calls": "count",
    "setup.sigma.context.calls": "count", "setup.periods.calls": "count",
    "setup.division.calls": "count",
    "setup.trace.unattributed_share": "share",
})
PER_LAYER_UNITS = {**LOOP_METRICS, **SETUP_METRICS}


def _package_module(name: str):
    try:
        return importlib.import_module(f"sigmatoda.{name}")
    except ImportError:
        return None


def _lookup(module: str, qualname: str):
    """(owner, attribute, original) of an entry point, or None if absent."""
    mod = _package_module(module)
    if mod is None:
        return None
    owner, _, attr = qualname.rpartition(".")
    target = getattr(mod, owner, None) if owner else mod
    if target is None:
        return None
    # own attributes only: an inherited __init__ is not the package's
    original = vars(target).get(attr)
    if not callable(original):
        return None
    return target, attr, original


class Tracer:
    """Span and call-count recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []  # (name index, start, end, parent, op, raised)
        self.counts: Counter = Counter()
        self.absent: set = set()
        self.op = -1
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, fn, name: str, layer: str):
        name_idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self.op, raised)

        return wrapper

    def _theta_wrapper(self, fn):
        inner = self._span_wrapper(fn, "theta._theta_sum", "theta")
        params = list(inspect.signature(fn).parameters)
        pos = {p: params.index(p) if p in params else None
               for p in ("deriv", "z", "t_matrix", "radius", "tol")}
        theta_mod = _package_module("theta")
        counts_ok = None not in pos.values()
        if not counts_ok:
            self.absent.update(THETA_ARG_METRICS)

        def arg(args, kwargs, p):
            i = pos[p]
            return args[i] if i < len(args) else kwargs[p]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_ok:
                radius = arg(args, kwargs, "radius")
                if radius is None:
                    radius = theta_mod.suggested_radius(
                        arg(args, kwargs, "t_matrix"), arg(args, kwargs, "tol"))
                g = len(arg(args, kwargs, "z"))
                counts = self.counts
                counts[f"theta.calls_d{len(arg(args, kwargs, 'deriv'))}"] += 1
                counts["theta.terms"] += (2 * int(radius) + 1) ** g
            return inner(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def _plan(self):
        """(owner, attribute, original, replacement) for every entry point."""
        plan = []
        for layer, entries in SPAN_ENTRIES.items():
            for module, qualname in entries:
                found = _lookup(module, qualname)
                if found is None:
                    self.absent.add(f"{module}.{qualname}")
                    continue
                owner, attr, original = found
                if (module, qualname) == THETA:
                    wrapped = self._theta_wrapper(original)
                else:
                    wrapped = self._span_wrapper(original, f"{module}.{qualname}", layer)
                plan.append((owner, attr, original, wrapped))
        for key, (module, qualname) in COUNTED_ENTRIES.items():
            found = _lookup(module, qualname)
            if found is None:
                self.absent.add(key)
                continue
            owner, attr, original = found
            plan.append((owner, attr, original, self._count_wrapper(original, key)))
        if _lookup(*NODE_CONSUMER) is None:
            self.absent.add("sigma.abel.node_builds")
        else:
            owner = importlib.import_module(NODE_SOURCE[0])
            original = getattr(owner, NODE_SOURCE[1])
            plan.append((owner, NODE_SOURCE[1], original,
                         self._count_wrapper(original, "sigma.abel.node_builds")))
        return plan

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point while the block runs, then restore them."""
        self.names, self.layer_of = [], []
        self.absent = set()
        plan = self._plan()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sigmatoda" or n.startswith("sigmatoda."))]
        undo = []
        for owner, attr, original, wrapped in plan:
            if inspect.isclass(owner):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in [owner, *modules]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, value))
                        setattr(mod, name, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _entry_present(tracer: Tracer, module: str, qualname: str) -> bool:
    return f"{module}.{qualname}" not in tracer.absent


def summarize(tracer: Tracer, loop_time: float, n_ops: int) -> dict:
    """Per-layer totals over the recorded spans, divided by ``n_ops``.

    ``loop_time`` is the summed wall time of the traced ops (or of the traced
    set-up); the part of it inside no span is ``trace.unattributed_share``.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name_idx, start, end, parent, _op, _raised in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    calls = Counter()
    failed = Counter()
    per_name = Counter()
    top_level = 0.0
    layer_of = tracer.layer_of
    for i, (name_idx, start, end, parent, _op, raised) in enumerate(spans):
        layer = layer_of[name_idx]
        per_name[tracer.names[name_idx]] += 1
        self_time[layer] += (end - start) - child_time[i]
        if parent < 0:
            top_level += end - start
        if parent < 0 or layer_of[spans[parent][0]] != layer:
            calls[layer] += 1
            failed[layer] += raised
    out = {}
    for layer, entries in SPAN_ENTRIES.items():
        present = any(_entry_present(tracer, m, q) for m, q in entries)
        out[f"{layer}.self_s"] = self_time[layer] / n_ops if present else None
        out[f"{layer}.calls"] = calls[layer] / n_ops if present else None
        out[f"{layer}.failed"] = failed[layer] / n_ops if present else None
    theta_present = _entry_present(tracer, *THETA)
    for key in THETA_ARG_METRICS:
        ok = theta_present and key not in tracer.absent
        out[key] = tracer.counts[key] / n_ops if ok else None
    for key, qualname in (("sigma.abel.points", "_AbelEngine.to_point"),
                          ("sigma.abel.legs", "_AbelEngine._leg")):
        ok = _entry_present(tracer, "sigma", qualname)
        out[key] = per_name[f"sigma.{qualname}"] / n_ops if ok else None
    for key in (*COUNTED_ENTRIES, "sigma.abel.node_builds"):
        out[key] = tracer.counts[key] / n_ops if key not in tracer.absent else None
    out["trace.unattributed_share"] = (
        (loop_time - top_level) / loop_time if loop_time > 0 else None)
    return out
