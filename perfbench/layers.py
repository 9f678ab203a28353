"""Which speclab functions the traced run wraps, and the per-layer metrics
read from their spans.

Metric names are `<module>.<function>.<stat>`. `self_s` is span time minus
the time of wrapped calls made inside it; `total_s` counts only outermost
spans of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import math

import numpy as np


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _build_note(args, kwargs):
    return {"cold": _arg(args, kwargs, 1, "template") is None}


def _basis_note(args, kwargs):
    return {"template": _arg(args, kwargs, 1, "template_basis") is not None}


def _step_note(args, kwargs):
    return {"depth": _arg(args, kwargs, 3, "_depth") or 0}


def _theta_note(args, kwargs):
    z = _arg(args, kwargs, 1, "z")
    return {"args": int(np.shape(z)[0]) if np.ndim(z) == 2 else 1}


def _fd_note(result):
    scale = float(np.max(np.abs(np.asarray(result.value))))
    return {"gap_rel": result.gap / scale if scale > 0 else result.gap}


def _quad_note(result):
    value = abs(result.value)
    return {"n_eval": result.n_eval,
            "err_rel": result.error / value if value > 0 else None}


# (module, qualname, stats, before, after). A bare class name traces the
# constructor. The generic stats are calls, self_s and total_s; the others
# are computed in `per_layer`.
LAYERS = (
    ("moduli", "FDEngine.derivative", ("calls", "self_s", "gap_rel_max"), None, _fd_note),
    ("moduli", "FDEngine.build", ("calls", "hit_frac"), None, None),
    ("moduli", "Navigator.step_to", ("calls", "total_s", "halvings", "newton_builds"),
     _step_note, None),
    ("moduli", "coordinates_of", ("calls", "self_s"), None, None),
    ("moduli", "coord_jacobian", ("calls", "self_s"), None, None),
    ("surface", "build_surface", ("calls", "cold_calls", "self_s"), _build_note, None),
    ("surface", "homology_basis", ("calls", "template_calls", "self_s"), _basis_note, None),
    ("surface", "SpectralCurve.w_on_segment", ("calls", "self_s"), None, None),
    ("surface", "SpectralCurve.track_w", ("self_s",), None, None),
    ("surface", "intersection_number", ("calls", "self_s"), None, None),
    ("surface", "path_to_point", ("calls", "self_s"), None, None),
    ("numerics", "integrate", ("calls", "self_s", "n_eval", "err_rel_max"), None, _quad_note),
    ("numerics", "poly_roots", ("calls", "self_s"), None, None),
    ("theta", "Theta.eval", ("calls", "args", "self_s", "us_per_arg"), _theta_note, None),
    ("differentials", "PeriodData", ("calls", "self_s"), None, None),
    ("differentials", "AbelMap.at", ("calls", "self_s"), None, None),
    ("differentials", "Kernels.bhat_batch", ("self_s",), None, None),
    ("differentials", "ContourField.integrate_kernel", ("self_s",), None, None),
    ("differentials", "LocalFrames.frame", ("calls", "self_s"), None, None),
    ("variations", "BranchData", ("calls", "self_s"), None, None),
    ("variations", "tau_gradient", ("self_s",), None, None),
    ("variations", "tau_gradient_oracle", ("self_s",), None, None),
    ("variations", "vary_period_matrix", ("self_s",), None, None),
    ("variations", "endpoint_correction", ("self_s",), None, None),
    ("generator", "generate", ("calls", "self_s", "builds_per_draw", "failed"), None, None),
    ("harness", "Session", ("calls", "total_s"), None, None),
    ("harness", "run_suite", ("self_s",), None, None),
    ("instances", "load_instance", ("self_s",), None, None),
    ("instances", "validate_genericity", ("calls", "self_s"), None, None),
)

TARGETS = tuple((m, q, before, after) for m, q, _, before, after in LAYERS)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "gap_rel_max": "ratio",
         "hit_frac": "ratio", "halvings": "count", "newton_builds": "count",
         "cold_calls": "count", "template_calls": "count", "n_eval": "count",
         "err_rel_max": "ratio", "args": "count", "us_per_arg": "us",
         "builds_per_draw": "count", "failed": "count"}
HIGHER_IS_BETTER = {"hit_frac"}

# Metrics of the benchmark itself, next to the layers.
EXTRA = (("trace.overhead_frac", "ratio"), ("trace.wall_s", "s"),
         ("bench.ops_failed_frac", "ratio"))

# Layers each workload is said to exercise: the traced run fails if one of
# them records no call, which means a wrapper no longer reaches its callers.
_COMMON = ("harness.run_suite", "harness.Session", "surface.build_surface",
           "surface.homology_basis", "surface.SpectralCurve.w_on_segment",
           "surface.SpectralCurve.track_w", "surface.intersection_number",
           "numerics.integrate", "numerics.poly_roots", "generator.generate",
           "instances.load_instance", "instances.validate_genericity",
           "moduli.coordinates_of", "differentials.PeriodData")
_FD = ("moduli.FDEngine.derivative", "moduli.FDEngine.build",
       "moduli.Navigator.step_to", "moduli.coord_jacobian", "variations.BranchData")
EXERCISED = {
    "fd-oracle": _COMMON + _FD + ("surface.path_to_point", "variations.vary_period_matrix",
                                  "variations.endpoint_correction"),
    "theta-tau": _COMMON + _FD + ("theta.Theta.eval", "differentials.AbelMap.at",
                                  "differentials.LocalFrames.frame",
                                  "differentials.Kernels.bhat_batch",
                                  "differentials.ContourField.integrate_kernel",
                                  "variations.tau_gradient",
                                  "variations.tau_gradient_oracle"),
    "fresh-draws": _COMMON,
}


def catalogue():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for mod, qual, stats, _, _ in LAYERS:
        for stat in stats:
            out.append((f"{mod}.{qual}.{stat}", UNITS[stat],
                        "higher" if stat in HIGHER_IS_BETTER else "lower"))
    out.extend((name, unit, "lower") for name, unit in EXTRA)
    return out


def per_layer(tracer, wall_s, overhead_frac, ops_failed_frac):
    """Per-layer metric values from a finished trace."""
    names = tracer.names
    dur = tracer.durations()
    own = tracer.self_times()
    by_name = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)
    step_parents = {tracer.parents[i] for i in by_name.get("moduli.Navigator.step_to", ())}

    def notes(layer, key):
        return [tracer.notes[i][key] for i in by_name.get(layer, ())
                if tracer.notes[i] and tracer.notes[i].get(key) is not None]

    def stat(layer, name):
        spans = by_name.get(layer, [])
        if name == "calls":
            if layer == "moduli.Navigator.step_to":
                return sum(1 for d in notes(layer, "depth") if d == 0)
            return len(spans)
        if name == "self_s":
            return math.fsum(own[i] for i in spans)
        if name == "total_s":
            return math.fsum(dur[i] for i in spans if not tracer.has_ancestor(i, layer))
        if name in ("gap_rel_max", "err_rel_max"):
            return max(notes(layer, name[:-4]), default=0.0)
        if name == "hit_frac":
            return (sum(1 for i in spans if i not in step_parents) / len(spans)
                    if spans else 0.0)
        if name == "halvings":
            return sum(1 for d in notes(layer, "depth") if d > 0) // 2
        if name == "newton_builds":
            return sum(1 for i in by_name.get("surface.build_surface", ())
                       if tracer.has_ancestor(i, layer))
        if name == "cold_calls":
            return sum(notes(layer, "cold"))
        if name == "template_calls":
            return sum(notes(layer, "template"))
        if name in ("n_eval", "args"):
            return sum(notes(layer, name))
        if name == "us_per_arg":
            count = sum(notes(layer, "args"))
            return 1e6 * stat(layer, "self_s") / count if count else 0.0
        if name == "builds_per_draw":
            builds = sum(1 for i in by_name.get("surface.build_surface", ())
                         if tracer.has_ancestor(i, layer))
            return builds / len(spans) if spans else 0.0
        if name == "failed":
            return sum(1 for i in spans if tracer.raised[i])
        raise KeyError(name)

    out = {}
    for mod, qual, stats, _, _ in LAYERS:
        layer = f"{mod}.{qual}"
        for name in stats:
            out[f"{layer}.{name}"] = stat(layer, name)
    out["trace.overhead_frac"] = overhead_frac
    out["trace.wall_s"] = wall_s
    out["bench.ops_failed_frac"] = ops_failed_frac
    return out


def unexercised(tracer, workload):
    """Layers the workload should reach that recorded no call."""
    seen = set(tracer.names)
    return [layer for layer in EXERCISED[workload] if layer not in seen]
