"""Outside-in tracing of stablepairs: timed spans and work counters.

Nothing under ``src/`` is instrumented.  Instead, ``install`` replaces
each traced function or method with a wrapper, in every module that bound it.
That matters because ``norms`` and ``energy`` do ``from ._kernels import
poly_values`` at import time: patching ``_kernels`` alone would miss every
call made through those names.

A span records its duration; its self time is the duration minus the time
covered by the spans it caused.  Spans stay in memory (aggregated per name)
and are read out by ``layer_metrics`` when a pass ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Span stack plus per-name totals; one instance per traced process."""

    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.child_total_s = defaultdict(float)
        self._restore = []

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.samples.clear()
        self.child_total_s.clear()

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self.stack)

    def span(self, name, fn, args, kwargs, after=None):
        if callable(name):
            name = name(args)
        frame = _Frame(name)
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1].child_s += dt
                self.child_total_s[(self.stack[-1].name, name)] += dt
            self.total_s[name] += dt
            self.self_s[name] += dt - frame.child_s
            self.counts[name + ".calls"] += 1
        if after is not None:
            after(self, args, kwargs, out)
        return out

    # -- installation ------------------------------------------------------

    def wrap_function(self, module_name: str, attr: str, span_name, after=None):
        """Replace ``module.attr`` in every stablepairs module that bound it.

        ``span_name`` is a string, or a function of the call's positional
        arguments when one function serves several reported layers.
        """
        original = getattr(sys.modules[module_name], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(span_name, original, args, kwargs, after)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("stablepairs"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, original))

    def wrap_method(self, module_name: str, cls: str, attr: str, span_name: str, after=None):
        klass = getattr(sys.modules[module_name], cls)
        original = klass.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(span_name, original, args, kwargs, after)

        setattr(klass, attr, wrapper)
        self._restore.append((klass, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# counters recorded after a call returns
# ---------------------------------------------------------------------------


def _after_poly_values(tr, args, kwargs, out):
    expo, _, Z = args[:3]
    samples, terms = Z.shape[0], expo.shape[0]
    tr.counts["kernels.poly_values.sample_terms"] += samples * terms
    tr.samples["kernels.poly_values.samples"].append(samples)


def _after_lp_norm(tr, args, kwargs, out):
    tr.samples["norms.lp_norm.stderr"].append(out.stderr)


def _after_act(tr, args, kwargs, out):
    mode = args[1].mode
    tr.counts[f"poly.act.{mode}.out_terms"] += len(out.terms)


def _after_hull(tr, args, kwargs, out):
    tr.counts["linprog.hull_membership.points"] += len(args[0])


def _after_descend(tr, args, kwargs, out):
    tr.counts["pairs.descend.iterations"] += sum(
        r["iterations"] for r in out.diagnostics.get("restarts", [])
    )


def _after_oracle(tr, args, kwargs, out):
    grids = out.diagnostics.get("grids", [])
    tr.counts["oracle.curve_geometry_oracle.grid_points"] += sum(
        2 * g["n_r"] * g["n_th"] for g in grids
    )
    tr.counts["oracle.curve_geometry_oracle.refinements"] += max(len(grids) - 1, 0)


def _count_inside(parent: str, key: str):
    def after(tr, args, kwargs, out):
        if tr.inside(parent):
            tr.counts[key] += 1

    return after


def install(tracer: Tracer):
    """Wrap the public entry points of every layer the benchmark reports."""
    w = tracer.wrap_function
    m = tracer.wrap_method
    w("stablepairs._kernels", "poly_values", "kernels.poly_values", _after_poly_values)
    w("stablepairs.norms", "sample_points", "norms.sample_points")
    w("stablepairs.norms", "lp_norm", "norms.lp_norm", _after_lp_norm)
    w("stablepairs.norms", "log_ratio_sq", "norms.log_ratio_sq")
    w("stablepairs.norms", "sup_norm", "norms.sup_norm")
    w("stablepairs.forms", "build_x_pair", "forms.build_x_pair")
    w("stablepairs.forms", "chow_form_curve", "forms.chow_form_curve")
    w("stablepairs.forms", "hurwitz_form_curve", "forms.hurwitz_form_curve")
    w("stablepairs.forms", "chow_form_hypersurface", "forms.chow_form_hypersurface")
    w("stablepairs.poly", "bareiss_poly_det", "poly.bareiss_poly_det")
    w("stablepairs.pairs", "descend", "pairs.descend", _after_descend)
    m("stablepairs.pairs", "PairFunctional", "value", "pairs.PairFunctional.value",
      _count_inside("pairs.descend", "pairs.descend.value_calls"))
    m("stablepairs.pairs", "PairFunctional", "gradient", "pairs.PairFunctional.gradient",
      _count_inside("pairs.descend", "pairs.descend.gradient_calls"))
    m("stablepairs.energy", "MahlerSampleFunctional", "log_norm2",
      "energy.MahlerSampleFunctional.log_norm2")
    m("stablepairs.energy", "MahlerSampleFunctional", "moment",
      "energy.MahlerSampleFunctional.moment")
    m("stablepairs.pairs", "PolyL2Functional", "log_norm2", "pairs.PolyL2Functional.log_norm2")
    m("stablepairs.pairs", "PolyL2Functional", "moment", "pairs.PolyL2Functional.moment")
    w("stablepairs.poly", "act", lambda args: f"poly.act.{args[1].mode}", _after_act)
    w("stablepairs.linprog", "hull_membership", "linprog.hull_membership", _after_hull)
    w("stablepairs.weights", "weight_polytope", "weights.weight_polytope")
    w("stablepairs.weights", "contains", "weights.contains")
    w("stablepairs.oracle", "curve_geometry_oracle", "oracle.curve_geometry_oracle",
      _after_oracle)
    for name in ("_load", "dump_json"):
        w("stablepairs.cli", name, "cli.json_io")


# ---------------------------------------------------------------------------
# per-layer metrics of one pass
# ---------------------------------------------------------------------------

# NOTES.md maps each layer to the command time it should move, per workload.
_SELF_TIMED = (
    "norms.sample_points",
    "norms.lp_norm",
    "norms.log_ratio_sq",
    "norms.sup_norm",
    "forms.chow_form_curve",
    "forms.hurwitz_form_curve",
    "forms.chow_form_hypersurface",
    "poly.bareiss_poly_det",
    "energy.MahlerSampleFunctional.log_norm2",
    "energy.MahlerSampleFunctional.moment",
    "pairs.PolyL2Functional.log_norm2",
    "pairs.PolyL2Functional.moment",
    "weights.weight_polytope",
    "weights.contains",
)
_FORM_BUILDERS = (
    "forms.chow_form_curve",
    "forms.hurwitz_form_curve",
    "forms.chow_form_hypersurface",
)


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values of one traced pass: counts, self times, ratios."""
    c, st = tr.counts, tr.self_s
    out = {}
    kc = c["kernels.poly_values.calls"]
    kst = c["kernels.poly_values.sample_terms"]
    kself = st["kernels.poly_values"]
    out["kernels.poly_values.calls"] = kc
    out["kernels.poly_values.sample_terms"] = kst
    out["kernels.poly_values.self_s"] = kself
    out["kernels.poly_values.ns_per_sample_term"] = 1e9 * kself / kst if kst else 0.0
    out["kernels.poly_values.samples_per_call_p50"] = _median(
        tr.samples["kernels.poly_values.samples"]
    )
    for name in _SELF_TIMED:
        out[name + ".self_s"] = st[name]
    out["norms.lp_norm.stderr"] = _median(tr.samples["norms.lp_norm.stderr"])
    bx = "forms.build_x_pair"
    out[bx + ".forms_s"] = sum(tr.child_total_s[(bx, f)] for f in _FORM_BUILDERS)
    out[bx + ".mahler_s"] = tr.child_total_s[(bx, "norms.lp_norm")]
    iters = c["pairs.descend.iterations"]
    values = c["pairs.descend.value_calls"]
    out["pairs.descend.iterations"] = iters
    out["pairs.descend.value_calls"] = values
    out["pairs.descend.gradient_calls"] = c["pairs.descend.gradient_calls"]
    out["pairs.descend.accept_ratio"] = iters / values if values else 0.0
    out["pairs.descend.s_per_iter"] = tr.total_s["pairs.descend"] / iters if iters else 0.0
    for mode in ("exact", "float"):
        name = f"poly.act.{mode}"
        out[name + ".calls"] = c[name + ".calls"]
        out[name + ".self_s"] = st[name]
        out[name + ".out_terms"] = c[name + ".out_terms"]
    hm = "linprog.hull_membership"
    out[hm + ".calls"] = c[hm + ".calls"]
    out[hm + ".points"] = c[hm + ".points"]
    out[hm + ".self_s"] = st[hm]
    oc = "oracle.curve_geometry_oracle"
    out[oc + ".calls"] = c[oc + ".calls"]
    out[oc + ".grid_points"] = c[oc + ".grid_points"]
    out[oc + ".refinements"] = c[oc + ".refinements"]
    out[oc + ".self_s"] = st[oc]
    out["cli.json_io_s"] = st["cli.json_io"]
    return out
