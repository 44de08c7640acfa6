"""Layer spans for the traced benchmark run.

The tracer wraps the public functions of every ``mixsens`` module from the
outside: nothing under ``src/`` is edited.  Each wrapped call opens a span
named after its layer; a span's self time is its duration minus the time
covered by the spans it opened.  Model points are counted once, in
:class:`CountedModel`, and attributed to the innermost open span; time
inside the model itself is the ``usermodel`` span.

Functions are imported by name across modules (``mixsens.cli`` imports
``component_engines``, ``write_report`` and many more), so after wrapping,
every module attribute that still points at an original function is
replaced by its wrapper.  Without that second step the CLI would keep
calling the originals and their spans would silently disappear.

Spans are recorded only while ``Tracer.active`` is set, around the timed
operation, so set-up and output checks stay out of the numbers.
"""

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("anova", "cli", "diagnostics", "estimators", "measures", "mixture",
           "models", "report")

# Spans whose name is not "<module>.<function>": engine methods, the
# mixture functions without their "mixture_" prefix, and groups that the
# per-layer metrics add up (the given-data estimator and its per-input
# helper, all CSV writers, all univariate rules).
NAMED_SPANS = (
    ("anova.conditional_mean", "anova", "AnovaEngine.conditional_mean"),
    ("anova.effect", "anova", "AnovaEngine.effect"),
    ("anova.effect_curve", "anova", "AnovaEngine.effect_curve"),
    ("anova.variance_decomposition", "anova",
     "AnovaEngine.variance_decomposition"),
    ("mixture.effect_from_components", "mixture",
     "mixture_effect_from_components"),
    ("mixture.effect_from_pooled_conditionals", "mixture",
     "mixture_effect_from_pooled_conditionals"),
    ("mixture.effect_curve", "mixture", "mixture_effect_curve"),
    ("mixture.annihilation_defect", "mixture", "mixture_annihilation_defect"),
    ("mixture.variance_decomposition", "mixture",
     "mixture_variance_decomposition"),
    ("measures.quad_nodes", "measures", "UnivariateMeasure.quad_nodes"),
    ("measures.quad_nodes", "measures", "Uniform.quad_nodes"),
    ("measures.quad_nodes", "measures", "Normal.quad_nodes"),
    ("measures.quad_nodes", "measures", "DiscreteUniform.quad_nodes"),
    ("estimators.given_data_indices", "estimators", "given_data_indices"),
    ("estimators.given_data_indices", "estimators", "given_data_first_order"),
    ("report.write_csv", "report", "write_effect_curve_csv"),
    ("report.write_csv", "report", "write_mixture_curve_csv"),
    ("report.write_csv", "report", "write_indices_csv"),
)

# The operation's entry point: timed as the operation, not as a span.
ENTRY_POINTS = {("cli", "main")}


class SpanStat:
    __slots__ = ("calls", "self_s", "evals")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.evals = 0


class Tracer:
    """Span statistics plus the few per-layer counts that need a hook."""

    def __init__(self):
        self.active = False
        self.stack = []              # open spans: [child seconds, evals]
        self.stats = {}
        self.top_s = 0.0             # time under spans opened at the root
        self.bytes = {}              # span name -> bytes written or read
        self.ess_min = None
        self.cm_rows = []            # (engine, subset, points) per request

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStat()
        return st

    def attribute_evals(self, points):
        if self.stack:
            self.stack[-1][1] += points

    def call(self, name, fn, args, kwargs):
        frame = [0.0, 0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            st = self.stat(name)
            st.calls += 1
            st.self_s += dur - frame[0]
            st.evals += frame[1]
            if self.stack:
                self.stack[-1][0] += dur
            else:
                self.top_s += dur

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        wrapper.__wrapped_span__ = name
        return wrapper

    # -- hooks -------------------------------------------------------------

    def add_bytes(self, name, path):
        self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(path)

    def note_ess(self, ess):
        self.ess_min = ess if self.ess_min is None else min(self.ess_min, ess)

    def note_rows(self, engine, z, x):
        # holding the engine keeps its id unique until the rows are counted
        self.cm_rows.append((engine, tuple(z), np.atleast_2d(
            np.asarray(x, dtype=float))))

    def row_counts(self):
        """Rows requested from conditional_mean, and how many were distinct
        (engine, subset, point) rows."""
        groups = {}
        for engine, z, x in self.cm_rows:
            groups.setdefault((id(engine), z), []).append(x)
        requested = distinct = 0
        for xs in groups.values():
            rows = np.concatenate(xs, axis=0)
            requested += rows.shape[0]
            distinct += np.unique(rows, axis=0).shape[0]
        return requested, distinct


def _conditional_mean_hook(tracer, args, result):
    engine, z, x = args[0], args[1], args[2]
    tracer.note_rows(engine, z, x)


HOOKS = {
    "anova.conditional_mean": _conditional_mean_hook,
    "estimators.write_sample":
        lambda tr, args, result: tr.add_bytes("estimators.write_sample",
                                              result),
    "estimators.read_sample":
        lambda tr, args, result: tr.add_bytes("estimators.read_sample",
                                              args[0]),
    "estimators.reweight": lambda tr, args, result: tr.note_ess(result.ess),
    "report.write_csv":
        lambda tr, args, result: tr.add_bytes("report.write_csv", result),
}


class CountedModel:
    """Counts the points passed to a model and times the model as a span."""

    def __init__(self, model, tracer=None):
        self.model = model
        self.tracer = tracer
        self.points = 0

    def __call__(self, x):
        arr = np.asarray(x)
        points = arr.size // arr.shape[-1] if arr.ndim else 1
        self.points += points
        tr = self.tracer
        if tr is None or not tr.active:
            return self.model(x)
        tr.attribute_evals(points)
        return tr.call("usermodel", self.model, (x,), {})

    def __getattr__(self, name):
        # forward as_multilinear() and friends to the wrapped model
        if name == "model":
            raise AttributeError(name)
        return getattr(self.model, name)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer):
    """Wrap every public function of the package; returns the span names."""
    package = importlib.import_module("mixsens")
    modules = {name: importlib.import_module(f"mixsens.{name}")
               for name in MODULES}
    replaced = {}                          # id(original) -> (original, wrapper)
    names = set()

    def wrap(span, owner, attr):
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(span, original, HOOKS.get(span))
        setattr(owner, attr, wrapper)
        replaced[id(original)] = (original, wrapper)
        names.add(span)

    for span, mod_name, path in NAMED_SPANS:
        owner, attr = _resolve(modules[mod_name], path)
        if attr in owner.__dict__:
            wrap(span, owner, attr)
    for mod_name, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or (mod_name, attr) in ENTRY_POINTS:
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                    and not hasattr(obj, "__wrapped_span__"):
                wrap(f"{mod_name}.{attr}", module, attr)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return sorted(names)


def layer_metrics(tracer):
    """Per-layer sums of one traced process.

    Ratios are left to the caller, which adds up the processes of one
    operation first: ``trace.top_s`` (time under root spans) becomes
    ``trace.coverage`` and the two row counts ``unique_ratio``.
    """
    def stat(name):
        return tracer.stats.get(name) or SpanStat()

    out = {}
    for span in ("anova.conditional_mean", "anova.variance_decomposition",
                 "mixture.annihilation_defect"):
        out[f"{span}.evals"] = stat(span).evals
    for span in ("anova.conditional_mean", "anova.variance_decomposition",
                 "anova.effect", "anova.effect_curve", "mixture.effect_curve",
                 "measures.quad_nodes", "usermodel"):
        out[f"{span}.calls"] = stat(span).calls
    for span in ("anova.conditional_mean", "anova.variance_decomposition",
                 "anova.effect", "anova.effect_curve", "mixture.effect_curve",
                 "measures.quad_nodes", "usermodel",
                 "mixture.annihilation_defect",
                 "mixture.effect_from_components",
                 "mixture.effect_from_pooled_conditionals",
                 "mixture.variance_decomposition",
                 "estimators.generate_sample", "estimators.write_sample",
                 "estimators.read_sample", "estimators.given_data_indices",
                 "estimators.reweight", "measures.load_measure_set",
                 "models.core_partition", "report.write_report",
                 "report.write_csv", "cli.cmd_analyze"):
        out[f"{span}.self_s"] = stat(span).self_s
    out["diagnostics.self_s"] = sum(st.self_s for name, st in
                                    tracer.stats.items()
                                    if name.startswith("diagnostics."))
    for span in ("estimators.write_sample", "estimators.read_sample",
                 "report.write_csv"):
        out[f"{span}.bytes"] = tracer.bytes.get(span, 0)
    out["estimators.reweight.ess_min"] = tracer.ess_min or 0.0
    rows, distinct = tracer.row_counts()
    out["anova.conditional_mean.rows"] = rows
    out["anova.conditional_mean.distinct_rows"] = distinct
    out["trace.top_s"] = tracer.top_s
    return out
