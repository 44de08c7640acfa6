"""The package surface: the README quickstart runs as written, and every
exported name resolves while the removed ones stay gone."""

import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import pathlib
import re

import numpy as np

import mixsens
from mixsens import (anova, diagnostics, estimators, measures, mixture,
                     models, report)

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# names that no CLI path, workload or paper result used, and were removed
REMOVED = ("MixtureMeasure", "log_pool", "first_and_total_indices",
           "parse_subset_label", "measure_set_to_dict", "same_core",
           "outside_all_supports", "WeightedSample", "reweight",
           "weighted_moments")


def test_readme_quickstart_runs_as_written():
    text = README.read_text(encoding="utf8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quickstart", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "[[2], [1, 3]]"


def test_every_export_resolves_and_no_removed_name_is_exported():
    for module in (mixsens, models):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
        for name in REMOVED:
            assert name not in module.__all__, (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("WeightedSample", "reweight"):
        assert not hasattr(estimators, name), name
    # a sample is its points and values: no weights, cached sorts or ESS
    assert [f.name for f in dataclasses.fields(estimators.EvaluatedSample)] \
        == ["x", "y", "measure_name", "seed", "measure"]
    for attr in ("weights", "orders", "ess"):
        assert not hasattr(estimators.EvaluatedSample, attr), attr
    for cls in (measures.Uniform, measures.Normal, measures.DiscreteUniform):
        for attr in ("cdf", "mean", "family"):
            assert not hasattr(cls, attr), (cls, attr)
    assert not hasattr(measures.ProductMeasure, "in_support")
    # options that no caller set are gone or module constants now
    for fn, params in ((anova.AnovaEngine,
                        ("model", "measure", "order", "seed")),
                       (anova.all_subsets, ("n", "max_order")),
                       (report.mc_qty, ("value", "se", "reweighted")),
                       (estimators.reweighted_indices,
                        ("sample", "targets", "bins")),
                       (mixture.mixture_annihilation_defect,
                        ("engines", "prior", "z")),
                       (estimators.read_sample, ("path",)),
                       (diagnostics.robust_ranking, ("s_matrix", "ses")),
                       (models.core_signature, ("model", "measure")),
                       (models.core_partition, ("model", "mset")),
                       (diagnostics.monotonicity_check, ("curve", "floor")),
                       (diagnostics.mixture_monotonicity_condition,
                        ("engines", "z")),
                       (diagnostics.ultramodularity_check,
                        ("model", "box", "grid_k", "measure"))):
        assert tuple(inspect.signature(fn).parameters) == params, fn


def test_fixed_order_integrals_take_the_engines_order():
    # core signatures and restricted defect rules pick no Gauss order of
    # their own, and make no rule beside the measures' own quad_nodes
    assert not hasattr(models, "CORE_ORDER")
    assert not hasattr(mixture, "RESTRICTED_ORDER")
    assert not hasattr(mixture, "_gauss_rule")
    assert anova.DEFAULT_ORDER is measures.DEFAULT_ORDER == 64


def test_tables_hold_one_polynomial_form():
    # a conditional mean is read at points through the slice of the kept
    # grid's orthonormal coefficients that is zero off its subset: no table
    # per subset, no second transform, and no barycentric weights, Lagrange
    # basis or table of values beside them; the polynomials and the maps to
    # their coefficients are the input families' own, not the engine's
    for name in ("_Table", "_contract", "_w_on_subgrid", "_Axis",
                 "_discrete_basis"):
        assert not hasattr(anova, name), name
    # each family cuts its own rule to a box: neither the mixture defects
    # nor the reweighting reach names a family or a module-level rule
    assert not {"Uniform", "Normal", "DiscreteUniform",
                "_restricted_rule"} & set(vars(mixture))
    assert not re.search(r"from \.mixture |import mixture\b",
                         inspect.getsource(estimators))
    comp = measures.Uniform(0.0, 1.0)
    eng = anova.AnovaEngine(lambda x: x[:, 0] ** 3,
                            measures.ProductMeasure((comp, comp)), order=8)
    x = np.linspace(0.0, 1.0, 11)
    ok, values = eng._read((1,), x[:, None])
    assert ok.all() and np.allclose(values, x ** 3, rtol=0, atol=1e-14)
    for attr in ("_tables", "_w_cache", "_axes", "_bases"):
        assert not hasattr(eng, attr), attr


def test_one_loop_settles_every_engine():
    # one route for every engine: the opening, then the decay prediction,
    # in one loop in _settle, with no flag for the route, no caps-so-far
    # rule and no ladder of fixed rungs
    for name in ("_predict", "_climb", "_keep"):
        assert not hasattr(anova.AnovaEngine, name), name
    assert not hasattr(anova, "LADDER")
    comp = measures.Uniform(0.0, 1.0)
    eng = anova.AnovaEngine(lambda x: x[:, 0] * x[:, 1],
                            measures.ProductMeasure((comp, comp)))
    eng.mean()
    assert not hasattr(eng, "_fits_order")


def test_every_named_bench_span_resolves():
    # the benchmark tracer wraps these by name and skips a missing one, so a
    # renamed or deleted target would read zero instead of failing
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.NAMED_SPANS
    for span, mod_name, path in tracing.NAMED_SPANS:
        owner = importlib.import_module(f"mixsens.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), (span, mod_name, path)
