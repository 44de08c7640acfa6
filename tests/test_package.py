"""The package surface: the README quickstart runs as written, and every
exported name resolves while the removed ones stay gone."""

import contextlib
import inspect
import io
import pathlib
import re

import mixsens
from mixsens import diagnostics, estimators, measures, models, report

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# names that no CLI path, workload or paper result used, and were removed
REMOVED = ("MixtureMeasure", "log_pool", "first_and_total_indices",
           "parse_subset_label", "measure_set_to_dict", "same_core",
           "outside_all_supports")


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
    for cls in (measures.Uniform, measures.Normal, measures.DiscreteUniform):
        assert not hasattr(cls, "cdf"), cls
    assert not hasattr(measures.ProductMeasure, "in_support")
    # options that no caller set are module constants now
    for fn, params in ((report.mc_qty, ("value", "se", "reweighted")),
                       (estimators.reweight, ("sample", "target")),
                       (models.core_signature, ("model", "measure")),
                       (models.core_partition, ("model", "mset")),
                       (diagnostics.monotonicity_check, ("curve",)),
                       (diagnostics.mixture_monotonicity_condition,
                        ("engines", "z")),
                       (diagnostics.ultramodularity_check,
                        ("model", "box", "grid_k", "measure"))):
        assert tuple(inspect.signature(fn).parameters) == params, fn
