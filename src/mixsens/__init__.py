"""Variance-based sensitivity analysis under multiple candidate measures.

The package decomposes a model's output variance input-by-input separately
for every member of a set of plausible input distributions, compares the
resulting importance rankings, and — when the set carries a prior — splits
the variance of the hierarchical (mixture) model into a structural part and
a between-measure part.
"""

__version__ = "0.1.0"

from .anova import (AnovaEngine, EffectCurve, VarianceDecomposition,
                    ZeroVarianceError, all_subsets, first_and_total_indices,
                    parse_subset_label, subset_label)
from .diagnostics import (DimensionDistribution, MonotonicityVerdict,
                          RobustReport, UltramodularityReport,
                          dimension_bounds, dimension_distribution,
                          mixture_dimension_distribution,
                          mixture_monotonicity_condition, monotonicity_check,
                          robust_ranking, ultramodularity_check)
from .estimators import (EstimationError, EvaluatedSample, SampleFormatError,
                         SobolEstimate, WeightedSample,
                         brute_force_first_order, generate_sample,
                         given_data_first_order, given_data_indices,
                         pick_freeze_indices, read_sample, reweight,
                         weighted_moments, write_sample)
from .measures import (ConfigError, DiscreteUniform, MeasureSet,
                       MixtureMeasure, Normal, ProductMeasure, SupportError,
                       Uniform, load_measure_set, log_pool,
                       measure_set_from_dict, measure_set_to_dict, substream)
from .mixture import (MixtureDecomposition, MixtureEffectCurve,
                      component_engines, mixture_annihilation_defect,
                      mixture_effect_curve, mixture_effect_from_components,
                      mixture_effect_from_pooled_conditionals,
                      mixture_variance_decomposition)
from .models import (CompositeMultilinearModel, IshigamiModel, core_partition,
                     core_signature, ishigami_effect, ishigami_measure_set,
                     ishigami_measures, ishigami_mixture_effect,
                     multilinear_from_dict, resolve_model, same_core)
from .report import (canonical_json, mc_qty, qty, quad_qty,
                     write_effect_curve_csv, write_indices_csv,
                     write_mixture_curve_csv, write_report)

__all__ = [
    "AnovaEngine", "CompositeMultilinearModel", "ConfigError",
    "DimensionDistribution", "DiscreteUniform", "EffectCurve",
    "EstimationError", "EvaluatedSample", "IshigamiModel", "MeasureSet",
    "MixtureDecomposition", "MixtureEffectCurve", "MixtureMeasure",
    "MonotonicityVerdict", "Normal", "ProductMeasure", "RobustReport",
    "SampleFormatError", "SobolEstimate", "SupportError",
    "UltramodularityReport", "Uniform", "VarianceDecomposition",
    "WeightedSample", "ZeroVarianceError", "all_subsets",
    "brute_force_first_order", "canonical_json", "component_engines",
    "core_partition", "core_signature", "dimension_bounds",
    "dimension_distribution", "first_and_total_indices", "generate_sample",
    "given_data_first_order", "given_data_indices", "ishigami_effect",
    "ishigami_measure_set", "ishigami_measures", "ishigami_mixture_effect",
    "load_measure_set", "log_pool", "mc_qty", "measure_set_from_dict",
    "measure_set_to_dict", "mixture_annihilation_defect",
    "mixture_dimension_distribution", "mixture_effect_curve",
    "mixture_effect_from_components",
    "mixture_effect_from_pooled_conditionals",
    "mixture_monotonicity_condition", "mixture_variance_decomposition",
    "monotonicity_check", "multilinear_from_dict", "parse_subset_label",
    "pick_freeze_indices", "qty", "quad_qty", "read_sample",
    "resolve_model", "reweight", "robust_ranking", "same_core", "substream",
    "subset_label", "ultramodularity_check", "weighted_moments",
    "write_effect_curve_csv", "write_indices_csv", "write_mixture_curve_csv",
    "write_report", "write_sample",
]
