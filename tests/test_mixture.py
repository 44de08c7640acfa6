"""Mixture-of-measures ANOVA: two routes, variance split, defect sizes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsens.anova import all_subsets
from mixsens.diagnostics import mixture_monotonicity_condition
from mixsens.measures import MeasureSet, ProductMeasure, Uniform
from mixsens.mixture import (component_engines, mixture_annihilation_defect,
                             mixture_effect_curve,
                             mixture_effect_from_components,
                             mixture_effect_from_pooled_conditionals,
                             mixture_variance_decomposition)
from mixsens.models import (CompositeMultilinearModel, IshigamiModel,
                            ishigami_measure_set, ishigami_mixture_effect)

import _reference as ref

PI = math.pi


@pytest.fixture(scope="module")
def setup():
    mset = ishigami_measure_set(prior=ref.PRIOR)
    engines = component_engines(mset, IshigamiModel())
    return mset, engines


class TestTwoRoutes:
    """Gated component average vs recursion on pooled conditional means."""

    def test_equal_on_the_common_support(self, setup):
        mset, engines = setup
        rng = np.random.default_rng(0)
        for z in all_subsets(3):
            x = rng.uniform(0, PI, size=(40, len(z)))  # inside every support
            a = mixture_effect_from_components(engines, mset.prior, z, x)
            b = mixture_effect_from_pooled_conditionals(engines, mset.prior,
                                                        z, x)
            assert np.max(np.abs(a - b)) < 1e-7, z

    def test_empty_subset_gives_one_value_per_row(self, setup):
        mset, engines = setup
        x = np.empty((5, 0))
        eng = engines[0]
        pooled = sum(pk * e.mean() for pk, e in zip(mset.prior, engines))
        for got, want in ((eng.effect((), x), eng.mean()),
                          (eng.conditional_mean((), x), eng.mean()),
                          (mixture_effect_from_components(
                              engines, mset.prior, (), x), pooled),
                          (mixture_effect_from_pooled_conditionals(
                              engines, mset.prior, (), x), pooled)):
            assert got.shape == (5,)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_differ_where_a_gate_is_shut(self, setup):
        mset, engines = setup
        x = np.array([[-1.0]])  # mu3 gate shut, its conditional still pooled
        a = mixture_effect_from_components(engines, mset.prior, (1,), x)
        b = mixture_effect_from_pooled_conditionals(engines, mset.prior,
                                                    (1,), x)
        assert abs(a[0] - b[0]) > 0.01

    def test_matches_the_closed_form(self, setup):
        mset, engines = setup
        rng = np.random.default_rng(1)
        for z in ((1,), (2,), (3,), (1, 3)):
            x = rng.uniform(-PI, PI, size=(25, len(z)))
            got = mixture_effect_from_components(engines, mset.prior, z, x)
            want = ishigami_mixture_effect(mset, z, x)
            assert np.allclose(got, want, atol=1e-8), z

    def test_outside_all_supports(self):
        # mu2 is normal and covers everything, so use the bounded pair
        mset = ishigami_measure_set(("mu1", "mu3"), prior=(0.5, 0.5))
        engines = component_engines(mset, IshigamiModel())
        x = np.array([[9.0], [0.5]])        # outside both supports, inside both
        vals = mixture_effect_from_components(engines, mset.prior, (1,), x)
        assert vals[0] == 0.0


class TestVarianceSplit:
    def test_reference_decomposition(self, setup):
        mset, engines = setup
        dec = mixture_variance_decomposition(engines, mset.prior)
        assert dec.mixture_mean == pytest.approx(ref.MIX_MEAN, abs=1e-9)
        assert dec.between == pytest.approx(ref.BETWEEN, abs=1e-9)
        assert dec.total == pytest.approx(ref.MIX_TOTAL, abs=1e-8)
        assert dec.structural_share == pytest.approx(ref.SHARE, abs=1e-9)
        for z, want in ref.B_TERMS.items():
            assert dec.terms[z] == pytest.approx(want, abs=1e-8), z
        other = sum(abs(v) for z, v in dec.terms.items()
                    if z not in ref.B_TERMS)
        assert other < 1e-8

    def test_terms_average_the_components(self, setup):
        mset, engines = setup
        dec = mixture_variance_decomposition(engines, mset.prior)
        for z in dec.terms:
            want = sum(p * c.terms[z]
                       for p, c in zip(dec.prior, dec.components))
            assert dec.terms[z] == pytest.approx(want, abs=1e-12)

    def test_between_matches_the_prior_variance_of_means(self, setup):
        mset, engines = setup
        dec = mixture_variance_decomposition(engines, mset.prior)
        m = dec.component_means
        p = np.asarray(dec.prior)
        assert dec.between == pytest.approx(
            np.dot(p, (m - np.dot(p, m)) ** 2), abs=1e-12)

    def test_total_equals_the_hierarchical_variance(self, setup):
        # V[G] computed directly from the mixture measure via sampling
        mset, engines = setup
        dec = mixture_variance_decomposition(engines, mset.prior)
        x = ref.two_stage_sample(mset, 200_000, seed=1)
        y = IshigamiModel()(x)
        assert dec.total == pytest.approx(y.var(), rel=0.02)


class TestAnnihilationDefect:
    def test_reference_values(self, setup):
        mset, engines = setup
        for z, want in ref.DEFECT.items():
            got = mixture_annihilation_defect(engines, mset.prior, z)
            assert got == pytest.approx(want, abs=1e-9), z

    def test_reference_values_have_a_second_oracle(self):
        # calls nothing in mixsens: the frozen z=(1,), (2,) values come from
        # adaptive quadrature and are checked here against a reduction that
        # shares none of its code
        for z, got in ref.defect_reduction().items():
            assert got == pytest.approx(ref.DEFECT[z], abs=1e-12), z

    def test_ungated_variant(self, setup):
        mset, engines = setup
        got = mixture_annihilation_defect(engines, mset.prior, (3,),
                                          gated=False)
        assert got == pytest.approx(ref.DEFECT_UNGATED_3, abs=1e-9)

    def test_defects_vanish_for_identical_components(self):
        mset = ishigami_measure_set(("mu1", "mu1", "mu1"),
                                    prior=(0.2, 0.3, 0.5))
        engines = component_engines(mset, IshigamiModel())
        for z in ((1,), (2,), (3,)):
            assert abs(mixture_annihilation_defect(engines, mset.prior, z)) \
                < 1e-10

    def test_single_component_never_defects(self):
        mset = ishigami_measure_set(("mu3",), prior=(1.0,))
        engines = component_engines(mset, IshigamiModel())
        assert abs(mixture_annihilation_defect(engines, mset.prior, (1,))) \
            < 1e-10


def _unnamed_pair():
    """Two unnamed measures, Uniform(0, 1)^2 and Uniform(0, 2)^2, with their
    engines for g = x1^2 + x2."""
    mset = MeasureSet(measures=(
        ProductMeasure((Uniform(0, 1), Uniform(0, 1))),
        ProductMeasure((Uniform(0, 2), Uniform(0, 2)))), prior=(0.5, 0.5))

    def model(x):
        return x[..., 0] ** 2 + x[..., 1]

    return mset, component_engines(mset, model, order=16)


class TestEffectCurves:
    def test_curve_layout_and_values(self, setup):
        mset, engines = setup
        curve = mixture_effect_curve(engines, mset.prior, 2, npts=101)
        assert curve.input == 2
        assert set(curve.component_values) == set(mset.names)
        assert curve.mixture_values.shape == curve.grid.shape
        k = np.argmin(np.abs(curve.grid))  # x = 0 sits on the union grid
        assert curve.grid[k] == pytest.approx(0.0, abs=0.05)
        want = ishigami_mixture_effect(mset, (2,), curve.grid[[k]])
        assert curve.mixture_values[k] == pytest.approx(want[0], abs=1e-8)

    def test_singleton_mixture_collapses_to_the_component(self):
        mset = ishigami_measure_set(("mu2",), prior=(1.0,))
        engines = component_engines(mset, IshigamiModel())
        curve = mixture_effect_curve(engines, mset.prior, 1)
        assert np.allclose(curve.mixture_values,
                           curve.component_values["mu2"], atol=1e-12)

    def test_unnamed_measures_keep_their_own_curves(self):
        mset, engines = _unnamed_pair()
        curve = mixture_effect_curve(engines, mset.prior, 1, npts=5)
        assert tuple(curve.component_values) == mset.names == ("m0", "m1")
        pooled = mixture_effect_from_pooled_conditionals(
            engines, mset.prior, (1,), curve.grid[:, None])
        assert np.allclose(curve.mixture_values, pooled, atol=1e-12)
        assert np.allclose(pooled, [-5 / 6, -7 / 12, 1 / 6, 17 / 12, 19 / 6],
                           atol=1e-12)

    def test_unnamed_measures_keep_their_own_names(self):
        # the split and the delta condition key the members as the set does
        mset, engines = _unnamed_pair()
        dec = mixture_variance_decomposition(engines, mset.prior)
        assert dec.names == mset.names == ("m0", "m1")
        cond = mixture_monotonicity_condition(engines, (1,))
        assert tuple(cond.per_measure) == mset.names
        assert cond.holds


# -- property: both routes agree on intersections for multilinear models ------

coef = st.floats(min_value=-1.5, max_value=1.5,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None)
@given(c1=st.lists(coef, min_size=2, max_size=3),
       c2=st.lists(coef, min_size=2, max_size=3),
       w=st.tuples(coef, coef))
def test_routes_agree_for_random_multilinear_models(c1, c2, w):
    model = CompositeMultilinearModel(
        factors=(np.polynomial.Polynomial(c1), np.polynomial.Polynomial(c2)),
        terms=((1,), (1, 2)),
        coeffs=w)
    mset = MeasureSet(
        measures=(ProductMeasure((Uniform(-1, 1), Uniform(-1, 1)), name="wide"),
                  ProductMeasure((Uniform(0, 1), Uniform(-1, 0)),
                                 name="narrow")),
        prior=(0.6, 0.4))
    engines = component_engines(mset, model, order=32)
    x = np.linspace(0.05, 0.95, 7)  # strictly inside both x1 supports
    a = mixture_effect_from_components(engines, mset.prior, (1,), x[:, None])
    b = mixture_effect_from_pooled_conditionals(engines, mset.prior, (1,),
                                                x[:, None])
    assert np.allclose(a, b, atol=1e-9)
