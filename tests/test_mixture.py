"""Mixture-of-measures ANOVA: two routes, variance split, defect sizes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsens import anova, mixture
from mixsens.anova import AnovaEngine, all_subsets
from mixsens.diagnostics import mixture_monotonicity_condition
from mixsens.measures import (DiscreteUniform, MeasureSet, ProductMeasure,
                              Uniform)
from mixsens.mixture import (component_engines, mixture_annihilation_defect,
                             mixture_effect_curve,
                             mixture_effect_from_components,
                             mixture_effect_from_pooled_conditionals,
                             mixture_variance_decomposition, support_indicator)
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


@pytest.mark.parametrize("call, z", [
    (lambda mset, engines: mixture_effect_curve(engines, mset.prior, 4), (4,)),
    (lambda mset, engines: mixture_effect_curve(engines, mset.prior, 1.0),
     (1.0,)),
    (lambda mset, engines: mixture_annihilation_defect(engines, mset.prior,
                                                       (4,)), (4,)),
    (lambda mset, engines: mixture_monotonicity_condition(engines, (4,)),
     (4,)),
    (lambda mset, engines: support_indicator(mset.measures[0], (0,),
                                             np.zeros((2, 1))), (0,)),
], ids=["curve-4", "curve-float", "defect", "condition", "indicator-0"])
def test_mixture_entry_points_check_their_subset(setup, call, z):
    # an input that is not an integer in 1..3 is named, not left to fail as
    # an index or read as another input (input 0 as the last one)
    mset, engines = setup
    with pytest.raises(ValueError, match=re.escape(f"subset {z} ")):
        call(mset, engines)


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

    def test_a_discrete_component_sums_its_points_inside_the_gate(self):
        # x1 on four points, two inside the other candidate's [0, 1]; the
        # factors are polynomials, so the oracle's sums are exact
        pts = DiscreteUniform((-0.5, 0.25, 0.5, 1.5))
        disc = ProductMeasure((pts, Uniform(0, 1)), name="disc")
        unit = ProductMeasure((Uniform(0, 1), Uniform(0, 1)), name="unit")
        model = CompositeMultilinearModel(
            factors=(lambda v: v * v + v, lambda v: 1.0 + v),
            terms=((1, 2), (1,)), coeffs=(2.0, 1.0))
        mset = MeasureSet((disc, unit), prior=(0.4, 0.6))
        x, w = pts.restricted_rule((0.0, 1.0))
        assert x.tolist() == [0.25, 0.5] and w.tolist() == [0.25, 0.25]
        assert pts.restricted_rule((0.6, 1.4)) is None
        # (disc, unit): the kept points of disc's x1 through unit's effect;
        # (unit, disc): disc's support [-0.5, 1.5] holds all of unit's x1
        nodes, wts = Uniform(0, 1).quad_nodes(8)
        want = 0.4 * 0.6 * (
            np.dot(w, model.exact_effect(unit, (1,), x[:, None]))
            + np.dot(wts, model.exact_effect(disc, (1,), nodes[:, None])))
        engines = component_engines(mset, model)
        got = mixture_annihilation_defect(engines, mset.prior, (1,))
        assert abs(want) > 0.1
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14)

    def test_one_measure_defects_exactly_zero(self, setup):
        # its only pair is k = j, zero by annihilation, so it is not integrated
        _, engines = setup
        for eng in engines:
            for z in ((1,), (2,), (3,), (1, 3)):
                assert mixture_annihilation_defect([eng], [1.0], z) == 0.0, z


def test_a_one_hot_prior_reproduces_its_measure():
    mset = ishigami_measure_set(prior=(1.0, 0.0, 0.0))
    engines = component_engines(mset, IshigamiModel())
    mix = mixture_variance_decomposition(engines, mset.prior)
    vd = AnovaEngine(IshigamiModel(), mset.measures[0]).variance_decomposition()
    # B_z = V_z and no spread of the means, bit for bit
    assert mix.components[0] == vd
    assert mix.terms == vd.terms and mix.residual == vd.residual
    assert mix.between == 0.0 and mix.mixture_mean == vd.mean
    for z in all_subsets(3):
        assert abs(mixture_annihilation_defect(engines, mset.prior, z)) \
            <= 1e-12, z


@pytest.mark.parametrize("call", [
    lambda: mixture_variance_decomposition([], []),
    lambda: mixture_annihilation_defect([], [], (1,))],
    ids=["variance_decomposition", "annihilation_defect"])
def test_a_mixture_of_no_engines_is_rejected(call):
    with pytest.raises(ValueError, match="at least one engine"):
        call()


def test_the_pooled_route_skips_a_candidate_of_zero_weight():
    mset = ishigami_measure_set(prior=(1.0, 0.0, 0.0))
    engines = component_engines(mset, IshigamiModel())
    x = np.random.default_rng(3).uniform(0.0, PI, size=(50, 3))
    for z in all_subsets(3):
        xz = x[:, [i - 1 for i in z]]
        got = mixture_effect_from_pooled_conditionals(engines, mset.prior, z,
                                                      xz)
        assert np.array_equal(got, engines[0].effect(z, xz)), z
    # no integral ran on the other two: they have not opened
    assert all(eng._opening for eng in engines[1:])


def test_a_model_non_finite_only_under_a_zero_weight_candidate():
    def model(x):
        return np.where(x[..., 0] > 1.5, np.nan,
                        x[..., 0] + x[..., 0] * x[..., 1])

    mset = MeasureSet(measures=(
        ProductMeasure((Uniform(-1, 1), Uniform(-1, 1)), name="here"),
        ProductMeasure((Uniform(2, 3), Uniform(-1, 1)), name="there")),
        prior=(1.0, 0.0))
    engines = component_engines(mset, model, order=16)
    x = np.linspace(-0.9, 0.9, 7)[:, None]
    a = mixture_effect_from_components(engines, mset.prior, (1,), x)
    b = mixture_effect_from_pooled_conditionals(engines, mset.prior, (1,), x)
    assert np.array_equal(a, b)
    with pytest.raises(FloatingPointError):
        engines[1].effect((1,), x)


# -- each conditional mean at a set of points is computed once ---------------

def _c03_points():
    return np.random.default_rng(2024).uniform(0.0, PI, size=(1000, 3))


def test_repeated_calls_on_shared_engines_match_fresh_engines():
    mset = ishigami_measure_set(prior=ref.PRIOR)
    shared = component_engines(mset, IshigamiModel())
    pts = _c03_points()
    for z in all_subsets(3):
        x = pts[:, [i - 1 for i in z]]
        # each value on engines that have answered nothing yet
        want = [mixture_effect_from_components(
                    component_engines(mset, IshigamiModel()), mset.prior, z, x),
                mixture_effect_from_pooled_conditionals(
                    component_engines(mset, IshigamiModel()), mset.prior, z, x),
                *[AnovaEngine(IshigamiModel(), m).effect(z, x)
                  for m in mset.measures]]
        for _ in range(2):
            got = [mixture_effect_from_components(shared, mset.prior, z, x),
                   mixture_effect_from_pooled_conditionals(shared, mset.prior,
                                                           z, x),
                   *[eng.effect(z, x) for eng in shared]]
            for g, w in zip(got, want):
                assert np.array_equal(g, w), z


def _c03_pairs():
    """The three multilinear models of acceptance c03, each as (measure
    set, its two engines at order 32, 1000 points inside both supports)."""
    rng = np.random.default_rng(2024)
    rng.uniform(0.0, PI, size=(1000, 3))        # the Ishigami points
    pair = MeasureSet(measures=(
        ProductMeasure((Uniform(-1, 1), Uniform(0, 2)), name="wide"),
        ProductMeasure((Uniform(0, 1), Uniform(1, 2)), name="narrow")),
        prior=(0.5, 0.5))
    out = []
    for _ in range(3):
        model = CompositeMultilinearModel(
            factors=(np.polynomial.Polynomial(rng.uniform(-1, 1, 3)),
                     np.polynomial.Polynomial(rng.uniform(-1, 1, 3))),
            terms=((1,), (2,), (1, 2)),
            coeffs=tuple(rng.uniform(-1, 1, 3)))
        inner = np.column_stack([rng.uniform(0, 1, 1000),
                                 rng.uniform(1, 2, 1000)])
        out.append((pair, component_engines(pair, model, order=32), inner))
    return out


def test_both_routes_evaluate_each_full_subset_row_once(monkeypatch):
    mset = ishigami_measure_set(prior=ref.PRIOR)
    cases = [(mset, component_engines(mset, IshigamiModel()), _c03_points()),
             *_c03_pairs()]
    for _, engines, _ in cases:     # the settling sweeps, not counted below
        for eng in engines:
            eng.variance_decomposition()
    calls = []
    evaluate = anova._evaluate
    monkeypatch.setattr(anova, "_evaluate", lambda model, x: (
        calls.append(np.array(x)), evaluate(model, x))[1])
    full, other = [], []
    for mset, engines, pts in cases:
        for z in all_subsets(mset.n):
            x = pts[:, [i - 1 for i in z]]
            mixture_effect_from_components(engines, mset.prior, z, x)
            mixture_effect_from_pooled_conditionals(engines, mset.prior, z, x)
        full.append(sum(x.tobytes() == pts.tobytes() for x in calls))
        other.append([len(x) for x in calls if x.tobytes() != pts.tobytes()])
        calls.clear()
    # the full subset's rows are evaluated once per measure set, across both
    # routes and every engine of the set
    assert full == [1] * 4
    # every other row is read off a table, but for 4 rows of x1x3 near
    # (pi, pi) that mu2's table rejects: each takes the pair of lower rules
    # over x2, 22 + 21 nodes (ceil(43 / 2) and one fewer), in one call
    assert other == [[4 * (22 + 21)], [], [], []]


def test_engines_on_other_models_share_no_rows():
    # the same rows under the same measures: each set's engines, and each
    # engine built alone, answer with their own model and call it once
    mset = ishigami_measure_set(prior=ref.PRIOR)
    pts, full = _c03_points(), (1, 2, 3)
    models = {"ishigami": IshigamiModel(), "other": IshigamiModel(2.0, 0.5),
              **{f"alone{k}": IshigamiModel(2.0, 0.5) for k in range(3)}}
    calls = dict.fromkeys(models, 0)

    def counted(name):
        def call(x):
            calls[name] += x.tobytes() == pts.tobytes()
            return models[name](x)
        return call

    sets = {name: component_engines(mset, counted(name))
            for name in ("ishigami", "other")}
    for k, m in enumerate(mset.measures):
        for name, eng in (*[(nm, engines[k]) for nm, engines in sets.items()],
                          (f"alone{k}", AnovaEngine(counted(f"alone{k}"), m))):
            got = eng.conditional_means(full, pts)[full]
            assert np.array_equal(got, models[name](pts)), (name, k)
    assert calls == dict.fromkeys(models, 1)


def test_an_engine_that_settles_after_the_rows_are_kept_matches_a_fresh_one():
    # the first engine fills the shared entry before the others settle
    # their grids; their _use_order keeps it, and every value is a fresh
    # engine's, bit for bit
    mset = ishigami_measure_set(prior=ref.PRIOR)
    pts, full = _c03_points(), (1, 2, 3)
    calls = []

    def model(x):
        calls.append(x.tobytes() == pts.tobytes())
        return IshigamiModel()(x)

    engines = component_engines(mset, model)
    engines[0].conditional_means(full, pts)
    for eng, m in zip(engines[1:], mset.measures[1:]):
        got = eng.conditional_means(full, pts)
        want = AnovaEngine(IshigamiModel(), m).conditional_means(full, pts)
        assert got.keys() == want.keys()
        for v in want:
            assert np.array_equal(got[v], want[v]), (m.name, v)
    assert calls.count(True) == 1


@settings(max_examples=20, deadline=None)
@given(z=st.sampled_from([z for z in all_subsets(3) if len(z) > 1]).flatmap(
           st.permutations),
       seed=st.integers(0, 2**32 - 1))
def test_an_unsorted_subset_reads_the_columns_in_its_own_order(setup, z,
                                                               seed):
    # column j of the points holds input z[j]; rows out to +-4 reach past
    # mu1's and mu3's supports and far into mu2's tails
    mset, engines = setup
    key = tuple(sorted(z))
    x = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(8, len(key)))
    xz = x[:, [key.index(i) for i in z]]
    for eng in engines:
        want = eng.conditional_means(key, x)
        got = eng.conditional_means(z, xz)
        assert got.keys() == want.keys()
        for v in want:
            assert np.array_equal(got[v], want[v]), (z, v)
        assert np.array_equal(eng.effect(z, xz), eng.effect(key, x)), z
    for route in (mixture_effect_from_components,
                  mixture_effect_from_pooled_conditionals):
        assert np.array_equal(route(engines, mset.prior, z, xz),
                              route(engines, mset.prior, key, x)), z


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
