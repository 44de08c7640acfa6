"""Quadrature ANOVA engine against closed forms and frozen references."""

import copy
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixsens import anova
from mixsens.anova import (AnovaEngine, ZeroVarianceError, _tensor_points,
                           all_subsets, subset_label)
from mixsens.measures import (ConfigError, DiscreteUniform, Normal,
                              ProductMeasure, Uniform)
from mixsens.mixture import component_engines, mixture_variance_decomposition
from mixsens.models import (CompositeMultilinearModel, IshigamiModel,
                            ishigami_effect, ishigami_measure_set,
                            ishigami_measures)

import _reference as ref

PI = math.pi
MEASURES = ("mu1", "mu2", "mu3")


@pytest.fixture(scope="module")
def engines():
    model = IshigamiModel()
    reg = ishigami_measures()
    return {name: AnovaEngine(model, reg[name]) for name in MEASURES}


class TestIshigamiDecomposition:
    @pytest.mark.parametrize("name", MEASURES)
    def test_mean_and_total(self, engines, name):
        eng = engines[name]
        assert eng.mean() == pytest.approx(ref.MEAN[name], abs=1e-9)
        assert eng.variance_decomposition().total == pytest.approx(
            ref.TOTAL[name], abs=1e-8)

    @pytest.mark.parametrize("name", MEASURES)
    def test_term_variances(self, engines, name):
        vd = engines[name].variance_decomposition()
        for z, want in ref.TERMS[name].items():
            assert vd.terms[z] == pytest.approx(want, abs=1e-8), z
        # everything not in the reference is numerically zero
        rest = sum(abs(v) for z, v in vd.terms.items()
                   if z not in ref.TERMS[name])
        assert rest < 1e-8
        assert vd.residual == 0.0

    @pytest.mark.parametrize("name", MEASURES)
    def test_sobol_indices(self, engines, name):
        s = engines[name].variance_decomposition().sobol_indices()
        for z, want in ref.SOBOL[name].items():
            assert s[z] == pytest.approx(want, abs=1e-9), z
        assert sum(s.values()) == pytest.approx(1.0, abs=1e-9)

    def test_first_and_total_indices(self, engines):
        vd = engines["mu1"].variance_decomposition()
        s, st_ = vd.first_order(), vd.total_order()
        assert s == pytest.approx(
            [ref.SOBOL["mu1"][(i,)] for i in (1, 2, 3)], abs=1e-9)
        # ST_i = S_i + S_13 for i in {1, 3}; X2 is purely additive here
        s13 = ref.SOBOL["mu1"][(1, 3)]
        assert st_ == pytest.approx([s[0] + s13, s[1], s[2] + s13], abs=1e-9)
        assert np.all(st_ >= s - 1e-12)


class TestEffects:
    @pytest.mark.parametrize("name", MEASURES)
    @pytest.mark.parametrize("z", [(1,), (2,), (3,), (1, 3)])
    def test_match_closed_forms(self, engines, name, z):
        reg = ishigami_measures()
        rng = np.random.default_rng(7)
        lo, hi = (0, PI) if name == "mu3" else (-PI, PI)
        x = rng.uniform(lo, hi, size=(30, len(z)))
        got = engines[name].effect(z, x)
        want = ishigami_effect(reg[name], z, x)
        assert np.allclose(got, want, atol=1e-8), (name, z)

    @pytest.mark.parametrize("name", MEASURES)
    def test_annihilation(self, engines, name, annihilation_defect):
        for z in all_subsets(3):
            assert annihilation_defect(engines[name], z) < 1e-9

    def test_moebius_reconstruction(self, engines):
        model = IshigamiModel()
        rng = np.random.default_rng(3)
        x = rng.uniform(-PI, PI, size=(20, 3))
        eng = engines["mu1"]
        total = np.full(20, eng.mean())
        for z in all_subsets(3):
            total += eng.effect(z, x[:, [i - 1 for i in z]])
        assert np.allclose(total, model(x), atol=1e-7)

    def test_conditional_mean_sums_lower_effects(self, engines):
        eng = engines["mu1"]
        x = np.array([[0.7], [-0.2]])
        got = eng.conditional_mean((1,), x)
        assert np.allclose(got, eng.mean() + eng.effect((1,), x), atol=1e-12)

    @pytest.mark.parametrize("z, cols", [((1,), 3), ((1, 2), 1)])
    def test_points_need_one_column_per_input(self, engines, z, cols):
        x = np.zeros((4, cols))
        eng = engines["mu1"]
        for call in (eng.effect, eng.conditional_means, eng.conditional_mean):
            with pytest.raises(ValueError,
                               match=rf"points have {cols} columns for subset"):
                call(z, x)

    @pytest.mark.parametrize("call", ["conditional_mean", "conditional_means",
                                      "effect", "effect_curve"])
    @pytest.mark.parametrize("z", [(1, 1), (0,), (4,), (2, 0), (1, 2, 3, 4),
                                   (1.0,)])
    def test_a_subset_holds_distinct_inputs_of_the_model(self, engines, call,
                                                         z):
        # a repeated input, or one that is not an integer in 1..3, is
        # named, not read as another input or left to fail as an index
        args = () if call == "effect_curve" else (np.zeros((2, len(z))),)
        with pytest.raises(ValueError, match=re.escape(f"subset {z} ")):
            getattr(engines["mu1"], call)(z, *args)

    def test_effect_curves_use_plotting_grids(self, engines):
        curve = engines["mu3"].effect_curve((1,), npts=65)
        assert curve.measure == "mu3"
        assert curve.values.shape == (65,)
        assert curve.grids[0][0] >= 0.0 and curve.grids[0][-1] <= PI
        pair = engines["mu1"].effect_curve((1, 3), npts=33)
        assert pair.values.shape == (33, 33)


class TestTruncationAndModes:
    def test_max_order_residual_holds_the_rest(self, engines):
        vd = engines["mu1"].variance_decomposition(max_order=1)
        assert set(vd.terms) == {(1,), (2,), (3,)}
        assert vd.residual == pytest.approx(ref.TERMS["mu1"][(1, 3)], abs=1e-8)

    def test_discrete_grid_is_exact(self):
        measure = ProductMeasure((DiscreteUniform((0.0, 1.0, 2.0)),
                                  DiscreteUniform((-1.0, 1.0))))

        def g(x):
            return x[:, 0] * x[:, 1] + x[:, 0] ** 2

        eng = AnovaEngine(g, measure)
        vd = eng.variance_decomposition()
        # enumerate all six atoms directly
        pts = np.array([[a, b] for a in (0.0, 1.0, 2.0) for b in (-1.0, 1.0)])
        vals = g(pts)
        assert vd.mean == pytest.approx(vals.mean(), abs=1e-14)
        assert vd.total == pytest.approx(vals.var(), abs=1e-14)
        marg = vals.reshape(3, 2).mean(axis=1)
        assert vd.terms[(1,)] == pytest.approx(marg.var(), abs=1e-14)

    def test_constant_model_has_no_indices(self):
        unit = ProductMeasure((Uniform(0, 1),))
        square = ProductMeasure((Uniform(0, 1),) * 2)
        mu1 = ishigami_measures()["mu1"]
        # constants: rounding leaves V = 0 or, for 0.7 under mu1, 5.55e-17;
        # a grid with no variance has nothing to resolve, so after the
        # probe each settles on 2 nodes per axis
        for g, measure, evals in (
                (lambda x: np.full(len(x), 4.0), unit, 8 + 2),
                (lambda x: np.full(len(x), 0.7), mu1, 8 ** 3 + 2 ** 3)):
            counted = _Batches(g)
            vd = AnovaEngine(counted, measure).variance_decomposition()
            assert sum(counted.sizes) == evals
            with pytest.raises(ZeroVarianceError):
                vd.sobol_indices()
            with pytest.raises(ZeroVarianceError):
                vd.first_order()
            with pytest.raises(ZeroVarianceError):
                vd.total_order()
        # a tiny but genuine variance (V = 4.2e-15) still has indices
        vd = AnovaEngine(lambda x: 1e-7 * (x[:, 0] + 2 * x[:, 1]),
                         square).variance_decomposition()
        s = vd.first_order()
        assert s == pytest.approx([0.2, 0.8], abs=1e-9)

    def test_a_tiny_variance_under_a_large_mean_has_indices(self):
        # V = 1.08e-14 against E[g^2] = 0.766: the deviations from the mean
        # are far above its rounding, and every V_z is centred
        cube = ProductMeasure((Uniform(-1.0, 2.0),) * 3)
        vd = AnovaEngine(lambda x: 0.875 + 9.5e-8 * x[:, 2] ** 2, cube,
                         order=16).variance_decomposition()
        s = vd.sobol_indices()
        assert abs(s[(3,)] - 1.0) <= 1e-9
        assert all(0.0 <= v <= 1e-20 for z, v in s.items() if z != (3,))


class TestSubsetUtilities:
    def test_all_subsets_order_and_truncation(self):
        assert all_subsets(3, max_order=1) == [(1,), (2,), (3,)]
        subs = all_subsets(3)
        assert subs[:3] == [(1,), (2,), (3,)]
        assert subs[-1] == (1, 2, 3)
        assert len(subs) == 7
        assert [()] + all_subsets(2) == list(anova._subsets_of((1, 2)))

    def test_labels_round_trip(self):
        assert subset_label(()) == "const"
        assert subset_label((2,)) == "x2"
        assert subset_label((1, 3)) == "x1x3"
        labels = [subset_label(z) for z in [()] + all_subsets(4)]
        assert len(set(labels)) == len(labels) == 16


# -- property: engine agrees with multilinear closed forms --------------------

coef = st.floats(min_value=-1.5, max_value=1.5,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(c1=st.lists(coef, min_size=2, max_size=3),
       c2=st.lists(coef, min_size=2, max_size=3),
       w=st.tuples(coef, coef, coef))
def test_engine_matches_multilinear_closed_form(c1, c2, w):
    model = CompositeMultilinearModel(
        factors=(np.polynomial.Polynomial(c1), np.polynomial.Polynomial(c2)),
        terms=((1,), (2,), (1, 2)),
        coeffs=w)
    measure = ProductMeasure((Uniform(-1.0, 1.0), Normal(0.0, 0.5)))
    eng = AnovaEngine(model, measure, order=32)
    vd = eng.variance_decomposition()
    for z in ((1,), (2,), (1, 2)):
        assert vd.terms[z] == pytest.approx(
            model.exact_term_variance(measure, z), abs=1e-9)
    assert vd.mean == pytest.approx(model.exact_effect(measure, (), None),
                                    abs=1e-10)


# -- property: the effects of all subsets add back up to the model -----------

@st.composite
def multilinear_models(draw, inputs=st.integers(min_value=1, max_value=3),
                       families=st.sampled_from((Uniform(-1.0, 2.0),
                                                 Normal(0.5, 0.8)))):
    n = draw(inputs)
    factors = tuple(np.polynomial.Polynomial(draw(st.lists(coef, min_size=1,
                                                           max_size=3)))
                    for _ in range(n))
    terms = draw(st.lists(st.sets(st.integers(1, n), max_size=n),
                          min_size=1, max_size=4))
    coeffs = draw(st.lists(coef, min_size=len(terms), max_size=len(terms)))
    comps = tuple(draw(families) for _ in range(n))
    return CompositeMultilinearModel(factors=factors, terms=terms,
                                     coeffs=coeffs), ProductMeasure(comps)


@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(), seed=st.integers(0, 2**32 - 1))
def test_effects_sum_to_the_model(case, seed):
    model, measure = case
    eng = AnovaEngine(model, measure, order=16)
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(8, model.n))
    total = sum(eng.effect(z, x[:, [i - 1 for i in z]])
                for z in [()] + all_subsets(model.n))
    assert np.allclose(total, model(x), rtol=1e-12, atol=1e-10)


# -- property: every V_z is the integral of its squared point effect ---------

@settings(max_examples=25, deadline=None)
@given(case=multilinear_models())
def test_each_term_is_the_integral_of_its_squared_point_effect(case):
    model, measure = case
    eng = AnovaEngine(model, measure, order=12)
    vd = eng.variance_decomposition()
    size = np.abs(model(_tensor_points(eng.nodes))).reshape(eng._sizes)
    for z in all_subsets(model.n):
        nodes = [eng.nodes[i - 1] for i in z]
        g = eng.effect(z, _tensor_points(nodes)).reshape([a.size for a in nodes])
        got = float(ref.contract(g ** 2, [eng.weights[i - 1] for i in z]))
        # g_z at a node is a Moebius sum of the conditional means w_v, v in
        # z, each a sum of g over the complement of v, so it carries the
        # rounding of E[|g| | X_v], not of its own size nor of w_v's (an
        # effect and a mean that cancel to zero); an error e moves the
        # integral of g_z^2 by at most e (2 sqrt(V_z) + e); a subnormal
        # square has lost its digits to underflow
        e = 1e-12 * max(float(np.max(ref.contract(
            size, [None if i in v else w for i, w in enumerate(eng.weights, 1)])))
            for v in anova._subsets_of(z))
        assert vd.terms[z] >= 0.0, z
        assert abs(vd.terms[z] - got) <= max(
            e * (2 * math.sqrt(vd.terms[z]) + e), np.finfo(float).tiny), z
    assert abs(sum(vd.terms.values()) - vd.total) <= max(
        2 ** model.n * np.finfo(float).eps * vd.total, np.finfo(float).tiny)


# -- one decomposition per engine and max_order -------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n,max_order", [(3, None), (4, 2)])
def test_one_lattice_pass_gives_every_term_of_its_own_pass(n, max_order, data):
    # the decomposition reads every term of at most max_order inputs off
    # its one power tensor, in canonical order
    model, measure = data.draw(multilinear_models(inputs=st.just(n)))
    eng = AnovaEngine(model, measure, order=16)
    vd = eng.variance_decomposition(max_order)
    assert list(vd.terms) == all_subsets(n, max_order)


def _settled(name):
    """An Ishigami engine, its model counting its points, after its climb
    settled on a rung below the default order."""
    eng = AnovaEngine(_Batches(IshigamiModel()), ishigami_measures()[name])
    eng.mean()
    assert eng.order < anova.DEFAULT_ORDER
    return eng


def test_a_settled_engine_keeps_its_rungs_decomposition():
    # every later decomposition, its own and the mixture's, is read off the
    # settled rung's power tensor: no transform and no model call
    e1, e3 = _settled("mu1"), _settled("mu3")
    calls = [len(e.model.sizes) for e in (e1, e3)]
    with mock.patch.object(anova, "_along",
                           side_effect=AssertionError("transformed again")):
        vd1, vd3 = e1.variance_decomposition(), e3.variance_decomposition(3)
        assert e1.variance_decomposition() == vd1
        assert e3.variance_decomposition(3) == vd3
        md = mixture_variance_decomposition([e1, e3], [0.5, 0.5])
    assert md.components == [vd1, vd3]
    assert [len(e.model.sizes) for e in (e1, e3)] == calls


def test_a_new_order_drops_the_kept_decomposition():
    eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu2"], order=16)
    vd = eng.variance_decomposition()
    assert eng.variance_decomposition() == vd
    eng._use_order(16)
    assert eng._kept is None
    again = eng.variance_decomposition()
    assert again is not vd and again == vd


def test_a_changed_decomposition_changes_nothing_downstream():
    # each call returns a value of its own: changing one reaches neither
    # the engine's next decomposition nor the mixture's components
    engines = [AnovaEngine(IshigamiModel(), ishigami_measures()[name])
               for name in ("mu1", "mu3")]
    vd = engines[0].variance_decomposition()
    want = copy.deepcopy(vd)
    vd.terms[(1,)] = 0.0
    assert engines[0].variance_decomposition() == want
    md = mixture_variance_decomposition(engines, [0.5, 0.5])
    assert md.components[0] == want


# -- subgrid tables from one sweep of the full grid in boxes -----------------

class _Batches:
    """A model that records how many points each call hands it."""

    def __init__(self, model):
        self.model, self.sizes = model, []

    def __call__(self, x):
        self.sizes.append(len(x))
        return self.model(x)


def _unsettled(model, measure, order=64):
    """An engine with no opening: its first integral sweeps the whole grid
    of ``order``, which a settled engine is checked against."""
    eng = AnovaEngine(model, measure, order=order)
    eng._opening = ()
    return eng


# every value of this model's tables is subnormal (about 1e-317), where a
# double holds fewer than 12 digits: the two summation orders differ by a
# few of the smallest subnormals, so the bound has an absolute floor at the
# smallest normal double
SUBNORMAL_TABLES = (
    CompositeMultilinearModel(
        factors=tuple(np.polynomial.Polynomial(c) for c in
                      ([0.0, 1.25285494e-272], [0.0, 1.0], [0.0, 1.0],
                       [0.0, 1.0])),
        terms=({1, 2},), coeffs=(1.4e-45,)),
    ProductMeasure((Uniform(-1.0, 2.0),) * 4))

# tables (2,), (3,) and (4,) of this model are zero in exact arithmetic, so
# both sides are rounding noise of an O(1) model (about 5e-17, 1.4e-17 apart)
# and only a floor tied to the model's scale can bound their gap
CANCELLING_TABLES = (
    CompositeMultilinearModel(
        factors=tuple(np.polynomial.Polynomial(c) for c in
                      ([1.0, -1.0], [0.5], [-1.0], [1.5])),
        terms=({2, 4}, {1, 2}, {3}, {4}), coeffs=(1.0, 1.0, 1.0, 0.0)),
    ProductMeasure((Normal(0.5, 0.8),) + (Uniform(-1.0, 2.0),) * 3))


@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(inputs=st.just(4)), order=st.integers(2, 4),
       discrete=st.booleans(), block=st.integers(1, 300))
@example(case=SUBNORMAL_TABLES, order=2, discrete=False, block=1)
@example(case=CANCELLING_TABLES, order=2, discrete=False, block=1)
def test_one_sweep_fills_the_tables_of_the_point_kernel(case, order, discrete,
                                                        block):
    model, measure = case
    if discrete:        # unequal axis sizes
        measure = ProductMeasure(measure.components[:3]
                                 + (DiscreteUniform((-1.0, 0.5, 2.0)),))
    eng = AnovaEngine(model, measure, order=order)
    with mock.patch.object(anova, "BLOCK_POINTS", block):
        grid = eng._sweep()[0]
    # w_z at z's own nodes: the kept grid for all inputs, and for every
    # subset read off the grid the slice of its coefficients zero off z
    tables = {z: eng._read(z, _tensor_points([eng.nodes[i - 1] for i in z]))[1]
              for z in all_subsets(4) if eng._reads_grid(z)}
    tables[(1, 2, 3, 4)] = grid
    # each side sums m complement nodes of values at most max|g| in size, so
    # a table that cancels to zero differs by rounding of m eps max|g|
    scale = np.max(np.abs(model(_tensor_points(eng.nodes))))
    for z, table in tables.items():
        want = eng.conditional_mean(z, _tensor_points(
            [eng.nodes[i - 1] for i in z])).reshape(table.shape)
        gap = np.max(np.abs(table - want))
        m = math.prod(eng._sizes) // table.size
        assert gap <= max(1e-12 * np.max(np.abs(want)),
                          m * np.finfo(float).eps * scale,
                          np.finfo(float).tiny), z


def test_decomposition_sweeps_the_grid_once():
    model = _Batches(CompositeMultilinearModel(
        factors=tuple(np.polynomial.Polynomial(c) for c in
                      ([0.3, 1.0, -0.5], [1.0, 0.2], [0.0, 1.0, 1.0],
                       [2.0, -1.0])),
        terms=((1, 2), (2, 4), (1, 3, 4), (3,))))
    measure = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                              Uniform(0.0, 1.0), Normal(0.0, 1.0)))
    eng = AnovaEngine(model, measure, order=6)
    with mock.patch.object(anova, "BLOCK_POINTS", 100):
        vd = eng.variance_decomposition(max_order=2)
    # the grid once, in boxes of 72 points, for all ten tables and both
    # moments
    assert sum(model.sizes) == math.prod(eng._sizes)
    assert set(model.sizes) == {72}
    for z in all_subsets(4, max_order=2):
        assert vd.terms[z] == pytest.approx(
            model.model.exact_term_variance(measure, z), abs=1e-3), z


def test_model_calls_stay_within_the_block():
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] * x[:, 3])
    measure = ProductMeasure((Uniform(0.0, 1.0),) * 4)
    eng = AnovaEngine(model, measure, order=8)
    x = np.random.default_rng(2).uniform(size=(500, 2))
    with mock.patch.object(anova, "BLOCK_POINTS", 1000):
        eng.variance_decomposition(max_order=2)
        for z in ((1,), (1, 2)):
            eng.conditional_mean(z, x[:, :len(z)])
    # the 8^4 grid in boxes of 8^3, the moments included; the direct means
    # at points, one row times 8^3 complement nodes (singletons) or 15 rows
    # times 8^2 (pairs, the last 5 rows in a call of their own)
    assert max(model.sizes) <= 1000
    assert set(model.sizes) == {512, 960, 320}
    # the same on three inputs, in boxes of 12^2, and effects at points
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] ** 2)
    eng = AnovaEngine(model, ProductMeasure((Uniform(0.0, 1.0),) * 3),
                      order=12)
    with mock.patch.object(anova, "BLOCK_POINTS", 200):
        eng.variance_decomposition()
        assert model.sizes == [144] * 12
        eng.effect((1, 2), x)
    assert max(model.sizes) <= 200
    # a complement rule larger than the block: a singleton of four inputs
    # at order 8 integrates over 8^3 = 512 points, taken in runs of at most
    # 100 per row and summed; the full subset's rows go in boxes of 100
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] * x[:, 3])
    eng = AnovaEngine(model, ProductMeasure((Uniform(0.0, 1.0),) * 4),
                      order=8)
    x = np.random.default_rng(3).uniform(size=(250, 4))
    ask = [((2,), x[:7, :1]), ((1, 3), x[:9, :2]), ((4, 1, 3, 2), x)]
    whole = [eng.conditional_mean(z, xz) for z, xz in ask]
    evals, model.sizes = sum(model.sizes), []
    with mock.patch.object(anova, "BLOCK_POINTS", 100):
        blocked = [eng.conditional_mean(z, xz) for z, xz in ask]
    assert max(model.sizes) <= 100
    assert sum(model.sizes) == evals == 7 * 512 + 9 * 64 + 250
    for (z, xz), a, b in zip(ask, whole, blocked):
        ci = [i for i in range(4) if i + 1 not in z]
        pts, w = anova._tensor_rule([(eng.nodes[i], eng.weights[i])
                                     for i in ci]) if ci else (None, [1.0])
        block = np.empty((len(xz), len(w), 4))
        block[:, :, [i - 1 for i in z]] = xz[:, None, :]
        block[:, :, ci] = pts
        direct = model.model(block.reshape(-1, 4)).reshape(len(xz), -1) @ w
        assert np.allclose(b, direct, rtol=1e-14, atol=1e-15), z
        assert np.allclose(a, b, rtol=1e-14, atol=1e-15), z
    assert whole[2].tobytes() == blocked[2].tobytes()


def test_the_full_subset_is_the_model_at_the_rows():
    # x's columns follow a shuffled z; the rows go to the model in input
    # order, and every bit comes back, a -0.0 included
    def g(x):
        return x[:, 0] * np.exp(x[:, 1]) * (1.0 + x[:, 2] ** 2) - x[:, 3]

    eng = AnovaEngine(g, ProductMeasure((Uniform(-1.0, 1.0), Normal(0.0, 1.0),
                                         Uniform(0.0, 2.0), Normal(1.0, 0.5))),
                      order=8)
    pts = np.random.default_rng(5).normal(size=(40, 4))
    pts[0] = [-0.0, 0.3, 1.0, 0.0]           # g = -0.0 - 0.0 = -0.0
    z = (3, 1, 4, 2)
    got = eng.conditional_mean(z, pts[:, [i - 1 for i in z]])
    assert np.signbit(got[0]) and got[0] == 0.0
    assert got.tobytes() == g(pts).tobytes()


def test_a_subset_lattice_costs_one_sweep():
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] * x[:, 3] ** 2)
    eng = AnovaEngine(model, ProductMeasure((Uniform(0.0, 1.0),) * 4), order=8)
    with mock.patch.object(anova, "BLOCK_POINTS", 1000):
        eng.variance_decomposition()
    # the mean and every term of the lattice from one sweep of the 8^4 grid
    assert sum(model.sizes) == 8 ** 4 and max(model.sizes) <= 1000


def test_tensor_moments_come_from_the_same_sweep():
    # every integral is contracted from the one kept grid, so boxes of at
    # most 20 points give the mean, the total and every term bit for bit as
    # one box of the default size does
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] ** 2)
    measure = ProductMeasure((Uniform(0.0, 1.0), Normal(0.5, 0.8),
                              Uniform(-1.0, 2.0)))
    eng = AnovaEngine(model, measure, order=7)
    with mock.patch.object(anova, "BLOCK_POINTS", 20):
        vd = eng.variance_decomposition()
    assert sum(model.sizes) == 7 ** 3
    assert max(model.sizes) <= 20
    full = AnovaEngine(model.model, measure, order=7).variance_decomposition()
    assert vd.mean == full.mean
    assert vd.total == full.total
    assert vd.terms == full.terms


def test_an_order_is_an_integer_of_at_least_one():
    # leggauss rejected 0 and -3 as a "deg", and int() made 2.5 into 2
    measure = ProductMeasure((Uniform(0.0, 1.0),))
    for order in (0, -3, 2.5, np.float64(8.0), "8", None):
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            AnovaEngine(lambda x: x[:, 0], measure, order=order)
    eng = AnovaEngine(lambda x: x[:, 0], measure, order=np.int64(8))
    assert eng.order == 8 and type(eng.order) is int


# -- the integration plan, fixed when the engine is built ---------------------

# g = x3^2 (x1 + x4) + x2 (1 + x1 x4), written out for speed, and its
# closed form
PLAN_ORACLE = CompositeMultilinearModel(
    factors=tuple(np.polynomial.Polynomial(c) for c in
                  ([0.0, 1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0])),
    terms=((1, 3), (2,), (3, 4), (1, 2, 4)))
PLAN_MEASURE = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                               Uniform(0.0, 1.0), Normal(0.0, 1.0)))


def _plan_model(x):
    x1, x2, x3, x4 = x.T
    return x3 * x3 * (x1 + x4) + x2 * (1.0 + x1 * x4)


def _read_at_zero(eng):
    """Read w_1 at x1 = 0, which settles the grid; where the settled grid
    resolves x1 its table accepts the row with no model call of its own."""
    eng._w_at((1,), np.zeros((1, 1)))


CHECK = 4   # the points at which the sparse rule checks its series


def test_four_input_moments_come_from_the_sweep_at_default_settings():
    # the 64^4 grid does not fit, so the first read settles the grid: the
    # probe's 8 nodes resolve every axis (degree 1, and 2 in x3), so the
    # rung after it takes 4 or 5 nodes, and reads each axis resolved there
    # again; ``order`` is then the most nodes kept, 5
    model = _Batches(_plan_model)
    eng = AnovaEngine(model, PLAN_MEASURE)
    assert eng.order == 64 and eng._opening == (8, 16)
    _read_at_zero(eng)
    assert eng.order == 5
    assert [x.size for x in eng.nodes] == [4, 4, 5, 4]
    assert sum(model.sizes) == 8 ** 4 + 4 * 4 * 5 * 4 == 4_416
    # the moments come from the sparse rule (``anova._smolyak``), which
    # sweeps no full grid
    model.sizes = []
    vd = eng.variance_decomposition(max_order=2)
    assert sum(model.sizes) == 149 + CHECK
    exact = {z: PLAN_ORACLE.exact_term_variance(PLAN_MEASURE, z)
             for z in all_subsets(4)}
    total = sum(exact.values())
    kept = sum(exact[z] for z in all_subsets(4, max_order=2))
    assert abs(vd.total - total) <= 1e-12 * total
    assert abs(vd.residual - (total - kept)) <= 1e-12 * total
    assert abs(sum(vd.sobol_indices().values()) - kept / total) <= 1e-12


def test_the_moments_do_not_depend_on_the_order_of_the_calls():
    seen = []
    for mean_first in (True, False):
        model = _Batches(_plan_model)
        eng = AnovaEngine(model, PLAN_MEASURE, order=8)
        if mean_first:
            mean = eng.mean()
        vd = eng.variance_decomposition(max_order=2)
        if not mean_first:
            mean = eng.mean()
        # one sweep of the 8^4 grid either way: the sweep for the moments
        # keeps the grid, and every table is contracted from it
        assert sum(model.sizes) == 8 ** 4
        seen.append((mean, vd.mean, vd.total, vd.terms))
    assert seen[0] == seen[1]
    want = PLAN_ORACLE.exact_effect(PLAN_MEASURE, (), None)
    assert abs(seen[0][0] - want) <= 1e-12 * abs(want)


# -- the settle route on a grid that does not fit at ``order`` ---------------

# sin x1 (1 + 0.1 x3^4) + 7 sin^2 x2 + (1 + 0.1 x3^4) cos x4 under N(0, 1)^4
DECOMP_ORACLE = CompositeMultilinearModel(
    factors=(np.sin, lambda t: 7.0 * np.sin(t) ** 2,
             lambda t: 1.0 + 0.1 * t ** 4, np.cos),
    terms=((1, 3), (2,), (3, 4)))
NORMAL4 = ProductMeasure((Normal(0.0, 1.0),) * 4)


def test_a_smooth_model_settles_on_its_predicted_counts():
    # 64^4 does not fit, and 16^4 does.  x3 enters as 1 + 0.1 x3^4, which
    # the opening's 8 nodes resolve: 7 nodes from 16 on.  The other axes
    # take the counts their decay at 16 predicts, where every axis is
    # resolved (own caps 26, 43, 7 and 27).  A read settles the grid; the
    # decomposition takes the sparse rule's own 1,539 points and its check
    model = _Batches(DECOMP_ORACLE)
    eng = AnovaEngine(model, NORMAL4)
    _read_at_zero(eng)
    assert eng.order == 45 and len(eng.nodes[0]) == 27
    assert len(eng.weights[3]) == 29
    assert [x.size for x in eng.nodes] == [27, 45, 7, 29]
    assert sum(model.sizes) == 8 ** 4 + 16 ** 3 * 7 + 27 * 45 * 7 * 29 \
        == 279_413
    model.sizes = []
    vd = eng.variance_decomposition()
    assert sum(model.sizes) == 1_539 + CHECK
    for z in all_subsets(4):
        assert abs(vd.terms[z] - DECOMP_ORACLE.exact_term_variance(NORMAL4, z)) \
            <= 1e-12, z
    assert abs(vd.total - sum(DECOMP_ORACLE.exact_term_variance(NORMAL4, z)
                              for z in all_subsets(4))) <= 1e-12


def test_a_decomposition_holds_at_most_four_grids():
    # the sweep that a read settles keeps the grid and its coefficients,
    # with one transform's output beside them (each axis a batched matmul
    # on a view, with no transposed copy), and one box of points: 3.1
    # grids of 27 x 45 x 7 x 29 doubles.  The decomposition sweeps no grid:
    # the sparse rule's projections and coefficients take about 78 kB
    eng = AnovaEngine(DECOMP_ORACLE, NORMAL4)
    peaks = []
    for step in (eng._sweep, lambda: eng.variance_decomposition(max_order=2)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert eng._sizes == [27, 45, 7, 29]
    assert peaks[0] <= 4 * math.prod(eng._sizes) * 8
    assert peaks[1] <= 0.1 * math.prod(eng._sizes) * 8


def _every_result(eng):
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(20, 4))
    vd = eng.variance_decomposition(max_order=2)
    out = [eng.mean(), eng.variance_decomposition().total, vd.total,
           vd.residual, *vd.terms.values(),
           *(eng.effect(z, x[:, :len(z)]) for z in ((1,), (2, 4), (1, 2, 3))),
           eng.conditional_mean((3,), x[:, :1]),
           eng.effect_curve((1, 2), npts=9).values]
    return [eng.order] + out    # settled by the reads, not the decomposition


@pytest.mark.parametrize("first", [
    lambda eng: eng.mean(),
    lambda eng: eng.effect((2, 3), np.array([[0.1, 0.7]])),
    lambda eng: eng.conditional_mean((1, 2, 4), np.array([[0.2, 0.3, 1.5]])),
    lambda eng: eng.variance_decomposition()],
    ids=["mean", "effect", "conditional_mean", "variance_decomposition"])
def test_the_settled_order_does_not_depend_on_the_first_call(first):
    want = _every_result(AnovaEngine(_plan_model, PLAN_MEASURE))
    eng = AnovaEngine(_plan_model, PLAN_MEASURE)
    first(eng)
    got = _every_result(eng)
    assert got[0] == want[0] == 5
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("a,b", [(-3.7, 0.25), (1e-3, 5e-3), (250.0, -40.0)])
def test_an_affine_map_of_the_model_settles_at_the_same_order(a, b):
    # the test is relative to V and sqrt(V), and the mean takes b's shift
    eng = AnovaEngine(lambda x: a * DECOMP_ORACLE(x) + b, NORMAL4)
    eng.mean()      # the sparse rule's: it settles no grid
    assert eng.order == 64
    _read_at_zero(eng)
    assert eng.order == 45


def test_a_model_no_rung_settles_keeps_its_order():
    model = _Batches(lambda x: np.sin(40.0 * x[:, 0]) + x[:, 1] * x[:, 2] * x[:, 3])
    measure = ProductMeasure((Uniform(0.0, 1.0),) * 4)
    with mock.patch.object(anova, "FULL_GRID_CAP", 24 ** 4):
        eng = AnovaEngine(model, measure, order=32)
    vd = eng.variance_decomposition(max_order=2)
    # 8 and 16 leave x1 unresolved (4 nodes on the linear x2, x3, x4 from
    # 16 on); its decay predicts the 32 nodes of ``order``, where it is
    # still unresolved, so the engine keeps that rung
    assert eng.order == 32
    assert [x.size for x in eng.nodes] == [32, 4, 4, 4]
    assert sum(model.sizes) == 8 ** 4 + (16 + 32) * 4 ** 3 == 7_168
    # the same as the whole 32^4 grid, which the linear axes do not need
    whole = _unsettled(model.model, measure, order=32)
    want = whole.variance_decomposition(max_order=2)
    for got, value in ((vd.mean, want.mean), (vd.total, want.total),
                       (vd.residual, want.residual),
                       *((vd.terms[z], want.terms[z]) for z in want.terms)):
        assert abs(got - value) <= 1e-15


def test_a_rung_that_raises_leaves_the_engine_as_built():
    eng = AnovaEngine(lambda x: np.where(x[:, 0] > 0.5, np.inf, 0.0), NORMAL4)
    for _ in range(2):      # the second call opens again
        with pytest.raises(FloatingPointError):
            eng.mean()
        assert eng.order == 64 and eng._opening == (8, 16)
        assert [x.size for x in eng.nodes] == [64] * 4 and eng._kept is None


# -- the sparse rule: a decomposition where the grid at ``order`` does not fit

def _sparse_only(model, measure, **kwargs):
    """An engine's decomposition with ``_sweep`` barred: the sparse rule's."""
    eng = AnovaEngine(model, measure, **kwargs)
    with mock.patch.object(AnovaEngine, "_sweep",
                           side_effect=AssertionError("swept a full grid")):
        vd = eng.variance_decomposition()
    assert eng.order == 64 and eng._kept is None
    return vd


def _handed_over(model, measure):
    """An engine's decomposition where the sparse rule hands over: the
    full grid's, which the engine settles."""
    eng = AnovaEngine(model, measure)
    vd = eng.variance_decomposition()
    assert eng._sparse == () and eng._kept is not None
    return vd


ODD = np.polynomial.Polynomial([0.0, 1.0])
HE2 = np.polynomial.Polynomial([-1.0, 0.0, 1.0])
UNIT4 = ProductMeasure((Uniform(-1.0, 1.0),) * 4)


@pytest.mark.parametrize("model,measure", [
    (CompositeMultilinearModel(factors=(ODD,) * 4, terms=((1, 2, 3, 4),)),
     NORMAL4),
    (CompositeMultilinearModel(factors=(ODD,) * 4, terms=((1, 2), (3, 4))),
     NORMAL4),
    (CompositeMultilinearModel(
        factors=(HE2, HE2, lambda t: np.sin(3.0 * t), ODD),
        terms=((1, 2), (3, 4))), NORMAL4),
    (CompositeMultilinearModel(factors=(ODD,) * 4, terms=((1, 2, 3, 4),)),
     UNIT4),
    (CompositeMultilinearModel(factors=(ODD,) * 4, terms=((1, 2), (3, 4))),
     UNIT4)], ids=["x1x2x3x4-normal", "x1x2+x3x4-normal",
                   "He2He2+sin3x3x4-normal", "x1x2x3x4-unit",
                   "x1x2+x3x4-unit"])
def test_the_sparse_rule_sees_pure_interactions(model, measure):
    # every first-level surplus of these models vanishes at the centre of
    # each axis, and He_2 at the nodes +-1 of a two-node root; the root at
    # the off-centre anchor sees every term
    vd = _sparse_only(model, measure)
    for z in all_subsets(4):
        assert abs(vd.terms[z] - model.exact_term_variance(measure, z)) \
            <= 1e-12, z


def test_a_discrete_axis_takes_all_its_points_on_every_sparse_grid():
    # 64^4 x 3 points do not fit; the discrete axis has one level, its
    # points, and enters the interactions of x1 and x4
    measure = ProductMeasure((Normal(0.0, 1.0),) * 4
                             + (DiscreteUniform((-1.0, 0.5, 2.0)),))
    model = CompositeMultilinearModel(
        factors=(np.sin, ODD, HE2 + 2.0, np.cos, HE2 + 1.5),
        terms=((1, 5), (2, 3), (4, 5), (5,)))
    vd = _sparse_only(model, measure)
    exact = {z: model.exact_term_variance(measure, z) for z in all_subsets(5)}
    for z in all_subsets(5, max_order=2):
        assert abs(vd.terms[z] - exact[z]) <= 1e-12 * vd.total, z
    assert abs(vd.total - sum(exact.values())) <= 1e-12 * vd.total
    assert abs(vd.mean - model.exact_effect(measure, (), None)) <= 1e-12


def test_a_term_below_the_tolerance_leaves_the_anchor_in_another():
    # x1 (1.5 + 1e-9 x4) on U(-1, 2)^4: the surplus of x4 at x1's anchor
    # is below the tolerance, so the rule never refines x1 and x4
    # together, and V_1 holds x4 at its anchor, not at its mean: 6.2e-10 V
    # off, within INTERP_TOL V
    model = CompositeMultilinearModel(
        factors=(ODD, ODD, ODD, np.polynomial.Polynomial([1.5, 1e-9])),
        terms=((1, 4),))
    vd = _sparse_only(model, UNIT4)
    exact = {z: model.exact_term_variance(UNIT4, z) for z in all_subsets(4)}
    total = sum(exact.values())
    for z, v in exact.items():
        assert abs(vd.terms[z] - v) <= anova.INTERP_TOL * total, z
    assert abs(vd.terms[(1,)] - exact[(1,)]) > 1e-10 * total


def test_reads_alone_run_no_sparse_rule():
    # every w_v of an effect, w_empty the mean, comes from the sweep that
    # the reads settle: a curve alone costs the parent route's 4,416
    # points, and the sparse rule makes no model call
    model = _Batches(_plan_model)
    eng = AnovaEngine(model, PLAN_MEASURE)
    with mock.patch.object(anova, "_smolyak",
                           side_effect=AssertionError("ran the sparse rule")):
        curve = eng.effect_curve((1,))
        mean = eng.conditional_mean((), np.zeros((1, 0)))
    assert sum(model.sizes) == 4_416 and eng._sparse is None
    assert mean[0] == eng._sweep()[1]
    want = PLAN_ORACLE.exact_effect(PLAN_MEASURE, (1,), curve.grids[0][:, None])
    assert np.all(np.abs(curve.values - want) <= 1e-12)


# the anchor of a U(-1, 2) axis, to the bit
ANCHOR = (-1.0 + 2.0) / 2 + 0.618 * (2.0 - -1.0) / 4


@pytest.mark.parametrize("factors,terms,sparse,full", [
    (((1.0, 1.0), (-ANCHOR, 1.0)), ((1, 2),), 20, 4_240),
    (((-ANCHOR, 1.0),) * 4, ((1, 2, 3, 4),), 13, 4_352)],
    ids=["(1+x1)(x2-a)", "prod(xk-a)"])
def test_a_factor_that_vanishes_at_an_anchor_hands_over(factors, terms,
                                                       sparse, full):
    # x2 - a vanishes at x2's anchor, so every surplus along x1, taken
    # there, is zero: the rule refines no axis with x2 and stops on a
    # series that leaves out (x1 - a1)(x2 - a): V_1 = V_12 = 0, and for
    # prod(xk - a) V = 0.  The model at the check's points is far from
    # that series, so the engine settles the full grid, the parent's
    # route, which holds these polynomials exactly
    model = CompositeMultilinearModel(
        factors=tuple(np.polynomial.Polynomial(f) for f in factors)
        + (ODD,) * (4 - len(factors)), terms=terms)
    measure, counted = ProductMeasure((Uniform(-1.0, 2.0),) * 4), \
        _Batches(model)
    vd = _handed_over(counted, measure)
    assert sum(counted.sizes) == sparse + CHECK + full
    for z in all_subsets(4):
        want = model.exact_term_variance(measure, z)
        assert abs(vd.terms[z] - want) <= 1e-12 * vd.total, z
    assert vd.terms[(1, 2)] > 0.02


def _baseline(n):
    """The model sum_k cos 2x_k + 0.5 x1 x2 + 0.3 sin x3 x4 on N(0, 1)^n,
    its mean and every V_z by closed form (those not named are zero)."""
    def g(x):
        return np.cos(2.0 * x).sum(axis=1) + 0.5 * x[:, 0] * x[:, 1] \
            + 0.3 * np.sin(x[:, 2]) * x[:, 3]

    terms = {(k,): (1.0 + math.exp(-8.0)) / 2.0 - math.exp(-4.0)
             for k in range(1, n + 1)}
    terms[(1, 2)], terms[(3, 4)] = 0.25, 0.09 * (1.0 - math.exp(-2.0)) / 2.0
    return g, n * math.exp(-2.0), terms


@pytest.mark.parametrize("n,points", [(4, 942), (5, 908), (6, 1_261),
                                      (7, 1_434), (8, 1_616)])
def test_past_four_inputs_the_decomposition_matches_the_closed_form(n,
                                                                    points):
    # full grids that fit left V 2.8e-5 (n = 5) to 56% (n = 8) off, and
    # took 3,488,433 (n = 4) to 1,679,616 (n = 8) points; a count, not a
    # clock, pins the cost.  At n = 4 a full grid of 32^4 gives V to 8e-16
    g, mean, terms = _baseline(n)
    model = _Batches(g)
    vd = _sparse_only(model, ProductMeasure((Normal(0.0, 1.0),) * n))
    total = sum(terms.values())
    assert abs(vd.total - total) <= 1e-9 * total
    assert abs(vd.mean - mean) <= 1e-9 * math.sqrt(total)
    for z in all_subsets(n, 4 if n == 4 else 2):
        assert abs(vd.terms[z] - terms.get(z, 0.0)) <= 1e-9 * total, z
    assert sum(model.sizes) == points + CHECK <= 1_449_984


def _pairs4(x):
    return x[:, 0] + x[:, 1] * x[:, 2] + x[:, 3]


def test_a_power_of_two_times_a_sparse_model_keeps_every_decision():
    # 2^k g has every projection of g times 2^k, which the rule's scale
    # takes back exactly: the same model calls and every S_z to the bit
    runs = {}
    for k in (-30, 0, 40):
        counted = _Batches(lambda x, k=k: np.ldexp(DECOMP_ORACLE(x), k))
        runs[k] = counted.sizes, _sparse_only(counted, NORMAL4)
    sizes, vd = runs[0]
    want = {z: v.hex() for z, v in vd.sobol_indices().items()}
    for k, (got_sizes, got) in runs.items():
        assert got_sizes == sizes, k
        assert {z: v.hex() for z, v in got.sobol_indices().items()} == want, k
        assert got.total == math.ldexp(vd.total, 2 * k), k


@pytest.mark.parametrize("a,b", [(-3.7, 0.25), (1e-3, 5e-3), (250.0, -40.0)])
def test_an_affine_map_of_a_sparse_model_keeps_its_indices(a, b):
    vd = _sparse_only(DECOMP_ORACLE, NORMAL4)
    got = _sparse_only(lambda x: a * DECOMP_ORACLE(x) + b, NORMAL4)
    s, s2 = vd.sobol_indices(), got.sobol_indices()
    assert abs(got.mean - (a * vd.mean + b)) <= 1e-12 * abs(a) * math.sqrt(
        vd.total)
    for z, v in vd.terms.items():
        assert abs(got.terms[z] - a * a * v) <= 1e-12 * a * a * vd.total, z
        assert abs(s2[z] - s[z]) <= 1e-12, z


def test_a_sparse_variance_beyond_the_float_range_is_named():
    cube = ProductMeasure((Uniform(0.0, 1.0),) * 4)
    with pytest.raises(OverflowError, match="total variance V = "):
        _sparse_only(lambda x: 1e160 * _pairs4(x), cube)
    with pytest.raises(ZeroVarianceError, match="V = 0.0 is "):
        _sparse_only(lambda x: 1e-200 * _pairs4(x), cube).sobol_indices()


def test_a_constant_sparse_model_has_no_indices():
    # the root and its four neighbours of 3 nodes show no variance, so the
    # rule stops there, and the check finds the model on its series
    counted = _Batches(lambda x: np.full(len(x), 0.7))
    vd = _sparse_only(counted, NORMAL4)
    assert sum(counted.sizes) == 1 + 4 * 3 + CHECK
    with pytest.raises(ZeroVarianceError):
        vd.sobol_indices()


def test_the_sparse_rule_keeps_its_model_calls_within_the_block():
    # every index's grid goes to the model in boxes of at most
    # ``BLOCK_POINTS``, and the boxes change no bit of the result
    counted = _Batches(DECOMP_ORACLE)
    with mock.patch.object(anova, "BLOCK_POINTS", 20):
        vd = _sparse_only(counted, NORMAL4)
    assert max(counted.sizes) <= 20
    assert vd == _sparse_only(DECOMP_ORACLE, NORMAL4)


def test_an_unresolved_sparse_model_stops_within_its_budget():
    # sin 150 x1 needs more than the 63 nodes of the top level on [0, 1]:
    # the rule runs out of levels after 231 points, its check finds the
    # model off its series, and the engine settles the full grid as the
    # parent route did, on 9,216 points with x1 unresolved at 64
    counted = _Batches(lambda x: np.sin(150.0 * x[:, 0])
                       + x[:, 1] * x[:, 2] * x[:, 3])
    _handed_over(counted, ProductMeasure((Uniform(0.0, 1.0),) * 4))
    assert sum(counted.sizes) == 231 + CHECK + 9_216


@pytest.mark.parametrize("shift,tol", [(1e4, 1e-11), (1e8, 1e-9)])
def test_the_sparse_rule_keeps_its_terms_under_a_large_mean(shift, tol):
    # every grid is centred on the root's value; the model's own rounding,
    # eps times the shift at each point, is what remains.  At 1e8 it is
    # above INTERP_TOL sqrt(V), so the surpluses never sum to the
    # tolerance: the rule stops at its budget, the 8^4 points of the
    # settle's first rung, after 4,050, and the engine settles the full
    # grid, as the parent route did on 3,727,814 points
    model = _Batches(lambda x: DECOMP_ORACLE(x) + shift)
    if shift < 1e8:
        vd = _sparse_only(model, NORMAL4)
        assert sum(model.sizes) == 1_539 + CHECK
    else:
        vd = _handed_over(model, NORMAL4)
        assert sum(model.sizes) == 4_050 + 3_727_814
    exact = {z: DECOMP_ORACLE.exact_term_variance(NORMAL4, z)
             for z in all_subsets(4)}
    total = sum(exact.values())
    for z, v in exact.items():
        assert abs(vd.terms[z] - v) <= tol * total, z


def test_the_sparse_total_keeps_its_digits_under_a_large_mean():
    # the model of the three-input test, with x4 in a term of its own:
    # mean -2.02 against V = 1.9e-8
    model = CompositeMultilinearModel(
        factors=(np.polynomial.Polynomial([-0.49945981]),
                 np.polynomial.Polynomial([1e-4, 1e-12]),
                 np.polynomial.Polynomial([-0.86854202, 1.14158557,
                                           1.10796981]),
                 np.polynomial.Polynomial([0.0, 1e-5])),
        terms=((), (1,), (2, 3), (2, 3), (4,)),
        coeffs=(-1.383, 1.279, 1.449, -0.781, 1.0))
    measure = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                              Uniform(-1.0, 2.0), Normal(0.0, 1.0)))
    vd = _sparse_only(model, measure)
    exact = sum(model.exact_term_variance(measure, z) for z in all_subsets(4))
    assert abs(vd.total - exact) <= 1e-11 * exact


# -- five to nine inputs: every engine ends on a grid that fits ---------------

# each factor a polynomial of degree 2 at most
MULTILINEAR5 = CompositeMultilinearModel(
    factors=tuple(np.polynomial.Polynomial(c) for c in
                  ([0.3, 1.0, -0.5], [1.0, 0.2], [0.0, 1.0, 1.0],
                   [2.0, -1.0], [0.5, 0.5])),
    terms=((1, 2), (2, 4), (1, 3, 4), (3,), (5,), (4, 5)))
MIXED5 = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                         Uniform(0.0, 1.0), Normal(0.0, 1.0),
                         Uniform(-1.0, 1.0)))


def test_a_five_input_model_ends_on_a_grid_that_fits():
    # 64^5 does not fit and 16^5 does; the probe's 8 nodes resolve every
    # axis, so the rung after it takes their caps and settles.  A read
    # settles the grid; the decomposition takes the sparse rule's points
    model = _Batches(MULTILINEAR5)
    eng = AnovaEngine(model, MIXED5)
    _read_at_zero(eng)
    assert math.prod(eng._sizes) <= anova.FULL_GRID_CAP
    assert eng.order == 5 and [x.size for x in eng.nodes] == [5, 4, 5, 4, 4]
    assert sum(model.sizes) == 8 ** 5 + math.prod(eng._sizes)
    model.sizes = []
    vd = eng.variance_decomposition()
    assert sum(model.sizes) == 195 + CHECK
    exact = {z: MULTILINEAR5.exact_term_variance(MIXED5, z)
             for z in all_subsets(5)}
    for z in all_subsets(5, max_order=2):
        assert abs(vd.terms[z] - exact[z]) <= 1e-12, z
    assert abs(vd.total - sum(exact.values())) <= 1e-12


def _five_normal(x):
    x1, x2, x3, x4, x5 = x.T
    return x1 + 0.5 * x2 ** 2 + np.sin(x1) * x2 + 0.3 * x3 ** 4 \
        + 0.2 * x1 * x3 * x4 + 0.5 * np.sin(x5) * x4


def test_five_normal_inputs_settle_on_their_predicted_counts():
    # the opening's 8^5 grid, then 16 nodes under the caps that 8 gave the
    # polynomial axes x2, x3 and x4, then the counts that the decay of x1
    # and x5 at 16 predicts, where every axis is resolved.  A read settles
    # the grid; the decomposition takes the sparse rule's points
    model = _Batches(_five_normal)
    eng = AnovaEngine(model, ProductMeasure((Normal(0.0, 1.0),) * 5))
    _read_at_zero(eng)
    assert eng.order == 26 and eng._halves is not None
    assert [x.size for x in eng.nodes] == [26, 5, 7, 4, 25]
    assert sum(model.sizes) == 8 ** 5 + (16 * 16 + 26 * 25) * 5 * 7 * 4 \
        == 159_608
    model.sizes = []
    vd = eng.variance_decomposition()
    assert sum(model.sizes) == 803 + CHECK
    # the 16^5 and 20^5 grids agree on the total to ten digits
    assert abs(vd.total - 10.72041545) <= 1e-8


# normal and uniform inputs in turn; sin, cos and exp on x1, x5 and x8
MULTILINEAR8 = CompositeMultilinearModel(
    factors=(np.sin, np.polynomial.Polynomial([0.0, 1.0]),
             np.polynomial.Polynomial([1.0, 0.0, 1.0]),
             np.polynomial.Polynomial([0.5, -1.0]), np.cos,
             np.polynomial.Polynomial([0.0, 1.0]),
             np.polynomial.Polynomial([2.0, 1.0]), np.exp),
    terms=((1, 2), (3, 4), (5,), (6, 7), (8,), (2, 8)))
MIXED8 = ProductMeasure(tuple(Normal(0.5, 0.8) if i % 2 else Uniform(-1.0, 2.0)
                              for i in range(1, 9)))


def test_an_eight_input_engine_ends_on_a_grid_that_fits():
    # 8^8 does not fit, so the opening's first rung is cut to 6^8; there
    # the polynomial axes take 4 or 5 nodes, and the rung of 16 is cut to
    # the 14 nodes that fit under those caps.  The counts that sin, cos
    # and exp predict past 14 do not fit: no rung settles, and the engine
    # keeps 14, the last rung it swept.  The default boxes of 2^16 points
    # keep its memory small.  A read settles the grid: with x1 unresolved
    # its row goes to the direct integral over the settled complement,
    # 4 x 5 x 4 x 14 x 4 x 4 x 14 points.  The decomposition takes the
    # sparse rule's points
    model = _Batches(MULTILINEAR8)
    eng = AnovaEngine(model, MIXED8)
    assert eng._opening == (8, 16)
    _read_at_zero(eng)
    assert math.prod(eng._sizes) <= anova.FULL_GRID_CAP
    assert eng.order == 14 and eng._halves is None
    assert [x.size for x in eng.nodes] == [14, 4, 5, 4, 14, 4, 4, 14]
    assert sum(model.sizes) == 6 ** 8 + 14 ** 3 * 4 ** 4 * 5 \
        + 14 ** 2 * 4 ** 4 * 5 == 5_442_816
    assert max(model.sizes) <= anova.BLOCK_POINTS == 2 ** 16
    model.sizes = []
    vd = eng.variance_decomposition()
    assert sum(model.sizes) == 822 + CHECK
    for z in all_subsets(8, max_order=2):
        assert abs(vd.terms[z] - MULTILINEAR8.exact_term_variance(MIXED8, z)) \
            <= 1e-12, z


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(1, 64),
       axes=st.lists(st.one_of(st.none(), st.integers(1, 40)), min_size=1,
                     max_size=9))
def test_a_fitted_rung_fits_with_no_node_to_spare(data, order, axes):
    # each axis continuous (None) or discrete on that many points; the
    # counts are any a rung could ask for, at most ``order``
    comps = tuple(Uniform(0.0, 1.0) if k is None else
                  DiscreteUniform(tuple(range(k))) for k in axes)
    try:
        eng = AnovaEngine(lambda x: x.sum(axis=-1), ProductMeasure(comps),
                          order=order)
    except ConfigError:
        assume(False)
    counts = [data.draw(st.integers(1, order)) if k is None else k
              for k in axes]
    got = eng._fitted(counts)
    assert anova._fits(got)
    assert all(g <= k for g, k in zip(got, counts))
    assert all(g == k for g, k in zip(got, axes) if k is not None)
    lowered = [g < k for g, k in zip(got, counts)]
    assert len({g for g, low in zip(got, lowered) if low}) <= 1
    if any(lowered):
        assert not anova._fits([g + low for g, low in zip(got, lowered)])


def test_nine_continuous_inputs_have_no_grid_that_fits():
    # 64^9 and 6^9 points both exceed the cap
    with pytest.raises(ConfigError, match="no tensor grid"):
        AnovaEngine(lambda x: x.sum(axis=-1),
                    ProductMeasure((Uniform(0.0, 1.0),) * 9))


# -- the opening on a grid that fits: where the tables are resolved ----------

# each axis's nodes once settled, and the points of the rungs swept: the
# probe's 8^3, then 16 with x3 at 7 nodes, then the one rung that each axis
# the rung of 16 leaves unresolved takes from its coefficient decay, x1 of
# mu3 (resolved at 16) at its cap of 14
ISHIGAMI_SETTLED = {
    "mu1": ([21, 29, 7], 6_567),    # 8^3 + (16^2 + 21 * 29) * 7
    "mu2": ([27, 45, 7], 10_809),   # 8^3 + (16^2 + 27 * 45) * 7
    "mu3": ([14, 21, 7], 4_362)}    # 8^3 + (16^2 + 14 * 21) * 7


@pytest.mark.parametrize("name,settled", [("mu1", 29), ("mu2", 45),
                                          ("mu3", 21)])
def test_an_ishigami_engine_settles_where_its_tables_are_resolved(name,
                                                                  settled):
    # the probe's 8 nodes resolve x3 (1 + 0.1 x3^4) everywhere, and 16 x1
    # (sin x1) on mu3's [0, pi]; the x2 axes (7 sin^2 x2) and the other x1
    # axes go from 16 to the nodes their decay predicts, where every axis
    # is resolved
    model = _Batches(IshigamiModel())
    eng = AnovaEngine(model, ishigami_measures()[name])
    assert eng._opening == (8, 16)
    eng.mean()
    assert eng.order == settled
    sizes, evals = ISHIGAMI_SETTLED[name]
    assert [x.size for x in eng.nodes] == sizes
    assert sum(model.sizes) == evals
    assert all(c < math.inf for c in eng._caps()[0])


@pytest.mark.parametrize("name", MEASURES)
def test_an_ishigami_engine_settles_on_one_predicted_rung_at_its_caps(name):
    # the probe of 8, the rung of 16, and one rung whose counts the decay
    # of 16's coefficients predicts, which settles: each of its axes within
    # two nodes of the caps that rung reads off its own grid
    rungs = []
    caps_of = AnovaEngine._caps

    def spy(self):
        out = caps_of(self)
        rungs.append(([x.size for x in self.nodes], out[0]))
        return out

    eng = AnovaEngine(IshigamiModel(), ishigami_measures()[name])
    with mock.patch.object(AnovaEngine, "_caps", spy):
        eng.mean()
    assert [max(nodes) for nodes, _ in rungs[:2]] == [8, 16]
    assert len(rungs) == 3
    nodes, caps = rungs[-1]
    assert nodes == [x.size for x in eng.nodes]
    assert all(c <= k <= c + 2 for k, c in zip(nodes, caps)), (nodes, caps)


def test_a_settled_engine_transforms_each_grid_once():
    # _settle transforms the grid of each rung it sweeps once and builds no
    # error tensor; the first read at points builds it, once, and no read
    # transforms the grid again
    transforms, orders = [], []
    along, use = anova._along, AnovaEngine._use_order

    def spy(mats, values):
        if all(m is not None and m.shape == (s, s)
               for m, s in zip(mats, values.shape)):
            transforms.append(values.shape)
        return along(mats, values)

    def used(self, order, caps=None):
        orders.append(order)
        use(self, order, caps)

    eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu1"])
    x = np.random.default_rng(8).uniform(-PI, PI, size=(60, 3))
    with mock.patch.object(anova, "_along", spy), \
            mock.patch.object(AnovaEngine, "_use_order", used):
        eng.variance_decomposition()
        assert eng.order == 29 and eng._error is None
        assert orders == [8, 16, 29] and len(transforms) == 3
        kept = eng._kept
        for z in all_subsets(3, 2):
            eng.effect(z, x[:, [i - 1 for i in z]])
        eng.effect_curve((1, 2))
        error = eng._error
        assert error is not None and len(transforms) == 4
        eng.effect((1, 3), x[:, [0, 2]] / 2)
    assert len(transforms) == 4 and eng._kept is kept and eng._error is error


def test_a_fitting_model_no_rung_settles_keeps_its_order():
    # sin(150 x1) on [0, 1] is still unresolved at 64 nodes
    def g(x):
        return np.sin(150.0 * x[:, 0]) + x[:, 1] * x[:, 2]

    measure = ProductMeasure((Uniform(0.0, 1.0),) * 3)
    model = _Batches(g)
    eng = AnovaEngine(model, measure)
    vd = eng.variance_decomposition()
    # x1 goes from 16 to 64 and is still unresolved there, so the engine
    # keeps that last rung, with x2 and x3 at their caps of 4 and no lower
    # rules, and reads its tables there as an engine with no opening that
    # sweeps the same grid does
    assert eng.order == 64 and [x.size for x in eng.nodes] == [64, 4, 4]
    assert eng._halves is None
    assert sum(model.sizes) == 8 ** 3 + (16 + 64) * 4 * 4 == 1_792
    plain = _unsettled(g, measure)
    plain._use_order(64, [64, 4, 4])
    assert vd == plain.variance_decomposition()
    x = np.random.default_rng(6).uniform(-0.2, 1.2, size=(50, 3))
    for z in all_subsets(3):
        cols = [i - 1 for i in z]
        assert np.array_equal(eng.effect(z, x[:, cols]),
                              plain.effect(z, x[:, cols])), z
    assert eng._error is not None and plain._error is not None


@pytest.mark.parametrize("name", MEASURES)
def test_settled_engines_read_what_order_64_reads(name):
    # the seeded points of acceptance c03: on every row that order 64's
    # table accepts, the settled engine's w_v (off its own table, or
    # integrated directly where that table rejects the row) is the same
    # value to the gate's standard
    measure = ishigami_measures()[name]
    eng = AnovaEngine(IshigamiModel(), measure)
    eng.mean()
    full = _unsettled(IshigamiModel(), measure)
    pts = np.random.default_rng(2024).uniform(0.0, PI, size=(1000, 3))
    for z in all_subsets(3, max_order=2):
        x = pts[:, [i - 1 for i in z]]
        wanted, values = full._read(z, x)
        assert wanted.any(), z
        assert np.all(np.abs(eng._w_at(z, x)[wanted] - values[wanted])
                      <= anova.INTERP_TOL * full._rms(z)), z


@pytest.mark.parametrize("name", MEASURES)
def test_settled_tables_accept_every_plot_row_order_64_accepts(name):
    # the rows of each singleton's effect curve, out to 4 sd on a normal
    # axis, where the gate weighs a tail coefficient by |phi_k(x)| of 10-50.
    # Each row order 64's table accepts is accepted by the settled table,
    # but for the outer 6 a side of mu2's x2 (|x2| > 3.6 sd), which its 45
    # nodes leave to the direct integral; every such row, read or
    # integrated, is within INTERP_TOL rms(w_i) of the closed form
    measure = ishigami_measures()[name]
    eng = AnovaEngine(IshigamiModel(), measure)
    eng.mean()
    full = _unsettled(IshigamiModel(), measure)
    for i, comp in enumerate(measure.components, 1):
        x = np.linspace(*comp.plot_range(), 129)[:, None]
        accepted, _ = eng._read((i,), x)
        wanted, _ = full._read((i,), x)
        assert wanted.any(), i
        missed = np.flatnonzero(wanted & ~accepted)
        assert list(missed) == ([*range(6), *range(123, 129)]
                                if (name, i) == ("mu2", 2) else []), i
        exact = ishigami_effect(measure, (), None) \
            + ishigami_effect(measure, (i,), x)
        assert np.all(np.abs(eng._w_at((i,), x) - exact)[wanted]
                      <= anova.INTERP_TOL * eng._rms((i,))), i


def _smooth3(x):
    return np.exp(0.5 * x[:, 0]) * np.cos(x[:, 1]) + x[:, 2] ** 3 * np.sin(x[:, 0])


@pytest.mark.parametrize("model,comps", [
    (IshigamiModel(), ishigami_measures()["mu1"].components),
    (IshigamiModel(), ishigami_measures()["mu2"].components),
    # x2 is capped at 15 on the rung of 16; x1 takes 27 nodes from its
    # decay, and that rung settles on [27, 15, 6]
    (_smooth3, (Normal(0.0, 1.0), Uniform(0.0, PI), Uniform(-PI, PI))),
    # x1 goes to 46 and x2 to 23 from their decay, where x2 reads
    # unresolved; the next rung caps x1 at 45 and takes x2 to 27, where its
    # cap of 25 stands: [45, 27, 6]
    (_smooth3, (Normal(1.0, 2.0), Uniform(-PI, PI), Uniform(0.0, PI)))],
    ids=["mu1", "mu2", "smooth-unsettled", "smooth"])
def test_caps_never_grow_from_one_rung_to_the_next(model, comps):
    rungs = []          # the nodes and own caps of every rung swept
    caps_of = AnovaEngine._caps

    def spy(self):
        out = caps_of(self)
        rungs.append(([x.size for x in self.nodes], out[0]))
        return out

    eng = AnovaEngine(model, ProductMeasure(tuple(comps)))
    with mock.patch.object(AnovaEngine, "_caps", spy):
        eng.mean()
    assert len(rungs) >= 3
    # an axis a rung caps takes at most that cap on the next rung, unless
    # the cap lies at or below the nodes at which an earlier rung read the
    # axis unresolved (the probe's 8 on _blind_at_8 below): that cap is
    # lifted, and the axis climbs
    seen = [0] * 3
    for (nodes, caps), (upper, _) in zip(rungs, rungs[1:]):
        seen = [max(u, k) if c == math.inf else u
                for u, k, c in zip(seen, nodes, caps)]
        assert all(b <= c or c <= u for b, c, u in zip(upper, caps, seen)), \
            (nodes, caps, upper)
    # a settled engine keeps the nodes of its last rung, whose caps are
    # all finite
    assert [x.size for x in eng.nodes] == rungs[-1][0]
    assert all(c < math.inf for c in rungs[-1][1])


def test_an_axis_capped_by_an_earlier_rung_stays_resolved():
    # the grid at ``order`` does not fit under this cap, and the engine
    # takes the route of one that fits: 8, then 16 with x3 at its cap of
    # 6, then [46, 23, 6] from the decay at 16.  That rung caps x1 at 45
    # and reads x2 unresolved at 23; on the next, [45, 27, 6], x1 stays
    # resolved at its cap of 45, x2 is capped at 25, and the engine settles
    model = _Batches(_smooth3)
    with mock.patch.object(anova, "FULL_GRID_CAP", 48 ** 3):
        eng = AnovaEngine(model, ProductMeasure((Normal(1.0, 2.0),
                                                 Uniform(-PI, PI),
                                                 Uniform(0.0, PI))))
        _read_at_zero(eng)
    assert eng.order == 45 and [x.size for x in eng.nodes] == [45, 27, 6]
    assert eng._caps()[0] == [45, 25, 6] and eng._halves is not None
    assert sum(model.sizes) == 8 ** 3 + (16 ** 2 + 46 * 23 + 45 * 27) * 6 \
        == 15_686


# -- the probe rung: 8 nodes size the sweep of 16 -----------------------------

P8 = np.polynomial.Legendre.basis(8)


def _blind_at_8(x):
    # P_8 vanishes at the 8 Gauss-Legendre nodes
    return x[:, 0] + P8(x[:, 0]) + x[:, 1] * x[:, 2]


def test_the_probe_adds_no_blind_spot():
    # the probe's 8 nodes see x1 but not P_8, and cap x1 at 4 nodes; the
    # rung of 16 reads x1 again at those 4, where P_8 shows, and its own
    # caps replace the probe's, so x1 climbs on.  Kept, the probe's cap
    # would settle the engine on [4, 4, 4] with V 11.6% off
    measure = ProductMeasure((Uniform(-1.0, 1.0),) * 3)
    eng = AnovaEngine(_blind_at_8, measure)
    vd = eng.variance_decomposition()
    assert [x.size for x in eng.nodes] == [11, 4, 4]
    exact = 1 / 3 + 1 / 17 + 1 / 9
    assert abs(vd.total - exact) <= 1e-12 * exact
    for z, v in {(1,): 1 / 3 + 1 / 17, (2, 3): 1 / 9}.items():
        assert abs(vd.terms[z] - v) <= 1e-12 * exact, z


P16 = np.polynomial.Legendre.basis(16)
CUBE = ProductMeasure((Uniform(-1.0, 1.0),) * 3)


def _blind_at_16(x):
    # P_16 vanishes at the 16 Gauss-Legendre nodes
    return x[:, 0] + P16(x[:, 0]) + x[:, 1] * x[:, 2]


def test_a_term_the_rung_of_16_cannot_see_is_resolved():
    # V = 1/3 + 1/33 + 1/9 = 47/99; the rung of 16 caps x1 at 4, at or
    # below the probe's 8 nodes that read it unresolved, so x1 climbs; its
    # decay fit already lies below the tolerance at degree 15, so it takes
    # the fewest nodes past that degree, 21, where P_16 shows, and from
    # there 27, past degree 20, where its cap is 22
    model = _Batches(_blind_at_16)
    eng = AnovaEngine(model, CUBE)
    vd = eng.variance_decomposition()
    assert [x.size for x in eng.nodes] == [27, 4, 4]
    assert sum(model.sizes) == 8 ** 3 + (16 + 21 + 27) * 4 * 4 == 1_536
    assert abs(vd.total - 47 / 99) <= 1e-12
    for z, v in {(1,): 1 / 3 + 1 / 33, (2, 3): 1 / 9}.items():
        assert abs(vd.terms[z] - v) <= 1e-12, z


def test_a_cap_at_a_count_read_unresolved_is_no_cap():
    # the blind spot itself: the probe reads x1 unresolved at 8 nodes, and
    # the rung of 16, blind to P_16, caps it at 4; the engine does not
    # settle there, and x1 gets more nodes on the next rung
    rungs = []
    caps_of = AnovaEngine._caps

    def spy(self):
        out = caps_of(self)
        rungs.append(([x.size for x in self.nodes], out[0]))
        return out

    with mock.patch.object(AnovaEngine, "_caps", spy):
        AnovaEngine(_blind_at_16, CUBE).mean()
    (probe, probe_caps), (sixteen, caps16), (upper, _) = rungs[:3]
    assert probe == [8] * 3 and probe_caps[0] == math.inf
    assert sixteen == [16, 4, 4] and caps16[0] <= 8
    assert all(c < math.inf for c in caps16) and upper[0] > 16


@pytest.mark.parametrize("model", [
    lambda x: 1.0 + x[:, 0] * x[:, 1] * x[:, 2],
    lambda x: x[:, 0] * x[:, 1] * x[:, 2],
    lambda x: x[:, 0] + x[:, 1] * x[:, 2],
    lambda x: np.sin(3.0 * x[:, 0]) * x[:, 1] * x[:, 2]],
    ids=["1+x1x2x3", "x1x2x3", "x1+x2x3", "sin3x1-x2x3"])
def test_a_model_of_mean_zero_settles_as_cheaply_as_a_shifted_one(model):
    # the caps judge each axis against sqrt(V), not against an rms that
    # holds the mean: a zero-mean product has no first-order effect, and
    # under rms(w_i) it climbed to 64^3 points
    counted = _Batches(model)
    eng = AnovaEngine(counted, CUBE)
    eng.variance_decomposition()
    assert sum(counted.sizes) <= 1_152
    assert eng._halves is not None


def _cos_sum4(x):
    return np.cos(2.0 * x).sum(axis=1) + 0.5 * x[:, 0] * x[:, 1] \
        + 0.3 * np.sin(x[:, 2]) * x[:, 3]


def test_a_probe_that_caps_nothing_costs_its_own_grid():
    # neither opening rung caps an axis of this model, so they add their
    # 8^4 and 16^4 points and nothing else: the engine ends on the 43^4
    # grid that the decay at 16 predicts (own caps 41), with the
    # sweep of an engine that sweeps that grid alone, to the bit.  A read
    # settles the grid; the decomposition is the sparse rule's, 942 points
    # and its check
    model = _Batches(_cos_sum4)
    eng = AnovaEngine(model, NORMAL4)
    _read_at_zero(eng)
    assert eng.order == 43 and [x.size for x in eng.nodes] == [43] * 4
    assert sum(model.sizes) == 8 ** 4 + 16 ** 4 + 43 ** 4 == 3_488_433
    plain = _unsettled(_cos_sum4, NORMAL4, order=43)
    for got, want in zip(eng._sweep()[1:], plain._sweep()[1:]):
        assert np.array_equal(got, want)
    model.sizes = []
    vd, want = eng.variance_decomposition(), plain.variance_decomposition()
    assert sum(model.sizes) == 942 + CHECK
    assert abs(vd.mean - want.mean) <= 1e-14 * math.sqrt(want.total)
    for z in all_subsets(4):
        assert abs(vd.terms[z] - want.terms[z]) <= 1e-14 * want.total, z


def test_four_cosine_curves_stay_within_their_settled_plan():
    # the settled 43^4 grid resolves every axis: 117 rows of each curve
    # are read off its table, and the outer 12 take the pair of halved
    # rules, 21^3 + 20^3 points a row, 828,528 evaluations in all; the
    # decomposition takes the sparse rule's 942 and its check, and sweeps
    # no grid
    model = _Batches(_cos_sum4)
    eng = AnovaEngine(model, NORMAL4)
    eng.variance_decomposition()
    assert sum(model.sizes) == 942 + CHECK
    for i in range(1, 5):
        curve = eng.effect_curve((i,))
        x = curve.grids[0]
        assert np.all(np.abs(curve.values - (np.cos(2.0 * x) - math.exp(-2.0)))
                      <= 1e-12), i
    assert sum(model.sizes) <= 942 + CHECK + 4_316_961


def _permuted(model, measure, perm):
    """The model and measure with input k + 1 the old input perm[k] + 1."""
    back = np.argsort(perm)
    return (lambda y: model(y[:, back]),
            ProductMeasure(tuple(measure.components[p] for p in perm)))


@settings(max_examples=10, deadline=None)
@given(perm=st.permutations(range(3)),
       comps=st.lists(st.sampled_from((Uniform(-PI, PI), Uniform(0.0, PI),
                                       Normal(0.0, 1.0), Normal(0.5, 0.7))),
                      min_size=3, max_size=3))
def test_permuting_the_inputs_permutes_every_term(perm, comps):
    measure = ProductMeasure(tuple(comps))
    base = AnovaEngine(IshigamiModel(), measure)
    want = base.variance_decomposition()
    eng = AnovaEngine(*_permuted(IshigamiModel(), measure, perm))
    got = eng.variance_decomposition()
    assert eng.order == base.order
    assert abs(got.total - want.total) <= 1e-12 * want.total
    for z, v in got.terms.items():
        old = tuple(sorted(perm[i - 1] + 1 for i in z))
        assert abs(v - want.terms[old]) <= 1e-12 * want.total, z


def test_permuting_four_inputs_keeps_the_settled_order():
    # a grid that does not fit at ``order`` settles on the counts its
    # axes predict, wherever they sit; a read settles it, and the
    # decomposition is the sparse rule's
    eng = AnovaEngine(*_permuted(DECOMP_ORACLE, NORMAL4, (3, 1, 0, 2)))
    _read_at_zero(eng)
    assert eng.order == 45
    vd = eng.variance_decomposition()
    for z, v in vd.terms.items():
        old = tuple(sorted((3, 1, 0, 2)[i - 1] + 1 for i in z))
        assert abs(v - DECOMP_ORACLE.exact_term_variance(NORMAL4, old)) \
            <= 1e-12, z


@pytest.mark.parametrize("perm", [(3, 1, 0, 2), (2, 0, 3, 1), (1, 2, 3, 0)])
def test_permuting_four_inputs_permutes_the_node_counts(perm):
    # the caps read each axis off every rung, whatever its place
    base = AnovaEngine(DECOMP_ORACLE, NORMAL4)
    want = base.variance_decomposition()
    eng = AnovaEngine(*_permuted(DECOMP_ORACLE, NORMAL4, perm))
    got = eng.variance_decomposition()
    assert [x.size for x in eng.nodes] == [base.nodes[p].size for p in perm]
    for z, v in got.terms.items():
        old = tuple(sorted(perm[i - 1] + 1 for i in z))
        assert abs(v - want.terms[old]) <= 1e-13 * want.total, z


# -- the decay predictor: where a coefficient sequence falls to a tolerance ---

def _log_decay(tau, gamma, size):
    """log c_k of c_k = tau^k / Gamma(k + 1)^gamma for k below ``size``."""
    return np.array([k * math.log(tau) - gamma * math.lgamma(k + 1.0)
                     for k in range(size)])


# the degrees that parity zeroes, as an even or an odd function's are
PARITY_ZEROS = {"no-zeros": None, "even": slice(1, None, 2),
                "odd": slice(0, None, 2)}


@pytest.mark.parametrize("parity", [
    "no-zeros", "even", pytest.param("odd", marks=pytest.mark.xfail(
        strict=True, reason="with the last degree nonzero and every even "
        "one zero, the pair envelope's steps make the fit too concave: "
        "tau 4, gamma 1/2 predicts up to 9.6 degrees short"))])
def test_the_crossing_falls_at_or_past_the_true_degree(parity):
    # 16 coefficients c_k = tau^k / Gamma(k + 1)^gamma and tolerances
    # below the last of them: the predicted degree is never below the last
    # degree whose coefficient exceeds the tolerance, so the nodes past it
    # resolve the sequence, and inf where it never falls.  Without parity
    # zeros it overshoots by at most 2 degrees; with an even function's,
    # whose envelope lags a degree at the end, by at most 17
    over = []
    for tau in (0.3, 1.0, 2.0, 4.0):
        for gamma in (0.0, 0.5, 1.0):
            logs = _log_decay(tau, gamma, 4000)
            if PARITY_ZEROS[parity]:
                logs[PARITY_ZEROS[parity]] = -np.inf
            c = np.exp(logs[:16])
            for scale in (1e-3, 1e-6, 1e-9, 1e-12):
                tol = scale * c[-2:].max()
                got = anova._crossing(c, tol, logs.size)
                last = np.flatnonzero(logs > math.log(tol))[-1]
                if last >= logs.size - 2:       # it never falls
                    assert got == math.inf, (tau, gamma, scale)
                    continue
                assert last <= got, (tau, gamma, scale, got, last)
                over.append(got - last)
    assert max(over) <= {"no-zeros": 2, "even": 17}[parity]


def _bisected_crossing(c, tol, most):
    """The crossing as ``anova._crossing`` found it before its scan: with
    gamma > 0, 64 bisections of [last degree, most] to the spacing of
    doubles, the rest as there."""
    k = np.arange(max(c.size // 2, 1), c.size)
    if k.size < 2:
        return math.inf
    y = np.log(np.maximum(np.maximum(c[k - 1], c[k]), np.finfo(float).tiny))
    target = math.log(tol) if tol > 0 else -math.inf
    if k.size > 2:
        (a, b, gamma), *_ = np.linalg.lstsq(np.stack(
            [np.ones(k.size), k, [-math.lgamma(j + 1.0) for j in k]], axis=1),
            y, rcond=None)
        if gamma > 0:
            def above(t):
                return a + b * t - gamma * math.lgamma(t + 1.0) > target

            lo, hi = float(k[-1]), max(float(most), float(k[-1]))
            if above(hi):
                return math.inf
            if not above(lo):
                return lo
            for _ in range(64):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if above(mid) else (lo, mid)
            return hi
    at, level = k.mean(), y.mean()
    slope = float((k - at) @ (y - level)) / float((k - at) @ (k - at))
    if not slope < 0:
        return math.inf
    return at + (target - level) / slope


@pytest.mark.parametrize("parity", list(PARITY_ZEROS))
def test_the_scan_gives_the_nodes_of_the_bisection(parity):
    # the grid of test_the_crossing_falls_at_or_past_the_true_degree, at
    # the engine's default order and at its own: the integer scan and the
    # bisection it replaced give the same nodes past the crossing
    for tau in (0.3, 1.0, 2.0, 4.0):
        for gamma in (0.0, 0.5, 1.0):
            logs = _log_decay(tau, gamma, 4000)
            if PARITY_ZEROS[parity]:
                logs[PARITY_ZEROS[parity]] = -np.inf
            c = np.exp(logs[:16])
            for scale in (1e-3, 1e-6, 1e-9, 1e-12):
                tol = scale * c[-2:].max()
                for most in (64, logs.size):
                    want = _bisected_crossing(c, tol, most)
                    got = anova._crossing(c, tol, most)
                    assert anova._nodes_past(got, most) \
                        == anova._nodes_past(want, most), \
                        (tau, gamma, scale, most, got, want)


def test_no_decay_reaches_a_zero_tolerance():
    # a subnormal model's rms(w_v), and so its table's tolerance, is 0
    for gamma in (0.0, 1.0):
        c = np.exp(_log_decay(0.3, gamma, 16))
        assert anova._crossing(c, 0.0, 64) == math.inf


# -- per-axis orders: an axis a rung resolves stops climbing ------------------

# the fewest nodes whose coefficient tail (the last quarter of the degrees,
# at least two) starts above degree d
CAPPED_NODES = {1: 4, 2: 5, 3: 6, 4: 7, 5: 8, 6: 9}
# the nodes that cos x2 takes from its decay: at most two past the cap of 27
# that the rung they settle reads on a uniform x1, and more as p grows at
# the far Hermite nodes of a normal x1, over which each of x2's
# coefficients is the largest
COS_NODES = {"uniform": {1: 27, **{d: 29 for d in range(2, 7)}},
             "normal": {1: 29, 2: 29, 3: 30, 4: 30, 5: 31, 6: 33}}


@pytest.mark.parametrize("comp", [Uniform(-1.0, 2.0), Normal(0.5, 0.8)],
                         ids=["uniform", "normal"])
@pytest.mark.parametrize("d", sorted(CAPPED_NODES))
def test_a_polynomial_axis_takes_the_nodes_its_degree_needs(d, comp):
    # g = p(x1) cos x2 + sin x3 with p = 1 + t + ... + t^d: x2 and x3 go
    # from 16 to the nodes their decay predicts, x1 stops at the fewest
    # nodes whose tables stay resolved
    model = CompositeMultilinearModel(
        factors=(np.polynomial.Polynomial(np.ones(d + 1)), np.cos, np.sin),
        terms=((1, 2), (3,)))
    measure = ProductMeasure((comp, Normal(0.0, 1.0), Uniform(-1.0, 2.0)))
    eng = AnovaEngine(model, measure)
    vd = eng.variance_decomposition()
    family = "normal" if isinstance(comp, Normal) else "uniform"
    assert eng.nodes[0].size == CAPPED_NODES[d]
    assert eng.order == eng.nodes[1].size == COS_NODES[family][d]
    for z in all_subsets(3):
        assert abs(vd.terms[z] - model.exact_term_variance(measure, z)) \
            <= 1e-12 * vd.total, z


def test_a_smooth_axis_is_capped_by_its_coefficient_tail():
    # sin x1 on mu3's [0, pi] is no polynomial, but 16 nodes see its
    # coefficients fall below the tolerance past degree 10: x1 takes 14
    eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu3"])
    vd = eng.variance_decomposition()
    assert eng.order == 21 and [x.size for x in eng.nodes] == [14, 21, 7]
    mean, total, terms = ref.exact_decomposition("mu3")
    assert abs(vd.mean - mean) <= 1e-12 * mean
    assert abs(vd.total - total) <= 1e-12 * total
    for z in all_subsets(3):
        assert abs(vd.terms[z] - terms.get(z, 0.0)) <= 1e-12 * total, z


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(anova.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_no_scipy_module_is_loaded_by_the_package_or_a_tensor_run(tmp_path):
    cfg = tmp_path / "measures.yaml"
    cfg.write_text(ref.MEASURES_YAML)
    code = "\n".join([
        "import sys",
        "def scipy():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "import mixsens",
        "assert not scipy(), scipy()",
        "import mixsens.cli",
        "assert not scipy(), scipy()",
        "from mixsens.anova import AnovaEngine",
        "from mixsens.measures import Normal, ProductMeasure",
        "normals = ProductMeasure((Normal(0.0, 1.0),) * 3)",
        "vd = AnovaEngine(lambda x: x.sum(axis=-1), normals, order=8)"
        ".variance_decomposition()",
        "assert abs(vd.total - 3.0) < 1e-12",
        "assert not scipy(), scipy()",
        f"assert mixsens.cli.main(['analyze', '--model', 'ishigami', "
        f"'--measures', {str(cfg)!r}, '--prior', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0",
        "assert not scipy(), scipy()",
        # five inputs, on a settled grid
        "eng = AnovaEngine(lambda x: x.sum(axis=-1) + 1.0,",
        "                  ProductMeasure((Normal(0.0, 1.0),) * 5))",
        "vd = eng.variance_decomposition()",
        "assert abs(vd.mean - 1.0) < 1e-12 and abs(vd.total - 5.0) < 1e-12",
        "assert not scipy(), scipy()"])
    _run_python(code)


def test_a_four_normal_decomposition_loads_no_scipy():
    _run_python("\n".join([
        "import sys",
        "from mixsens import anova",
        "from mixsens.measures import Normal, ProductMeasure",
        "normals = ProductMeasure((Normal(0.0, 1.0),) * 4)",
        "for order in (8, anova.DEFAULT_ORDER):",
        "    eng = anova.AnovaEngine(lambda x: x.sum(axis=-1), normals,",
        "                            order=order)",
        "    vd = eng.variance_decomposition(max_order=2)",
        "    assert abs(vd.total - 4.0) < 1e-12",
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not scipy, scipy"]))


# -- metamorphic: an affine map of the model ---------------------------------

def _tiny_model(coeff, power, n):
    """coeff * x_n^power on n Uniform(-1, 2) inputs: E[g^2] is as tiny as
    ``coeff`` makes it."""
    factors = (np.polynomial.Polynomial([1.0]),) * (n - 1) \
        + (np.polynomial.Polynomial([0.0] * power + [1.0]),)
    return (CompositeMultilinearModel(factors=factors, terms=({n},),
                                      coeffs=(coeff,)),
            ProductMeasure((Uniform(-1.0, 2.0),) * n))


@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(),
       a=st.floats(0.1, 10.0).flatmap(lambda m: st.sampled_from((m, -m))),
       beta=st.floats(-10.0, 10.0))
# models whose E[g^2] is subnormal have no variance to split
@example(case=_tiny_model(8.53e-159, 1, 2), a=0.5, beta=0.0)
@example(case=_tiny_model(8.53e-159, 0, 1), a=0.5, beta=0.0)
@example(case=_tiny_model(1.68e-159, 1, 1), a=2.0, beta=0.0)
# V = 7.5e-307 is normal, but a^2 V under a = 0.1 is subnormal
@example(case=_tiny_model(1e-153, 1, 1), a=0.1, beta=0.0)
# g = 0.875 + 9.5e-8 x3^2: V = 1.0829e-14 against E[g^2] = 0.766 once lay
# under a zero-variance gate sized to uncentred terms; the centred gate
# gives g and g + b their indices
@example(case=(CompositeMultilinearModel(
    factors=(np.polynomial.Polynomial([-1.1920929e-07]),
             np.polynomial.Polynomial([0.0]),
             np.polynomial.Polynomial([0.0, 0.0, 0.53125])),
    terms=((), (), (), (1, 3)), coeffs=(0.0, 0.0, 0.875, -1.5)),
    ProductMeasure((Uniform(-1.0, 2.0),) * 3)), a=1.0, beta=1.0)
# g = 1 + 1e-6 x3: a * g rounds at the scale of its mean, and V_3 moves by
# 1.5e-11 a^2 V, far above a fixed 1e-12 and far below 1e-12 sqrt(cond)
@example(case=(CompositeMultilinearModel(
    factors=tuple(np.polynomial.Polynomial(c) for c in
                  ([1.0], [1.0], [1.0, 1e-6])),
    terms=((3,),), coeffs=(1.0,)),
    ProductMeasure((Uniform(-1.0, 2.0),) * 3)), a=0.109375, beta=0.0)
def test_affine_model_keeps_indices_and_scales_variances(case, a, beta):
    model, measure = case
    vd = AnovaEngine(model, measure, order=16).variance_decomposition()
    try:
        s = vd.sobol_indices()
    except ZeroVarianceError:
        assume(False)
    # a * g must keep a variance to split: a^2 V must not underflow
    assume(a * a * vd.total >= np.finfo(float).tiny)
    # the shift is on the model's own scale, so it does not swamp g
    b = beta * abs(a) * math.sqrt(vd.total)
    vd2 = AnovaEngine(lambda x: a * model(x) + b, measure,
                      order=16).variance_decomposition()
    s2 = vd2.sobol_indices()
    # every V_z is centred, but a * g + b is rounded at the scale of its
    # mean, an error of eps |mean| that moves V_z by about 2 eps |mean|
    # sqrt(V_z): the V_z lose the digits of sqrt(E[g^2] / V) (1 for a
    # centred model), so the bound is 1e-12 times the square root of that
    # condition number, the larger of the two models'
    cond = max((d.total + d.mean ** 2) / d.total for d in (vd, vd2))
    for z, v in vd.terms.items():
        assert abs(vd2.terms[z] - a * a * v) \
            <= 1e-12 * math.sqrt(cond) * a * a * vd.total, z
        assert abs(s2[z] - s[z]) <= 1e-12 * math.sqrt(cond), z


def _product(*factors):
    """The zero-mean product of ``factors`` (callables), one per input."""
    return CompositeMultilinearModel(factors=factors,
                                     terms=(tuple(range(1, len(factors) + 1)),))


LINEAR = np.polynomial.Polynomial([0.0, 1.0])


@settings(max_examples=15, deadline=None)
@given(case=multilinear_models())
@example(case=(_product(LINEAR, LINEAR, LINEAR), CUBE))
@example(case=(_product(lambda t: np.sin(3.0 * t), LINEAR, LINEAR), CUBE))
@example(case=(CompositeMultilinearModel(factors=(LINEAR,) * 3,
                                         terms=((1,), (2, 3))), CUBE))
def test_a_power_of_two_times_the_model_keeps_every_decision(case):
    # 2^k g has the centred grid of g times 2^k, which _sweep scales back
    # exactly: the same caps, the same nodes, the same model calls, and
    # every S_z to the bit, while V and every V_z scale by 4^k
    model, measure = case
    runs = {}
    for k in (-500, -200, 0, 200, 500):
        counted = _Batches(lambda x, k=k: np.ldexp(model(x), k))
        eng = AnovaEngine(counted, measure)
        got = eng.variance_decomposition()
        runs[k] = [x.size for x in eng.nodes], counted.sizes, got
    vd = runs[0][2]
    try:
        vd.sobol_indices()
    except ZeroVarianceError:
        assume(False)
    # 4^k V stays in the float range
    assume(1e-3 <= vd.total <= 1e6)
    want = {z: v.hex() for z, v in vd.sobol_indices().items()}
    for k, (nodes, sizes, got) in runs.items():
        assert nodes == runs[0][0] and sizes == runs[0][1], k
        assert {z: v.hex() for z, v in got.sobol_indices().items()} == want, k
        assert got.total == math.ldexp(vd.total, 2 * k), k


def test_a_variance_beyond_the_float_range_is_named():
    # s (x1 + x2 x3) on U(0, 1)^3: at s = 1e160 V overflows, at 1e-200 it
    # underflows; both settle on the grid of s = 1, and neither warns
    model = CompositeMultilinearModel(factors=(LINEAR,) * 3,
                                      terms=((1,), (2, 3)))
    cube = ProductMeasure((Uniform(0.0, 1.0),) * 3)
    plans = []
    for s in (1.0, 1e160, 1e-200):
        counted = _Batches(lambda x, s=s: s * model(x))
        eng = AnovaEngine(counted, cube)
        eng.mean()
        plans.append(([x.size for x in eng.nodes], sum(counted.sizes)))
        if s > 1.0:
            with pytest.raises(OverflowError, match="total variance V = "):
                eng.variance_decomposition()
        elif s < 1.0:
            with pytest.raises(ZeroVarianceError, match="V = 0.0 is "):
                eng.variance_decomposition().sobol_indices()
    assert plans == [([4, 4, 4], 576)] * 3


def test_the_total_keeps_its_digits_under_a_large_mean():
    # mean -2.02 against V = 1.9e-8: a total taken as E[g^2] - mean^2 loses
    # 8 of V's digits; centred, it keeps all but rounding
    model = CompositeMultilinearModel(
        factors=(np.polynomial.Polynomial([-0.49945981]),
                 np.polynomial.Polynomial([1e-4, 1e-12]),
                 np.polynomial.Polynomial([-0.86854202, 1.14158557,
                                           1.10796981])),
        terms=((), (1,), (2, 3), (2, 3)), coeffs=(-1.383, 1.279, 1.449, -0.781))
    measure = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                              Uniform(-1.0, 2.0)))
    vd = AnovaEngine(model, measure, order=16).variance_decomposition()
    exact = sum(model.exact_term_variance(measure, z) for z in all_subsets(3))
    assert abs(vd.total - exact) <= 1e-13 * exact


# -- conditional means at points, read off the quadrature tables -------------

def _direct_gap(eng, v, x):
    """max |_w_at - conditional_mean| over the rows of x, relative to the
    largest direct value."""
    got, want = eng._w_at(v, x), eng.conditional_mean(v, x)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))),
                                                   1e-300)


@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(), order=st.sampled_from((8, 16, 32)),
       seed=st.integers(0, 2**32 - 1))
def test_table_means_match_direct_means(case, order, seed):
    model, measure = case
    eng = AnovaEngine(model, measure, order=order)
    # rows over the bulk of every coordinate, some outside a uniform support
    x = np.random.default_rng(seed).uniform(-2.0, 3.0, size=(40, model.n))
    for v in all_subsets(model.n):
        assert _direct_gap(eng, v, x[:, [i - 1 for i in v]]) <= 1e-9, v


@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(inputs=st.integers(2, 4)), data=st.data())
def test_each_conditional_mean_is_a_slice_of_the_grids_coefficients(case, data):
    # one discrete axis: no subset that holds it is read off the grid, but
    # the direct rules take their tolerance from its rms; every other proper
    # subset is read at its own Gauss nodes, where the gate accepts.  w_v
    # carries the rounding of E[|g| | X_v], not of its own size (a mean or
    # an effect that cancels); an error e moves E[w_v^2] by at most
    # e (2 rms + e); a subnormal value or square has lost its digits
    model, measure = case
    comps = list(measure.components)
    comps[data.draw(st.integers(0, model.n - 1))] = DiscreteUniform(
        (-1.0, 0.5, 2.0))
    eng = AnovaEngine(model, ProductMeasure(tuple(comps)))
    eng.mean()
    grid = model(_tensor_points(eng.nodes)).reshape(eng._sizes)
    for v in all_subsets(model.n)[:-1]:
        off = [None if i in v else x for i, x in enumerate(eng.weights, 1)]
        w = ref.contract(grid, off)
        size = float(np.max(ref.contract(np.abs(grid), off)))
        second = float(ref.contract(w ** 2, [eng.weights[i - 1] for i in v]))
        rms, e = math.sqrt(second), 1e-13 * size
        assert abs(eng._rms(v) ** 2 - second) <= max(e * (2 * rms + e),
                                                     np.finfo(float).tiny), v
        # the same as mean^2 plus the sum of squares of C's slice zero off v
        # (C holds the coefficients of the grid scaled by 2^-scale)
        _, mean, coeffs, _, scale = eng._sweep()
        at = tuple(slice(None) if i in v else 0 for i in range(1, model.n + 1))
        assert abs(eng._rms(v) ** 2 - mean ** 2 - float(np.sum(np.square(
            np.ldexp(coeffs[at], scale))))) <= max(e * (2 * rms + e),
                                                   np.finfo(float).tiny), v
        *pair, _ = eng._direct_rules(v)
        for _, _, tol in pair:
            assert tol == anova.INTERP_TOL * eng._rms(v), v
        if eng._reads_grid(v):
            ok, values = eng._read(v, _tensor_points([eng.nodes[i - 1]
                                                      for i in v]))
            assert np.all(np.abs(values - w.ravel())[ok] <= max(
                1e-12 * size, np.finfo(float).tiny)), v


class TestTableGate:
    """Rows the tables do not resolve take the direct path."""

    def test_far_normal_tails_go_direct(self):
        # the corners at 8.5 sd, and of the rows within 4 sd those past
        # 3.7 sd on x2, where the settled 45 nodes of x2 leave a tail the
        # gate sees; every row, read or integrated, is within INTERP_TOL
        # rms(w_12) of the closed form
        measure = ishigami_measures()["mu2"]
        eng = AnovaEngine(IshigamiModel(), measure)
        corners = np.array([[a, b] for a in (-8.5, 8.5) for b in (-8.5, 8.5)])
        inner = np.random.default_rng(1).uniform(-4.0, 4.0, size=(50, 2))
        x = np.vstack([corners, inner])
        assert _direct_gap(eng, (1, 2), x) <= 1e-9
        ok, values = eng._read((1, 2), x)
        assert not ok[:4].any()
        assert np.array_equal(ok[4:], np.abs(inner[:, 1]) < 3.7)
        exact = sum(ishigami_effect(measure, z, x[:, [i - 1 for i in z]])
                    for z in ((), (1,), (2,), (1, 2)))
        assert np.all(np.abs(eng._w_at((1, 2), x) - exact)
                      <= anova.INTERP_TOL * eng._rms((1, 2)))
        # interpolated anyway, the corners would miss the target
        raw = values[:4]
        want = eng.conditional_mean((1, 2), corners)
        assert np.max(np.abs(raw - want)) > 1e-9 * np.max(np.abs(want))

    def test_unresolved_table_goes_direct(self):
        # 7 sin^2 x2 under N(0, 1) needs more than 32 Hermite nodes
        eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu2"],
                          order=32)
        x = np.linspace(-4.0, 4.0, 41)[:, None]
        assert _direct_gap(eng, (2,), x) <= 1e-9
        ok, _ = eng._read((2,), x)
        assert not ok.any()
        # sin x1 is resolved at the same order
        assert eng._read((1,), x)[0].all()

    def test_three_axis_tables(self):
        model = CompositeMultilinearModel(
            factors=tuple(np.polynomial.Polynomial(c) for c in
                          ([0.3, 1.0, -0.5], [1.0, 0.2], [0.0, 1.0, 1.0],
                           [2.0, -1.0])),
            terms=((1, 2, 3), (2, 4), (1, 3, 4), (3,)))
        measure = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                                  Uniform(0.0, 1.0), Normal(0.0, 1.0)))
        eng = AnovaEngine(model, measure, order=10)
        x = np.random.default_rng(4).uniform(-0.5, 1.0, size=(30, 4))
        for v in all_subsets(4, max_order=3):
            assert _direct_gap(eng, v, x[:, [i - 1 for i in v]]) <= 1e-9, v
        # the three-axis read accepts every row in x3's support [0, 1]
        ok, _ = eng._read((1, 3, 4), x[:, [0, 2, 3]])
        assert ok.any() and np.array_equal(ok, x[:, 2] >= 0.0)

    def test_direct_path_is_bit_identical_where_no_table_applies(self):
        def g(x):
            return np.sin(x[..., 0]) * x[..., 1] + x[..., 1] ** 2

        x = np.array([[0.0, 0.2], [1.0, -0.7], [2.0, 0.4]])
        discrete = ProductMeasure((DiscreteUniform((0.0, 1.0, 2.0)),
                                   Uniform(-1.0, 1.0)))
        eng = AnovaEngine(g, discrete)
        asked = [(1,), (), (1, 2)]
        for v in asked:
            xv = x[:, [i - 1 for i in v]]
            assert np.array_equal(eng._w_at(v, xv),
                                  eng.conditional_mean(v, xv)), v
        # none of the subsets asked is read off the grid
        assert not any(eng._reads_grid(v) for v in asked)

    @pytest.mark.parametrize("name", MEASURES)
    def test_tables_read_at_their_own_nodes(self, engines, name):
        # a table read at its own Gauss nodes gives back its entries; on
        # mu2 the outer Hermite nodes of x1 and x2, where the polynomials
        # are large, go direct (x3, a quartic on 7 nodes, needs no tail)
        eng = engines[name]
        eng.mean()
        grid = IshigamiModel()(_tensor_points(eng.nodes)).reshape(eng._sizes)
        for v in all_subsets(3, max_order=2):
            x = _tensor_points([eng.nodes[i - 1] for i in v])
            ok, values = eng._read(v, x)
            want = ref.contract(grid, [None if i in v else w for i, w in
                                       enumerate(eng.weights, 1)]).ravel()
            assert np.max(np.abs(values - want)[ok]) <= 1e-12 * eng._rms(v), v
            assert ok.all() == (name != "mu2" or v == (3,)), v


# -- property: the row gate under functions the tables resolve badly ----------

_GATE_FUNCTIONS = (lambda t: 1.0 / (1.0 + 25.0 * t * t),
                   lambda t: np.abs(t) ** 3,
                   lambda t: np.tanh(4.0 * t),
                   lambda t: t ** 8,
                   lambda t: np.exp(0.5 * t),
                   lambda t: np.sin(5.0 * t))


def test_gate_accepts_only_rows_within_the_target():
    # g = f(x1) (1 + cos(x2) / 2) + f(x2), both inputs under one measure: a
    # row the gate accepts is within INTERP_TOL of the direct integral, out
    # to 12 sd on a normal axis, where the table is far from resolved
    worst = 0.0
    for f in _GATE_FUNCTIONS:
        def g(x, f=f):
            return f(x[..., 0]) * (1.0 + 0.5 * np.cos(x[..., 1])) + f(x[..., 1])

        for comp in (Uniform(-1.0, 1.0), Uniform(0.0, 3.0), Normal(0.0, 1.0),
                     Normal(1.0, 0.5)):
            span = comp.plot_range() if isinstance(comp, Uniform) else \
                (comp.mean_ - 12.0 * comp.sd, comp.mean_ + 12.0 * comp.sd)
            x = np.linspace(*span, 301)[:, None]
            for order in (8, 16, 32, 64):
                eng = AnovaEngine(g, ProductMeasure((comp, comp)), order=order)
                eng.variance_decomposition()
                for v in ((1,), (2,)):
                    ok, values = eng._read(v, x)
                    if ok.any():
                        err = np.abs(values[ok] - eng.conditional_mean(v, x[ok]))
                        worst = max(worst, float(err.max()) / eng._rms(v))
    assert worst <= 1e-9, worst


class TestLastCallMemo:
    """``_w_at`` computes w_v at a set of rows once per subset."""

    def test_a_new_row_count_is_a_new_call(self):
        eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu1"])
        x = np.random.default_rng(5).uniform(-PI, PI, size=(1000, 2))
        for n in (96, 1000, 96):
            got = eng.conditional_means((1, 2), x[:n])
            assert set(got) == {(), (1,), (2,), (1, 2)}
            assert all(w.shape == (n,) for w in got.values())
            # an (n, 0) array has the same (empty) bytes for every n
            assert eng.conditional_means((), x[:n, :0])[()].shape == (n,)

    def test_writing_into_a_result_does_not_change_the_next(self):
        # across the engines of one set, which share the full subset's rows
        model = IshigamiModel()
        engines = component_engines(ishigami_measure_set(), model)
        x = np.random.default_rng(6).uniform(-2.0, 2.0, size=(50, 3))
        want = [eng.conditional_means((1, 2, 3), x) for eng in engines]
        kept = [{v: w.copy() for v, w in got.items()} for got in want]
        assert all(np.array_equal(k[(1, 2, 3)], model(x)) for k in kept)
        for _ in range(2):
            for eng, k in zip(engines, kept):
                for v, w in eng.conditional_means((1, 2, 3), x).items():
                    assert np.array_equal(w, k[v]), v
                    w[:] = np.nan
        for got in want:
            for w in got.values():
                w += 1.0
        for eng, k in zip(engines, kept):
            for v, w in eng.conditional_means((1, 2, 3), x).items():
                assert np.array_equal(w, k[v]), v

    def test_a_new_order_empties_the_memo(self):
        eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu3"])
        x = np.random.default_rng(7).uniform(0.0, PI, size=(20, 2))
        eng.conditional_means((1, 3), x)
        assert set(eng._w_last) == {(), (1,), (3,), (1, 3)}
        eng._use_order(eng.order)
        assert not eng._w_last

    def test_a_new_order_keeps_the_model_at_the_rows(self):
        # w of all inputs is g itself at every order: no second model call
        calls = []

        def model(x):
            calls.append(len(x))
            return IshigamiModel()(x)

        eng = AnovaEngine(model, ishigami_measures()["mu3"])
        eng.variance_decomposition()
        x = np.random.default_rng(8).uniform(0.0, PI, size=(20, 3))
        want = eng.conditional_means((1, 2, 3), x)[(1, 2, 3)]
        eng._use_order(eng.order)
        calls.clear()
        assert np.array_equal(eng._w_at((1, 2, 3), x), want)
        assert not calls


# -- direct conditional means of a settled engine: a pair of lower rules ------

def _coupled(x):
    return np.exp(0.5 * x[:, 0]) * np.cos(x[:, 1]) + np.cos(x[:, 0] * x[:, 2])


def _reference_mean(model, measure, v, x, order=160):
    """(w_v, E|g| given X_v) at the rows of x by a tensor Gauss rule of
    ``order`` nodes on every coordinate of v's complement."""
    comp = [i for i in range(1, measure.n + 1) if i not in v]
    rules = [measure.components[i - 1].quad_nodes(order) for i in comp]
    pts = _tensor_points([r[0] for r in rules])
    w = np.prod(_tensor_points([r[1] for r in rules]), axis=-1)
    block = np.empty((x.shape[0], pts.shape[0], measure.n))
    block[:, :, [i - 1 for i in v]] = x[:, None, :]
    block[:, :, [i - 1 for i in comp]] = pts[None]
    g = model(block.reshape(-1, measure.n)).reshape(x.shape[0], -1)
    return g @ w, np.abs(g) @ w


MIXED = (Uniform(-1.0, 2.0), Normal(0.5, 0.8), Uniform(0.0, PI),
         Normal(0.5, 0.7))


@st.composite
def coupled_models(draw):
    comps = tuple(draw(st.sampled_from(MIXED)) for _ in range(3))
    return _coupled, ProductMeasure(comps)


@pytest.mark.parametrize("cases", [multilinear_models(), coupled_models()],
                         ids=["multilinear", "coupled"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_direct_means_of_a_settled_engine_match_a_reference_rule(cases, data):
    # every row from 2 units below to 2 units above each plot range, inside
    # and outside a uniform support, against 160 nodes a coordinate; the
    # allowance of 1e-12 of the row's absolute integral is for rounding,
    # where w_v cancels to far below the model's own size, and the floor at
    # the smallest normal double for a subnormal model, whose squares (and
    # so its table's RMS) underflow
    model, measure = data.draw(cases)
    eng = AnovaEngine(model, measure)
    eng.mean()
    assume(eng._halves is not None)
    for v in all_subsets(measure.n):
        if len(v) == measure.n:
            continue
        x = _tensor_points([np.linspace(lo - 2.0, hi + 2.0, 9) for lo, hi in
                            (measure.components[i - 1].plot_range() for i in v)])
        want, size = _reference_mean(model, measure, v, x)
        gap = np.abs(eng.conditional_mean(v, x) - want)
        assert np.all(gap <= anova.INTERP_TOL * eng._rms(v)
                      + 1e-12 * size + np.finfo(float).tiny), v


COUPLED_MEASURE = ProductMeasure((Uniform(0.0, PI), Normal(0.5, 0.7),
                                  Uniform(-PI, PI)))


def test_a_row_the_lower_rules_disagree_on_takes_the_settled_nodes():
    # 2.5 units past x1's support cos(x1 x3) oscillates faster in x3 than
    # on the grid, and the h-node rule alone misses the reference
    eng = AnovaEngine(_coupled, COUPLED_MEASURE)
    eng.mean()
    assert eng.order < anova.DEFAULT_ORDER and eng._halves is not None
    near, far = np.array([[PI + 0.5]]), np.array([[PI + 2.5]])
    (pts, weights, tol), _ = eng._direct_rules((1,))
    assert tol == anova.INTERP_TOL * eng._rms((1,))
    pair = {}
    for name, x in (("near", near), ("far", far)):
        block = np.column_stack([np.full(len(pts), x[0, 0]), pts])
        pair[name] = _coupled(block) @ weights
    assert abs(pair["near"][0] - pair["near"][1]) <= tol
    assert abs(pair["far"][0] - pair["far"][1]) > tol
    want, _ = _reference_mean(_coupled, COUPLED_MEASURE, (1,), far)
    assert abs(pair["far"][0] - want[0]) > tol
    settled = AnovaEngine(_coupled, COUPLED_MEASURE)
    settled.mean()
    settled._halves = None          # every row at the settled nodes
    got = eng.conditional_mean((1,), np.vstack([near, far]))
    assert got[0] == pytest.approx(pair["near"][0], rel=1e-15)
    assert np.array_equal(got[1:], settled.conditional_mean((1,), far))
    assert abs(got[1] - want[0]) <= tol


def test_a_direct_row_costs_the_pair_of_lower_rules():
    # mu1 settles with nodes (21, 29, 7); at that rung x1 is capped at 21
    # and x2 at 27, so a row of x3 outside [-pi, pi] takes 11 x 14 plus
    # 10 x 13 points, where the settled nodes take 21 x 29 = 609
    model = _Batches(IshigamiModel())
    eng = AnovaEngine(model, ishigami_measures()["mu1"])
    eng.mean()
    assert [x.size for x in eng.nodes] == [21, 29, 7]
    assert eng._halves == [11, 14, 4]
    x = np.array([[-4.0], [3.5], [4.0]])
    model.sizes.clear()
    got = eng.conditional_mean((3,), x)
    assert sum(model.sizes) == 3 * (11 * 14 + 10 * 13) == 3 * 284
    eng._halves = None
    model.sizes.clear()
    want = eng.conditional_mean((3,), x)
    assert sum(model.sizes) == 3 * 21 * 29 == 3 * 609
    assert np.all(np.abs(got - want) <= anova.INTERP_TOL * eng._rms((3,)))


def test_building_an_engine_computes_no_polynomials(monkeypatch):
    # an engine asks its input families for their polynomials and maps to
    # coefficients only once it sweeps a grid, never while it is built
    def refuse(*args):
        raise AssertionError("polynomials computed while building an engine")

    for cls in (Uniform, Normal, DiscreteUniform):
        for name in ("poly", "to_coeffs"):
            monkeypatch.setattr(cls, name, refuse)
    discrete = ProductMeasure((DiscreteUniform((0.0, 1.0, 2.0)),
                               Uniform(0.0, 1.0), Normal(0.0, 1.0)))
    for measure in (*ishigami_measures().values(), discrete):
        AnovaEngine(IshigamiModel(), measure)
    monkeypatch.undo()
    # two engines on equal measures read the same read-only maps, each
    # computed once per (measure, nodes)
    calls = {}
    real = Uniform.to_coeffs

    def spy(self, s):
        calls[owner].append(real(self, s))
        return calls[owner][-1]

    monkeypatch.setattr(Uniform, "to_coeffs", spy)
    for owner in ("first", "second"):
        calls[owner] = []
        AnovaEngine(IshigamiModel(), ishigami_measures()["mu1"]).effect(
            (1,), np.array([[0.3]]))
    assert calls["first"] and len(calls["first"]) == len(calls["second"])
    for a, b in zip(calls["first"], calls["second"]):
        assert a is b and not a.flags.writeable


# -- rows outside a uniform support: a Legendre table over their span --------

UNIFORMS = (Uniform(-1.0, 2.0), Uniform(0.0, PI), Uniform(-PI, PI),
            Uniform(0.0, 1.0))


def _polynomial(coeffs, powers):
    """g(x) = sum_t coeffs[t] prod_i x_i^powers[t][i]."""
    coeffs, powers = np.asarray(coeffs), np.asarray(powers)
    return lambda x: np.prod(x[:, None, :] ** powers, axis=-1) @ coeffs


@st.composite
def uniform_polynomial_models(draw):
    # up to degree 12 in an input: its tables need more than the probe's 8
    # nodes, and a table of fewer nodes leaves a tail the gate sees; far
    # higher degrees can defeat the tail bound alone (x1^19 on rows across
    # its root, where every coefficient sits below the target: see
    # test_a_table_whose_coefficients_do_not_decay_accepts_no_row)
    n = draw(st.integers(2, 3))
    powers = draw(st.lists(st.lists(st.integers(0, 12), min_size=n,
                                    max_size=n), min_size=1, max_size=4))
    coeffs = draw(st.lists(coef, min_size=len(powers), max_size=len(powers)))
    comps = tuple(draw(st.sampled_from(UNIFORMS)) for _ in range(n))
    return _polynomial(coeffs, powers), ProductMeasure(comps)


@settings(max_examples=25, deadline=None)
@given(case=st.one_of(uniform_polynomial_models(), multilinear_models(
    inputs=st.integers(2, 3), families=st.sampled_from(UNIFORMS))),
       data=st.data())
def test_rows_read_off_a_table_match_their_direct_means(case, data):
    # rows on both sides of every support, 9 to 40 a side, out to two
    # widths past it, read off one table; each row it accepts is within
    # INTERP_TOL rms(w_i) of its direct integral, with 1e-12 of the row's
    # absolute integral for the rounding of the direct value far out, where
    # w_i is far larger than its rms, and a floor at the smallest normal
    # double for a subnormal model
    model, measure = case
    eng = AnovaEngine(model, measure)
    eng.mean()
    for i, comp in enumerate(measure.components, 1):
        lo, hi = comp.support()
        reach = [data.draw(st.floats(0.05, 2.0)) * (hi - lo) for _ in "lr"]
        count = [data.draw(st.integers(9, 40)) for _ in "lr"]
        x = np.concatenate([
            np.linspace(lo - reach[0], lo, count[0], endpoint=False),
            np.linspace(hi, hi + reach[1], count[1] + 1)[1:]])
        ok, values = eng._read_outside((i,), x)
        if ok.any():
            rows = x[ok, None]
            _, size = _reference_mean(model, measure, (i,), rows, order=16)
            gap = np.abs(values[ok] - eng.conditional_mean((i,), rows))
            assert np.all(gap <= anova.INTERP_TOL * eng._rms((i,))
                          + 1e-12 * size + np.finfo(float).tiny), i


def _fast_x1(x):
    return np.sin(40.0 * x[:, 0]) + x[:, 1] * x[:, 2]


def test_a_table_that_does_not_resolve_costs_its_probe():
    # sin 40 x1 over [1.05, 3] needs more nodes than its 40 rows: the
    # probe's 8 direct rows are spent, no sweep follows, and every row
    # takes its direct integral, bit for bit
    model = _Batches(_fast_x1)
    eng = AnovaEngine(model, ProductMeasure((Uniform(0.0, 1.0),) * 3))
    eng.mean()
    x = np.linspace(1.05, 3.0, 40)[:, None]
    model.sizes.clear()
    want = eng.conditional_mean((1,), x)
    direct = sum(model.sizes)
    model.sizes.clear()
    got = eng._w_at((1,), x)
    assert np.array_equal(got, want)
    assert sum(model.sizes) == direct + 8 * direct // 40
    ok, _ = eng._read_outside((1,), x[:, 0])
    assert not ok.any()


@pytest.mark.parametrize("below,above,tables", [(4, 4, 0), (5, 4, 1)])
def test_at_most_eight_rows_outside_the_support_make_no_table(below, above,
                                                               tables):
    # mu3 is uniform on [0, pi]: ``below`` rows below 0 and ``above`` past
    # pi, counted together; more than the probe's 8 make one table of them
    eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu3"])
    eng.mean()
    x = np.concatenate([np.linspace(-1.0, -0.1, below), np.linspace(
        PI + 0.1, PI + 1.0, above), np.linspace(0.0, PI, 5)])[:, None]
    made = []
    real = AnovaEngine._read_outside
    with mock.patch.object(AnovaEngine, "_read_outside", lambda self, v, y: (
            made.append(y.size), real(self, v, y))[1]):
        got = eng._w_at((3,), x)
    assert made == [below + above] * tables
    assert np.all(np.abs(got - eng.conditional_mean((3,), x))
                  <= anova.INTERP_TOL * eng._rms((3,)))


def test_a_table_reads_its_nodes_inside_the_support_off_the_grid():
    # mu3's x3 is uniform on [0, pi], and rows on both sides of it make one
    # table over [-1, pi + 1]: its nodes inside [0, pi] are read off the
    # kept grid, so the model sees only the nodes outside it and the rows
    # the table rejects
    seen = []

    def model(p):
        seen.extend(p[:, 2])
        return IshigamiModel()(p)

    eng = AnovaEngine(model, ishigami_measures()["mu3"])
    eng.mean()
    x = np.concatenate([np.linspace(-1.0, -0.1, 12),
                        np.linspace(PI + 0.1, PI + 1.0, 12)])
    seen.clear()
    got = eng._w_at((3,), x[:, None])
    read = set(seen)
    ok, _ = eng._read_outside((3,), x)
    nodes = Uniform(x.min(), x.max()).quad_nodes(8)[0]
    inside = (nodes >= 0.0) & (nodes <= PI)
    assert inside.any() and ok.any()
    assert read == set(nodes[~inside]) | set(x[~ok])
    assert np.all(np.abs(got - eng.conditional_mean((3,), x[:, None]))
                  <= anova.INTERP_TOL * eng._rms((3,)))


def _tall_powers(x):
    return x[:, 0] ** 19 * x[:, 1] ** 10 * x[:, 2] ** 19


def test_a_table_whose_coefficients_do_not_decay_accepts_no_row():
    # x1^19 on rows across its root, left of x1's support: every coefficient
    # of the table sits below the target, so its tail does too, yet a row
    # read off it was 1.46 targets from the exact x1^19 E[x2^10] E[x3^19].
    # Its tail is not well below its largest coefficient: the rows go
    # direct, and each is within the target
    comps = (Uniform(0.3091, 0.8835), Uniform(-1.8658, 0.5572),
             Uniform(0.0198, 2.8767))
    eng = AnovaEngine(_tall_powers, ProductMeasure(comps))
    eng.mean()
    x = np.linspace(-0.2741, 0.2987, 56)
    ok, _ = eng._read_outside((1,), x)
    assert not ok.any()

    def moment(u, p):
        return (u.hi ** (p + 1) - u.lo ** (p + 1)) / ((p + 1) * (u.hi - u.lo))

    exact = x ** 19 * moment(comps[1], 10) * moment(comps[2], 19)
    assert np.all(np.abs(eng._w_at((1,), x[:, None]) - exact)
                  <= anova.INTERP_TOL * eng._rms((1,)))
