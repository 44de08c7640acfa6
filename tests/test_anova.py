"""Quadrature ANOVA engine against closed forms and frozen references."""

import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixsens import anova
from mixsens.anova import (AnovaEngine, ZeroVarianceError, _tensor_points,
                           all_subsets, subset_label)
from mixsens.measures import (DiscreteUniform, Normal, ProductMeasure,
                              Uniform)
from mixsens.models import (CompositeMultilinearModel, IshigamiModel,
                            ishigami_effect, ishigami_measures)

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
        assert eng.total_variance() == pytest.approx(ref.TOTAL[name], abs=1e-8)

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
    def test_annihilation(self, engines, name):
        for z in all_subsets(3):
            assert engines[name].annihilation_defect(z) < 1e-9

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

    def test_five_input_model_switches_to_qmc(self):
        # five inputs: each singleton's complement has four continuous
        # coordinates, so each singleton table takes QMC, and with no
        # singleton table on the sweep so do the moments
        measure = ProductMeasure(tuple(Uniform(0, 1) for _ in range(5)))

        def g(x):
            return x[:, 0] + x[:, 1] * x[:, 2] + x[:, 3] ** 2

        eng = AnovaEngine(g, measure, seed=5)
        with mock.patch.object(anova, "QMC_LOG2", 12):
            vd = eng.variance_decomposition(max_order=1)
        assert eng.mode == "qmc" and vd.mode == "qmc"
        # V = 1/12 + Var(X2 X3) + Var(X4^2) = 1/12 + 7/144 + 4/45
        total = 1 / 12 + 7 / 144 + 4 / 45
        assert vd.total == pytest.approx(total, rel=2e-3)
        assert vd.sobol_indices()[(1,)] == pytest.approx((1 / 12) / total,
                                                         abs=5e-3)

    def test_qmc_is_seed_deterministic(self):
        measure = ProductMeasure(tuple(Uniform(0, 1) for _ in range(5)))

        def g(x):
            return x.sum(axis=1)

        a = AnovaEngine(g, measure, seed=9)
        b = AnovaEngine(g, measure, seed=9)
        with mock.patch.object(anova, "QMC_LOG2", 10):
            assert a.variance_decomposition(max_order=1).terms \
                == b.variance_decomposition(max_order=1).terms

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
        # constants: rounding leaves V = 0 or, for 0.7 under mu1, 5.55e-17
        for g, measure in ((lambda x: np.full(len(x), 4.0), unit),
                           (lambda x: np.full(len(x), 0.7), mu1)):
            vd = AnovaEngine(g, measure).variance_decomposition()
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


class TestSubsetUtilities:
    def test_all_subsets_order_and_truncation(self):
        assert all_subsets(3, max_order=1) == [(1,), (2,), (3,)]
        subs = all_subsets(3)
        assert subs[:3] == [(1,), (2,), (3,)]
        assert subs[-1] == (1, 2, 3)
        assert len(subs) == 7
        assert all_subsets(2, nonempty=False)[0] == ()

    def test_labels_round_trip(self):
        assert subset_label(()) == "const"
        assert subset_label((2,)) == "x2"
        assert subset_label((1, 3)) == "x1x3"
        labels = [subset_label(z) for z in all_subsets(4, nonempty=False)]
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
def multilinear_models(draw, inputs=st.integers(min_value=1, max_value=3)):
    n = draw(inputs)
    factors = tuple(np.polynomial.Polynomial(draw(st.lists(coef, min_size=1,
                                                           max_size=3)))
                    for _ in range(n))
    terms = draw(st.lists(st.sets(st.integers(1, n), max_size=n),
                          min_size=1, max_size=4))
    coeffs = draw(st.lists(coef, min_size=len(terms), max_size=len(terms)))
    comps = tuple(draw(st.sampled_from((Uniform(-1.0, 2.0), Normal(0.5, 0.8))))
                  for _ in range(n))
    return CompositeMultilinearModel(factors=factors, terms=terms,
                                     coeffs=coeffs), ProductMeasure(comps)


@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(), seed=st.integers(0, 2**32 - 1))
def test_effects_sum_to_the_model(case, seed):
    model, measure = case
    eng = AnovaEngine(model, measure, order=16)
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(8, model.n))
    total = sum(eng.effect(z, x[:, [i - 1 for i in z]])
                for z in all_subsets(model.n, nonempty=False))
    assert np.allclose(total, model(x), rtol=1e-12, atol=1e-10)


# -- property: effects on the quadrature subgrids equal effects at points ----

@settings(max_examples=25, deadline=None)
@given(case=multilinear_models(), full_grid=st.booleans())
def test_subgrid_effects_match_point_effects(case, full_grid):
    model, measure = case
    # a zero cap sends every subgrid conditional mean to the point kernel
    with mock.patch.object(anova, "FULL_GRID_CAP",
                           anova.FULL_GRID_CAP if full_grid else 0):
        eng = AnovaEngine(model, measure, order=12)
    assert eng._full_grid_ok == full_grid
    for z in all_subsets(model.n):
        got = eng.effect_on_subgrid(z)
        want = eng.effect(z, _tensor_points([eng.nodes[i - 1] for i in z]))
        want = want.reshape(got.shape)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, z


# -- subgrid tables from one sweep over a grid that does not fit --------------

class _Batches:
    """A model that records how many points each call hands it."""

    def __init__(self, model):
        self.model, self.sizes = model, []

    def __call__(self, x):
        self.sizes.append(len(x))
        return self.model(x)


def _capped_engine(model, measure, **kw):
    with mock.patch.object(anova, "FULL_GRID_CAP", 0):
        eng = AnovaEngine(model, measure, **kw)
    assert not eng._full_grid_ok
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
    eng = _capped_engine(model, measure, order=order)
    with mock.patch.object(anova, "BLOCK_POINTS", block):
        eng._fill_subgrid_tables(all_subsets(4))
    # each side sums m complement nodes of values at most max|g| in size, so
    # a table that cancels to zero differs by rounding of m eps max|g|
    scale = np.max(np.abs(model(_tensor_points(eng.nodes))))
    for z in all_subsets(4):
        want = eng.conditional_mean(z, _tensor_points(
            [eng.nodes[i - 1] for i in z])).reshape(eng._subgrid_shape(z))
        gap = np.max(np.abs(eng._w_cache[z] - want))
        m = math.prod(eng._sizes) // math.prod(eng._subgrid_shape(z))
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
    eng = _capped_engine(model, measure, order=6)
    vd = eng.variance_decomposition(max_order=2)
    assert vd.mode == "quadrature"
    # the grid once for all ten tables and both moments
    assert sum(model.sizes) == math.prod(eng._sizes)
    for z in all_subsets(4, max_order=2):
        assert vd.terms[z] == pytest.approx(
            model.model.exact_term_variance(measure, z), abs=1e-3), z


def test_model_calls_stay_within_the_block():
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] * x[:, 3])
    measure = ProductMeasure((Uniform(0.0, 1.0),) * 4)
    eng = _capped_engine(model, measure, order=8)
    x = np.random.default_rng(2).uniform(size=(500, 2))
    with mock.patch.object(anova, "BLOCK_POINTS", 1000):
        eng.variance_decomposition(max_order=2)
        for z in ((1,), (1, 2)):
            eng.effect(z, x[:, :len(z)])
    # the 8^4 grid in boxes of 8^3, the moments included; effects at points,
    # one row times 8^3 complement nodes (singletons) or 15 rows times 8^2
    # (pairs, the last 5 rows in a call of their own); no Sobol points
    assert max(model.sizes) <= 1000
    assert set(model.sizes) == {512, 960, 320}
    # a grid that fits goes to the model in the same boxes, here of 12^2
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] ** 2)
    eng = AnovaEngine(model, ProductMeasure((Uniform(0.0, 1.0),) * 3),
                      order=12)
    assert eng._full_grid_ok
    with mock.patch.object(anova, "BLOCK_POINTS", 200):
        eng.variance_decomposition()
        assert model.sizes == [144] * 12
        eng.effect((1, 2), x)
    assert max(model.sizes) <= 200


@pytest.mark.parametrize("ask", [lambda eng: eng.annihilation_defect((1, 2)),
                                 lambda eng: eng.term_variance((1, 2, 3))],
                         ids=["annihilation_defect", "term_variance"])
def test_a_subset_lattice_costs_one_sweep(ask):
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] * x[:, 3] ** 2)
    eng = _capped_engine(model, ProductMeasure((Uniform(0.0, 1.0),) * 4),
                         order=8)
    ask(eng)
    # every table of the lattice and the mean from one sweep of the 8^4 grid
    assert sum(model.sizes) == 8 ** 4


def test_tables_whose_complement_takes_qmc():
    # five inputs: each singleton's complement has four continuous
    # coordinates (QMC), each pair's three (the sweep)
    model = _Batches(CompositeMultilinearModel(
        factors=tuple(np.polynomial.Polynomial(c) for c in
                      ([0.3, 1.0, -0.5], [1.0, 0.2], [0.0, 1.0, 1.0],
                       [2.0, -1.0], [0.5, 0.5])),
        terms=((1, 2), (2, 4), (1, 3, 4), (3,), (5,), (4, 5))))
    measure = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                              Uniform(0.0, 1.0), Normal(0.0, 1.0),
                              Uniform(-1.0, 1.0)))
    order, log2 = 4, 12
    eng = _capped_engine(model, measure, order=order)
    with mock.patch.object(anova, "QMC_LOG2", log2):
        vd = eng.variance_decomposition(max_order=2)
    assert vd.mode == "qmc"
    # the grid once; per singleton, its Sobol rule at each of its nodes; no
    # singleton table takes the sweep, so the plan gives the moments the
    # Sobol rule over all inputs, once for both
    assert sum(model.sizes) == order ** 5 + 5 * order * 2 ** log2 + 2 ** log2
    # the singleton means carry the QMC error: 5e-4 at most here (seed 0)
    for z in all_subsets(5, max_order=2):
        assert vd.terms[z] == pytest.approx(
            model.model.exact_term_variance(measure, z), abs=1e-3), z


def test_tensor_moments_come_from_the_same_sweep():
    # three continuous inputs: the rule over all of them is the tensor rule
    model = _Batches(lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] ** 2)
    measure = ProductMeasure((Uniform(0.0, 1.0), Normal(0.5, 0.8),
                              Uniform(-1.0, 2.0)))
    eng = _capped_engine(model, measure, order=7)
    with mock.patch.object(anova, "BLOCK_POINTS", 20):
        vd = eng.variance_decomposition()
    assert sum(model.sizes) == 7 ** 3
    assert max(model.sizes) <= 20
    assert vd.mode == "quadrature"
    full = AnovaEngine(model.model, measure, order=7).variance_decomposition()
    assert vd.mean == pytest.approx(full.mean, rel=1e-13)
    assert vd.total == pytest.approx(full.total, rel=1e-13)
    for z, v in full.terms.items():
        assert vd.terms[z] == pytest.approx(v, rel=1e-12, abs=1e-15), z


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


def test_four_input_moments_come_from_the_sweep_at_default_settings():
    eng = AnovaEngine(_plan_model, PLAN_MEASURE)
    assert not eng._full_grid_ok        # 64^4 nodes: swept in boxes
    vd = eng.variance_decomposition(max_order=2)
    assert vd.mode == eng.mode == "quadrature"
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
        eng = _capped_engine(model, PLAN_MEASURE, order=8)
        if mean_first:
            mean = eng.mean()
            # a mean-only call costs one sweep of the 8^4 grid
            assert sum(model.sizes) == 8 ** 4
        vd = eng.variance_decomposition(max_order=2)
        if not mean_first:
            mean = eng.mean()
        assert vd.mode == "quadrature"
        seen.append((mean, vd.mean, vd.total))
    assert seen[0] == seen[1]
    want = PLAN_ORACLE.exact_effect(PLAN_MEASURE, (), None)
    assert abs(seen[0][0] - want) <= 1e-12 * abs(want)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       block=st.integers(1, 100))
def test_box_points_are_the_tensor_points_of_each_box(sizes, block):
    axes = [np.arange(s) + 10.0 * k for k, s in enumerate(sizes)]
    with mock.patch.object(anova, "BLOCK_POINTS", block):
        boxes = [(box, pts.copy()) for box, pts in anova._box_points(axes)]
        assert [box for box, _ in boxes] == list(anova._grid_boxes(sizes))
    for box, pts in boxes:
        assert np.array_equal(pts, _tensor_points(
            [a[s] for a, s in zip(axes, box)]))


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(anova.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_scipy_stats_is_imported_only_for_engines_that_can_need_qmc():
    code = "\n".join([
        "import sys",
        "import mixsens.cli",
        "from mixsens.anova import AnovaEngine",
        "from mixsens.measures import Normal, ProductMeasure",
        "assert 'scipy.stats' not in sys.modules",
        "AnovaEngine(sum, ProductMeasure((Normal(0.0, 1.0),) * 3))",
        "assert 'scipy.stats' not in sys.modules",
        "AnovaEngine(sum, ProductMeasure((Normal(0.0, 1.0),) * 4))",
        "assert 'scipy.stats' not in sys.modules",
        "AnovaEngine(sum, ProductMeasure((Normal(0.0, 1.0),) * 5))",
        "assert 'scipy.stats' in sys.modules"])
    _run_python(code)


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
        "from unittest import mock",
        "from mixsens import anova",
        "from mixsens.anova import AnovaEngine",
        "from mixsens.measures import Normal, ProductMeasure",
        "normals = ProductMeasure((Normal(0.0, 1.0),) * 3)",
        "vd = AnovaEngine(lambda x: x.sum(axis=-1), normals, order=8)"
        ".variance_decomposition()",
        "assert abs(vd.total - 3.0) < 1e-12 and vd.mode == 'quadrature'",
        "assert not scipy(), scipy()",
        f"assert mixsens.cli.main(['analyze', '--model', 'ishigami', "
        f"'--measures', {str(cfg)!r}, '--prior', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0",
        "assert not scipy(), scipy()",
        # the path that needs scipy still loads it and works
        "eng = AnovaEngine(lambda x: x.sum(axis=-1) + 1.0,",
        "                  ProductMeasure((Normal(0.0, 1.0),) * 5))",
        "with mock.patch.object(anova, 'QMC_LOG2', 10):",
        "    assert abs(eng.mean() - 1.0) < 1e-2 and eng.mode == 'qmc'",
        "assert 'scipy.special' in sys.modules"])
    _run_python(code)


def test_a_four_normal_decomposition_loads_no_scipy():
    # whether the 8^4 grid fits or not, no integral of the plan takes QMC
    _run_python("\n".join([
        "import sys",
        "from unittest import mock",
        "from mixsens import anova",
        "from mixsens.measures import Normal, ProductMeasure",
        "normals = ProductMeasure((Normal(0.0, 1.0),) * 4)",
        "for cap in (anova.FULL_GRID_CAP, 0):",
        "    with mock.patch.object(anova, 'FULL_GRID_CAP', cap):",
        "        eng = anova.AnovaEngine(lambda x: x.sum(axis=-1), normals,",
        "                                order=8)",
        "    assert eng._full_grid_ok == bool(cap)",
        "    vd = eng.variance_decomposition(max_order=2)",
        "    assert abs(vd.total - 4.0) < 1e-12 and vd.mode == 'quadrature'",
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
    # V and the V_z come from uncentred moments and conditional means, so
    # they lose the digits of E[g^2] / V (1 for a centred model); the bound
    # is 1e-12 times that condition number, the larger of the two models'
    cond = max((d.total + d.mean ** 2) / d.total for d in (vd, vd2))
    for z, v in vd.terms.items():
        assert abs(vd2.terms[z] - a * a * v) <= 1e-12 * cond * a * a * vd.total, z
        assert abs(s2[z] - s[z]) <= 1e-12 * cond, z


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


class TestTableGate:
    """Rows the tables do not resolve take the direct path."""

    def test_far_normal_tails_go_direct(self):
        eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu2"])
        corners = np.array([[a, b] for a in (-8.5, 8.5) for b in (-8.5, 8.5)])
        inner = np.random.default_rng(1).uniform(-4.0, 4.0, size=(50, 2))
        x = np.vstack([corners, inner])
        assert _direct_gap(eng, (1, 2), x) <= 1e-9
        ok, _ = eng._tables[(1, 2)](x)
        assert not ok[:4].any() and ok[4:].all()
        # interpolated anyway, the corners would miss the target
        table = eng._tables[(1, 2)]
        raw = anova._tensor_eval(table.values,
                                 [a.basis(c) for a, c in zip(table.axes,
                                                             corners.T)])
        want = eng.conditional_mean((1, 2), corners)
        assert np.max(np.abs(raw - want)) > 1e-9 * np.max(np.abs(want))

    def test_unresolved_table_goes_direct(self):
        # 7 sin^2 x2 under N(0, 1) needs more than 32 Hermite nodes
        eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu2"],
                          order=32)
        x = np.linspace(-4.0, 4.0, 41)[:, None]
        assert _direct_gap(eng, (2,), x) <= 1e-9
        ok, _ = eng._tables[(2,)](x)
        assert not ok.any()
        eng._w_at((1,), x)          # sin x1 is resolved at the same order
        assert eng._tables[(1,)](x)[0].all()

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
        assert (1, 3, 4) in eng._tables

    def test_direct_path_is_bit_identical_where_no_table_applies(self):
        def g(x):
            return np.sin(x[..., 0]) * x[..., 1] + x[..., 1] ** 2

        x = np.array([[0.0, 0.2], [1.0, -0.7], [2.0, 0.4]])
        discrete = ProductMeasure((DiscreteUniform((0.0, 1.0, 2.0)),
                                   Uniform(-1.0, 1.0)))
        with mock.patch.object(anova, "FULL_GRID_CAP", 0):
            capped = AnovaEngine(g, ProductMeasure((Uniform(0, 2),
                                                    Normal(0.0, 1.0))))
        for eng, subsets in ((AnovaEngine(g, discrete), [(1,)]),
                             (capped, [(1,), (2,)])):
            for v in subsets + [(), (1, 2)]:
                xv = x[:, [i - 1 for i in v]]
                assert np.array_equal(eng._w_at(v, xv),
                                      eng.conditional_mean(v, xv)), v
            assert not eng._tables
