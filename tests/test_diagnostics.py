"""Dimension distributions, robust rankings and shape diagnostics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixsens.anova import AnovaEngine
from mixsens.diagnostics import (dimension_bounds, dimension_distribution,
                                 mixture_dimension_distribution,
                                 mixture_monotonicity_condition,
                                 monotonicity_check, robust_ranking,
                                 ultramodularity_check)
from mixsens.measures import (ProductMeasure, SupportError, Uniform)
from mixsens.mixture import component_engines
from mixsens.models import IshigamiModel, ishigami_measure_set

import _reference as ref

MEASURES = ("mu1", "mu2", "mu3")


@pytest.fixture(scope="module")
def decompositions():
    mset = ishigami_measure_set(prior=ref.PRIOR)
    engines = component_engines(mset, IshigamiModel())
    return {name: eng.variance_decomposition()
            for name, eng in zip(mset.names, engines)}


class TestDimensionDistribution:
    @pytest.mark.parametrize("name", MEASURES)
    def test_summaries_match_reference(self, decompositions, name):
        dd = dimension_distribution(decompositions[name])
        assert dd.d_s == pytest.approx(ref.D_S[name], abs=1e-9)
        assert dd.d_t == pytest.approx(ref.D_T[name], abs=1e-9)
        assert sum(dd.masses.values()) == pytest.approx(1.0, abs=1e-9)

    def test_masses_are_the_sobol_indices(self, decompositions):
        vd = decompositions["mu1"]
        dd = dimension_distribution(vd)
        s = vd.sobol_indices()
        for z, m in dd.masses.items():
            assert m == pytest.approx(s[z], abs=1e-12)

    def test_additive_model_lives_in_dimension_one(self):
        measure = ProductMeasure((Uniform(0, 1), Uniform(0, 1)))
        eng = AnovaEngine(lambda x: x[:, 0] + 2 * x[:, 1], measure, order=16)
        dd = dimension_distribution(eng.variance_decomposition())
        assert dd.d_s == pytest.approx(1.0, abs=1e-9)
        # superposition dimension 1, but truncation still needs both axes:
        # D_T = 1 * S_1 + 2 * S_2 with S = (1/5, 4/5)
        assert dd.d_t == pytest.approx(1.8, abs=1e-9)

    def test_bounds_across_the_set(self, decompositions):
        vds = [decompositions[n] for n in MEASURES]
        lo_s, hi_s, lo_t, hi_t = dimension_bounds(vds)
        assert lo_s == pytest.approx(ref.D_S["mu2"], abs=1e-9)
        assert hi_s == pytest.approx(ref.D_S["mu1"], abs=1e-9)
        assert lo_t == pytest.approx(ref.D_T["mu1"], abs=1e-9)
        assert hi_t == pytest.approx(ref.D_T["mu3"], abs=1e-9)

    def test_mixture_distribution(self, decompositions):
        vds = [decompositions[n] for n in MEASURES]
        dd = mixture_dimension_distribution(ref.PRIOR, vds)
        for z, want in ref.MIX_MASS.items():
            assert dd.masses[z] == pytest.approx(want, abs=1e-9), z
        assert dd.d_s == pytest.approx(ref.MIX_D_S, abs=1e-9)
        assert dd.d_t == pytest.approx(ref.MIX_D_T, abs=1e-9)
        # summaries commute with the mixing
        assert dd.d_s == pytest.approx(
            sum(p * dimension_distribution(vd).d_s
                for p, vd in zip(ref.PRIOR, vds)), abs=1e-12)

    def test_mixture_needs_matching_prior(self, decompositions):
        with pytest.raises(ValueError):
            mixture_dimension_distribution((0.5, 0.5),
                                           [decompositions["mu1"]])


class TestRobustRanking:
    def s_matrix(self, decompositions):
        return np.array([[decompositions[n].sobol_indices().get((i,), 0.0)
                          for i in (1, 2, 3)] for n in MEASURES])

    def test_second_input_wins_everywhere(self, decompositions):
        rep = robust_ranking(self.s_matrix(decompositions))
        assert rep.most_important == 2
        assert rep.dominates[1, 0] and rep.dominates[1, 2]
        # X1 vs X3 stay entangled across the set, so no robust loser
        assert rep.least_important is None
        assert rep.blocks == [[2], [1, 3]]
        assert not rep.estimated

    def test_interval_endpoints(self, decompositions):
        s = self.s_matrix(decompositions)
        rep = robust_ranking(s)
        assert rep.s_lo == pytest.approx(s.min(axis=0))
        assert rep.s_hi == pytest.approx(s.max(axis=0))

    def test_total_order_when_intervals_separate(self):
        rep = robust_ranking(np.array([[0.7, 0.2, 0.05],
                                       [0.6, 0.3, 0.02]]))
        assert rep.most_important == 1
        assert rep.least_important == 3
        assert rep.blocks == [[1], [2], [3]]

    def test_noise_guard_blocks_thin_margins(self):
        s = np.array([[0.5, 0.3]])
        assert robust_ranking(s).most_important == 1
        guarded = robust_ranking(s, ses=np.array([[0.06, 0.06]]))
        assert guarded.most_important is None
        assert guarded.blocks == [[1, 2]]
        assert guarded.estimated

    def test_se_shape_guard(self):
        with pytest.raises(ValueError):
            robust_ranking(np.array([[0.5, 0.3]]), ses=np.array([[0.1]]))


class TestMonotonicityCheck:
    def test_sine_effect_is_not_monotone_on_the_full_circle(self):
        mset = ishigami_measure_set(("mu1",))
        eng = component_engines(mset, IshigamiModel())[0]
        verdict = monotonicity_check(eng.effect_curve((1,)))
        assert verdict.verdict == "nonmonotone"
        assert verdict.max_violation > 0.1

    def test_same_effect_is_monotone_on_the_half_circle(self):
        mset = ishigami_measure_set(("mu5",))
        eng = component_engines(mset, IshigamiModel())[0]
        verdict = monotonicity_check(eng.effect_curve((1,)))
        assert verdict.verdict == "nondecreasing"

    def test_plain_arrays_and_constants(self):
        assert monotonicity_check([1.0, 2.0, 2.0, 5.0]).nondecreasing
        assert monotonicity_check([3.0, 1.0, 0.5]).verdict == "nonincreasing"
        flat = monotonicity_check([2.0, 2.0, 2.0])
        assert flat.nondecreasing and flat.nonincreasing

    def test_two_dimensional_scan(self):
        x = np.linspace(0, 1, 11)
        surf = x[:, None] + x[None, :] ** 2
        assert monotonicity_check(surf).nondecreasing
        saddle = x[:, None] - x[None, :]
        assert monotonicity_check(saddle).verdict == "nonmonotone"

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            monotonicity_check([1.0])
        with pytest.raises(ValueError, match="at least 2 grid points"):
            monotonicity_check(np.float64(3.0))
        with pytest.raises(ValueError):
            monotonicity_check(np.ones((1, 5)))


class TestUltramodularityCheck:
    @staticmethod
    def quadratic(a):
        return lambda x: np.einsum("ni,ij,nj->n", x, a, x)

    def test_positive_product_is_ultramodular(self):
        for n, grid_k, n_checks in ((2, 7, 1092), (3, 5, 6450), (4, 3, 2376)):
            rep = ultramodularity_check(
                lambda x: x[:, 0] * x[:, 1] + x[:, 0] ** 2, [(0, 1)] * n,
                grid_k=grid_k)
            assert rep.ultramodular, n
            assert rep.n_checks == n_checks, n
            # first-order effects are checked for convexity up to 3 inputs
            assert rep.effect_convex == (
                {i: True for i in range(1, n + 1)} if n <= 3 else None), n

    def test_negative_interaction_is_not(self):
        a = np.array([[1.0, -0.4], [-0.4, 1.0]])  # PSD, negative off-diagonal
        rep = ultramodularity_check(self.quadratic(a), [(0, 1), (0, 1)])
        assert not rep.ultramodular
        assert rep.max_violation > rep.tol

    def test_guards(self):
        with pytest.raises(ValueError):
            ultramodularity_check(lambda x: x[:, 0], [(0, 1)], grid_k=2)
        with pytest.raises(ValueError):
            ultramodularity_check(lambda x: x.sum(axis=1), [(0, 1)] * 5)
        with pytest.raises(ValueError):
            ultramodularity_check(lambda x: x[:, 0], [(1, 0)])
        with pytest.raises(ValueError):
            ultramodularity_check(lambda x: x[:, 0], [(0, 2)],
                                  measure=ProductMeasure((Uniform(0, 1),)))
        with pytest.raises(ValueError, match="3 inputs, box has 2"):
            ultramodularity_check(lambda x: x[:, 0], [(0, 1)] * 2,
                                  measure=ProductMeasure((Uniform(0, 1),) * 3))


class TestMixtureMonotonicityCondition:
    def test_holds_for_an_increasing_additive_family(self):
        def model(x):
            return x[:, 0] + 0.5 * x[:, 0] * x[:, 1]

        from mixsens.measures import MeasureSet
        mset = MeasureSet(measures=(
            ProductMeasure((Uniform(0, 1), Uniform(0, 1)), name="m1"),
            ProductMeasure((Uniform(0, 2), Uniform(0, 2)), name="m2")))
        engines = component_engines(mset, model, order=24)
        rep = mixture_monotonicity_condition(engines, (1,))
        assert rep.holds
        assert set(rep.per_measure) == {"m1", "m2"}

    def test_fails_for_the_sine_family(self):
        mset = ishigami_measure_set(prior=ref.PRIOR)
        engines = component_engines(mset, IshigamiModel())
        rep = mixture_monotonicity_condition(engines, (1,))
        assert not rep.holds
        assert rep.max_violation > rep.tol
        assert set(rep.per_measure) == set(MEASURES)

    def test_no_common_range_raises(self):
        from mixsens.measures import MeasureSet
        mset = MeasureSet(measures=(
            ProductMeasure((Uniform(0, 1),), name="a"),
            ProductMeasure((Uniform(5, 6),), name="b")))
        engines = component_engines(mset, lambda x: x[:, 0])
        with pytest.raises(SupportError):
            mixture_monotonicity_condition(engines, (1,))
        with pytest.raises(ValueError):
            mixture_monotonicity_condition(engines, ())


# -- properties ---------------------------------------------------------------

pos = st.floats(min_value=0.0, max_value=2.0,
                allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(pos, min_size=1, max_size=5))
def test_positive_coefficient_polynomials_are_nondecreasing(coeffs):
    poly = np.polynomial.Polynomial([0.0] + coeffs)
    verdict = monotonicity_check(poly(np.linspace(0.0, 1.0, 65)))
    assert verdict.nondecreasing


@settings(max_examples=25, deadline=None)
@given(off=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       d1=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
       d2=st.floats(min_value=0.1, max_value=2.0, allow_nan=False))
def test_quadratic_ultramodularity_matches_the_sign_rule(off, d1, d2):
    assume(abs(off) > 1e-6)
    a = np.array([[d1, off], [off, d2]])
    rep = ultramodularity_check(
        lambda x: np.einsum("ni,ij,nj->n", x, a, x), [(0, 1), (0, 1)],
        grid_k=5)
    assert rep.ultramodular == (off >= 0)
