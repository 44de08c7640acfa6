"""Built-in models: evaluation, closed-form effects, cores, config loading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsens.anova import all_subsets
from mixsens.measures import ConfigError, Normal, ProductMeasure, Uniform
from mixsens.models import (CompositeMultilinearModel, IshigamiModel,
                            _connected_groups, core_partition, core_signature, ishigami_effect,
                            ishigami_measure_set, ishigami_measures,
                            ishigami_mixture_effect, multilinear_from_dict,
                            resolve_model)

import _reference as ref

PI = math.pi


class TestIshigamiModel:
    def test_matches_the_textbook_form(self):
        model = IshigamiModel()
        rng = np.random.default_rng(0)
        x = rng.uniform(-PI, PI, size=(50, 3))
        direct = np.sin(x[:, 0]) + 7.0 * np.sin(x[:, 1]) ** 2 \
            + 0.1 * x[:, 2] ** 4 * np.sin(x[:, 0])
        assert np.allclose(model(x), direct)

    def test_parameters_propagate(self):
        model = IshigamiModel(a=1.0, b=0.0)
        x = np.array([[PI / 2, PI / 2, 2.0]])
        assert model(x)[0] == pytest.approx(2.0)

    def test_named_measures(self):
        reg = ishigami_measures()
        assert set(reg) == {"mu1", "mu2", "mu3", "mu4", "mu5"}
        assert reg["mu3"].components[0].support() == (0.0, PI)
        ms = ishigami_measure_set(("mu1", "mu2"), prior=(0.5, 0.5))
        assert ms.names == ("mu1", "mu2")
        with pytest.raises(ConfigError):
            ishigami_measure_set(("mu9",))


class TestIshigamiClosedForms:
    """Spot values frozen in tests/_reference.py."""

    def test_constant_terms(self):
        reg = ishigami_measures()
        for name in ("mu1", "mu2", "mu3"):
            got = ishigami_effect(reg[name], (), None)
            assert got == pytest.approx(ref.MEAN[name], abs=1e-9)

    def test_first_order_spot_values(self):
        reg = ishigami_measures()
        g1 = ishigami_effect(reg["mu1"], (1,), np.array([PI / 2]))
        assert g1[0] == pytest.approx(ref.G1_MU1_AT_HALF_PI, abs=1e-9)
        g3 = ishigami_effect(reg["mu3"], (3,), np.array([0.0]))
        assert g3[0] == pytest.approx(ref.G3_MU3_AT_0, abs=1e-9)
        # under symmetric measures E[sin X1] = 0 kills the x3 effect
        assert np.allclose(ishigami_effect(reg["mu1"], (3,), np.array([1.0])), 0.0)

    def test_singleton_accepts_column_vectors(self):
        reg = ishigami_measures()
        flat = ishigami_effect(reg["mu1"], (1,), np.array([0.3, 0.4]))
        col = ishigami_effect(reg["mu1"], (1,), np.array([[0.3], [0.4]]))
        assert np.allclose(flat, col)

    def test_interactions_beyond_13_vanish(self):
        reg = ishigami_measures()
        x = np.array([[0.1, 0.2]])
        assert np.allclose(ishigami_effect(reg["mu1"], (2, 3), x), 0.0)
        assert np.allclose(ishigami_effect(reg["mu1"], (1, 2), x), 0.0)

    def test_reconstruction_from_effects(self):
        # g(x) = sum of the five nonzero effects, for every measure
        model = IshigamiModel()
        reg = ishigami_measures()
        rng = np.random.default_rng(1)
        x = rng.uniform(0, PI, size=(40, 3))
        for name in ("mu1", "mu2", "mu3"):
            m = reg[name]
            total = (ishigami_effect(m, (), None)
                     + ishigami_effect(m, (1,), x[:, 0])
                     + ishigami_effect(m, (2,), x[:, 1])
                     + ishigami_effect(m, (3,), x[:, 2])
                     + ishigami_effect(m, (1, 3), x[:, [0, 2]]))
            assert np.allclose(total, model(x), atol=1e-9)


class TestIshigamiMixtureEffect:
    def test_open_gates_average_the_components(self):
        mset = ishigami_measure_set(prior=ref.PRIOR)
        got = ishigami_mixture_effect(mset, (2,), np.array([0.0]))
        assert got[0] == pytest.approx(ref.MIX_G2_AT_0, abs=1e-9)

    def test_gate_drops_a_component_outside_its_support(self):
        mset = ishigami_measure_set(prior=ref.PRIOR)
        x = np.array([-1.0])  # outside mu3's [0, pi] marginal
        got = ishigami_mixture_effect(mset, (1,), x)
        reg = ishigami_measures()
        want = (ishigami_effect(reg["mu1"], (1,), x)
                + ishigami_effect(reg["mu2"], (1,), x)) / 3.0
        assert got[0] == pytest.approx(want[0], abs=1e-12)

    def test_outside_every_support_is_zero(self):
        mset = ishigami_measure_set(("mu1", "mu3"), prior=(0.5, 0.5))
        assert ishigami_mixture_effect(mset, (1,), np.array([10.0]))[0] == 0.0


class TestCompositeMultilinear:
    def small_model(self):
        return CompositeMultilinearModel(
            factors=(lambda t: t, lambda t: t**2),
            terms=((1,), (1, 2)),
            coeffs=(2.0, 1.0))

    def test_evaluation(self):
        model = self.small_model()
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        want = 2.0 * x[:, 0] + x[:, 0] * x[:, 1] ** 2
        assert np.allclose(model(x), want)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CompositeMultilinearModel(factors=(np.sin,), terms=((1, 1),))
        with pytest.raises(ConfigError):
            CompositeMultilinearModel(factors=(np.sin,), terms=((2,),))
        with pytest.raises(ConfigError):
            CompositeMultilinearModel(factors=(np.sin,), terms=((1,),),
                                      coeffs=(1.0, 2.0))

    def test_exact_effect_annihilates_and_reconstructs(self):
        model = self.small_model()
        measure = ProductMeasure((Uniform(0, 1), Uniform(-1, 1)))
        # annihilation: each effect integrates to ~0 against its own marginal
        for z in ((1,), (2,), (1, 2)):
            for i in z:
                x, w = measure.components[i - 1].quad_nodes(32)
                if len(z) == 1:
                    vals = model.exact_effect(measure, z, x[:, None])
                    assert abs(np.dot(w, vals)) < 1e-12
        # reconstruction at random points
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(25, 2))
        total = model.exact_effect(measure, (), None) \
            + model.exact_effect(measure, (1,), pts[:, [0]]) \
            + model.exact_effect(measure, (2,), pts[:, [1]]) \
            + model.exact_effect(measure, (1, 2), pts)
        assert np.allclose(total, model(pts), atol=1e-12)

    def test_exact_term_variance_formula(self):
        model = self.small_model()
        measure = ProductMeasure((Uniform(0, 1), Uniform(0, 1)))
        m, s2 = model.factor_stats(measure)
        # subset {1}: coefficient is 2 + E[t2], variance scales its square
        want = (2.0 + m[1]) ** 2 * s2[0]
        assert model.exact_term_variance(measure, (1,)) == pytest.approx(want)
        assert model.exact_term_variance(measure, (2,)) == pytest.approx(m[0] ** 2 * s2[1])


class TestCores:
    def test_signatures_match_reference(self):
        model = IshigamiModel()
        reg = ishigami_measures()
        for name, want in ref.SIGNATURE.items():
            got = core_signature(model, reg[name])
            assert np.allclose(got, want, atol=1e-9), name

    def test_same_core_detects_lookalikes(self):
        model = IshigamiModel()

        def same_core(a, b):
            return core_partition(model, ishigami_measure_set((a, b))) == [[0, 1]]

        assert same_core("mu1", "mu4")
        assert same_core("mu1", "mu5")
        assert not same_core("mu1", "mu2")
        assert not same_core("mu1", "mu3")

    def test_partition_of_all_five(self):
        model = IshigamiModel()
        mset = ishigami_measure_set(("mu1", "mu2", "mu3", "mu4", "mu5"))
        assert core_partition(model, mset) == [[0, 3, 4], [1], [2]]

    @settings(max_examples=200, deadline=None)
    @given(adj=st.integers(1, 8).flatmap(lambda n: st.lists(
        st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda bits: np.array(bits).reshape(n, n))))
    def test_connected_groups_are_the_scipy_components(self, adj):
        from scipy.sparse.csgraph import connected_components
        adj = adj | adj.T
        k, labels = connected_components(adj, directed=False)
        want = [np.flatnonzero(labels == c).tolist() for c in range(k)]
        # each group ascending, groups listed by their smallest member
        assert _connected_groups(adj) == sorted(want)

    def test_shared_core_means_equal_effects_on_common_support(self):
        model = IshigamiModel()
        reg = ishigami_measures()
        xs = np.linspace(-PI / 2, PI / 2, 101)  # common support of mu1/mu5 x1
        for z, pts in (((1,), xs), ((3,), xs),
                       ((1, 3), np.column_stack([xs, xs]))):
            a = ishigami_effect(reg["mu1"], z, pts)
            b5 = ishigami_effect(reg["mu5"], z, pts)
            assert np.max(np.abs(a - b5)) < 1e-9


class TestModelConfig:
    def test_multilinear_from_dict(self):
        model = multilinear_from_dict({
            "n": 2,
            "factors": [[0.0, 1.0], [1.0, 0.0, 2.0]],  # t, 1 + 2 t^2
            "terms": [[1], [1, 2]],
            "coeffs": [1.0, 0.5],
        })
        x = np.array([[2.0, 1.0]])
        assert model(x)[0] == pytest.approx(2.0 + 0.5 * 2.0 * 3.0)

    def test_config_factors_match_polynomials_bit_for_bit(self):
        # the factors evaluate their coefficients with polyval and skip the
        # identity domain map of np.polynomial.Polynomial
        import yaml
        from test_cli import MULTILINEAR4_YAML

        doc = yaml.safe_load(MULTILINEAR4_YAML)
        model = multilinear_from_dict(doc)
        old = CompositeMultilinearModel(
            factors=tuple(np.polynomial.Polynomial(c) for c in doc["factors"]),
            terms=doc["terms"], coeffs=doc["coeffs"])
        x = np.random.default_rng(5).normal(0.5, 2.0, size=(4000, 4))
        x[:7] = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e5])[:, None]
        for t, p, col in zip(model.factors, old.factors, x.T):
            assert np.array_equal(t(col).view(np.int64), p(col).view(np.int64))
        assert np.array_equal(model(x).view(np.int64), old(x).view(np.int64))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            multilinear_from_dict({"n": 1, "factors": [[0, 1]],
                                   "terms": [[1]], "shape": "round"})

    def test_resolve_builtin_with_parameters(self):
        model = resolve_model("ishigami:a=5,b=0.2")
        assert model.a == 5.0 and model.b == 0.2
        with pytest.raises(ConfigError):
            resolve_model("ishigami:c=1")

    def test_resolve_model_file(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("n: 1\nfactors: [[0.0, 1.0]]\nterms: [[1]]\n")
        model = resolve_model(str(path))
        assert model(np.array([[3.0]]))[0] == pytest.approx(3.0)

    def test_resolve_missing_file(self):
        with pytest.raises(ConfigError):
            resolve_model("no_such_model.yaml")


# -- property: the closed-form expansion reconstructs any multilinear model ---

coef = st.floats(min_value=-2.0, max_value=2.0,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(c1=st.lists(coef, min_size=2, max_size=4),
       c2=st.lists(coef, min_size=2, max_size=4),
       w=st.tuples(coef, coef, coef),
       seed=st.integers(min_value=0, max_value=10_000))
def test_multilinear_effects_sum_to_the_model(c1, c2, w, seed):
    model = CompositeMultilinearModel(
        factors=(np.polynomial.Polynomial(c1), np.polynomial.Polynomial(c2)),
        terms=((1,), (2,), (1, 2)),
        coeffs=w)
    measure = ProductMeasure((Uniform(-1.0, 1.0), Uniform(0.0, 2.0)))
    pts = measure.sample(20, seed=seed)
    total = model.exact_effect(measure, (), None) \
        + model.exact_effect(measure, (1,), pts[:, [0]]) \
        + model.exact_effect(measure, (2,), pts[:, [1]]) \
        + model.exact_effect(measure, (1, 2), pts)
    assert np.allclose(total, model(pts), atol=1e-10)


# -- property: the oracles read the columns of x in the order of z -----------

COUPLED_TRIPLE = CompositeMultilinearModel(
    factors=(np.sin, lambda t: 1.0 + t ** 2, np.exp),
    terms=((1, 2, 3), (1, 3), (2,)), coeffs=(1.0, -0.7, 0.4))


@settings(max_examples=30, deadline=None)
@given(z=st.sampled_from([z for z in all_subsets(3) if len(z) > 1]).flatmap(
           st.permutations),
       seed=st.integers(0, 2**32 - 1))
def test_the_oracles_read_the_columns_in_the_order_of_z(z, seed):
    # column j of the points holds input z[j]; rows out to +-4 reach past
    # mu1's and mu3's supports, so the mixture's gates see them too
    key = tuple(sorted(z))
    x = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(8, len(key)))
    xz = x[:, [key.index(i) for i in z]]
    reg = ishigami_measures()
    for name in ("mu1", "mu2", "mu3"):
        assert np.array_equal(ishigami_effect(reg[name], z, xz),
                              ishigami_effect(reg[name], key, x)), name
    mset = ishigami_measure_set(prior=ref.PRIOR)
    assert np.array_equal(ishigami_mixture_effect(mset, z, xz),
                          ishigami_mixture_effect(mset, key, x))
    measure = ProductMeasure((Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                              Uniform(0.0, PI)))
    got = COUPLED_TRIPLE.exact_effect(measure, z, xz)
    want = COUPLED_TRIPLE.exact_effect(measure, key, x)
    # the factors multiply in the order of z: a few ulps apart
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
