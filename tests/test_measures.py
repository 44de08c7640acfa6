"""Measure objects, mixtures, pooling and the config-file schema."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsens.measures import (ConfigError, DiscreteUniform, MeasureSet,
                              MixtureMeasure, Normal, ProductMeasure,
                              SupportError, Uniform, _gauss_rule,
                              load_measure_set, log_pool,
                              measure_set_from_dict, measure_set_to_dict,
                              substream)

PI = math.pi


def product(*components, name=""):
    return ProductMeasure(tuple(components), name=name)


def three_measure_set(prior=(1 / 3, 1 / 3, 1 / 3)):
    mu1 = product(*(Uniform(-PI, PI),) * 3, name="mu1")
    mu2 = product(*(Normal(0.0, 1.0),) * 3, name="mu2")
    mu3 = product(*(Uniform(0.0, PI),) * 3, name="mu3")
    return MeasureSet((mu1, mu2, mu3), prior=prior)


class TestUnivariateFamilies:
    def test_uniform_basics(self):
        u = Uniform(-1.0, 3.0)
        assert u.mean() == 1.0
        assert u.support() == (-1.0, 3.0)
        assert u.density(0.0) == pytest.approx(0.25)
        assert u.density(5.0) == 0.0
        assert u.cdf(-1.0) == 0.0 and u.cdf(3.0) == 1.0

    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(ConfigError):
            Uniform(2.0, 2.0)

    def test_normal_basics(self):
        nm = Normal(1.0, 2.0)
        assert nm.mean() == 1.0
        assert nm.cdf(1.0) == pytest.approx(0.5)
        # peak density 1/(sd*sqrt(2 pi))
        assert nm.density(1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2 * PI)))
        with pytest.raises(ConfigError):
            Normal(0.0, 0.0)

    def test_quadrature_weights_are_probabilities(self):
        for m in (Uniform(0.0, 2.0), Normal(-1.0, 0.5),
                  DiscreteUniform((0.0, 1.0, 2.0))):
            x, w = m.quad_nodes(32)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.dot(w, x) == pytest.approx(m.mean(), abs=1e-10)

    def test_quadrature_matches_moments(self):
        # Gaussian rules integrate polynomials of degree 2*order-1 exactly
        u = Uniform(0.0, 1.0)
        assert u.expect(lambda x: x**4) == pytest.approx(0.2, abs=1e-14)
        nm = Normal(0.0, 1.0)
        assert nm.expect(lambda x: x**4) == pytest.approx(3.0, abs=1e-10)
        assert nm.expect(lambda x: x**6) == pytest.approx(15.0, abs=1e-9)

    def test_discrete_uniform_is_exact_and_has_no_density(self):
        d = DiscreteUniform((0.0, 0.5, 1.0))
        x, w = d.quad_nodes()
        assert np.allclose(x, [0.0, 0.5, 1.0]) and np.allclose(w, 1 / 3)
        with pytest.raises(NotImplementedError):
            d.density(0.5)
        with pytest.raises(ConfigError):
            DiscreteUniform((1.0, 1.0))


class TestGaussRuleCache:
    """Each (family, order) rule is computed once and shared read-only."""

    @pytest.mark.parametrize("family", ["legendre", "hermite"])
    def test_cached_arrays_are_read_only(self, family):
        t, w = _gauss_rule(family, 8)
        assert _gauss_rule(family, 8)[0] is t
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("order", [8, 64, 96, 128])
    def test_nodes_are_the_uncached_formula_bit_for_bit(self, order):
        u, nm = Uniform(-1.0, 2.0), Normal(0.5, 0.8)
        t, w = np.polynomial.legendre.leggauss(order)
        want_u = (1.5 * t + 0.5, w / 2.0)
        t, w = np.polynomial.hermite.hermgauss(order)
        want_n = (0.5 + 0.8 * math.sqrt(2.0) * t, w / math.sqrt(math.pi))
        for measure, want in ((u, want_u), (nm, want_n)):
            for _ in range(2):           # the first call may fill the cache
                got = measure.quad_nodes(order)
                assert [a.tobytes() for a in got] == \
                    [a.tobytes() for a in want], (measure, order)


class TestProductMeasure:
    def test_density_is_product_of_marginals(self):
        m = product(Uniform(0.0, 1.0), Normal(0.0, 1.0))
        x = np.array([[0.5, 0.0]])
        want = 1.0 * 1.0 / math.sqrt(2 * PI)
        assert m.density(x)[0] == pytest.approx(want)

    def test_sampling_is_seed_deterministic(self):
        m = product(Uniform(0.0, 1.0), Normal(0.0, 1.0), name="demo")
        a = m.sample(100, seed=5)
        bb = m.sample(100, seed=5)
        c = m.sample(100, seed=6)
        assert np.array_equal(a, bb)
        assert not np.array_equal(a, c)
        assert a.shape == (100, 2)

    def test_sample_requires_exactly_one_rng_source(self):
        m = product(Uniform(0.0, 1.0))
        with pytest.raises(ValueError):
            m.sample(10)
        with pytest.raises(ValueError):
            m.sample(10, seed=1, rng=np.random.default_rng(0))

    def test_in_support(self):
        m = product(Uniform(0.0, 1.0), Uniform(0.0, 1.0))
        flags = m.in_support(np.array([[0.5, 0.5], [1.5, 0.5]]))
        assert flags.tolist() == [True, False]


class TestMeasureSet:
    def test_prior_validation(self):
        ms = three_measure_set(prior=None)
        assert ms.prior is None
        with pytest.raises(ConfigError):
            three_measure_set(prior=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            three_measure_set(prior=(-0.1, 0.6, 0.5))
        with pytest.raises(ConfigError):
            three_measure_set(prior=(0.5, 0.5))

    def test_degenerate_prior_with_zero_weight_is_legal(self):
        ms = three_measure_set(prior=(1.0, 0.0, 0.0))
        assert ms.prior == (1.0, 0.0, 0.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            MeasureSet((product(Uniform(0, 1)),
                        product(Uniform(0, 1), Uniform(0, 1))))

    def test_names_and_lookup(self):
        ms = three_measure_set()
        assert ms.names == ("mu1", "mu2", "mu3")
        assert ms.by_name("mu2") is ms.measures[1]
        with pytest.raises(KeyError):
            ms.by_name("nope")


class TestMixtureMeasure:
    def test_requires_prior(self):
        with pytest.raises(ConfigError):
            MixtureMeasure(three_measure_set(prior=None))

    def test_density_is_prior_average(self):
        ms = three_measure_set()
        mix = MixtureMeasure(ms)
        x = np.array([[0.3, 0.7, 1.1], [-2.0, 0.1, 0.2]])
        want = sum(p * m.density(x) for p, m in zip(ms.prior, ms.measures))
        assert np.allclose(mix.density(x), want)

    def test_marginal_density_golden_value(self):
        # x3-marginal at 0: average of 1/(2 pi), phi(0), 1/pi
        mix = MixtureMeasure(three_measure_set())
        got = mix.marginal_density((3,), np.array([[0.0]]))[0]
        assert got == pytest.approx(0.292135703226, abs=1e-10)

    def test_mixing_couples_coordinates(self):
        # component means differ between candidates, so Cov(X1, X2) > 0
        mix = MixtureMeasure(three_measure_set())
        assert mix.covariance(1, 2) == pytest.approx(PI**2 / 18, abs=1e-12)
        with pytest.raises(ValueError):
            mix.covariance(2, 2)

    def test_two_stage_sampling_tracks_the_prior(self):
        mix = MixtureMeasure(three_measure_set(prior=(0.0, 0.0, 1.0)))
        pts = mix.sample(500, seed=3)
        # all mass on mu3 = U(0, pi)^3
        assert pts.min() >= 0.0 and pts.max() <= PI


class TestLogPool:
    def test_uniforms_pool_to_intersection(self):
        ms = MeasureSet((product(Uniform(-1.0, 2.0)), product(Uniform(0.0, 3.0))),
                        prior=(0.5, 0.5))
        pooled = log_pool(ms)
        assert pooled.components[0] == Uniform(0.0, 2.0)

    def test_disjoint_uniforms_raise(self):
        ms = MeasureSet((product(Uniform(0.0, 1.0)), product(Uniform(2.0, 3.0))),
                        prior=(0.5, 0.5))
        with pytest.raises(SupportError):
            log_pool(ms)

    def test_normals_pool_precision_weighted(self):
        ms = MeasureSet((product(Normal(0.0, 1.0)), product(Normal(2.0, 1.0))),
                        prior=(0.5, 0.5))
        c = log_pool(ms).components[0]
        assert c.mean_ == pytest.approx(1.0)
        assert c.sd == pytest.approx(1.0)  # summed precision 0.5+0.5

    def test_unequal_weights_shift_the_pool(self):
        ms = MeasureSet((product(Normal(0.0, 1.0)), product(Normal(2.0, 1.0))))
        c = log_pool(ms, weights=(0.75, 0.25)).components[0]
        assert c.mean_ == pytest.approx(0.5)

    def test_mixed_families_have_no_closed_form(self):
        ms = MeasureSet((product(Uniform(0.0, 1.0)), product(Normal(0.0, 1.0))),
                        prior=(0.5, 0.5))
        with pytest.raises(SupportError):
            log_pool(ms)


class TestConfigSchema:
    def doc(self):
        return {
            "n": 2,
            "measures": [
                {"name": "a", "components": [
                    {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
                    {"family": "normal", "params": {"mean": 0.0, "sd": 2.0}},
                ]},
                {"name": "b", "components": [
                    {"family": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                    {"family": "normal", "params": {"mean": 1.0, "sd": 1.0}},
                ]},
            ],
            "prior": [0.25, 0.75],
        }

    def test_round_trip(self):
        ms = measure_set_from_dict(self.doc())
        assert measure_set_to_dict(ms) == self.doc()

    def test_unknown_fields_rejected_everywhere(self):
        for mutate in (
            lambda d: d.update(extra=1),
            lambda d: d["measures"][0].update(color="red"),
            lambda d: d["measures"][0]["components"][0].update(scale=2),
            lambda d: d["measures"][0]["components"][0]["params"].update(mu=0),
        ):
            d = self.doc()
            mutate(d)
            with pytest.raises(ConfigError, match="unknown"):
                measure_set_from_dict(d)

    def test_missing_fields_rejected(self):
        d = self.doc()
        del d["measures"][0]["components"][1]["params"]["sd"]
        with pytest.raises(ConfigError, match="missing"):
            measure_set_from_dict(d)
        d = self.doc()
        del d["n"]
        with pytest.raises(ConfigError, match="missing"):
            measure_set_from_dict(d)

    def test_component_count_must_match_n(self):
        d = self.doc()
        d["measures"][0]["components"].pop()
        with pytest.raises(ConfigError, match="expected 2 components"):
            measure_set_from_dict(d)

    def test_unknown_family(self):
        d = self.doc()
        d["measures"][0]["components"][0]["family"] = "beta"
        with pytest.raises(ConfigError, match="unknown family"):
            measure_set_from_dict(d)

    def test_duplicate_names(self):
        d = self.doc()
        d["measures"][1]["name"] = "a"
        with pytest.raises(ConfigError, match="duplicate"):
            measure_set_from_dict(d)

    def test_load_from_yaml_file(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(self.doc()))
        ms = load_measure_set(path)
        assert ms.names == ("a", "b") and ms.prior == (0.25, 0.75)

    def test_load_error_carries_the_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("n: 1\nmeasures: []\n")
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_measure_set(path)


def test_substream_determinism_and_separation():
    a = substream(7, "x").standard_normal(4)
    b = substream(7, "x").standard_normal(4)
    c = substream(7, "y").standard_normal(4)
    d = substream(8, "x").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- property-based checks ----------------------------------------------------

finite = st.floats(min_value=-10, max_value=10,
                   allow_nan=False, allow_infinity=False)


@given(lo=finite, width=st.floats(min_value=0.01, max_value=10),
       x=st.floats(min_value=-30, max_value=30))
def test_uniform_cdf_density_consistency(lo, width, x):
    u = Uniform(lo, lo + width)
    assert 0.0 <= u.cdf(x) <= 1.0
    inside = lo <= x <= lo + width
    assert (u.density(x) > 0) == inside


@settings(max_examples=30)
@given(w1=st.floats(min_value=0.05, max_value=0.95),
       pts=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=8))
def test_mixture_density_lies_between_component_densities(w1, pts):
    ms = MeasureSet((product(*(Normal(0.0, 1.0),) * 3, name="a"),
                     product(*(Normal(0.5, 2.0),) * 3, name="b")),
                    prior=(w1, 1.0 - w1))
    mix = MixtureMeasure(ms)
    x = np.asarray(pts, dtype=float)
    da = ms.measures[0].density(x)
    db = ms.measures[1].density(x)
    dm = mix.density(x)
    assert np.all(dm >= np.minimum(da, db) - 1e-15)
    assert np.all(dm <= np.maximum(da, db) + 1e-15)
