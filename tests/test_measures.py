"""Measure objects, the two-stage mixture draw and the config-file schema."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import mixsens
from mixsens.cli import main
from mixsens.measures import (ConfigError, DiscreteUniform, MeasureSet,
                              Normal, ProductMeasure, Uniform, _gauss_rule,
                              load_measure_set, measure_set_from_dict,
                              substream)
from mixsens.mixture import support_indicator
from mixsens.models import resolve_model

from _reference import MEASURES_YAML, two_stage_sample

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
        assert u.expect(lambda t: t) == pytest.approx(1.0, abs=1e-12)
        assert u.support() == (-1.0, 3.0)
        assert u.density(0.0) == pytest.approx(0.25)
        assert u.density(5.0) == 0.0

    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(ConfigError):
            Uniform(2.0, 2.0)

    def test_normal_basics(self):
        nm = Normal(1.0, 2.0)
        assert nm.expect(lambda t: t) == pytest.approx(1.0, abs=1e-12)
        # peak density 1/(sd*sqrt(2 pi))
        assert nm.density(1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2 * PI)))
        with pytest.raises(ConfigError):
            Normal(0.0, 0.0)

    @pytest.mark.parametrize("mean,sd", [(0.0, math.inf), (math.nan, 1.0),
                                         (-math.inf, 1.0), (0.0, math.nan)])
    def test_normal_rejects_a_non_finite_parameter(self, mean, sd):
        # an infinite sd would put Gauss nodes at +-inf, a NaN mean at NaN
        with pytest.raises(ConfigError):
            Normal(mean, sd)

    def test_quadrature_weights_are_probabilities(self):
        for m, mean in ((Uniform(0.0, 2.0), 1.0), (Normal(-1.0, 0.5), -1.0),
                        (DiscreteUniform((0.0, 1.0, 2.0)), 1.0)):
            x, w = m.quad_nodes(32)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.dot(w, x) == pytest.approx(mean, abs=1e-10)

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


class TestOrthonormalPolynomials:
    """Each family's own polynomials and its maps to their coefficients,
    against numpy's Legendre and Hermite_e series as oracles."""

    @pytest.mark.parametrize("s", [2, 7, 16, 24, 32, 48, 64])
    def test_polynomials_and_maps_match_the_oracles(self, s):
        k = np.arange(s)
        norm = np.sqrt([float(math.factorial(j)) for j in k])
        for measure, oracle in (
                (Uniform(-1.0, 2.0), lambda x: np.sqrt(2 * k + 1)
                 * np.polynomial.legendre.legval((x - 0.5) / 1.5,
                                                 np.eye(s)).T),
                (Normal(0.5, 0.8), lambda x: np.polynomial.hermite_e.hermeval(
                    (x - 0.5) / 0.8, np.eye(s)).T / norm)):
            nodes = measure.quad_nodes(s)[0]
            for x in (nodes, np.linspace(*measure.plot_range(), 129)):
                want = oracle(x)
                assert np.all(np.abs(measure.poly(x, s) - want)
                              <= 1e-12 * np.abs(want).max(axis=0)), measure
            got = measure.to_coeffs(s) @ measure.poly(nodes, s)
            assert np.all(np.abs(got - np.eye(s)) <= 1e-12), measure
        # a discrete family's basis is orthonormal under its point weights,
        # the constant first
        d = DiscreteUniform(tuple(np.linspace(-1.0, 3.0, s) ** 3))
        b, w = d.to_coeffs(s), d.quad_nodes()[1]
        assert np.all(np.abs(b / w @ b.T - np.eye(s)) <= 1e-12)
        assert np.all(np.abs(b[0] - w) <= 1e-12 * w.max())

    def test_maps_are_computed_once_per_measure_and_read_only(self):
        for measure in (Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                        DiscreteUniform((0.0, 1.0, 5.0))):
            b = measure.to_coeffs(3)
            assert type(measure)(*dataclasses.astuple(measure)).to_coeffs(3) \
                is b
            with pytest.raises(ValueError):
                b[0, 0] = 0.0


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

    def test_sample_is_the_column_stack_of_the_component_draws(self):
        m = product(Uniform(-1.0, 2.0), Normal(0.5, 0.8),
                    DiscreteUniform((0.0, 1.5, 3.0)), name="mixed")
        rng = substream(5, "sample", "mixed")
        want = np.column_stack([c.sample(rng, 1000) for c in m.components])
        rng = np.random.default_rng(9)
        want_rng = np.column_stack([c.sample(rng, 1000) for c in m.components])
        for got, ref in ((m.sample(1000, seed=5), want),
                         (m.sample(1000, rng=np.random.default_rng(9)),
                          want_rng)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_densities_are_bit_identical_to_the_closed_form(self):
        def normal(c, x):
            z = (np.asarray(x, dtype=float) - c.mean_) / c.sd
            return np.exp(-0.5 * z * z) / (c.sd * math.sqrt(2.0 * math.pi))

        nm = Normal(0.5, 0.8)
        # z near 0, z^2 subnormal, exp underflowing, z^2 overflowing
        edge = [0.5, 0.5 + 1e-170, 0.5 - 3e-155, 40.0, -1e200, 1e155]
        x1 = np.concatenate([edge, np.random.default_rng(2).normal(0, 3, 200)])
        for x in (0.3, -7.0, x1, x1.reshape(-1, 2)):
            got, want = nm.density(x), normal(nm, x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        m = product(Uniform(-1.0, 2.0), nm, Normal(-2.0, 3.0))
        xs = x1[:198].reshape(-1, 3)
        want = np.ones(len(xs))
        for i, c in enumerate(m.components):
            want = want * (normal(c, xs[:, i]) if isinstance(c, Normal)
                           else c.density(xs[:, i]))
        assert m.density(xs).tobytes() == want.tobytes()
        assert m.density(xs[0]).tobytes() == want[:1].tobytes()
        one = product(nm)
        assert one.density(0.3).tobytes() == np.array([normal(nm, 0.3)]).tobytes()

    def test_in_support(self):
        m = product(Uniform(0.0, 1.0), Uniform(0.0, 1.0))
        flags = support_indicator(m, (1, 2), np.array([[0.5, 0.5], [1.5, 0.5]]))
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

    def test_a_nan_prior_weight_is_rejected(self):
        # every comparison with NaN is false, so no sign or sum test sees it
        with pytest.raises(ConfigError, match="nonnegative"):
            MeasureSet((product(Uniform(0, 1)), product(Uniform(0, 2))),
                       prior=(math.nan, 1.0))

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
    """The two-stage draw of the prior-averaged measure."""

    def test_requires_prior(self):
        with pytest.raises(ConfigError):
            two_stage_sample(three_measure_set(prior=None), 10, seed=3)

    def test_two_stage_sampling_tracks_the_prior(self):
        pts = two_stage_sample(three_measure_set(prior=(0.0, 0.0, 1.0)), 500,
                               seed=3)
        # all mass on mu3 = U(0, pi)^3
        assert pts.min() >= 0.0 and pts.max() <= PI


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
        doc = self.doc()
        ms = measure_set_from_dict(doc)
        assert ms.n == doc["n"] and ms.prior == tuple(doc["prior"])
        assert ms.names == tuple(m["name"] for m in doc["measures"])
        for m, entry in zip(ms.measures, doc["measures"]):
            assert len(m.components) == len(entry["components"])
            for c, e in zip(m.components, entry["components"]):
                p = e["params"]
                assert c == (Uniform(p["lo"], p["hi"]) if e["family"] == "uniform"
                             else Normal(p["mean"], p["sd"]))

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


def test_config_files_parse_the_same_without_libyaml(tmp_path, monkeypatch,
                                                      capsys):
    # libyaml's loader when PyYAML has it, the pure-Python one otherwise
    measures = tmp_path / "measures.yaml"
    measures.write_text(MEASURES_YAML)
    model = tmp_path / "model.yaml"
    model.write_text("n: 3\nfactors: [[1.0, 2.0], [0.5, 0.0, 1.5], [-1.0]]\n"
                     "terms: [[1], [2, 3], []]\ncoeffs: [1.0, 0.25, 3.0]\n")
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(16, 3))
    want, want_y = load_measure_set(measures), resolve_model(str(model))(x)
    load, loaders = yaml.load, []

    def spy(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_measure_set(measures) == want
    assert np.array_equal(resolve_model(str(model))(x), want_y)
    assert loaders == [yaml.SafeLoader] * 2
    broken = tmp_path / "broken.yaml"
    broken.write_text(MEASURES_YAML.replace("n: 3", "n: [3"))
    assert main(["analyze", "--model", "ishigami", "--measures", str(broken),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "not parseable" in err
    assert loaders == [yaml.SafeLoader] * 3


def test_pyyaml_loads_only_with_a_config_file(tmp_path):
    # a library caller that reads no config file does not import PyYAML
    cfg = tmp_path / "measures.yaml"
    cfg.write_text(MEASURES_YAML)
    code = "\n".join([
        "import sys",
        "import mixsens",
        "from mixsens.anova import AnovaEngine",
        "from mixsens.measures import Normal, ProductMeasure, load_measure_set",
        "normals = ProductMeasure((Normal(0.0, 1.0),) * 3)",
        "vd = AnovaEngine(lambda x: x.sum(axis=-1), normals, order=8)"
        ".variance_decomposition()",
        "assert abs(vd.total - 3.0) < 1e-12",
        "assert 'yaml' not in sys.modules",
        f"assert load_measure_set({str(cfg)!r}).names == ('mu1', 'mu2', 'mu3')",
        "assert 'yaml' in sys.modules"])
    src = os.path.dirname(os.path.dirname(mixsens.__file__))
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    inside = lo <= x <= lo + width
    assert (u.density(x) > 0) == inside

