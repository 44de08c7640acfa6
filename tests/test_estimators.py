"""Sampling estimators: sanity on known models, error paths, file round trips."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsens import estimators
from mixsens.estimators import (EstimationError, EvaluatedSample,
                                SampleFormatError, SobolEstimate,
                                brute_force_first_order,
                                generate_sample, given_data_first_order,
                                given_data_indices, pick_freeze_indices,
                                read_sample, reweight, weighted_moments,
                                write_sample)
from mixsens.measures import Normal, ProductMeasure, Uniform
from mixsens.models import IshigamiModel, ishigami_measures

import _reference as ref

GAUSS2 = ProductMeasure((Normal(0, 1), Normal(0, 1)))


def additive(x):
    return x[:, 0] + x[:, 1]


class TestKnownAnswers:
    def test_additive_model_splits_evenly(self):
        est = brute_force_first_order(additive, GAUSS2, n_outer=200,
                                      n_inner=200, seed=0)
        assert est.s == pytest.approx([0.5, 0.5], abs=0.05)
        assert est.n_evals == 2 * 200 * 200

    def test_passthrough_input_takes_everything(self):
        est = pick_freeze_indices(lambda x: x[:, 0], GAUSS2, n=4096, seed=1)
        assert est.s[0] == pytest.approx(1.0, abs=0.02)
        assert est.st[1] == pytest.approx(0.0, abs=0.02)

    def test_irrelevant_input_has_zero_total_order(self):
        measure = ProductMeasure((Normal(0, 1),) * 3)
        est = pick_freeze_indices(additive, measure, n=4096, seed=2)
        assert est.st[2] == pytest.approx(0.0, abs=0.02)

    def test_given_data_recovers_a_deterministic_input(self):
        measure = ProductMeasure((Uniform(0, 1), Uniform(0, 1)))
        sample = generate_sample(lambda x: x[:, 0], measure, 4096, seed=3)
        assert given_data_first_order(sample, 1) >= 0.95

    def test_weighted_moments_shift(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20_000)
        w = np.exp(x - 0.5)  # N(0,1) -> N(1,1) likelihood ratio
        mean, var = weighted_moments(x, w)
        assert mean == pytest.approx(1.0, abs=0.05)
        assert var == pytest.approx(1.0, abs=0.1)


@pytest.fixture(scope="module")
def setup():
    return IshigamiModel(), ishigami_measures()


class TestFrozenSeedConsistency:
    """All four estimators near the quadrature truth on the same model."""

    TRUTH = np.array([ref.SOBOL["mu1"][(i,)] for i in (1, 2, 3)])

    def test_brute_force(self, setup):
        model, reg = setup
        est = brute_force_first_order(model, reg["mu1"], seed=ref.SEED_CONSISTENCY)
        assert est.s == pytest.approx(self.TRUTH, abs=0.03)

    def test_pick_freeze(self, setup):
        model, reg = setup
        est = pick_freeze_indices(model, reg["mu1"], seed=ref.SEED_CONSISTENCY)
        assert est.s == pytest.approx(self.TRUTH, abs=0.03)
        assert np.all(est.st >= est.s - 0.02)
        # truth inside a few standard errors
        assert np.all(np.abs(est.s - self.TRUTH) <= 4 * est.s_se + 1e-3)

    def test_given_data(self, setup):
        model, reg = setup
        sample = generate_sample(model, reg["mu1"], 2**14,
                                 seed=ref.SEED_CONSISTENCY)
        est = given_data_indices(sample)
        assert est.s == pytest.approx(self.TRUTH, abs=0.03)
        assert est.method == "givendata" and est.n_evals == 0

    def test_reweighted(self, setup):
        model, reg = setup
        sample = generate_sample(model, reg["mu1"], 2**14,
                                 seed=ref.SEED_CONSISTENCY)
        ws = reweight(sample, reg["mu2"])
        truth2 = np.array([ref.SOBOL["mu2"][(i,)] for i in (1, 2, 3)])
        got = np.array([given_data_first_order(ws, i) for i in (1, 2, 3)])
        assert got == pytest.approx(truth2, abs=0.03)


class TestReweighting:
    def test_reweight_to_base_is_the_identity(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 512, seed=3)
        ws = reweight(sample, reg["mu1"])
        assert np.all(ws.weights == 1.0)
        assert ws.ess == 512.0 and sample.ess == 512
        # one sample type: the copy names its target and shares the sorts
        assert sample.weights is None and ws.measure is None
        assert ws.measure_name == "mu1" and ws.orders is sample.orders
        assert given_data_first_order(ws, 1) \
            == given_data_first_order(sample, 1)

    @pytest.mark.parametrize("name", ["mu1", "mu2", "mu3"])
    def test_reweighting_to_the_base_reproduces_given_data_exactly(self, name):
        measure = ishigami_measures()[name]
        sample = generate_sample(IshigamiModel(), measure, 2048, seed=8)
        ws = reweight(sample, measure)
        assert np.all(ws.weights == 1.0) and ws.ess == 2048
        got, want = given_data_indices(ws), given_data_indices(sample)
        assert got.method == "reweighted" and want.method == "givendata"
        assert np.array_equal(got.s, want.s)

    def test_low_ess_warns(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 100, seed=4)
        with pytest.warns(UserWarning, match="effective sample size"):
            reweight(sample, reg["mu2"])

    def test_target_outside_base_support_fails(self):
        measure = ProductMeasure((Uniform(0, 1),))
        sample = EvaluatedSample(x=np.full((40, 1), 0.5), y=np.arange(40.0),
                                 measure=measure, measure_name="base")
        wide = ProductMeasure((Uniform(5, 6),))
        with pytest.raises(EstimationError):
            reweight(sample, wide)

    def test_weighted_default_bins_follow_the_ess(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 4096, seed=5)
        ws = reweight(sample, reg["mu2"])
        assert ws.ess < len(ws.y) / 2  # genuinely skewed weights
        manual = max(2, min(int(math.sqrt(ws.ess)), len(ws.y) // 5))
        assert given_data_first_order(ws, 2) \
            == given_data_first_order(ws, 2, bins=manual)


def _array_split_first_order(sample, i, bins=None):
    """given_data_first_order with its own sort and one fancy index per
    np.array_split bin: the reference the sliced bins must equal bit for
    bit."""
    weighted = sample.weights is not None
    w = sample.weights if weighted else np.ones(len(sample.y))
    y = sample.y
    if bins is None:
        n_eff = sample.ess if weighted else len(y)
        bins = max(2, min(int(np.sqrt(n_eff)), len(y) // 5))
    wsum = w.sum()
    ybar = np.dot(w, y) / wsum
    v_hat = np.dot(w, (y - ybar) ** 2) / wsum
    between = 0.0
    for idx in np.array_split(np.argsort(sample.x[:, i - 1], kind="stable"),
                              bins):
        wb = w[idx].sum()
        if wb <= 0:
            continue
        mb = np.dot(w[idx], y[idx]) / wb
        between += wb * (mb - ybar) ** 2
    return float(between / wsum / v_hat)


@settings(max_examples=40, deadline=None)
@given(npts=st.integers(10, 400), seed=st.integers(0, 2**32 - 1),
       ties=st.booleans(), weighted=st.booleans(), explicit=st.booleans(),
       data=st.data())
def test_sliced_bins_equal_the_array_split_bins(npts, seed, ties, weighted,
                                                explicit, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((npts, 2))
    if ties:        # few distinct values: equal keys keep their input order
        x[:, 0] = rng.integers(0, 3, npts)
        x[:2, 0] = (0.0, 2.0)
    sample = EvaluatedSample(x=x, y=np.sin(x[:, 0]) + rng.standard_normal(npts))
    if weighted:    # some zero weights, so some bins may carry no mass
        w = rng.exponential(size=npts) * (rng.random(npts) < 0.8)
        w[0] = 1.0
        sample = EvaluatedSample(x=sample.x, y=sample.y, weights=w)
    bins = data.draw(st.integers(2, npts // 5)) if explicit else None
    for i in (1, 2):
        assert given_data_first_order(sample, i, bins) \
            == _array_split_first_order(sample, i, bins)


@settings(max_examples=60, deadline=None)
@given(distinct=st.booleans(), data=st.data())
def test_cached_order_is_the_stable_argsort(distinct, data):
    # ties, and -0.0 against 0.0, need the stable sort; distinct keys do not
    col = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
        min_size=10, max_size=300, unique=distinct)))
    col[:2] = (-2e7, 2e7)       # never a single value
    sample = EvaluatedSample(x=np.column_stack([col, np.zeros(col.size)]),
                             y=np.arange(col.size) % 3)
    given_data_first_order(sample, 1, bins=2)
    assert np.array_equal(sample.orders[1], np.argsort(col, kind="stable"))


@pytest.mark.filterwarnings("ignore:effective sample size")
def test_reweighting_sorts_each_column_once():
    reg = ishigami_measures()
    sample = generate_sample(IshigamiModel(), reg["mu1"], 1000, seed=6)
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    with mock.patch.object(estimators.np, "argsort", counted):
        ests = [given_data_indices(sample)] + [
            given_data_indices(reweight(sample, reg[nm]))
            for nm in ("mu2", "mu3", "mu4", "mu5")]
    assert len(sorts) == 3
    for est, nm in zip(ests, ("mu1", "mu2", "mu3", "mu4", "mu5")):
        ws = sample if nm == "mu1" else reweight(sample, reg[nm])
        assert est.s.tolist() == [_array_split_first_order(ws, i)
                                  for i in (1, 2, 3)]


class TestValidationAndErrors:
    def test_shape_mismatch(self):
        with pytest.raises(SampleFormatError):
            EvaluatedSample(x=np.zeros((5, 2)), y=np.zeros(4))
        with pytest.raises(SampleFormatError):
            EvaluatedSample(x=np.zeros((5, 2)), y=np.zeros(5),
                            weights=np.zeros(4))

    def test_negative_weights(self):
        with pytest.raises(EstimationError):
            EvaluatedSample(x=np.zeros((3, 1)), y=np.zeros(3),
                            weights=np.array([1.0, -0.5, 1.0]))

    def test_constant_output_has_no_indices(self):
        sample = EvaluatedSample(x=np.random.default_rng(0).random((100, 2)),
                                 y=np.full(100, 2.0))
        with pytest.raises(EstimationError, match="variance is zero"):
            given_data_first_order(sample, 1)

    def test_degenerate_column(self):
        sample = EvaluatedSample(x=np.column_stack([np.full(100, 1.0),
                                                    np.arange(100.0)]),
                                 y=np.arange(100.0))
        with pytest.raises(EstimationError, match="degenerate"):
            given_data_first_order(sample, 1)

    def test_index_and_bin_guards(self):
        sample = generate_sample(additive, GAUSS2, 100, seed=0)
        with pytest.raises(ValueError):
            given_data_first_order(sample, 3)
        with pytest.raises(ValueError):
            given_data_first_order(sample, 1, bins=1)
        with pytest.raises(ValueError, match="fewer than"):
            given_data_first_order(sample, 1, bins=50)
        with pytest.raises(ValueError):
            pick_freeze_indices(additive, GAUSS2, n=8)
        with pytest.raises(ValueError):
            brute_force_first_order(additive, GAUSS2, n_outer=1)

    def test_clamping(self):
        est = SobolEstimate(s=np.array([-0.01, 1.2]),
                            st=np.array([0.5, 2.0]))
        assert est.clamped_s.tolist() == [0.0, 1.05]
        assert est.clamped_st.tolist() == [0.5, 1.05]


class TestSampleFiles:
    def test_round_trip_with_sidecar(self, tmp_path):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu3"], 64,
                                 seed=ref.SEED_GIVEN_DATA)
        path = tmp_path / "run.csv"
        write_sample(sample, path)
        assert (tmp_path / "run.csv.meta.json").exists()
        back = read_sample(path)
        assert np.array_equal(back.x, sample.x)
        assert np.array_equal(back.y, sample.y)
        assert back.measure_name == "mu3"
        assert back.seed == ref.SEED_GIVEN_DATA

    def test_read_without_sidecar(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("x1,x2,g\n0.1,0.2,1.0\n0.3,0.4,2.0\n")
        sample = read_sample(path)
        assert sample.n == 2 and sample.measure_name == ""
        assert sample.x.shape == (2, 2)

    @pytest.mark.parametrize("body, message", [
        ("", "empty"),
        ("a,b\n1,2\n", "header"),
        ("x1,g\n", "no data"),
        ("x1,g\n1.0\n", "fields"),
        ("x1,g\n1.0,spam\n", "row 2"),
    ])
    def test_malformed_files(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(SampleFormatError, match=message):
            read_sample(path)


class TestDeterminism:
    def test_same_seed_same_sample(self):
        reg = ishigami_measures()
        a = generate_sample(IshigamiModel(), reg["mu1"], 256, seed=11)
        b = generate_sample(IshigamiModel(), reg["mu1"], 256, seed=11)
        c = generate_sample(IshigamiModel(), reg["mu1"], 256, seed=12)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_estimators_are_seed_stable(self):
        a = pick_freeze_indices(additive, GAUSS2, n=512, seed=7)
        b = pick_freeze_indices(additive, GAUSS2, n=512, seed=7)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.st, b.st)
