"""Sampling estimators: sanity on known models, error paths, file round trips."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsens import estimators, report
from mixsens.estimators import (EstimationError, EvaluatedSample,
                                SampleFormatError, SobolEstimate,
                                brute_force_first_order,
                                generate_sample, given_data_first_order,
                                given_data_indices, pick_freeze_indices,
                                read_sample, reweight, reweighted_indices,
                                weighted_moments, write_sample)
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

    @pytest.mark.parametrize("npts,block", [(2**16, None), (1000, 64)])
    def test_weights_taken_in_blocks_are_the_whole_density_ratio(self, npts,
                                                                block):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], npts, seed=7)
        with mock.patch.object(estimators, "BLOCK_POINTS",
                               block or estimators.BLOCK_POINTS):
            assert npts > 2 * estimators._block_rows(sample)
            for name in ("mu1", "mu2", "mu3"):
                want = reg[name].density(sample.x) / reg["mu1"].density(sample.x)
                assert np.array_equal(reweight(sample, reg[name]).weights, want)
            # a point outside the base's support, in the last block
            x = sample.x.copy()
            x[-1, 0] = 10.0
            off = EvaluatedSample(x=x, y=sample.y, measure=reg["mu1"])
            with pytest.raises(EstimationError, match="zero density"):
                reweight(off, reg["mu2"])

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
    ybar = (w * y).sum() / wsum
    v_hat = (w * (y - ybar) ** 2).sum() / wsum
    terms = []
    for idx in np.array_split(np.argsort(sample.x[:, i - 1], kind="stable"),
                              bins):
        # a reduceat segment has the same bits wherever it sits, but not
        # those of np.sum over the same values
        wb = np.add.reduceat(w[idx], [0])[0]
        if wb <= 0:
            terms.append(0.0)
            continue
        d = np.add.reduceat(w[idx] * y[idx], [0])[0] / wb - ybar
        terms.append(wb * (d * d))
    return float(np.sum(terms) / wsum / v_hat)


@settings(max_examples=40, deadline=None)
@given(npts=st.integers(10, 400), seed=st.integers(0, 2**32 - 1),
       ties=st.booleans(), weighted=st.booleans(), explicit=st.booleans(),
       block=st.one_of(st.none(), st.integers(1, 120)), data=st.data())
def test_sliced_bins_equal_the_array_split_bins(npts, seed, ties, weighted,
                                                explicit, block, data):
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
    # a small block takes the gathered columns one bin, or a few, at a time
    with mock.patch.object(estimators, "BLOCK_POINTS",
                           estimators.BLOCK_POINTS if block is None else block):
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


# a base measure and two candidates: the first puts no mass where |x1| > 1,
# so the outer bins along x1 weigh nothing
SPLIT_BASE = ProductMeasure((Normal(0, 1), Uniform(0, 1), Normal(1, 2)),
                            name="base")
SPLIT_TARGETS = (ProductMeasure((Uniform(-1, 1), Uniform(0, 1), Normal(0, 1)),
                                name="narrow"),
                 ProductMeasure((Normal(0.5, 1), Uniform(0, 1), Normal(1, 1)),
                                name="shifted"))


@settings(max_examples=6, deadline=None)
@given(extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       ties=st.booleans(), weighted=st.booleans(),
       bins=st.one_of(st.none(), st.integers(2, 1500)))
def test_inputs_split_over_processes_equal_the_array_split_bins(
        extra, seed, ties, weighted, bins):
    # three inputs over three ranges of report.PART_ROWS rows: one to three
    # processes, each sorting its own inputs and taking its own weights
    npts = 3 * report.PART_ROWS + extra
    rng = np.random.default_rng(seed)
    x = SPLIT_BASE.sample(npts, rng=rng)
    if ties:        # eight values: equal keys keep their input order
        x[:, 1] = (np.floor(x[:, 1] * 8) + 0.5) / 8
    y = np.sin(x[:, 0]) + 7 * x[:, 1] ** 2 + 0.1 * x[:, 2] ** 4 * x[:, 0]
    own = rng.exponential(size=npts) if weighted else None
    sample = EvaluatedSample(x=x, y=y, measure=SPLIT_BASE, weights=own)
    targets = [None, *SPLIT_TARGETS]
    copies = [sample] + [reweight(sample, t) for t in SPLIT_TARGETS]
    want = [[_array_split_first_order(ws, i, bins) for i in (1, 2, 3)]
            for ws in copies]
    for cpus in (1, 2, 3):
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        split = EvaluatedSample(x=x, y=y, measure=SPLIT_BASE, weights=own)
        with mock.patch.object(report, "_usable_cpus", lambda: cpus), \
                mock.patch.object(report.os, "fork", counted):
            ests = reweighted_indices(split, targets, bins)
        assert len(forks) == cpus - 1
        assert [e.s.tolist() for e in ests] == want
        assert [e.ess for e in ests] == [None if own is None else sample.ess,
                                         copies[1].ess, copies[2].ess]
        # this process keeps the orders of the inputs it estimated
        assert sorted(split.orders) == ([1, 2, 3] if cpus == 1 else [1])


def test_an_estimation_process_that_dies_raises_oserror(split_tables,
                                                       monkeypatch):
    sample = generate_sample(IshigamiModel(), ishigami_measures()["mu1"], 64,
                             seed=1)
    forks = split_tables(3)
    monkeypatch.setattr(report, "_run_child",
                        lambda job, fd, pipes: os._exit(6))
    with pytest.raises(OSError, match="exit status 6$"):
        given_data_indices(sample)
    assert len(forks) == 2


OPENBLAS_PTHREADS = {"name": "scipy-openblas", "openblas configuration":
                     "OpenBLAS 0.3.27 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                     "Haswell MAX_THREADS=64"}


@pytest.mark.parametrize("blas", [
    OPENBLAS_PTHREADS,
    {"name": "openblas", "openblas configuration":
     "OpenBLAS 0.3.21 USE_OPENMP DYNAMIC_ARCH NO_AFFINITY Zen"},
    {"name": "openblas", "openblas configuration": "unknown"},
    {"name": "mkl-sdl"},
    {},
    None])
def test_the_inputs_split_under_any_blas(split_tables, monkeypatch, blas):
    # the estimates make no BLAS call, so numpy's build record (none before
    # numpy 1.26) does not decide the split
    sample = generate_sample(IshigamiModel(), ishigami_measures()["mu1"], 64,
                             seed=1)
    want = given_data_indices(sample).s.tolist()
    forks = split_tables(3)
    if blas is None:
        monkeypatch.delattr(np.__config__, "CONFIG", raising=False)
    else:
        monkeypatch.setattr(np.__config__, "CONFIG",
                            {"Build Dependencies": {"blas": blas}},
                            raising=False)
    assert report._parts(64) == 3
    fresh = EvaluatedSample(x=sample.x, y=sample.y)
    assert given_data_indices(fresh).s.tolist() == want
    assert len(forks) == 2


def test_no_input_is_split_while_another_thread_runs(split_tables):
    sample = generate_sample(IshigamiModel(), ishigami_measures()["mu1"], 64,
                             seed=1)
    want = given_data_indices(sample).s.tolist()
    forks = split_tables(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        fresh = EvaluatedSample(x=sample.x, y=sample.y)
        assert given_data_indices(fresh).s.tolist() == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks == []


THREADS_SCRIPT = """
from mixsens.estimators import (generate_sample, given_data_indices,
                                reweighted_indices)
from mixsens.models import IshigamiModel, ishigami_measures
reg = ishigami_measures()
sample = generate_sample(IshigamiModel(), reg["mu1"], 2**15, seed=1)
ests = reweighted_indices(sample, [None, reg["mu2"]])
ests.append(given_data_indices(sample, bins=2))
for est in ests:
    print(*[float(v).hex() for v in est.s], est.ess and float(est.ess).hex())
"""


def test_the_indices_do_not_depend_on_the_blas_threads():
    # OpenBLAS splits a dot of more than 10,000 values over its threads:
    # each column of a 2^15-row sample, and each of 2 bins, is that long
    src = os.path.dirname(os.path.dirname(estimators.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert out[0].count("\n") == 3 and out[0] == out[1]


def test_a_low_ess_warns_once_from_this_process(split_tables, capfd):
    reg = ishigami_measures()
    sample = generate_sample(IshigamiModel(), reg["mu1"], 100, seed=4)
    forks = split_tables(2)
    with pytest.warns(UserWarning, match="effective sample size") as caught:
        ests = reweighted_indices(sample, [None, reg["mu2"]])
    assert "effective sample size" not in capfd.readouterr().err
    assert len(forks) == 1 and len(caught) == 1
    assert "'mu2'" in str(caught[0].message)
    with pytest.warns(UserWarning, match="effective sample size"):
        assert ests[1].ess == reweight(sample, reg["mu2"]).ess


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights(self, bad):
        with pytest.raises(EstimationError, match="non-finite"):
            EvaluatedSample(x=np.zeros((3, 1)), y=np.zeros(3),
                            weights=np.array([1.0, bad, 1.0]))

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
        # the default bin count is 2 below 10 points
        short = generate_sample(additive, GAUSS2, 9, seed=0)
        with pytest.raises(ValueError, match="2 bins for 9 points"):
            given_data_indices(short)
        with pytest.raises(ValueError, match="2 bins for 9 points"):
            given_data_first_order(short, 1)
        assert given_data_indices(generate_sample(additive, GAUSS2, 10,
                                                  seed=0)).s.shape == (2,)
        with pytest.raises(ValueError):
            pick_freeze_indices(additive, GAUSS2, n=8)
        with pytest.raises(ValueError):
            brute_force_first_order(additive, GAUSS2, n_outer=1)

    def test_weights_of_another_length(self):
        with pytest.raises(ValueError, match="1 weights for 5 values"):
            weighted_moments(np.arange(5.0), [1.0])

    def test_measures_of_another_input_count(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 64, seed=1)
        two = ProductMeasure((Normal(0, 1), Normal(0, 1)), name="two")
        with pytest.raises(ValueError, match="3 inputs, but its target "
                                             "measure has 2"):
            reweight(sample, two)
        with pytest.raises(ValueError, match="target measure has 2"):
            reweighted_indices(sample, [None, two])
        sample.measure = two
        with pytest.raises(ValueError, match="3 inputs, but its base "
                                             "measure has 2"):
            reweight(sample, reg["mu2"])

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

    def test_a_non_finite_row_after_blank_lines_names_its_line(self, tmp_path):
        # lines 3 and 4 are blank; line 5 is the first bad row, before the
        # short one on line 7
        path = tmp_path / "bad.csv"
        path.write_text("x1,g\n1.0,2.0\n\n\n3.0,nan\n4.0,5.0\n6.0\n")
        with pytest.raises(SampleFormatError,
                           match=r"row 5: non-finite value$"):
            read_sample(path)

    def test_an_inf_early_in_a_long_file_stops_the_scan_there(self, tmp_path):
        path = tmp_path / "long.csv"
        rows = ["0.25,0.5,1.0"] * 2**16
        rows[1] = "0.25,inf,1.0"
        path.write_text("x1,x2,g\n" + "\n".join(rows) + "\n")
        read = []
        reader = estimators.csv.reader

        def counted(fh):
            for row in reader(fh):
                read.append(row)
                yield row

        with mock.patch.object(estimators.csv, "reader", counted), \
                pytest.raises(SampleFormatError,
                              match=r"row 3: non-finite value$"):
            read_sample(path)
        # the header is read twice (read_sample's check and the scan)
        assert len(read) == 1 + 1 + 2


    def test_a_sidecar_without_count_or_n_still_reads(self, tmp_path):
        sample = generate_sample(IshigamiModel(), ishigami_measures()["mu3"],
                                 64, seed=ref.SEED_GIVEN_DATA)
        path = tmp_path / "run.csv"
        write_sample(sample, path)
        (tmp_path / "run.csv.meta.json").write_text(
            '{"measure": "mu3", "seed": 5}')
        back = read_sample(path)
        assert np.array_equal(back.x, sample.x)
        assert np.array_equal(back.y, sample.y)
        assert (back.measure_name, back.seed) == ("mu3", 5)

    @staticmethod
    def padded(lines, newline, fits):
        """The bytes of a sample file of ``lines`` whose header ends in the
        fewest spaces (which the reader strips) for which ``fits`` holds."""
        for pad in range(256):
            raw = ("x1,x2,g" + " " * pad + newline
                   + newline.join(lines)).encode()
            if fits(raw):
                return raw
        raise AssertionError("no padding fits")

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", ["no-final-newline", "blank-at-a-split",
                                      "crlf-across-a-split"])
    def test_a_file_read_in_ranges_is_the_table_loadtxt_reads(
            self, tmp_path, split_tables, monkeypatch, case, cpus):
        lines = [f"{k}.25,{k % 7}.5,{k}e-3" for k in range(90)]

        def cut(raw):           # where the first range after this one starts
            return raw.index(b"\n", len(raw) // cpus) + 1

        if case == "no-final-newline":
            raw = self.padded(lines, "\n", lambda raw: True)
        elif case == "blank-at-a-split":
            lines = [ln for k, ln in enumerate(lines)
                     for ln in ([ln, ""] if k % 5 == 4 else [ln])]
            raw = self.padded(lines + [""], "\n",
                              lambda raw: raw[cut(raw)] == ord("\n"))
        else:
            raw = self.padded(lines + [""], "\r\n",
                              lambda raw: raw[len(raw) // cpus - 1:][:2]
                              == b"\r\n")
        path = tmp_path / "s.csv"
        path.write_bytes(raw)
        want = np.loadtxt(path, delimiter=",", skiprows=1)
        forks = split_tables(cpus)
        monkeypatch.setattr(estimators, "_scan_rows", None)  # not needed
        sample = read_sample(path)
        assert len(forks) == cpus - 1
        assert np.array_equal(sample.x, want[:, :-1])
        assert np.array_equal(sample.y, want[:, -1])
        assert sample.x.flags.c_contiguous and sample.y.flags.c_contiguous

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_nan_in_a_child_range_names_its_line(self, tmp_path,
                                                   split_tables, cpus):
        rows = [f"{k}.5,{k}" for k in range(60)]
        rows[50] = "50.5,nan"           # line 52, in the last range
        path = tmp_path / "bad.csv"
        path.write_text("x1,g\n" + "\n".join(rows) + "\n")
        with pytest.raises(SampleFormatError) as whole:
            read_sample(path)
        forks = split_tables(cpus)
        with pytest.raises(SampleFormatError) as split:
            read_sample(path)
        assert len(forks) == cpus - 1
        assert str(whole.value).endswith("row 52: non-finite value")
        assert str(split.value) == str(whole.value)

    def test_a_failed_read_reaps_the_range_processes(self, tmp_path,
                                                     split_tables,
                                                     monkeypatch):
        path = tmp_path / "s.csv"
        write_sample(generate_sample(IshigamiModel(),
                                     ishigami_measures()["mu1"], 64, seed=1),
                     path)
        forks = split_tables(3)
        parse, parent = estimators._range_rows, os.getpid()

        def broken(*args):      # fails in this process, not in a child
            if os.getpid() == parent:
                raise MemoryError
            return parse(*args)

        monkeypatch.setattr(estimators, "_range_rows", broken)
        with pytest.raises(MemoryError):
            read_sample(path)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_read_back_sample_holds_its_x_and_y_alone(self, tmp_path,
                                                        split_tables, cpus):
        # N(n + 1) doubles: no dead copy of the g column beside y
        rows = 2**15
        path = tmp_path / "s.csv"
        write_sample(generate_sample(IshigamiModel(),
                                     ishigami_measures()["mu1"], rows,
                                     seed=1), path)
        split_tables(cpus)
        read_sample(path)                   # any first-use allocation
        tracemalloc.start()
        try:
            sample = read_sample(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sample.x.shape == (rows, 3)
        assert held <= rows * (3 + 1) * 8 + 2**16


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
