"""Sampling estimators: sanity on known models, error paths, file round trips."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace
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
                                read_sample, reweighted_indices,
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
        mean, var = estimators._moments(x, w)
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
        truth2 = np.array([ref.SOBOL["mu2"][(i,)] for i in (1, 2, 3)])
        got = reweighted_indices(sample, [reg["mu2"]])[0].s
        assert got == pytest.approx(truth2, abs=0.03)


# a base and a target of far wider support in x1, whose density ratio
# grows as exp(x1^2 / 2) in the base's tail
TAIL_BASE = ProductMeasure((Normal(0, 1), Uniform(0, 1)), name="base")
TAIL_WIDE = ProductMeasure((Uniform(-40, 40), Uniform(0, 1)), name="wide")


class TestReweighting:
    def test_reweight_to_base_is_the_identity(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 512, seed=3)
        assert np.all(estimators._reweighted(sample, reg["mu1"]) == 1.0)
        plain, ws = reweighted_indices(sample, [None, reg["mu1"]])
        assert plain.ess is None and ws.ess == 512.0
        assert plain.s[0] == ws.s[0] == given_data_first_order(sample, 1)

    @pytest.mark.parametrize("name", ["mu1", "mu2", "mu3"])
    def test_reweighting_to_the_base_reproduces_given_data_exactly(self, name):
        measure = ishigami_measures()[name]
        sample = generate_sample(IshigamiModel(), measure, 2048, seed=8)
        got, want = reweighted_indices(sample, [measure, None])
        assert got.ess == 2048
        assert got.method == "reweighted" and want.method == "givendata"
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(want.s, given_data_indices(sample).s)

    def test_low_ess_warns(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 100, seed=4)
        with pytest.warns(UserWarning, match="effective sample size"):
            reweighted_indices(sample, [reg["mu2"]])

    def test_the_target_mass_beyond_the_sample_is_reported(self):
        # N(0, 1)^3 puts 1 - erf(pi / sqrt 2)^3 outside U(-pi, pi)^3, and
        # mu3's box lies inside mu1's; only the measures enter
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 512, seed=3)
        with pytest.warns(UserWarning, match=r"target 'mu2' puts 0\.00503 "
                          "of its mass outside the sample's support") as caught:
            drawn, normal, inner = reweighted_indices(
                sample, [None, reg["mu2"], reg["mu3"]])
        assert sum("outside" in str(w.message) for w in caught) == 1
        assert drawn.uncovered is None
        assert normal.uncovered == pytest.approx(
            1 - math.erf(math.pi / math.sqrt(2)) ** 3, abs=1e-12)
        assert normal.uncovered == pytest.approx(0.005032483364918905,
                                                 abs=1e-12)
        assert inner.uncovered == 0.0
        # U(-pi, pi)^3 beyond U(0, pi)^3: half of each axis
        assert estimators._uncovered(reg["mu3"], reg["mu1"]) == 0.875
        # a normal base holds every support, whose rules sum to 1 only
        # within rounding
        for target in (reg["mu2"], TAIL_WIDE,
                       ProductMeasure((Normal(1, 2), Uniform(0, 1)))):
            base = reg["mu2"] if target.n == 3 else TAIL_BASE
            assert estimators._uncovered(base, target) == 0.0

    def test_target_outside_base_support_fails(self):
        measure = ProductMeasure((Uniform(0, 1),))
        sample = EvaluatedSample(x=np.linspace(0.1, 0.9, 40)[:, None],
                                 y=np.arange(40.0), measure=measure,
                                 measure_name="base")
        wide = ProductMeasure((Uniform(5, 6),))
        with pytest.raises(EstimationError, match="no mass"):
            reweighted_indices(sample, [wide])

    @staticmethod
    def tail_sample(x1):
        """200 rows under N(0, 1) x U(0, 1), one of them at x1 = ``x1``."""
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.standard_normal(200), rng.random(200)])
        x[7, 0] = x1
        return EvaluatedSample(x=x, y=x[:, 0] + x[:, 1] ** 2, measure=TAIL_BASE,
                               measure_name="base")

    def test_a_weight_whose_square_overflows_keeps_a_finite_ess(self):
        # f_wide / f_base is about 8e193 at x1 = 30: finite, its square not
        sample = self.tail_sample(30.0)
        w = _ratio(sample, TAIL_WIDE)
        assert np.isfinite(w).all() and w.max() > 1e155
        with pytest.warns(UserWarning, match="effective sample size 1.0"):
            est = reweighted_indices(sample, [TAIL_WIDE])[0]
        # that one weight outweighs the other 199 by over 190 decades
        assert est.ess == 1.0 and np.isfinite(est.s).all()

    def test_an_infinite_density_ratio_is_a_non_finite_weight(self):
        # at x1 = 38 the base density is subnormal and the ratio overflows
        sample = self.tail_sample(38.0)
        with pytest.raises(EstimationError,
                           match="^non-finite importance weight$"):
            reweighted_indices(sample, [TAIL_WIDE])

    @pytest.mark.parametrize("target,cause", [
        (TAIL_WIDE, r"target 'wide', largest weight 6\.03e\+307, "
                    r"largest \|g\| 5\)$"),
        (None, r"the sample as drawn, largest \|g\| 1e\+200\)$")],
        ids=["reweighted", "givendata"])
    def test_moments_beyond_the_float_range_name_their_cause(self, target,
                                                             cause):
        # toward wide, two weights of about 6e307 (x1 = ±37.74, their sum
        # still finite) times g = 5 and 4 overflow; as drawn, the square
        # of g = 1e200 does
        sample = self.tail_sample(37.74)
        sample.x[8, 0] = -37.74
        sample.y[[7, 8]] = 5.0, 4.0
        if target is None:
            sample.y[3] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="^the moments of g "
                               r"leave the float range \(" + cause):
                reweighted_indices(sample, [target])

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
                assert np.array_equal(estimators._reweighted(sample, reg[name]),
                                      want)
            # a point outside the base's support, in the last block
            x = sample.x.copy()
            x[-1, 0] = 10.0
            off = EvaluatedSample(x=x, y=sample.y, measure=reg["mu1"])
            with pytest.raises(EstimationError, match="zero density"):
                reweighted_indices(off, [reg["mu2"]])

    def test_weighted_default_bins_follow_the_ess(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 4096, seed=5)
        est = reweighted_indices(sample, [reg["mu2"]])[0]
        assert est.ess < len(sample) / 2  # genuinely skewed weights
        manual = max(2, min(int(math.sqrt(est.ess)), len(sample) // 5))
        assert np.array_equal(
            est.s, reweighted_indices(sample, [reg["mu2"]], manual)[0].s)


def _ratio(sample, target):
    """The importance weights of ``sample`` toward ``target``, each column
    taken whole."""
    return target.density(sample.x) / sample.measure.density(sample.x)


def _kish(w):
    # s * s as the package squares: a scalar power of two may differ by an
    # ulp
    s = w.sum()
    return s * s / (w ** 2).sum()


def _array_split_first_order(x, y, i, bins=None, w=None):
    """given_data_first_order, or with weights ``w`` the reweighted index,
    with its own sort and one fancy index per np.array_split bin: the
    reference the sliced bins must equal bit for bit."""
    weighted = w is not None
    if not weighted:
        w = np.ones(len(y))
    if bins is None:
        n_eff = _kish(w) if weighted else len(y)
        bins = max(2, min(int(np.sqrt(n_eff)), len(y) // 5))
    wsum = w.sum()
    ybar = (w * y).sum() / wsum
    v_hat = (w * (y - ybar) ** 2).sum() / wsum
    terms = []
    for idx in np.array_split(np.argsort(x[:, i - 1], kind="stable"), bins):
        # a reduceat segment has the same bits wherever it sits, but not
        # those of np.sum over the same values
        wb = np.add.reduceat(w[idx], [0])[0]
        if wb <= 0:
            terms.append(0.0)
            continue
        d = np.add.reduceat(w[idx] * y[idx], [0])[0] / wb - ybar
        terms.append(wb * (d * d))
    return float(np.sum(terms) / wsum / v_hat)


# the base of the drawn samples below, and a target that puts no mass
# where |x2| > 1, so the outer bins along x2 weigh nothing
SLICE_BASE = ProductMeasure((Normal(0, 1), Normal(0, 1)), name="base")
SLICE_TARGET = ProductMeasure((Normal(0.5, 1.5), Uniform(-1, 1)),
                              name="narrow")


@pytest.mark.filterwarnings("ignore:effective sample size")
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
    x[0, 1] = 0.0   # one point of weight, at least
    sample = EvaluatedSample(x=x, y=np.sin(x[:, 0]) + rng.standard_normal(npts),
                             measure=SLICE_BASE)
    target = SLICE_TARGET if weighted else None
    w = None if target is None else _ratio(sample, target)
    bins = data.draw(st.integers(2, npts // 5)) if explicit else None
    # a small block takes the gathered columns one bin, or a few, at a time
    with mock.patch.object(estimators, "BLOCK_POINTS",
                           estimators.BLOCK_POINTS if block is None else block):
        got = reweighted_indices(sample, [target], bins)[0].s
        for i in (1, 2):
            want = _array_split_first_order(x, sample.y, i, bins, w)
            assert got[i - 1] == want
            if not weighted:
                assert given_data_first_order(sample, i, bins) == want


@settings(max_examples=60, deadline=None)
@given(distinct=st.booleans(), data=st.data())
def test_sorted_order_is_the_stable_argsort(distinct, data):
    # ties, and -0.0 against 0.0, need the stable sort; distinct keys do not
    col = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
        min_size=10, max_size=300, unique=distinct)))
    order = estimators._sorted_order(col)
    assert order.dtype == np.int32
    assert np.array_equal(order, np.argsort(col, kind="stable"))


@pytest.mark.filterwarnings("ignore:effective sample size")
def test_reweighting_sorts_each_column_once():
    reg = ishigami_measures()
    sample = generate_sample(IshigamiModel(), reg["mu1"], 1000, seed=6)
    names = ("mu1", "mu2", "mu3", "mu4", "mu5")
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    with mock.patch.object(estimators.np, "argsort", counted):
        ests = reweighted_indices(sample, [None] + [reg[nm]
                                                    for nm in names[1:]])
    assert len(sorts) == 3
    for est, nm in zip(ests, names):
        w = None if nm == "mu1" else _ratio(sample, reg[nm])
        assert est.s.tolist() == [
            _array_split_first_order(sample.x, sample.y, i, w=w)
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
       ties=st.booleans(), bins=st.one_of(st.none(), st.integers(2, 1500)))
def test_inputs_split_over_processes_equal_the_array_split_bins(
        extra, seed, ties, bins):
    # three inputs over three ranges of report.PART_ROWS rows: one to three
    # processes, each sorting its own inputs and taking its own weights
    npts = 3 * report.PART_ROWS + extra
    rng = np.random.default_rng(seed)
    x = SPLIT_BASE.sample(npts, rng=rng)
    if ties:        # eight values: equal keys keep their input order
        x[:, 1] = (np.floor(x[:, 1] * 8) + 0.5) / 8
    y = np.sin(x[:, 0]) + 7 * x[:, 1] ** 2 + 0.1 * x[:, 2] ** 4 * x[:, 0]
    sample = EvaluatedSample(x=x, y=y, measure=SPLIT_BASE)
    targets = [None, *SPLIT_TARGETS]
    weights = [None] + [_ratio(sample, t) for t in SPLIT_TARGETS]
    want = [[_array_split_first_order(x, y, i, bins, w) for i in (1, 2, 3)]
            for w in weights]
    for cpus in (1, 2, 3):
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        with mock.patch.object(report, "_usable_cpus", lambda: cpus), \
                mock.patch.object(report.os, "fork", counted):
            ests = reweighted_indices(sample, targets, bins)
        assert len(forks) == cpus - 1
        assert [e.s.tolist() for e in ests] == want
        assert [e.ess for e in ests] == [None] + [_kish(w)
                                                  for w in weights[1:]]


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
    assert given_data_indices(sample).s.tolist() == want
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
        assert given_data_indices(sample).s.tolist() == want
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
    # mu2 also has mass outside mu1's box, which warns once too
    messages = [str(w.message) for w in caught]
    assert len(forks) == 1 and len(messages) == 2
    assert all("'mu2'" in m for m in messages)
    assert sum("effective sample size" in m for m in messages) == 1
    assert ests[1].ess == _kish(_ratio(sample, reg["mu2"]))


class TestValidationAndErrors:
    def test_shape_mismatch(self):
        with pytest.raises(SampleFormatError):
            EvaluatedSample(x=np.zeros((5, 2)), y=np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights(self, bad):
        # a target whose density is NaN or inf at observed points
        sample = EvaluatedSample(x=np.linspace(0.1, 0.9, 10)[:, None],
                                 y=np.arange(10.0),
                                 measure=ProductMeasure((Uniform(0, 1),)))
        target = SimpleNamespace(n=1, name="bad", density=lambda x: np.where(
            x[:, 0] > 0.5, bad, 1.0))
        with pytest.raises(EstimationError, match="non-finite"):
            reweighted_indices(sample, [target])

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

    def test_measures_of_another_input_count(self):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 64, seed=1)
        two = ProductMeasure((Normal(0, 1), Normal(0, 1)), name="two")
        with pytest.raises(ValueError, match="3 inputs, but its target "
                                             "measure has 2"):
            reweighted_indices(sample, [None, two])
        sample.measure = two
        with pytest.raises(ValueError, match="3 inputs, but its base "
                                             "measure has 2"):
            reweighted_indices(sample, [reg["mu2"]])

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
