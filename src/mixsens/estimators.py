"""Monte Carlo estimators of first-order and total sensitivity indices.

Four routes, in decreasing order of access to the model:

* brute force — a double loop directly implementing the defining variance of
  a conditional mean (expensive; mostly a trust anchor);
* pick-freeze — paired designs, one model call per design row;
* given data — no fresh model calls: bin an existing evaluated sample along
  one input and compare between-bin to total variance;
* reweighting — reuse a sample drawn under one measure for estimates under
  another via self-normalised density ratios (the cheap way to ask "would
  the ranking change under that other candidate distribution?").

All estimators take seeds, not generators, so results are reproducible and
independent of call order.

Given-data estimates under every candidate measure come from one pass
over the sample (``reweighted_indices``).  Each input's column is sorted
once per pass, and the bins are contiguous slices of its order.  The
inputs of a long sample are split into one range per usable CPU
(``report._parts``), each range but the first estimated in a forked
process (``report._forked``) that sorts its own inputs once and sends
back their indices, with the same bits as in one process.  Every sum of
the pass is a numpy reduction (``np.sum``, ``np.add.reduceat``), never a
BLAS call, so the estimates do not depend on the BLAS, its thread count
or the fork.

A sample of N points on n inputs is N(n + 1) doubles, and the sample path
holds little else: in each process, the orders of its inputs, as int32
while N < 2^31, one target's weights at a time (none for the sample as
drawn) and, in ``_moments``, one column (y - m)^2.
Every other temporary of N values is taken one block of rows at a time,
a block being the rows whose x holds ``anova.BLOCK_POINTS`` values: the
density ratio divides a block's target density by its base density
straight into the weight column, and the given-data bins gather y and w
into an input's order for the whole bins of about one block at a time
(unit weights are not gathered); each bin's sums are ``np.add.reduceat``
segments, which have the same bits wherever they sit, so every estimate
keeps its bits whatever the block.
``ProductMeasure.sample`` fills one (N, n) array column by column and
``write_sample`` stacks one block of rows at a time, so neither holds a
second copy of the sample.
``read_sample`` copies the parsed rows into a contiguous (N, n) x and a
contiguous (N,) y, one part at a time, so the sample it returns holds
N(n + 1) doubles and nothing more; while it reads, this process also holds
the rows of its own range.  A long file is written and read in one range
of rows per usable CPU, each range but the first in a forked process
(``report._forked``), with the same bytes and values as in one process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .anova import BLOCK_POINTS, _evaluate
from .measures import substream
from .report import _forked, _parts, _write_table


class SampleFormatError(ValueError):
    """An evaluated-sample file does not follow the expected layout."""


class EstimationError(ArithmeticError):
    """The requested estimate is not computable from the given data."""


# ---------------------------------------------------------------------------
# evaluated samples and their files
# ---------------------------------------------------------------------------

@dataclass
class EvaluatedSample:
    """Model evaluations y = g(x) at iid draws x from one measure, named
    ``measure_name``; ``measure`` is that measure itself, when known, which
    ``reweighted_indices`` needs to weigh the sample toward another."""

    x: np.ndarray
    y: np.ndarray
    measure_name: str = ""
    seed: int = None
    measure: object = None          # the ProductMeasure, when known

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.x.shape[0] != self.y.size:
            raise SampleFormatError(f"{self.x.shape[0]} points but {self.y.size} values")

    @property
    def n(self):
        return self.x.shape[1]

    def __len__(self):
        return self.y.size


def generate_sample(model, measure, count, seed):
    x = measure.sample(count, seed=seed)
    y = _evaluate(model, x)
    return EvaluatedSample(x=x, y=y, measure_name=measure.name or "",
                           seed=seed, measure=measure)


def write_sample(sample, path):
    """CSV with header x1..xn,g plus a JSON sidecar <path>.meta.json."""
    path = str(path)
    _write_table(path, [f"x{i}" for i in range(1, sample.n + 1)] + ["g"],
                 [sample.x, sample.y])
    meta = {"measure": sample.measure_name, "seed": sample.seed,
            "count": len(sample), "n": sample.n}
    with open(path + ".meta.json", "w", encoding="utf8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


FIELD_BYTES = 16   # bytes per field assumed in sizing ranges; %.17g writes 18-25


def _range_rows(path, start, stop, skip, ncols):
    """The rows of the lines of ``path`` from byte ``start`` (a line start)
    up to byte ``stop``, after the first ``skip`` lines, parsed in one pass;
    None when they do not form an all-finite numeric table of ``ncols``
    columns (no rows form an empty one)."""
    def lines(fh):
        pos = start
        fh.seek(start)
        for line in fh:
            if pos >= stop:
                return
            yield line
            pos += len(line)

    try:
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")          # an empty body warns
            data = np.loadtxt(lines(fh), delimiter=",", skiprows=skip,
                              comments=None, ndmin=2, encoding="utf8")
    except ValueError:
        return None
    if data.shape[0] == 0:
        return np.empty((0, ncols))
    if data.shape[1] != ncols or not np.isfinite(data).all():
        return None
    return data


def _bulk_rows(path, ncols):
    """x and y of the data rows of a sample CSV, each contiguous, or None
    when the file is not a plain all-finite numeric table of ``ncols``
    columns; ``_scan_rows`` then finds and names the faulty row.

    A long file is cut at line starts into ``_parts`` byte ranges: this
    process parses the first while a forked child parses each other one and
    sends back its row count and rows, and the parts are copied into x and
    y in order.
    """
    size = os.path.getsize(path)
    parts = _parts(size // (FIELD_BYTES * ncols))
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, parts):
            fh.seek(size * k // parts)
            fh.readline()
            cuts.append(fh.tell())
    cuts.append(size)

    def job(a, b):              # nothing when the range is not a table
        rows = _range_rows(path, a, b, 0, ncols)
        return [] if rows is None else [len(rows).to_bytes(8, "little"), rows]

    with _forked(job, cuts) as pipes:
        first = _range_rows(path, 0, cuts[1], 1, ncols)
        heads = [pipe.read(8) for pipe in pipes]
        if first is None or any(len(h) < 8 for h in heads):
            return None
        counts = [int.from_bytes(h, "little") for h in heads]
        total = len(first) + sum(counts)
        if total == 0:
            return None
        x, y = np.empty((total, ncols - 1)), np.empty(total)
        a = len(first)
        x[:a], y[:a] = first[:, :-1], first[:, -1]
        del first
        for pipe, count in zip(pipes, counts):
            raw = pipe.read(count * ncols * 8)
            if len(raw) < count * ncols * 8:
                return None     # its child died, which _forked raises
            part = np.frombuffer(raw, dtype=float).reshape(count, ncols)
            x[a:a + count], y[a:a + count] = part[:, :-1], part[:, -1]
            a += count
            del raw, part
    return x, y


def _scan_rows(path, ncols):
    """The data rows of a sample CSV, read line by line; the first bad row
    raises a SampleFormatError naming its line in the file, before any row
    after it is read.  A byte that is not UTF-8 reads as U+FFFD, which no
    number holds."""
    with open(path, "r", encoding="utf8", errors="replace") as fh:
        rd = csv.reader(fh)
        next(rd)                    # the header, checked by the caller
        rows = []
        for k, row in enumerate(rd):
            if not row:
                continue
            if len(row) != ncols:
                raise SampleFormatError(f"{path}: row {k + 2} has {len(row)} "
                                        f"fields, expected {ncols}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise SampleFormatError(f"{path}: row {k + 2}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise SampleFormatError(f"{path}: row {k + 2}: non-finite value")
            rows.append(values)
    if not rows:
        raise SampleFormatError(f"{path}: no data rows")
    return np.asarray(rows)


def read_sample(path):
    """Read a sample CSV (and its sidecar, if present) back in.

    Reweighting needs the measure object itself; assign it to the result's
    ``measure``.
    """
    path = str(path)
    with open(path, "r", encoding="utf8", errors="replace") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd)
        except StopIteration:
            raise SampleFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "g" or \
                header[:-1] != [f"x{i}" for i in range(1, len(header))]:
            raise SampleFormatError(f"{path}: header must be x1,..,xn,g "
                                    f"(got {','.join(header)})")
    rows = _bulk_rows(path, len(header))
    if rows is None:
        data = _scan_rows(path, len(header))
        rows = data[:, :-1].copy(), data[:, -1].copy()
    x, y = rows
    try:
        with open(path + ".meta.json", "r", encoding="utf8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    except (OSError, ValueError) as exc:    # JSON or UTF-8 decoding
        raise SampleFormatError(f"{path}.meta.json: {exc}") from None
    if not isinstance(meta, dict) or \
            not isinstance(meta.get("measure", ""), str):
        raise SampleFormatError(f"{path}.meta.json: must be a JSON object "
                                "whose 'measure', if present, is a string")
    for key, have, what in (("count", len(y), "rows"),
                            ("n", x.shape[1], "inputs")):
        want = meta.get(key)
        if isinstance(want, int) and not isinstance(want, bool) and \
                want != have:
            raise SampleFormatError(f"{path}: {have} {what}, but its sidecar "
                                    f"says {key} {want}")
    return EvaluatedSample(x=x, y=y, measure_name=meta.get("measure", ""),
                           seed=meta.get("seed"))


def _block_rows(sample):
    """Rows of ``sample`` whose x holds about ``BLOCK_POINTS`` values: the
    block in which the estimators take their column-sized temporaries."""
    return max(1, BLOCK_POINTS // sample.n)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

CLAMP_HI = 1.05


@dataclass
class SobolEstimate:
    """Estimated indices with standard errors where the method provides them.

    ``s``/``st`` hold the raw estimates (possibly slightly negative or above
    one, as MC noise allows); ``clamped_s``/``clamped_st`` give the views
    meant for reports, clipped to [0, 1.05].  ``ess`` is the Kish effective
    sample size of a reweighted sample and ``uncovered`` the target's mass
    outside the sample's support (``_uncovered``), both None for every
    other method.
    """

    s: np.ndarray
    st: np.ndarray = None
    s_se: np.ndarray = None
    st_se: np.ndarray = None
    method: str = ""
    n_evals: int = 0
    ess: float = None
    uncovered: float = None

    @property
    def clamped_s(self):
        return np.clip(self.s, 0.0, CLAMP_HI)

    @property
    def clamped_st(self):
        return None if self.st is None else np.clip(self.st, 0.0, CLAMP_HI)


def brute_force_first_order(model, measure, n_outer=500, n_inner=500, seed=0):
    """Nested-loop estimate of S_i: variance of conditional means, directly.

    For each input, outer draws fix x_i while an independent inner sample
    averages over the rest.  The naive between-outer variance is biased up
    by the inner noise, so the standard correction (mean within-variance /
    n_inner) is subtracted.
    """
    if n_outer < 2 or n_inner < 2:
        raise ValueError("need at least 2 outer and 2 inner draws")
    n = measure.n
    s = np.empty(n)
    se = np.empty(n)
    all_vals = []
    cond_means = []
    for i in range(n):
        rng = substream(seed, "bruteforce", measure.name or "measure", i)
        xi = measure.components[i].sample(rng, n_outer)
        block = measure.sample(n_outer * n_inner, rng=rng).reshape(n_outer, n_inner, n)
        block[:, :, i] = xi[:, None]
        vals = _evaluate(model, block.reshape(-1, n))
        vals = vals.reshape(n_outer, n_inner)
        m = vals.mean(axis=1)
        within = vals.var(axis=1, ddof=1)
        cond_means.append((m, within))
        all_vals.append(vals.ravel())
    pooled = np.concatenate(all_vals)
    v_hat = pooled.var(ddof=1)
    if v_hat <= 0:
        raise EstimationError("sample variance is zero; indices undefined")
    for i, (m, within) in enumerate(cond_means):
        v_between = m.var(ddof=1) - within.mean() / n_inner
        s[i] = v_between / v_hat
        centred = m - m.mean()
        m4 = np.mean(centred**4)
        se[i] = np.sqrt(max(m4 - m.var(ddof=0) ** 2, 0.0) / n_outer) / v_hat
    return SobolEstimate(s=s, s_se=se, method="bruteforce",
                         n_evals=n * n_outer * n_inner)


def pick_freeze_indices(model, measure, n=2**14, seed=0):
    """Paired-design estimates of S_i and total-order ST_i.

    Uses the covariance form for S_i, mean of f(B).(f(AB_i) - f(A)), and the
    squared-difference form for ST_i, mean of (f(A) - f(AB_i))^2 / 2, both
    normalised by the pooled sample variance.  Costs n*(d+2) model calls for
    d inputs.
    """
    if n < 16:
        raise ValueError("pick-freeze needs at least 16 design rows")
    d = measure.n
    a = measure.sample(n, rng=substream(seed, "pickfreeze", measure.name or "measure", "A"))
    b = measure.sample(n, rng=substream(seed, "pickfreeze", measure.name or "measure", "B"))
    fa = _evaluate(model, a)
    fb = _evaluate(model, b)
    v_hat = np.concatenate([fa, fb]).var(ddof=1)
    if v_hat <= 0:
        raise EstimationError("sample variance is zero; indices undefined")
    s = np.empty(d)
    st = np.empty(d)
    s_se = np.empty(d)
    st_se = np.empty(d)
    for i in range(d):
        ab = a.copy()
        ab[:, i] = b[:, i]
        fab = _evaluate(model, ab)
        u = fb * (fab - fa)
        t = 0.5 * (fa - fab) ** 2
        s[i] = u.mean() / v_hat
        st[i] = t.mean() / v_hat
        s_se[i] = u.std(ddof=1) / np.sqrt(n) / v_hat
        st_se[i] = t.std(ddof=1) / np.sqrt(n) / v_hat
    return SobolEstimate(s=s, st=st, s_se=s_se, st_se=st_se,
                         method="pickfreeze", n_evals=n * (d + 2))


def given_data_first_order(sample, i, bins=None):
    """First-order index of input ``i`` (1-based) from an existing sample.

    Points are sorted along the input and split into near-equal-count
    quantile bins; S_i is the between-bin variance of the bin means over
    the total variance.  Default bin count is floor(sqrt(N)) — the usual
    bias/variance balance.
    """
    if not 1 <= i <= sample.n:
        raise ValueError(f"input index {i} out of range 1..{sample.n}")
    return _binned_first_order(sample, [i], bins, [None])[0][0][0]


def given_data_indices(sample, bins=None):
    """All first-order indices of a sample, as given_data_first_order."""
    return reweighted_indices(sample, [None], bins)[0]


def reweighted_indices(sample, targets, bins=None):
    """All first-order indices of ``sample`` under each of ``targets``, in
    one pass.  None takes the sample as drawn (``givendata``, as
    given_data_first_order).  A measure weighs it by w = f_target(x) /
    f_base(x), the base being ``sample.measure`` (``reweighted``, with the
    Kish ESS of w): bin masses and moments are sums of w, and the default
    bin count is floor(sqrt(ESS)), as skewed weights inflate the between-bin
    noise exactly as a smaller sample would.  A reweighted estimate also
    carries the target's mass that no weight reaches (``_uncovered``).
    Once every index is made, this process warns of each ESS below
    ``ESS_FLOOR`` and of each such mass above rounding."""
    targets = list(targets)
    rows, ess = _binned_first_order(sample, range(1, sample.n + 1), bins,
                                    targets)
    out = []
    for target, s, e in zip(targets, rows, ess):
        u = None
        if target is not None:
            u = _uncovered(sample.measure, target)
            _warn_ess(e, target.name or "")
            _warn_uncovered(u, target.name or "")
        out.append(SobolEstimate(s=np.array(s), ess=e, uncovered=u,
                                 method="givendata" if target is None
                                 else "reweighted"))
    return out


def _binned_first_order(sample, inputs, bins, targets):
    """([[S_i for i in ``inputs``] for each of ``targets``], [ESS of each
    target, None for None]) by ``reweighted_indices``' estimator.

    The inputs are split into ``_parts(rows)`` ranges: this process
    estimates the first while a forked child estimates each other one and
    sends back its indices.  The checks that do not depend on the
    weights run here before the split, and every process makes every
    target's weights and moments, so each error they raise is raised here
    too: a child fails alone only when it dies.
    """
    inputs, npts = list(inputs), len(sample)
    if bins is not None and bins < 2:
        raise ValueError("need at least 2 bins")
    # the default count is at most npts // 5, and 2 below 10 points
    if npts / (bins or 2) < 5:
        raise ValueError(f"{bins or 2} bins for {npts} points leaves fewer "
                         "than 5 points per bin")
    for i in inputs:
        col = sample.x[:, i - 1]
        if np.min(col) == np.max(col):
            raise EstimationError(f"degenerate binning: input {i} takes a "
                                  "single value")
    parts = min(_parts(npts), len(inputs))
    cuts = [len(inputs) * k // parts for k in range(parts + 1)]

    def job(a, b):          # one row of indices per target
        return [np.array(_estimate_inputs(sample, inputs[a:b], bins,
                                          targets)[0])]

    with _forked(job, cuts) as pipes:
        rows, ess = _estimate_inputs(sample, inputs[:cuts[1]], bins, targets)
        for pipe, a, b in zip(pipes, cuts[1:-1], cuts[2:]):
            raw = pipe.read(len(targets) * (b - a) * 8)
            if len(raw) < len(targets) * (b - a) * 8:
                break           # its child died, which _forked raises
            part = np.frombuffer(raw).reshape(len(targets), b - a)
            for row, more in zip(rows, part.tolist()):
                row.extend(more)
    return rows, ess


def _estimate_inputs(sample, inputs, bins, targets):
    """``_binned_first_order`` in one process: one sort per input, its
    order held for the pass, then one weight column at a time.  A target
    whose moments of g overflow raises here, before any bin is summed."""
    orders = [_sorted_order(sample.x[:, i - 1]) for i in inputs]
    y, npts, step = sample.y, len(sample), _block_rows(sample)
    rows, ess = [], []
    for target in targets:
        w = None if target is None else _reweighted(sample, target)
        n_eff = npts if w is None else _kish(w)
        ess.append(None if w is None else n_eff)
        nb = bins or max(2, min(int(np.sqrt(n_eff)), npts // 5))
        with np.errstate(over="ignore", invalid="ignore"):
            ybar, v_hat = _moments(y, w)
        if not (math.isfinite(ybar) and math.isfinite(v_hat)):
            what = ("the sample as drawn" if w is None else
                    f"target {target.name or 'measure'!r}, largest weight "
                    f"{w.max():.3g}")
            raise EstimationError("the moments of g leave the float range "
                                  f"({what}, largest |g| "
                                  f"{np.abs(y).max():.3g})")
        if v_hat <= 0:
            raise EstimationError("sample variance is zero; indices undefined")
        mass = npts if w is None else w.sum()
        rows.append([float(_between(order, y, w, ybar, nb, step)
                           / mass / v_hat) for order in orders])
        del w                   # before the next target's weights
    return rows, ess


def _sorted_order(col):
    """The stable argsort of ``col``, int32 while it is shorter than 2^31."""
    # the default sort is several times faster than the stable one, and
    # with no equal keys its permutation is the unique, hence stable, one
    order = np.argsort(col)
    keys = col[order]
    if not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(col, kind="stable")
    del keys
    return order.astype(np.int32) if len(col) < 2**31 else order


def _between(order, y, w, ybar, bins, block):
    """Σ_k W_k (m_k - ybar)^2 over the np.array_split bins of ``order``,
    W_k the mass and m_k the weighted mean of y in bin k; a bin of no mass
    adds a zero term.

    y and w are gathered into the order for the whole bins of about
    ``block`` rows at a time (unit weights are not gathered).  Each bin's
    mass and weighted sum is one ``np.add.reduceat`` segment, whose bits do
    not depend on where the segment sits, and the terms of all bins are
    summed at the end, so the result does not depend on ``block``.
    """
    # the bins of np.array_split: the first npts % bins hold one point more
    size, extra = divmod(len(order), bins)
    edges = np.arange(bins + 1) * size + np.minimum(np.arange(bins + 1), extra)
    per_block = max(1, block // (size + 1))
    terms = np.zeros(bins)
    for k0 in range(0, bins, per_block):
        k1 = min(k0 + per_block, bins)
        idx = order[edges[k0]:edges[k1]]
        starts = edges[k0:k1] - edges[k0]
        ys = y[idx]
        if w is None:
            mass = np.diff(edges[k0:k1 + 1])
        else:
            ws = w[idx]
            mass = np.add.reduceat(ws, starts)
            ys *= ws
        sums = np.add.reduceat(ys, starts)
        full = mass > 0
        d = sums[full] / mass[full] - ybar
        terms[k0:k1][full] = mass[full] * (d * d)
    return terms.sum()


# ---------------------------------------------------------------------------
# reweighting
# ---------------------------------------------------------------------------

ESS_FLOOR = 50.0
# an uncovered target mass above this many ulps of one is more than the
# rounding of the per-axis rules it comes from (_uncovered)
UNCOVERED_ULPS = 64


def _reweighted(sample, target):
    """The importance weights f_target(x) / f_base(x) of ``sample``, taken
    one block of rows at a time straight into the weight column.  Raises
    when the base measure is unknown, either measure has another input
    count than the sample, the base has zero density at an observed point,
    a weight is not finite, or the weights sum to zero."""
    if sample.measure is None:
        raise EstimationError("reweighting needs the sample's base measure; "
                              "set sample.measure first")
    for what, measure in (("base", sample.measure), ("target", target)):
        if measure.n != sample.n:
            raise ValueError(f"the sample has {sample.n} inputs, but its "
                             f"{what} measure has {measure.n}")
    x, step = sample.x, _block_rows(sample)
    w = np.empty(len(x))
    for a in range(0, len(x), step):
        base = sample.measure.density(x[a:a + step])
        if np.any(base <= 0):
            raise EstimationError("base measure has zero density at an "
                                  "observed point; importance weights are "
                                  "undefined")
        with np.errstate(over="ignore"):    # a non-finite weight raises
            np.divide(target.density(x[a:a + step]), base, out=w[a:a + step])
    if not np.all(np.isfinite(w)):
        raise EstimationError("non-finite importance weight")
    if w.sum() <= 0:
        raise EstimationError(f"target {target.name or 'measure'!r} puts no "
                              "mass on the sampled region")
    return w


def _kish(w):
    """The Kish effective sample size (Σw)² / Σw² of weights ``w``; taken
    on w / max(w), the same ratio, where the squares leave the float
    range."""
    with np.errstate(all="ignore"):
        s = w.sum()
        ess = s * s / np.square(w).sum()
    return float(ess) if np.isfinite(ess) else _kish(w / w.max())


def _warn_ess(ess, name):
    if ess < ESS_FLOOR:
        warnings.warn(f"effective sample size {ess:.1f} below {ESS_FLOOR:g}; "
                      f"reweighted estimates toward {name!r} are unreliable",
                      stacklevel=3)


def _uncovered(base, target):
    """1 - prod_i P_target(X_i in supp base_i): the target's mass where the
    base measure, and so a sample drawn under it, puts none.  No weight
    reaches it, so a reweighted estimate is that of the target cut to the
    base's support.  Taken from the two measures alone: an axis whose base
    support holds the target's counts exactly 1, any other the sum of the
    weights of its ``restricted_rule`` to that support, which is that
    probability."""
    covered = 1.0
    for b, t in zip(base.components, target.components):
        box, (lo, hi) = b.support(), t.support()
        if not box[0] <= lo <= hi <= box[1]:
            rule = t.restricted_rule(box)
            covered *= 0.0 if rule is None else float(rule[1].sum())
    return max(0.0, 1.0 - covered)


def _warn_uncovered(uncovered, name):
    if uncovered > UNCOVERED_ULPS * np.finfo(float).eps:
        warnings.warn(f"target {name!r} puts {uncovered:.3g} of its mass "
                      "outside the sample's support; reweighted estimates "
                      "toward it are of the target cut to that support",
                      stacklevel=3)


def _moments(y, w):
    """The mean and variance of ``y``: self-normalised under weights ``w``
    (whose sum ``_reweighted`` has checked), or of the sample as drawn
    when ``w`` is None."""
    if w is None:
        m = y.sum() / y.size
        d = y - m
        return float(m), float(np.square(d, out=d).sum() / y.size)
    s = w.sum()
    m = (w * y).sum() / s
    return float(m), float((w * (y - m) ** 2).sum() / s)
