"""Dimension distributions, robust rankings, and shape checks on effects.

Three families of diagnostics:

* dimension distributions — read a variance decomposition as a probability
  mass over subsets (mass of z proportional to V_z) and summarise it by the
  mean cardinality D_S and the mean highest index D_T, per measure, per
  mixture, and as inf/sup ranges across a measure set;
* robust rankings — order inputs by first-order index so that the order
  survives *every* candidate measure: input i robustly beats j only when
  i's worst case exceeds j's best case;
* shape checks — monotonicity and ultramodularity of effect curves and
  models, plus the per-measure delta condition that certifies monotone
  higher-order mixture effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anova import (AnovaEngine, EffectCurve, ZeroVarianceError, _evaluate,
                    _subset, _tensor_points)
from .measures import ProductMeasure, SupportError, Uniform, measure_name
from .models import _connected_groups


# ---------------------------------------------------------------------------
# dimension distributions
# ---------------------------------------------------------------------------

@dataclass
class DimensionDistribution:
    """Probability mass over (nonempty) subsets plus its two summaries.

    ``d_s`` is the expected cardinality (mean effective dimension in the
    superposition sense); ``d_t`` the expected largest index (truncation
    sense).  Masses are normalised to sum to one.
    """

    measure: str
    masses: dict
    d_s: float
    d_t: float


def _distribution_from_masses(name, masses):
    d_s = sum(len(z) * m for z, m in masses.items())
    d_t = sum(max(z) * m for z, m in masses.items())
    return DimensionDistribution(measure=name, masses=masses,
                                 d_s=float(d_s), d_t=float(d_t))


def dimension_distribution(vd):
    """The mass function Pr(T = z) = V_z / V of a variance decomposition.

    Masses are renormalised over the computed terms so they sum to exactly
    one.  When the decomposition is complete this also makes D_S equal the
    sum of total-order indices.
    """
    vd.require_variance()
    norm = sum(vd.terms.values())
    if norm <= 0.0:
        raise ZeroVarianceError(f"measure {vd.measure!r}: no variance in any "
                                "computed term")
    masses = {z: v / norm for z, v in vd.terms.items()}
    return _distribution_from_masses(vd.measure, masses)


def mixture_dimension_distribution(prior, vds):
    """Mixture of the per-measure mass functions, weighted by the prior.

    The summaries commute with the mixing: D_S of the mixture equals the
    prior-weighted mean of the component D_S (same for D_T).  Both
    computations are carried out and compared to 1e-12 as a self-check.
    """
    p = np.asarray(prior, dtype=float)
    if p.size != len(vds):
        raise ValueError("one prior weight per decomposition required")
    dists = [dimension_distribution(vd) for vd in vds]
    masses = {}
    for pk, dd in zip(p, dists):
        for z, m in dd.masses.items():
            masses[z] = masses.get(z, 0.0) + pk * m
    out = _distribution_from_masses("mixture", masses)
    d_s_avg = float(np.dot(p, [dd.d_s for dd in dists]))
    d_t_avg = float(np.dot(p, [dd.d_t for dd in dists]))
    if abs(out.d_s - d_s_avg) > 1e-12 or abs(out.d_t - d_t_avg) > 1e-12:
        raise ArithmeticError(
            f"mixture dimension self-check failed: {out.d_s!r} vs {d_s_avg!r}, "
            f"{out.d_t!r} vs {d_t_avg!r}")
    return out


def dimension_bounds(vds):
    """(inf D_S, sup D_S, inf D_T, sup D_T) across the per-measure results."""
    ds, dt = zip(*((dd.d_s, dd.d_t) for dd in map(dimension_distribution, vds)))
    return min(ds), max(ds), min(dt), max(dt)


# ---------------------------------------------------------------------------
# robust rankings
# ---------------------------------------------------------------------------

@dataclass
class RobustReport:
    """Interval ranking of inputs across a measure set.

    ``s_lo``/``s_hi`` are per-input inf/sup of the first-order index over
    measures.  ``dominates[i, j]`` asserts input i+1 robustly more important
    than input j+1; blocks list the inputs in rank order with unresolved
    positions grouped (never forced apart).  ``most_important`` and
    ``least_important`` are set only when a single input dominates (or is
    dominated by) every other.
    """

    s_lo: np.ndarray
    s_hi: np.ndarray
    dominates: np.ndarray
    blocks: list
    most_important: int = None
    least_important: int = None
    estimated: bool = False


def robust_ranking(s_matrix, ses=None):
    """Rank inputs so the order holds under every measure in the set.

    ``s_matrix`` has shape (measures, inputs) of first-order indices.
    Dominance is the strict interval rule: i beats j iff inf_m S_i > sup_m
    S_j.  When ``ses`` (same shape, standard errors of MC estimates) is
    given, dominance additionally requires the gap to exceed twice the
    combined standard errors of the extremal estimates — a noise guard, so
    sampling error cannot manufacture a robust conclusion.
    """
    s = np.atleast_2d(np.asarray(s_matrix, dtype=float))
    q, n = s.shape
    lo_idx = np.argmin(s, axis=0)
    hi_idx = np.argmax(s, axis=0)
    s_lo = s[lo_idx, np.arange(n)]
    s_hi = s[hi_idx, np.arange(n)]
    if ses is not None:
        ses = np.atleast_2d(np.asarray(ses, dtype=float))
        if ses.shape != s.shape:
            raise ValueError("ses must match the index matrix shape")
        se_lo = ses[lo_idx, np.arange(n)]
        se_hi = ses[hi_idx, np.arange(n)]
    gap = 0.0 if ses is None else 2.0 * (se_lo[:, None] + se_hi[None, :])
    dom = s_lo[:, None] > s_hi[None, :] + gap
    np.fill_diagonal(dom, False)

    # tied blocks: connected components of "neither dominates", ordered by
    # their best-case index (greedy top-down)
    comp = [[i + 1 for i in g] for g in _connected_groups(~dom & ~dom.T)]
    blocks = sorted(comp,
                    key=lambda blk: (-max(s_hi[i - 1] for i in blk), blk[0]))

    most, least = (next((int(i) + 1 for i in np.flatnonzero(c == n - 1)), None)
                   for c in (dom.sum(axis=1), dom.sum(axis=0)))
    return RobustReport(s_lo=s_lo, s_hi=s_hi, dominates=dom, blocks=blocks,
                        most_important=most, least_important=least,
                        estimated=ses is not None)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def _max_drop(values):
    """Largest decrease between neighbours along any axis; 0 when none."""
    worst = 0.0
    for ax in range(values.ndim):
        d = np.diff(values, axis=ax)
        if d.size:
            worst = max(worst, float(-d.min()))
    return worst


@dataclass
class MonotonicityVerdict:
    """Grid-relative monotonicity classification of a tabulated curve."""

    verdict: str                   # nondecreasing | nonincreasing | nonmonotone
    nondecreasing: bool
    nonincreasing: bool
    max_violation: float           # smallest violation over the two classes
    tol: float


def monotonicity_check(curve, floor=0.0):
    """Classify a tabulated effect curve by its consecutive differences.

    ``curve`` is an EffectCurve or a plain array of values on a sorted grid;
    for two-dimensional effects, differences are scanned along each axis
    (consistent with the componentwise partial order).  The tolerance is
    1e-6 of the curve's value range (1e-12 when it is flat), which makes
    verdicts grid-relative: they certify the tabulation, not the continuum,
    and at least ``floor``, the error the values carry: a curve that is
    rounding noise about a constant is judged against its error, not
    against that noise.  A constant curve is both nondecreasing and
    nonincreasing.
    """
    values = curve.values if isinstance(curve, EffectCurve) else np.asarray(curve, dtype=float)
    if values.ndim <= 1 and values.size < 2:
        raise ValueError("need at least 2 grid points")
    if values.ndim > 1 and min(values.shape) < 2:
        raise ValueError("need at least 2 grid points per axis")
    span = float(np.max(values) - np.min(values))
    tol = max(1e-6 * span if span > 0 else 1e-12, floor)
    up_viol = _max_drop(values)        # violation of "nondecreasing"
    down_viol = _max_drop(-values)     # violation of "nonincreasing"
    nondec, noninc = up_viol <= tol, down_viol <= tol
    verdict = "nondecreasing" if nondec else \
        "nonincreasing" if noninc else "nonmonotone"
    return MonotonicityVerdict(verdict=verdict, nondecreasing=nondec,
                               nonincreasing=noninc,
                               max_violation=float(min(up_viol, down_viol)),
                               tol=float(tol))


# ---------------------------------------------------------------------------
# ultramodularity
# ---------------------------------------------------------------------------

@dataclass
class UltramodularityReport:
    ultramodular: bool
    max_violation: float
    n_checks: int
    grid_k: int
    tol: float
    effect_convex: dict = None     # per input: first-order effect convex?


def ultramodularity_check(model, box, grid_k=7, measure=None):
    """Brute-force test of increasing increments on a tensor grid.

    The defining property — g(x + d) - g(x) nondecreasing in x for every
    step d >= 0 — is checked exhaustively: for each grid step d, the
    difference field is formed by slicing and scanned for monotonicity
    along every axis (which covers all pairs x1 <= x2 by telescoping).
    Work grows like n * k^(2n) comparisons, hence the caps grid_k <= 9 and
    n <= 4; larger requests are rejected.  Increments may fall by up to
    1e-9 of max(1, range of g on the grid), which absorbs rounding.

    As a corollary check, the first-order effects of ``measure`` (uniform
    on the box when omitted; one coordinate per box interval, whose support
    holds it, when given; its engine at the default order) are tested for
    discrete convexity: they must be convex whenever the model is
    ultramodular.
    """
    box = [tuple(map(float, b)) for b in box]
    n = len(box)
    if not 3 <= grid_k <= 9:
        raise ValueError("grid_k must be in 3..9 (enumeration is exponential; "
                         "use a coarser grid)")
    if not 1 <= n <= 4:
        raise ValueError("ultramodularity enumeration supports 1..4 inputs")
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"bad box interval [{lo}, {hi}]")
    if measure is None:
        measure = ProductMeasure(tuple(Uniform(lo, hi) for lo, hi in box),
                                 name="box")
    elif measure.n != n:
        raise ValueError(f"measure has {measure.n} inputs, box has {n}")
    else:
        for (lo, hi), comp in zip(box, measure.components):
            slo, shi = comp.support()
            if lo < slo or hi > shi:
                raise ValueError("box outside measure support")

    grids = [np.linspace(lo, hi, grid_k) for lo, hi in box]
    g = _evaluate(model, _tensor_points(grids)).reshape([grid_k] * n)
    tol = 1e-9 * max(1.0, float(np.max(g) - np.min(g)))

    worst, n_checks = 0.0, 0
    for step in np.ndindex(*([grid_k] * n)):
        if not any(step):
            continue
        base = tuple(slice(0, grid_k - s) for s in step)
        shifted = tuple(slice(s, grid_k) for s in step)
        diff = g[shifted] - g[base]
        worst = max(worst, _max_drop(diff))
        n_checks += sum(diff.size // k * (k - 1) for k in diff.shape)

    convex = {}
    if n <= 3:
        eng = AnovaEngine(model, measure)
        for i in range(1, n + 1):
            vals = eng.effect((i,), grids[i - 1][:, None])
            second = np.diff(vals, 2)
            convex[i] = bool(second.size == 0 or float(second.min()) >= -tol)
    return UltramodularityReport(ultramodular=worst <= tol,
                                 max_violation=worst, n_checks=n_checks,
                                 grid_k=grid_k, tol=float(tol),
                                 effect_convex=convex or None)


# ---------------------------------------------------------------------------
# mixture monotonicity condition
# ---------------------------------------------------------------------------

CONDITION_NPTS = 17       # grid points per axis of the delta condition
CONDITION_TOL = 1e-9      # largest drop of g_z counted as rounding


@dataclass
class MixtureMonotonicityReport:
    holds: bool
    max_violation: float
    per_measure: dict
    tol: float

    def __bool__(self):
        return self.holds


def mixture_monotonicity_condition(engines, z):
    """Delta condition certifying monotone higher-order mixture effects.

    For each candidate measure the increment of the conditional mean w_z
    must dominate the summed increments of the lower-order effects,
    for every grid pair x <= x'.  Equivalently (telescoping along axes)
    H = w_z - sum of nonempty proper-subset effects must be nondecreasing
    along each coordinate.  H is g_z plus the constant mean, so g_z is what
    is scanned here, per measure, on a grid of ``CONDITION_NPTS`` points
    per axis shared across measures (the intersection of their plotting
    ranges); drops up to ``CONDITION_TOL`` count as rounding.
    True means every first- and higher-order mixture effect on z built from
    these candidates is nondecreasing on the grid, for any prior.
    """
    if not engines:
        raise ValueError("a mixture needs at least one engine")
    z = tuple(sorted(_subset(z, engines[0].n)))
    if not z:
        raise ValueError("z must be nonempty")
    lo = {i: max(eng.measure.components[i - 1].plot_range()[0] for eng in engines)
          for i in z}
    hi = {i: min(eng.measure.components[i - 1].plot_range()[1] for eng in engines)
          for i in z}
    for i in z:
        if not lo[i] < hi[i]:
            raise SupportError(f"coordinate {i}: no common range to grid over")
    pts = _tensor_points([np.linspace(lo[i], hi[i], CONDITION_NPTS) for i in z])

    per_measure, worst = {}, 0.0
    for k, eng in enumerate(engines):
        viol = _max_drop(eng.effect(z, pts).reshape([CONDITION_NPTS] * len(z)))
        per_measure[measure_name(eng.measure, k)] = viol
        worst = max(worst, viol)
    return MixtureMonotonicityReport(holds=worst <= CONDITION_TOL,
                                     max_violation=worst,
                                     per_measure=per_measure, tol=CONDITION_TOL)
