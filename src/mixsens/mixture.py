"""Prior-weighted (mixture) sensitivity analysis over a set of measures.

With a prior p over candidate measures mu^1..mu^Q, the object of study is
the hierarchical model: first the measure, then X from it.  Two routes
produce the mixture effect functions:

* average the per-measure ANOVA terms, ``sum_k p_k g_z^k``, each component
  gated by the indicator of its own support (a candidate says nothing about
  points it assigns no mass to) — :func:`mixture_effect_from_components`;
* pool the per-measure conditional means ``w_v = sum_k p_k w_v^k`` and run
  the ANOVA recursion on those — :func:`mixture_effect_from_pooled_conditionals`.

On the intersection of the supports every indicator equals one and the two
routes agree exactly (the recursion is linear in the conditionals); off the
intersection the pooled route is the natural analytic continuation.  Note
what the mixture terms are *not*: they are generally not annihilating with
respect to the mixture's own marginals — mixing couples the coordinates, so
no orthogonal decomposition against the mixture exists.
``mixture_annihilation_defect`` quantifies the failure.

Variance splits in two stages: the prior-average of the per-measure variances
(itself a sum of per-subset terms B_z) plus the variance of the per-measure
means across candidates,

    Var[G] = sum_z B_z + Var_p(E_k[G]),   B_z = sum_k p_k V_z^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anova import (DEFAULT_ORDER, PLOT_ROWS, AnovaEngine, _along,
                    _mobius, _subset, _subsets_of, _tensor_points)
from .measures import measure_name


def component_engines(mset, model, order=DEFAULT_ORDER):
    """One AnovaEngine per candidate measure, sharing settings and the
    model's full-subset rows, whose w is g itself under every measure: one
    last-call entry (``AnovaEngine._w_at``) serves them all."""
    engines = [AnovaEngine(model, m, order=order) for m in mset.measures]
    for eng in engines[1:]:
        eng._w_full = engines[0]._w_full
    return engines


def _check(engines, prior):
    p = np.asarray(prior, dtype=float)
    if p.size != len(engines):
        raise ValueError("one prior weight per engine required")
    return p


def _weighted(engines, prior):
    """The checked (weight, engine) pairs of nonzero prior weight, in order."""
    return [(pk, eng) for pk, eng in zip(_check(engines, prior), engines)
            if pk != 0.0]


def support_indicator(measure, z, x):
    """Boolean mask: which rows of ``x`` lie in the measure's z-marginal support."""
    z = _subset(z, measure.n)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    inside = np.ones(x.shape[0], dtype=bool)
    for j, i in enumerate(z):
        lo, hi = measure.components[i - 1].support()
        inside &= (x[:, j] >= lo) & (x[:, j] <= hi)
    return inside


def mixture_effect_from_components(engines, prior, z, x):
    """The mixture effect as the prior-average of per-measure effects g_z^k.

    Each component contributes only inside its own support (indicator
    semantics): a candidate distribution carries no information about
    points it assigns zero mass.  Points outside *every* support therefore
    evaluate to 0.  The columns of ``x`` follow the order of z, in this
    route and the pooled one.
    """
    z = tuple(z)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros(x.shape[0])
    for pk, eng in _weighted(engines, prior):
        vals = eng.effect(z, x)
        if z:
            vals = np.where(support_indicator(eng.measure, z, x), vals, 0.0)
        out += pk * vals
    return out


def mixture_effect_from_pooled_conditionals(engines, prior, z, x):
    """The mixture effect from pooled conditional means.

    Pools ``w_v = sum_k p_k w_v^k`` — the conditional expectation of the
    model under the two-stage mixture — and applies the ANOVA recursion to
    the pooled quantities.  Globally defined; agrees exactly with the
    component route on the intersection of the supports.  A candidate of
    prior weight 0 is not evaluated, as in the component route.
    """
    z = tuple(z)
    key = tuple(sorted(z))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    subsets = _subsets_of(key)
    w = {v: np.zeros(x.shape[0]) for v in subsets}
    for pk, eng in _weighted(engines, prior):
        for v, t in eng.conditional_means(z, x).items():
            w[v] += pk * t
    return _mobius(subsets, w)[key]


@dataclass
class MixtureDecomposition:
    """Two-stage variance split of a model over a weighted measure set.

    ``terms`` holds B_z (prior-averaged per-subset variances); ``between``
    the variance of per-measure means across the prior; ``total`` their sum
    (equal to the variance of the hierarchical model).  ``components`` keeps
    the per-measure decompositions the averages came from.
    """

    names: tuple
    prior: tuple
    terms: dict
    residual: float
    between: float
    component_means: np.ndarray
    mixture_mean: float
    components: list
    n: int

    @property
    def structural(self):
        return sum(self.terms.values()) + self.residual

    @property
    def total(self):
        return self.structural + self.between

    @property
    def structural_share(self):
        return self.structural / self.total


def mixture_variance_decomposition(engines, prior, max_order=None):
    p = _check(engines, prior)
    vds = [eng.variance_decomposition(max_order) for eng in engines]
    subsets = list(vds[0].terms)
    terms = {z: float(sum(pk * vd.terms[z] for pk, vd in zip(p, vds)))
             for z in subsets}
    residual = float(sum(pk * vd.residual for pk, vd in zip(p, vds)))
    means = np.array([vd.mean for vd in vds])
    mbar = float(np.dot(p, means))
    between = float(np.dot(p, (means - mbar) ** 2))
    names = tuple(measure_name(eng.measure, k) for k, eng in enumerate(engines))
    return MixtureDecomposition(
        names=names, prior=tuple(float(v) for v in p),
        terms=terms, residual=residual, between=between, component_means=means,
        mixture_mean=mbar, components=vds, n=vds[0].n)


def mixture_annihilation_defect(engines, prior, z):
    """Integral of the mixture effect g_z against the mixture's z-marginal.

    For a single measure this is identically zero (that is what makes the
    decomposition unique); under a genuine mixture it typically is not, and
    the value measures how far the mixture terms are from an orthogonal
    decomposition.

    The mixture marginal is the prior-average of component marginals and the
    mixture effect (:func:`mixture_effect_from_components`) is the
    prior-average of indicator-masked component effects, so the defect
    splits into pair terms

        sum_{k,j} p_k p_j E_{mu^k_z}[ 1{supp_j,z} g_z^j ],

    each integrable by a smooth rule over the box intersection of the two
    supports (``restricted_rule`` of mu^k's components).  A k = j term is
    skipped: it is the integral of g_z^k against its own marginal (the gate
    is one on its own support), zero by annihilation, so a single measure
    gives exactly 0.0.
    """
    pairs = _weighted(engines, prior)
    z = tuple(sorted(_subset(z, engines[0].n)))
    if not z:
        return 0.0
    total = 0.0
    for pk, k_eng in pairs:                      # expectation measure
        for pj, j_eng in pairs:                  # effect term and its gate
            if j_eng is k_eng:
                continue
            rules = [k_eng.measure.components[i - 1].restricted_rule(
                j_eng.measure.components[i - 1].support()) for i in z]
            if None not in rules:
                pts = _tensor_points([x for x, _ in rules])
                g = j_eng.effect(z, pts).reshape([x.size for x, _ in rules])
                total += pk * pj * _along([w[None] for _, w in rules], g).item()
    return total


@dataclass
class MixtureEffectCurve:
    """First-order effect of one input: per-component curves plus mixture.

    The grid spans the union of the components' plotting ranges.  The
    mixture curve is the prior-average of the ungated per-measure effects,
    which equals the pooled (globally defined) route up to rounding, so
    that, for a monotone model, it is monotone across the whole grid rather
    than jumping at component support boundaries.
    """

    input: int
    grid: np.ndarray
    component_values: dict
    mixture_values: np.ndarray


def mixture_effect_curve(engines, prior, i, npts=PLOT_ROWS):
    p = _check(engines, prior)
    i, = _subset((i,), engines[0].n)
    ranges = [eng.measure.components[i - 1].plot_range() for eng in engines]
    lo = min(r[0] for r in ranges)
    hi = max(r[1] for r in ranges)
    grid = np.linspace(lo, hi, npts)
    comp = {}
    mix = np.zeros(npts)
    for k, (pk, eng) in enumerate(zip(p, engines)):
        vals = eng.effect((i,), grid[:, None])
        comp[measure_name(eng.measure, k)] = vals
        mix += pk * vals
    return MixtureEffectCurve(input=i, grid=grid, component_values=comp,
                              mixture_values=mix)
