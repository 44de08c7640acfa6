"""Benchmark models, their reference measures, and closed-form effects.

The Ishigami function is the workhorse: it is cheap, strongly nonlinear, and
its ANOVA decomposition is available in closed form under any product
measure, which makes it ideal for validating the numerical engine and for
demonstrating how strongly sensitivity conclusions depend on the assumed
input distribution.  Five named candidate measures (``mu1`` .. ``mu5``) are
provided; the first three differ in every conclusion they support, while
``mu4``/``mu5`` reproduce ``mu1``'s decomposition exactly despite being
different distributions.

The second family, composite multilinear models ``g = sum_u c_u *
prod_{i in u} t_i(x_i)``, is the structural reason such coincidences happen:
the whole decomposition depends on the input measure only through the factor
means ``E[t_i]`` (the model's "core" under that measure).  Measures sharing a
core share every effect, every variance term, every index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .measures import (ConfigError, MeasureSet, Normal, ProductMeasure,
                       Uniform, _load_yaml, _read_list, _read_number,
                       _reject_extras)

__all__ = [
    "IshigamiModel", "ishigami_measures", "ishigami_measure_set",
    "ishigami_effect", "ishigami_mixture_effect",
    "CompositeMultilinearModel", "multilinear_from_dict",
    "core_signature", "core_partition", "core_groups", "resolve_model",
]


# ---------------------------------------------------------------------------
# Ishigami
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IshigamiModel:
    """g(x) = sin(x1) * (1 + b*x3^4) + a*sin(x2)^2.

    Written multiplicatively (rather than the equivalent
    ``sin x1 + a sin^2 x2 + b x3^4 sin x1``) to make the two-term composite
    structure explicit: factors (sin x1, a sin^2 x2, 1 + b x3^4), terms
    {1, 3} and {2}.
    """

    a: float = 7.0
    b: float = 0.1

    n = 3

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.sin(x[..., 0]) * (1.0 + self.b * x[..., 2] ** 4) \
            + self.a * np.sin(x[..., 1]) ** 2

    def as_multilinear(self):
        a, b = self.a, self.b
        factors = (np.sin,
                   lambda t: a * np.sin(t) ** 2,
                   lambda t: 1.0 + b * t ** 4)
        return CompositeMultilinearModel(factors=factors, terms=((1, 3), (2,)))


def ishigami_measures():
    """The five named candidate input distributions for the Ishigami model."""
    pi = math.pi
    u = Uniform(-pi, pi)
    half = Uniform(-pi / 2, pi / 2)
    return {
        "mu1": ProductMeasure((u, u, u), name="mu1"),
        "mu2": ProductMeasure((Normal(0.0, 1.0),) * 3, name="mu2"),
        "mu3": ProductMeasure((Uniform(0.0, pi),) * 3, name="mu3"),
        "mu4": ProductMeasure((u, half, u), name="mu4"),
        "mu5": ProductMeasure((half, half, u), name="mu5"),
    }


def ishigami_measure_set(names=("mu1", "mu2", "mu3"), prior=None):
    reg = ishigami_measures()
    try:
        ms = tuple(reg[nm] for nm in names)
    except KeyError as exc:
        raise ConfigError(f"unknown Ishigami measure {exc}") from None
    return MeasureSet(ms, prior=prior)


def _sorted_columns(z, x):
    """z sorted, and the columns of ``x`` (given in the order of z) in the
    same order; a 1-d ``x`` is one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, np.argsort(z)]
    return tuple(sorted(z)), x


def _ishigami_moments(measure, a, b, order=64):
    """The three scalar moments that determine the whole decomposition.

    s1 = E[sin X1], c2 = E[a sin^2 X2], q3 = E[X3^4].
    """
    c = measure.components
    s1 = c[0].expect(np.sin, order)
    c2 = c[1].expect(lambda t: a * np.sin(t) ** 2, order)
    q3 = c[2].expect(lambda t: t ** 4, order)
    return s1, c2, q3


def ishigami_effect(measure, z, x, a=7.0, b=0.1, order=64):
    """Closed-form ANOVA effect g_z of the Ishigami model under ``measure``.

    Writing s1 = E[sin X1], c2 = E[a sin^2 X2], q3 = E[X3^4], the product
    structure gives, for any product measure,

        g_const = c2 + s1 * (1 + b*q3)
        g_{1}   = (sin x1 - s1) * (1 + b*q3)
        g_{2}   = a sin^2 x2 - c2
        g_{3}   = b * s1 * (x3^4 - q3)
        g_{13}  = b * (sin x1 - s1) * (x3^4 - q3)

    and every other subset vanishes identically.  ``x`` has shape (N,) for
    singletons or (N, |z|), its columns in the order of z, which need not be
    sorted.
    """
    s1, c2, q3 = _ishigami_moments(measure, a, b, order)
    if not z:
        return c2 + s1 * (1.0 + b * q3)
    z, x = _sorted_columns(z, x)
    if len(z) == 1 and x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if z == (1,):
        return (np.sin(x) - s1) * (1.0 + b * q3)
    if z == (2,):
        return a * np.sin(x) ** 2 - c2
    if z == (3,):
        return b * s1 * (x**4 - q3)
    if z == (1, 3):
        if x.ndim != 2 or x.shape[1] != 2:
            raise ValueError("pair effect wants points of shape (N, 2)")
        return b * (np.sin(x[:, 0]) - s1) * (x[:, 1] ** 4 - q3)
    return np.zeros(x.shape[0] if x.ndim else ())


def ishigami_mixture_effect(mset, z, x, a=7.0, b=0.1, order=64):
    """Closed-form mixture effect: prior-weighted sum of per-measure effects,
    each gated by the indicator of its own support.

    With candidates mu^1..mu^Q and prior p, the tabulated form is

        g_z(x) = sum_k p_k * 1{x_z in supp_k} * g_z^{mu^k}(x_z),

    i.e. each candidate contributes only where its own marginal support
    covers the evaluation point.  ``x`` shaped as in :func:`ishigami_effect`.
    """
    p = mset.require_prior()
    if not z:
        return float(sum(pk * ishigami_effect(m, (), None, a, b, order)
                         for pk, m in zip(p, mset.measures)))
    z, x = _sorted_columns(z, x)
    cols = x if x.ndim == 2 else x[:, None]
    out = np.zeros(cols.shape[0])
    for pk, m in zip(p, mset.measures):
        inside = np.ones(cols.shape[0], dtype=bool)
        for j, i in enumerate(z):
            lo, hi = m.components[i - 1].support()
            inside &= (cols[:, j] >= lo) & (cols[:, j] <= hi)
        vals = ishigami_effect(m, z, x, a, b, order)
        out += pk * np.where(inside, vals, 0.0)
    return out


# ---------------------------------------------------------------------------
# composite multilinear models and their cores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeMultilinearModel:
    """g(x) = sum_u c_u * prod_{i in u} t_i(x_i).

    ``factors`` holds one vectorised callable t_i per input; ``terms`` the
    index subsets u (1-based); ``coeffs`` the optional scalars c_u (default
    all ones).
    """

    factors: tuple
    terms: tuple
    coeffs: tuple = None

    def __post_init__(self):
        terms = tuple(tuple(sorted(int(i) for i in u)) for u in self.terms)
        n = len(self.factors)
        for u in terms:
            if len(set(u)) != len(u):
                raise ConfigError(f"term {u} repeats an input")
            if u and not (1 <= u[0] and u[-1] <= n):
                raise ConfigError(f"term {u} references inputs outside 1..{n}")
        object.__setattr__(self, "terms", terms)
        coeffs = self.coeffs
        if coeffs is None:
            coeffs = (1.0,) * len(terms)
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) != len(terms):
            raise ConfigError("need one coefficient per term")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self):
        return len(self.factors)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for c, u in zip(self.coeffs, self.terms):
            part = np.full(x.shape[:-1], c)
            for i in u:
                part = part * self.factors[i - 1](x[..., i - 1])
            out = out + part
        return out

    # -- closed-form ANOVA against a product measure ------------------------

    def factor_stats(self, measure, order=64):
        """(means, second central moments) of each factor under ``measure``."""
        m = np.empty(self.n)
        s2 = np.empty(self.n)
        for i, (t, c) in enumerate(zip(self.factors, measure.components)):
            m[i] = c.expect(t, order)
            s2[i] = c.expect(lambda v: (t(v) - m[i]) ** 2, order)
        return m, s2

    def exact_effect(self, measure, z, x, order=64):
        """g_z at points x of shape (N, |z|), from the factor means alone.

        Expanding each factor as (t_i - m_i) + m_i shows

            g_z(x_z) = [prod_{i in z} (t_i(x_i) - m_i)]
                       * sum_{u contains z} c_u * prod_{i in u \\ z} m_i,

        with the convention that the empty product is 1; subsets z not
        contained in any term get an identically zero effect.  The columns
        of ``x`` follow the order of z, which need not be sorted.
        """
        z = tuple(z)
        m, _ = self.factor_stats(measure, order)
        coef = sum(c * math.prod(m[i - 1] for i in u if i not in z)
                   for c, u in zip(self.coeffs, self.terms)
                   if set(z) <= set(u))
        if not z:
            return float(coef)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(x.shape[0], float(coef))
        for j, i in enumerate(z):
            out = out * (self.factors[i - 1](x[:, j]) - m[i - 1])
        return out

    def exact_term_variance(self, measure, z, order=64):
        """V_z in closed form: coef^2 * prod of the factor variances on z."""
        z = tuple(sorted(z))
        if not z:
            return 0.0
        m, s2 = self.factor_stats(measure, order)
        coef = sum(c * math.prod(m[i - 1] for i in u if i not in z)
                   for c, u in zip(self.coeffs, self.terms)
                   if set(z) <= set(u))
        return float(coef**2 * math.prod(s2[i - 1] for i in z))


def multilinear_from_dict(doc):
    """Build a composite multilinear model from a parsed config mapping.

    Schema: ``n`` (int), ``factors`` (list of ascending polynomial
    coefficient lists, one per input), ``terms`` (list of index lists),
    optional ``coeffs``.  Unknown fields are rejected.
    """
    if not isinstance(doc, dict):
        raise ConfigError("model config must be a mapping")
    where = "model config"
    _reject_extras(doc, {"n", "factors", "terms", "coeffs"}, where)
    try:
        n = _read_number(doc["n"], f"{where}: n", integer=True)
        raw_factors = doc["factors"]
        raw_terms = _read_list(doc["terms"], f"{where}: terms")
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    if not isinstance(raw_factors, list) or len(raw_factors) != n:
        raise ConfigError(f"{where}: expected {n} factor coefficient lists")
    factors = []
    for i, raw in enumerate(raw_factors):
        at = f"{where}: factors[{i}]"
        # the coefficients straight into polyval: a Polynomial would first
        # map each argument through its identity domain, one more pass
        factors.append(partial(np.polynomial.polynomial.polyval, c=np.array(
            [_read_number(v, f"{at}[{j}]")
             for j, v in enumerate(_read_list(raw, at, nonempty=True))],
            dtype=float)))
    terms = tuple(tuple(_read_number(i, f"{where}: terms[{k}]", integer=True)
                        for i in _read_list(u, f"{where}: terms[{k}]"))
                  for k, u in enumerate(raw_terms))
    coeffs = doc.get("coeffs")
    if coeffs is not None:
        coeffs = tuple(_read_number(c, f"{where}: coeffs[{k}]")
                       for k, c in enumerate(_read_list(coeffs, f"{where}: coeffs")))
    return CompositeMultilinearModel(factors=tuple(factors), terms=terms,
                                     coeffs=coeffs)


def _multilinear_view(model):
    if isinstance(model, CompositeMultilinearModel):
        return model
    if hasattr(model, "as_multilinear"):
        return model.as_multilinear()
    raise TypeError("core analysis needs a composite multilinear model "
                    "(or one exposing as_multilinear())")


CORE_TOL = 1e-9       # largest signature difference of a shared core


def core_signature(model, measure):
    """The vector of factor means E[t_i] under ``measure``, by ``expect``.

    This is the only way the measure enters the model's decomposition, so it
    acts as a fingerprint: equal signatures mean identical effects, variance
    terms and indices.  Each mean takes the engines' Gauss rule.  A mean
    that overflows raises FloatingPointError, naming the measure.
    """
    mm = _multilinear_view(model)
    with np.errstate(all="ignore"):     # reported below, with the measure
        sig = np.array([c.expect(t)
                        for t, c in zip(mm.factors, measure.components)])
    if not np.isfinite(sig).all():
        raise FloatingPointError(f"core signature under {measure.name!r} is "
                                 f"non-finite: {sig.tolist()}")
    return sig


def core_partition(model, mset):
    """Group the measures of a set by shared core (transitive closure).

    Returns a list of lists of measure indices.  Two measures share a core
    when their signatures differ by at most ``CORE_TOL`` in every factor;
    closure makes the grouping well defined even when borderline pairs
    disagree by about that much.
    """
    return core_groups([core_signature(model, m) for m in mset.measures])


def core_groups(signatures):
    """``core_partition`` of measures whose ``core_signature`` values are
    given, one per measure, in the set's order."""
    sigs = np.array(signatures)
    close = np.max(np.abs(sigs[:, None, :] - sigs[None, :, :]), axis=-1) <= CORE_TOL
    return _connected_groups(close)


def _connected_groups(adj):
    """Connected components of the undirected graph with boolean adjacency
    matrix ``adj`` (an edge either way joins two nodes), for graphs of a few
    nodes: lists of node indices, each ascending, listed by their smallest
    member.  Squaring the reflexive adjacency until it stops growing gives
    the transitive closure, whose row i is the component of node i."""
    reach = np.asarray(adj, dtype=bool)
    reach = reach | reach.T | np.eye(len(reach), dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    return sorted(map(list, {tuple(np.flatnonzero(row).tolist())
                             for row in reach}))


# ---------------------------------------------------------------------------
# model registry for the command line
# ---------------------------------------------------------------------------

def resolve_model(name_or_path):
    """Map a CLI model argument to a model object.

    ``ishigami`` (optionally ``ishigami:a=...,b=...``) is built in; anything
    else is read as a composite-multilinear model config file.
    """
    if name_or_path == "ishigami" or name_or_path.startswith("ishigami:"):
        kwargs = {}
        if ":" in name_or_path:
            for item in name_or_path.split(":", 1)[1].split(","):
                if not item:
                    continue
                key, _, val = item.partition("=")
                key = key.strip()
                if key not in ("a", "b"):
                    raise ConfigError(f"unknown ishigami parameter {key!r}")
                kwargs[key] = _read_number(val, f"ishigami parameter {key}")
        return IshigamiModel(**kwargs)
    try:
        with open(name_or_path, "r", encoding="utf8") as fh:
            doc = _load_yaml(fh, f"model file {name_or_path!r}")
    except OSError as exc:
        raise ConfigError(f"model {name_or_path!r}: not a built-in name and "
                          f"not a readable config file ({exc})") from None
    try:
        return multilinear_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"model file {name_or_path!r}: {exc}") from None
