"""Input probability measures: product measures and sets of them.

Everything downstream (ANOVA decompositions, estimators, diagnostics) is
parameterised by a product measure on the input box, or by a finite *set*
of candidate product measures, optionally weighted by a prior.  This module
supplies those objects plus the config-file loader and the seeding helpers
that keep every stochastic code path reproducible.

Quadrature starts from the standard Gauss-Legendre and Gauss-Hermite rules.
Each is an eigenproblem (Golub & Welsch, Math. Comp. 23, 1969), and a run
over a measure set asks for the same few (family, order) pairs many times,
so ``_gauss_rule`` computes each pair once and hands every caller the same
read-only arrays; each measure maps them to its own support.  Each family
also owns its orthonormal polynomials (``poly``), the map from values at
its s Gauss nodes to coefficients in them (``to_coeffs``, read-only and
computed once per (measure, s)) and its rule cut to a box
(``restricted_rule``).  This module loads no scipy.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised when a measure/model config file is malformed."""


class SupportError(ValueError):
    """Raised when an operation requires overlapping supports and there are none."""


# ---------------------------------------------------------------------------
# deterministic RNG streams
# ---------------------------------------------------------------------------

def _tag_word(tag):
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf8"))


def substream(seed, *tags):
    """A ``numpy`` Generator for (seed, *tags), independent of call order.

    Distinct tag tuples give statistically independent streams, and the same
    tuple always gives the same stream, so parallel workers can draw their
    own samples without sharing state.
    """
    key = tuple(_tag_word(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


# ---------------------------------------------------------------------------
# univariate families
# ---------------------------------------------------------------------------

DEFAULT_ORDER = 64      # Gauss nodes of a fixed-order rule; an engine's most

@lru_cache(maxsize=32, typed=True)
def _gauss_rule(family, order):
    """Nodes and weights of the standard Gauss rule with ``order`` nodes:
    ``"legendre"`` on [-1, 1] with unit weight, ``"hermite"`` for the weight
    exp(-t^2).  Computed once per (family, order); the arrays are read-only
    because every caller shares them.  Typed, so a float order still fails
    as it does uncached instead of hitting the entry of its integer."""
    if family == "legendre":
        t, w = np.polynomial.legendre.leggauss(order)
    else:
        t, w = np.polynomial.hermite.hermgauss(order)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


class UnivariateMeasure:
    """Interface for one input coordinate's distribution."""

    def density(self, x):
        raise NotImplementedError

    def support(self):
        """(lower, upper) bounds; infinite for unbounded families."""
        raise NotImplementedError

    def sample(self, rng, size):
        raise NotImplementedError

    def quad_nodes(self, order=DEFAULT_ORDER):
        """Nodes and probability weights so that sum(w * f(x)) ~ E[f(X)].

        Weights always sum to one; Gaussian rules are exact for polynomials
        up to degree 2*order - 1 against this measure.
        """
        raise NotImplementedError

    def expect(self, fn, order=DEFAULT_ORDER):
        x, w = self.quad_nodes(order)
        return float(np.dot(w, fn(x)))

    def plot_range(self):
        """Finite interval that carries essentially all of the mass."""
        lo, hi = self.support()
        return float(lo), float(hi)

    def _recurrence(self, s):
        """(center, half, b): t = (x - center) / half maps x to the standard
        family, whose b_k phi_k = t phi_{k-1} - b_{k-1} phi_{k-2}, 0 < k < s."""
        raise NotImplementedError

    def poly(self, x, s):
        """(N, s): the orthonormal polynomials of degree < s at ``x`` (N,)."""
        center, half, b = self._recurrence(s)
        t = (x - center) / half
        out = np.ones((t.size, s))
        for k in range(1, s):               # three-term recurrence
            out[:, k] = t * out[:, k - 1] / b[k - 1]
            if k > 1:
                out[:, k] -= b[k - 2] / b[k - 1] * out[:, k - 2]
        return out

    @lru_cache(maxsize=64, typed=True)
    def to_coeffs(self, s):
        """(s, s): values at ``quad_nodes(s)`` to their interpolant's
        coefficients in ``poly``: the rule itself, exact to degree 2s - 1,
        c_k = sum_j w_j phi_k(x_j) f(x_j).  Shared, so read-only."""
        x, w = self.quad_nodes(s)
        out = (self.poly(x, s) * w[:, None]).T
        out.flags.writeable = False
        return out

    def _bounded_support(self):
        """A finite interval holding the support but a negligible mass."""
        return self.support()

    def restricted_rule(self, box):
        """Quadrature for E[f(X) 1{a <= X <= b}] with f smooth, box = (a, b):
        (nodes, weights), the weights absorbing the density (they sum to
        P(a <= X <= b)), or None when the restriction carries no mass.  The
        box edges are where the indicator jumps, so putting them at the ends
        of a Gauss-Legendre interval keeps the integrand smooth and the rule
        spectrally accurate; naive quadrature through the jump would stall
        around 1e-3.  A box that holds the support takes the measure's own
        rule, any other the uniform rule on the box cut to
        ``_bounded_support``: both the engines'."""
        (a, b), (lo, hi) = box, self.support()
        if a <= lo and b >= hi:
            return self.quad_nodes(DEFAULT_ORDER)
        lo, hi = self._bounded_support()
        a, b = max(a, lo), min(b, hi)
        if not b > a:
            return None
        x, w = Uniform(a, b).quad_nodes(DEFAULT_ORDER)
        return x, w * (b - a) * self.density(x)


@dataclass(frozen=True)
class Uniform(UnivariateMeasure):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise ConfigError(f"uniform needs a finite width, got [{self.lo}, {self.hi}]")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def support(self):
        return (self.lo, self.hi)

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size=size)

    def quad_nodes(self, order=DEFAULT_ORDER):
        t, w = _gauss_rule("legendre", order)
        x = 0.5 * (self.hi - self.lo) * t + 0.5 * (self.hi + self.lo)
        return x, w / 2.0

    def _recurrence(self, s):               # Legendre
        k = np.arange(1, s)
        return (0.5 * (self.lo + self.hi), 0.5 * (self.hi - self.lo),
                k / np.sqrt(4.0 * k * k - 1.0))


@dataclass(frozen=True)
class Normal(UnivariateMeasure):
    mean_: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ConfigError(f"normal needs sd > 0, got {self.sd}")
        if not (math.isfinite(self.mean_) and math.isfinite(self.sd)):
            raise ConfigError(f"normal needs a finite mean and sd, got "
                              f"mean {self.mean_}, sd {self.sd}")

    def density(self, x):
        # one buffer for z, -z^2/2 and the density: written as its formula,
        # the temporaries take the reweighting loop's memory beyond its
        # sample from 0.91 to 1.04 times the sample (test_cli.py); (z * z) *
        # -0.5 has the bits of (-0.5 * z) * z wherever its exp is not
        # exactly 1 or 0
        z = np.array(x, dtype=float)
        z -= self.mean_
        z /= self.sd
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z /= self.sd * math.sqrt(2.0 * math.pi)
        return z[()]                # a scalar for a scalar x

    def support(self):
        return (-math.inf, math.inf)

    def sample(self, rng, size):
        return rng.normal(self.mean_, self.sd, size=size)

    def quad_nodes(self, order=DEFAULT_ORDER):
        t, w = _gauss_rule("hermite", order)
        x = self.mean_ + self.sd * math.sqrt(2.0) * t
        return x, w / math.sqrt(math.pi)

    def plot_range(self):
        return (self.mean_ - 4.0 * self.sd, self.mean_ + 4.0 * self.sd)

    def _recurrence(self, s):               # probabilists' Hermite
        return self.mean_, self.sd, np.sqrt(np.arange(1, s))

    def _bounded_support(self):
        # clip unbounded ends; the discarded tail mass is ~1e-17
        return self.mean_ - 8.5 * self.sd, self.mean_ + 8.5 * self.sd


@dataclass(frozen=True)
class DiscreteUniform(UnivariateMeasure):
    """Equal mass on a finite set of points.

    Not part of the config-file schema; used programmatically when a model
    should be analysed on an exhaustive grid (quadrature then reduces to an
    exact finite sum).
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 1:
            raise ConfigError("discrete measure needs at least one point")
        if len(set(pts)) != len(pts):
            raise ConfigError("discrete measure points must be distinct")
        object.__setattr__(self, "points", pts)

    def density(self, x):
        raise NotImplementedError("discrete measure has no Lebesgue density")

    def support(self):
        return (min(self.points), max(self.points))

    def sample(self, rng, size):
        return rng.choice(np.asarray(self.points), size=size)

    def quad_nodes(self, order=None):
        pts = np.asarray(self.points)
        return pts, np.full(pts.size, 1.0 / pts.size)

    @lru_cache(maxsize=64, typed=True)
    def to_coeffs(self, s):
        """(s, s), s the point count: values at the points to coefficients
        in a basis orthonormal under their weights w, by a Householder QR;
        the constant 1 first, so row 0 is w as on a continuous family."""
        r = np.sqrt(self.quad_nodes()[1])
        q = np.linalg.qr(np.column_stack([r, np.eye(r.size)[:, 1:]]))[0]
        out = q.T * r * np.sign(q[0, 0])
        out.flags.writeable = False
        return out

    def restricted_rule(self, box):
        """The points in ``box`` with their weights, or None if it has none."""
        pts, w = self.quad_nodes()
        keep = (pts >= box[0]) & (pts <= box[1])
        return (pts[keep], w[keep]) if keep.any() else None


# config-file families: the class and its parameter names, in constructor
# (dataclass field) order
_FAMILIES = {"uniform": (Uniform, ("lo", "hi")), "normal": (Normal, ("mean", "sd"))}


# ---------------------------------------------------------------------------
# product measures and sets of them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductMeasure:
    """Independent product of univariate measures, one per input."""

    components: tuple
    name: str = ""

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ConfigError("product measure needs at least one component")
        for c in comps:
            if not isinstance(c, UnivariateMeasure):
                raise ConfigError(f"not a univariate measure: {c!r}")
        object.__setattr__(self, "components", comps)

    @property
    def n(self):
        return len(self.components)

    def density(self, x):
        """Joint density at points of shape (..., n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.ones(x.shape[:-1])
        for i, c in enumerate(self.components):
            out *= c.density(x[..., i])
        return out

    def sample(self, count, seed=None, rng=None):
        """Draw ``count`` iid points, shape (count, n).

        Exactly one of ``seed``/``rng`` must be given; with a seed the draw
        is reproducible and independent of where in a program it happens.
        """
        if (seed is None) == (rng is None):
            raise ValueError("pass exactly one of seed or rng")
        if rng is None:
            rng = substream(seed, "sample", self.name or "measure")
        out = np.empty((count, self.n))
        for i, c in enumerate(self.components):
            out[:, i] = c.sample(rng, count)
        return out


def measure_name(measure, k):
    """The name of the ``k``-th measure of a set (0-based): its own, or
    ``m<k>`` when it has none, so unnamed members stay apart."""
    return measure.name or f"m{k}"


@dataclass(frozen=True)
class MeasureSet:
    """A finite family of candidate product measures, optionally weighted.

    The prior, when present, indicates how much belief each candidate
    carries; weights must be nonnegative and sum to one.
    """

    measures: tuple
    prior: tuple = None

    def __post_init__(self):
        ms = tuple(self.measures)
        if not ms:
            raise ConfigError("measure set is empty")
        n = ms[0].n
        for m in ms:
            if m.n != n:
                raise ConfigError("all measures in a set must share the input dimension")
        object.__setattr__(self, "measures", ms)
        if self.prior is not None:
            p = tuple(float(v) for v in self.prior)
            if len(p) != len(ms):
                raise ConfigError(f"prior has {len(p)} weights for {len(ms)} measures")
            # zero weights are allowed (degenerate priors are legitimate
            # edge cases); negative ones are not
            if not all(v >= 0 for v in p):     # NaN fails this too
                raise ConfigError(f"prior weights must be nonnegative, got {p}")
            if abs(sum(p) - 1.0) > 1e-12:
                raise ConfigError(f"prior weights sum to {sum(p)!r}, expected 1")
            object.__setattr__(self, "prior", p)

    @property
    def n(self):
        return self.measures[0].n

    @property
    def names(self):
        return tuple(measure_name(m, k) for k, m in enumerate(self.measures))

    def __len__(self):
        return len(self.measures)

    def by_name(self, name):
        for m, nm in zip(self.measures, self.names):
            if nm == name:
                return m
        raise KeyError(name)

    def require_prior(self):
        if self.prior is None:
            raise ConfigError("this operation needs a prior over the measure set "
                              "(add a 'prior' entry to the measures file)")
        return np.asarray(self.prior)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _reject_extras(mapping, allowed, where):
    extras = sorted(set(mapping) - set(allowed))
    if extras:
        raise ConfigError(f"{where}: unknown field(s) {extras}")


def _read_number(value, where, integer=False):
    """A config field as a finite float (an int with ``integer``); any other
    value raises a ConfigError naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if integer:
        if x != int(x):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(x)
    return x


def _read_list(value, where, nonempty=False):
    """A config field that must be a list (a non-empty one with ``nonempty``)."""
    if not isinstance(value, list) or nonempty and not value:
        raise ConfigError(f"{where}: expected a {'non-empty ' * nonempty}list, "
                          f"got {value!r}")
    return value


def _component_from_config(entry, where):
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: component must be a mapping")
    _reject_extras(entry, {"family", "params"}, where)
    try:
        family = str(entry["family"]).lower()
        params = entry["params"]
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    if family not in _FAMILIES:
        raise ConfigError(f"{where}: unknown family {entry['family']!r} "
                          f"(expected one of {sorted(_FAMILIES)})")
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be a mapping")
    cls, names = _FAMILIES[family]
    _reject_extras(params, names, where + ".params")
    try:
        return cls(*(_read_number(params[nm], f"{where}.params.{nm}")
                     for nm in names))
    except KeyError as exc:
        raise ConfigError(f"{where}.params: missing field {exc}") from None


def measure_set_from_dict(doc):
    """Build a MeasureSet from an already-parsed config mapping."""
    if not isinstance(doc, dict):
        raise ConfigError("measures config must be a mapping at the top level")
    _reject_extras(doc, {"n", "measures", "prior"}, "top level")
    try:
        n = _read_number(doc["n"], "n", integer=True)
        raw_measures = doc["measures"]
    except KeyError as exc:
        raise ConfigError(f"top level: missing field {exc}") from None
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not isinstance(raw_measures, list) or not raw_measures:
        raise ConfigError("'measures' must be a non-empty list")

    measures = []
    seen = set()
    for k, entry in enumerate(raw_measures):
        where = f"measures[{k}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be a mapping")
        _reject_extras(entry, {"name", "components"}, where)
        try:
            name = str(entry["name"])
            comps = entry["components"]
        except KeyError as exc:
            raise ConfigError(f"{where}: missing field {exc}") from None
        if not name:
            raise ConfigError(f"{where}: empty measure name")
        if name in seen:
            raise ConfigError(f"{where}: duplicate measure name {name!r}")
        seen.add(name)
        if not isinstance(comps, list) or len(comps) != n:
            raise ConfigError(f"{where}: expected {n} components, got "
                              f"{len(comps) if isinstance(comps, list) else type(comps).__name__}")
        built = tuple(_component_from_config(c, f"{where}.components[{j}]")
                      for j, c in enumerate(comps))
        measures.append(ProductMeasure(built, name=name))

    prior = doc.get("prior")
    if prior is not None:
        if not isinstance(prior, list):
            raise ConfigError("'prior' must be a list of weights")
        prior = tuple(_read_number(v, f"prior[{k}]")
                      for k, v in enumerate(prior))
    return MeasureSet(tuple(measures), prior=prior)


def _load_yaml(fh, where):
    """The YAML (or JSON) document of the open file ``fh``, read by
    libyaml's safe loader when PyYAML has it and by the pure-Python one
    otherwise: the same documents, several times faster.  A file that does
    not parse is a ConfigError naming ``where``.  PyYAML is imported here,
    so a caller that reads no config file does not load it."""
    import yaml

    try:
        return yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                            yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where}: not parseable: {exc}") from None


def load_measure_set(path):
    """Parse a measures config file (YAML/JSON) into a MeasureSet."""
    with open(path, "r", encoding="utf8") as fh:
        doc = _load_yaml(fh, path)
    try:
        return measure_set_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

