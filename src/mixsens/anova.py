"""Functional ANOVA of a model under one product measure.

The decomposition writes ``g(x) = sum_z g_z(x_z)`` over subsets ``z`` of the
inputs, built recursively from conditional means

    w_z(x_z) = E[g(X) | X_z = x_z],
    g_z(x_z) = w_z(x_z) - sum over proper subsets v of z of g_v(x_v),

with the empty-set term the overall mean.  Each ``g_z`` integrates to zero
against its measure in every coordinate of ``z`` and the terms are mutually
orthogonal, so the model variance splits into per-subset pieces
``V_z = int g_z^2``; normalising by the total variance gives the usual
sensitivity indices.  All of it depends on the chosen input measure, which is
the entire point of this package: change the measure and every term changes.

Integrals use tensorised Gaussian quadrature (exact finite sums for discrete
coordinates); an integral over more than ``TENSOR_DIM_CAP`` continuous
coordinates at once takes scrambled-Sobol QMC instead, and results that
used it are labelled accordingly.  Each integral's rule is fixed when the
engine is built (its integration plan), never by the order of the calls.
The Sobol rule comes from ``scipy.stats`` and its normal transform from
``scipy.special.ndtri``; their import takes most of a second, so they are
imported only when an engine's plan holds a QMC integral, that is when the
complement of some single input has more than ``TENSOR_DIM_CAP`` continuous
coordinates.  Importing the package, or building an engine of four
continuous inputs, loads no scipy module.

An engine's ``order`` is the most Gauss nodes per continuous coordinate.
The engine fixes at build a ladder of the orders of ``LADDER`` below
``order`` whose grid fits (``FULL_GRID_CAP``), if there are two or more and
some coordinate is continuous.  Its first integral of any kind runs the
ladder (``AnovaEngine._settle``): each rung decomposes the model off its
full grid (the whole subset lattice up to four inputs), and the order
settles at the first rung whose mean, total and terms moved by at most
``INTERP_TOL`` (relative to sqrt(V) and V) from the rung below.  Gauss
rules converge geometrically on smooth models, so that change bounds the
error of the rung below.  When the grid at ``order`` fits, effects at points
are read off the tables (below), so a rung must also resolve every table it
would read (``_Table.resolved``).  After every rung, an axis that rung
resolves is capped at the fewest nodes that keep it resolved
(``AnovaEngine._caps``), and keeps the smallest cap it was given: an axis
stops climbing once it no longer changes the result, the dimension-adaptive
rule of Gerstner & Griebel (Computing 71, 2003).  A settled engine is a
full-grid engine at that order, with its rung's caps; with no such rung it
keeps ``order`` on every axis and the fit it was built with.  A smooth
4-input model quartic in x3 costs 16^4 + (24^3 + 32^3) * 7 evaluations, not
64^4; the Ishigami model settles at 24, 32 or 48 nodes, with 7 on x3 and
14, 21 or 29 on x1.

Variance terms need each w_z on the subgrid of z's own Gauss nodes, and
``AnovaEngine._fill_subgrid_tables`` is the one provider of those tables and
of the mean and the total variance.  It sweeps the model's full tensor grid
once, in boxes of at most ``BLOCK_POINTS`` points.  When the grid fits
(``FULL_GRID_CAP``) the sweep keeps it whole and every table is a
contraction of it; when it does not, each box is contracted into every
requested table whose complement takes the tensor rule, and only tables
whose complement takes QMC are integrated point by point.  Any request for
tables costs at most one sweep.  The mean and the total variance (the
moments) share one evaluation of their rule.  The plan gives them the tensor
rule, taken from the sweep, when the grid fits or when some singleton
table's complement takes the tensor rule: every variance decomposition then
pays for the sweep anyway, so the moments come from the same rule as the
terms and sum with them to the total.  A mean-only call on such an engine
costs one sweep, and on a grid that does not fit that sweep also fills every
table of at most two inputs that takes the tensor rule, so a decomposition
of that order after it costs none.  Otherwise (five or more continuous
inputs on a grid that does not fit) the moments take the QMC rule over all
inputs.

Effects at arbitrary points need w_v there.  When the model's full tensor
grid fits, ``AnovaEngine._w_at`` reads w_v off v's subgrid table by tensor
barycentric interpolation (Berrut & Trefethen, SIAM Rev. 46, 2004), gated
row by row by an error estimate (see ``_Table``).  The direct integral over
the complement of v, ``conditional_mean``, serves the rows the gate rejects
or that lie outside a coordinate's support, the empty and the full subset,
subsets with a discrete coordinate, and every row when the grid does not
fit.  On a settled engine a tensor complement takes half the nodes of the
cap its rung gives each axis it resolves, checked row by row against a
second rule one node lower; a row on which the two disagree takes the
settled nodes (``_direct_rules``).  Each subset keeps its last call to
``_w_at``: the rows' shape and bytes and the w_v returned, at most
N (|v| + 1) doubles, so the same rows asked again (by the other mixture
route, or by a subset that holds v) cost no table read and no model call.
``_use_order`` empties it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import DiscreteUniform, Normal, ProductMeasure, Uniform, substream


class ZeroVarianceError(ArithmeticError):
    """Total variance is (numerically) zero, so indices are undefined."""


DEFAULT_ORDER = 64          # most Gaussian quadrature nodes per coordinate
LADDER = (16, 24, 32, 48)   # orders an engine tries below ``order`` (_settle)
QMC_LOG2 = 14               # 2**14 scrambled-Sobol points per QMC integral
FULL_GRID_CAP = 2**22       # largest full tensor grid we will materialise
BLOCK_POINTS = 2**21        # most points a grid sweep hands the model at once
TENSOR_DIM_CAP = 3          # beyond this many integration dims, use QMC
INTERP_TOL = 1e-9           # error target of a conditional mean read off a table
# V = E[g^2] - mean^2 of a constant model is rounding noise of a few ulps of
# E[g^2]; a total variance within this many ulps of it admits no indices.
ZERO_VARIANCE_ULPS = 64


# ---------------------------------------------------------------------------
# subset bookkeeping (inputs are 1-based everywhere in the public API)
# ---------------------------------------------------------------------------

def subset_mask(z):
    return sum(1 << (i - 1) for i in z)


def canonical_key(z):
    """Sort key: by cardinality, then by bitmask value."""
    return (len(z), subset_mask(z))


def all_subsets(n, max_order=None, nonempty=True):
    """All subsets of {1..n} up to ``max_order``, in canonical order."""
    if max_order is None:
        max_order = n
    return [z for z in _subsets_of(range(1, n + 1))
            if len(z) <= max_order and (z or not nonempty)]


def subset_label(z):
    """Stable text id for a subset: () -> 'const', (1, 3) -> 'x1x3'."""
    if not z:
        return "const"
    return "".join(f"x{i}" for i in z)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class VarianceDecomposition:
    """Variance split of one model under one measure.

    ``terms`` maps each subset (1-based tuple) to its raw variance share
    V_z; tiny negative values are quadrature noise and are clamped only in
    the derived views.  ``residual`` holds whatever ``max_order`` truncated
    away (zero when every order was computed).
    """

    measure: str
    total: float
    mean: float
    terms: dict
    residual: float
    n: int
    mode: str = "quadrature"

    def clamped_terms(self):
        return {z: max(v, 0.0) for z, v in self.terms.items()}

    def require_variance(self):
        """Raise ZeroVarianceError unless V is finite and above rounding noise.

        The test is scale-invariant: V <= c * eps * (V + mean^2), with
        c = ZERO_VARIANCE_ULPS, since V + mean^2 = E[g^2] is what V was
        computed from.  A subnormal E[g^2] has lost its digits, and c * eps
        times it underflows to zero, so it counts as zero itself.
        """
        v = self.total
        second = v + self.mean ** 2
        if not np.isfinite(v) or second < np.finfo(float).tiny or \
                v <= ZERO_VARIANCE_ULPS * np.finfo(float).eps * second:
            raise ZeroVarianceError(f"measure {self.measure!r}: total variance "
                                    f"{v!r} is numerically zero")

    def sobol_indices(self):
        """S_z = V_z / V, clamped to [0, 1]."""
        self.require_variance()
        return {z: min(max(v / self.total, 0.0), 1.0) for z, v in self.terms.items()}

    def first_order(self):
        s = self.sobol_indices()
        return np.array([s.get((i,), 0.0) for i in range(1, self.n + 1)])

    def total_order(self):
        """ST_i = sum of S_z over computed subsets containing i.

        With a truncated ``max_order`` this misses interactions beyond the
        cutoff, i.e. it is a lower bound.
        """
        s = self.sobol_indices()
        st = np.zeros(self.n)
        for z, v in s.items():
            for i in z:
                st[i - 1] += v
        return st


def _combined_mode(vds):
    """The mode of values derived from several decompositions: "qmc" when
    any of them used the QMC fallback, "quadrature" otherwise."""
    return "qmc" if any(vd.mode == "qmc" for vd in vds) else "quadrature"


@dataclass
class EffectCurve:
    """An ANOVA effect tabulated on a plotting grid.

    For |z| = 1 ``grids`` holds one axis and ``values`` is 1-d; for |z| = 2
    values live on the tensor grid of the two axes.
    """

    measure: str
    subset: tuple
    grids: list
    values: np.ndarray


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _qmc():
    """``scipy.stats.qmc``, imported on first use: importing scipy.stats
    takes most of a second, and only an engine that can reach the Sobol
    rule needs it."""
    from scipy.stats import qmc
    return qmc


def _qmc_transform(components, u):
    """Map uniform(0,1) QMC points to the given univariate measures."""
    from scipy.special import ndtri   # loaded with scipy.stats by _qmc()
    out = np.empty_like(u)
    for j, c in enumerate(components):
        col = u[:, j]
        if isinstance(c, Uniform):
            out[:, j] = c.lo + (c.hi - c.lo) * col
        elif isinstance(c, Normal):
            out[:, j] = c.mean_ + c.sd * ndtri(np.clip(col, 1e-15, 1.0 - 1e-15))
        elif isinstance(c, DiscreteUniform):
            pts = np.asarray(c.points)
            idx = np.minimum((col * pts.size).astype(int), pts.size - 1)
            out[:, j] = pts[idx]
        else:  # pragma: no cover - family set is closed
            raise TypeError(f"no QMC transform for {type(c).__name__}")
    return out


class AnovaEngine:
    """Computes conditional means, effects and variance terms for one measure.

    Parameters
    ----------
    model : callable
        Vectorised map taking points of shape (..., n) to values (...,).
    measure : ProductMeasure
        Input distribution the decomposition is taken against.
    order : int
        The most Gaussian nodes per continuous coordinate.  The first
        integral may settle on a lower order (``_settle``), some axes on
        fewer nodes still; ``order`` is then the settled rung, and ``nodes``
        and ``weights`` say what each axis used.
    seed : int
        Seed of the scrambled-Sobol rule (``QMC_LOG2`` points) used whenever
        an integral runs over more than three continuous coordinates.

    The integration plan and the ladder of orders are fixed here; the
    ladder runs on the first integral, and an engine that no rung settles
    keeps the order and the grid fit it was built with.  A table w_z takes
    the tensor rule when the grid fits or z's complement has at most
    ``TENSOR_DIM_CAP`` continuous coordinates, and QMC otherwise
    (``_takes_qmc``); a conditional mean at points takes the tensor rule
    exactly when z's complement is that small.  The moments take the sweep
    when the grid fits or some singleton table takes the tensor rule, and
    QMC otherwise.
    ``mode`` is "qmc" when the plan holds any QMC integral; a
    ``VarianceDecomposition`` is tagged "qmc" when one of the integrals it
    used takes QMC.
    """

    def __init__(self, model, measure, order=DEFAULT_ORDER, seed=0):
        if not isinstance(measure, ProductMeasure):
            raise TypeError("AnovaEngine needs a ProductMeasure")
        self.model = model
        self.measure = measure
        self.seed = int(seed)
        self.n = measure.n
        self._use_order(int(order))
        # the ladder: the rungs below ``order`` whose grid fits, when at
        # least two do and some coordinate is continuous; run by _settle.
        # A rung's grid is counted, not built: r nodes on a continuous
        # coordinate, its own points on a discrete one.
        continuous = [not isinstance(c, DiscreteUniform)
                      for c in measure.components]
        rungs = [r for r in LADDER if r < self.order and _fits(
            [r if c else x.size for c, x in zip(continuous, self.nodes)])]
        self._ladder = rungs if len(rungs) > 1 and any(continuous) else []
        # the integration plan (see the class docstring)
        tensor = [self._tensor_complement((i,)) for i in range(1, self.n + 1)]
        self._swept_moments = any(tensor)
        self.mode = "quadrature" if all(tensor) else "qmc"
        if self.mode == "qmc":
            _qmc()                # set-up, not the first integral, pays the import

    def _use_order(self, order, full_grid_ok=None, caps=None):
        """Take the Gauss rule of ``order``, with no table or moment yet.

        ``caps`` (from ``_caps``) holds each coordinate's most nodes.
        ``full_grid_ok`` None tests its grid against ``FULL_GRID_CAP``; the
        ladder passes what was fixed at build.
        """
        self.order = order
        nodes = [c.quad_nodes(min(order, k)) for c, k in
                 zip(self.measure.components, caps or [order] * self.n)]
        self.nodes = [np.asarray(x) for x, _ in nodes]
        self.weights = [np.asarray(w) for _, w in nodes]
        self._sizes = [x.size for x in self.nodes]
        self._full_grid_ok = _fits(self._sizes) if full_grid_ok is None \
            else full_grid_ok
        self._w_cache = {}        # subset -> conditional mean on its subgrid
        self._moments = None      # (E[g], E[g^2]), lazily
        self._tables = {}         # subset -> its interpolation _Table (_w_at)
        self._w_last = {}         # subset -> (key, w_v) of its last _w_at call
        self._halves = None       # per axis, h nodes or None (_direct_rules)
        vars(self).pop("_axes", None)   # the cached axes hold the old nodes

    def _settle(self):
        """Run the ladder, once, before the engine's first integral.

        Each rung decomposes the model off its full grid, to the default
        ``max_order`` of ``variance_decomposition``: the whole subset lattice
        up to four inputs; beyond, where the lattice grows as 2^n, the terms
        of at most two inputs and the total.  The engine keeps the first
        rung where, against the rung below, the mean moved by at most
        ``INTERP_TOL`` times sqrt(V), and V and every V_z by at most
        ``INTERP_TOL`` times V; Gauss rules converge geometrically on smooth
        models, so that change bounds the error of the rung below.  On an
        engine whose grid fits at ``order``, where ``_w_at`` reads effects
        off the tables, the rung must also resolve every table of its
        lattice that ``_w_at`` can read (``_Table.resolved``), so that a
        lower order does not send the rows of an unresolved table to the
        direct integral.  After each rung every axis takes the smaller of
        its cap so far and the rung's ``_caps``, so a cap never grows; the
        next rung, the settled engine and its direct complement rules use
        those caps.  The settled rung's own ``_caps`` set the lower rules of
        the direct integrals (``_halves``, see ``_direct_rules``).  With no
        such rung, or when a rung raises, it goes back to ``order``,
        uncapped, with no lower rules, and the fit fixed at build.
        """
        ladder, self._ladder = self._ladder, []
        if not ladder:
            return
        order, full, last = self.order, self._full_grid_ok, None
        caps = [math.inf] * self.n
        try:
            for rung in ladder:
                self._use_order(rung, True, caps)
                vd = self.variance_decomposition()
                terms = np.array([vd.total, *vd.terms.values()])
                still = last is not None and abs(vd.mean - last[0]) \
                    <= INTERP_TOL * math.sqrt(max(vd.total, 0.0)) \
                    and np.all(np.abs(terms - last[1]) <= INTERP_TOL * vd.total)
                if still and (not full or all(self._table(z).resolved for z in
                                              vd.terms if self._reads_table(z))):
                    self._halves = [math.ceil(c / 2) if c < math.inf and s > 1
                                    else None
                                    for c, s in zip(self._caps(), self._sizes)]
                    return
                last = vd.mean, terms
                caps = [min(a, b) for a, b in zip(caps, self._caps())]
        except BaseException:       # a failed rung leaves the engine as built
            self._ladder = ladder
            self._use_order(order, full)
            raise
        self._use_order(order, full)

    def _caps(self):
        """Per coordinate, the most nodes this rung's full grid says it needs
        (inf on a discrete axis and on one the grid leaves unresolved).

        Along a continuous axis, g's orthonormal-polynomial coefficients on
        the grid, each the largest over the other axes, are resolved when
        those from the ``_tail`` on sum to at most ``INTERP_TOL`` times the
        RMS of w_i (the least RMS of a table that holds the axis).  The axis
        is then capped at the fewest nodes whose tail starts above the last
        degree from which they sum to more.  The row gate of ``_Table``
        weighs each tail coefficient by |phi_k(x)|, which on a normal axis
        reaches 10-50 at 3-4 sd, so there each coefficient is first weighed
        by the largest |phi_k| over the axis's plot range (mean +- 4 sd, on
        the 129 rows of a default effect curve).  On a uniform axis
        |phi_k| <= sqrt(2k + 1), and the coefficients are summed as they are.
        """
        grid = self._w_cache[tuple(range(1, self.n + 1))]
        caps = [math.inf] * self.n
        for i, a in enumerate(self._axes):
            if a is not None:
                s, w = self._sizes[i], self._w_cache[(i + 1,)]
                tol = INTERP_TOL * math.sqrt(float(w ** 2 @ self.weights[i]))
                c = np.abs(np.tensordot(a.to_coeffs, grid, axes=([1], [i])))
                c = c.reshape(s, -1).max(axis=1)
                comp = self.measure.components[i]
                if isinstance(comp, Normal):    # the row gate's |phi_k(x)|
                    c *= np.abs(a.poly(np.linspace(*comp.plot_range(),
                                                   129))).max(axis=0)
                rest = np.cumsum(c[::-1])[::-1]
                d = max(np.flatnonzero(rest > tol), default=-1)
                if d < _tail(s):
                    caps[i] = next(k for k in range(1, s + 1) if _tail(k) > d)
        return caps

    # -- infrastructure ----------------------------------------------------

    def _complement_rule(self, z):
        """Integration rule over the complement of z: (points, weights).

        Tensor product when few enough coordinates, scrambled Sobol QMC
        otherwise (weights then uniform).
        """
        comp = [i for i in range(1, self.n + 1) if i not in z]
        if not comp:
            return np.zeros((1, 0)), np.ones(1)
        if self._tensor_complement(z):
            return _tensor_rule([(self.nodes[i - 1], self.weights[i - 1])
                                 for i in comp])
        rng_seed = substream(self.seed, "qmc", subset_label(z)).integers(2**31)
        sob = _qmc().Sobol(d=len(comp), scramble=True, seed=int(rng_seed))
        u = sob.random_base2(QMC_LOG2)
        pts = _qmc_transform([self.measure.components[i - 1] for i in comp], u)
        return pts, np.full(pts.shape[0], 1.0 / pts.shape[0])

    def _tensor_complement(self, z):
        """Whether the integral over the complement of z uses the tensor
        rule: at most TENSOR_DIM_CAP continuous coordinates."""
        return sum(1 for i, c in enumerate(self.measure.components, 1)
                   if i not in z and not isinstance(c, DiscreteUniform)) \
            <= TENSOR_DIM_CAP

    def _takes_qmc(self, z):
        """Whether the plan integrates w_z on its subgrid (the moments for
        the empty z) by QMC."""
        if not z:
            return not (self._full_grid_ok or self._swept_moments)
        return not self._full_grid_ok and not self._tensor_complement(z)

    # -- conditional means and effects at arbitrary points -------------------

    def conditional_mean(self, z, x):
        """w_z at points ``x`` of shape (N, |z|): E[g(X) | X_z = x_row].

        For the empty subset returns the overall mean once per row.  The
        integral over the complement of z takes the rules of
        ``_direct_rules`` in turn: a row keeps the first value it accepts.
        """
        self._settle()
        z = tuple(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(z) == 0:
            return np.full(x.shape[0], self.mean())
        if x.shape[1] != len(z):
            raise ValueError(f"points have {x.shape[1]} columns for subset {z}")
        zi = [i - 1 for i in z]
        ci = [i - 1 for i in range(1, self.n + 1) if i not in z]
        out = np.empty(x.shape[0])
        rows = np.arange(x.shape[0])
        for cpts, cw, tol in self._direct_rules(z):
            if not rows.size:
                break
            m = cpts.shape[0]
            vals = np.empty((rows.size,) + cw.shape[1:])
            # chunk the query points so the (chunk, m, n) block stays modest
            chunk = max(1, BLOCK_POINTS // max(m, 1))
            for a in range(0, rows.size, chunk):
                xa = x[rows[a:a + chunk]]
                block = np.empty((xa.shape[0], m, self.n))
                block[:, :, zi] = xa[:, None, :]
                if ci:
                    block[:, :, ci] = cpts[None, :, :]
                vals[a:a + xa.shape[0]] = _evaluate(
                    self.model, block.reshape(-1, self.n)).reshape(
                        xa.shape[0], m) @ cw
            if tol is None:
                out[rows] = vals
                break
            agree = np.abs(vals[:, 0] - vals[:, 1]) <= tol
            out[rows[agree]] = vals[agree, 0]
            rows = rows[~agree]
        return out

    def _direct_rules(self, z):
        """The rules of ``conditional_mean`` over the complement of z, each
        (points, weights, tol), lazily.

        The last is ``_complement_rule`` (weights (m,), tol None): every
        row it sees keeps its value.  Before it, on a settled engine whose
        complement of z takes the tensor rule, comes a pair of lower rules
        side by side (weights (m, 2), one column each): each axis of more
        than one node that ``_caps`` resolved at the settled rung, at cap c,
        takes h = ceil(c / 2) nodes in the first and max(h - 1, 1) in the
        second, and every other axis its settled nodes.  A Gauss rule of h
        nodes is exact to degree 2h - 1, so it integrates all that c nodes
        interpolate; a row keeps the h-node value when the two agree within
        ``INTERP_TOL`` times the RMS of z's subgrid table, the row gate's
        standard, and goes on to the settled rule otherwise.
        """
        comp = [i for i in range(1, self.n + 1) if i not in z]
        halves = [self._halves[i - 1] for i in comp] \
            if self._halves and self._tensor_complement(z) else []
        if any(halves):
            def rule(counts):       # k nodes on a halved axis, settled elsewhere
                return _tensor_rule([
                    self.measure.components[i - 1].quad_nodes(k) if k else
                    (self.nodes[i - 1], self.weights[i - 1])
                    for i, k in zip(comp, counts)])

            (hi, whi), (lo, wlo) = rule(halves), rule(
                [h and max(h - 1, 1) for h in halves])
            weights = np.zeros((whi.size + wlo.size, 2))
            weights[:whi.size, 0], weights[whi.size:, 1] = whi, wlo
            v = tuple(sorted(z))
            rms = math.sqrt(float(_contract(self._w_on_subgrid(v) ** 2,
                                            [self.weights[i - 1] for i in v])))
            yield np.vstack([hi, lo]), weights, INTERP_TOL * rms
        yield *self._complement_rule(z), None

    def conditional_means(self, z, x):
        """{v: w_v at the rows of ``x``} for every subset v of z, the empty
        one included, each v sorted; the columns of ``x`` follow the order
        of z, which need not be sorted."""
        z = tuple(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(z):
            raise ValueError(f"points have {x.shape[1]} columns for subset {z}")
        return {v: self._w_at(v, x[:, [z.index(i) for i in v]])
                for v in _subsets_of(sorted(z))}

    def _w_at(self, v, x):
        """w_v at the rows of ``x`` (N, |v|), read off v's quadrature table.

        The table is ``_w_on_subgrid(v)``, interpolated by ``_Table``; rows
        it does not accept, and every row when v is empty or all inputs,
        when the full grid does not fit or when a coordinate of v is
        discrete, come from ``conditional_mean``.

        Each subset keeps its last call: the key ``(x.shape, x.tobytes())``
        (the shape, since an (N, 0) array has no bytes for any N) and the
        w_v it returned.  A call with the same key returns a copy of those
        values, with no table read and no model call.  The memo holds at
        most N (|v| + 1) doubles per subset and is emptied, with the
        tables, by ``_use_order``.
        """
        self._settle()
        v = tuple(v)
        key = x.shape, x.tobytes()
        last = self._w_last.get(v)
        if last is not None and last[0] == key:
            return last[1].copy()
        if not self._full_grid_ok or not self._reads_table(v):
            out = self.conditional_mean(v, x)
        else:
            if v not in self._tables:
                self._tables[v] = self._table(v)
            ok, values = self._tables[v](x)
            out = np.empty(x.shape[0])
            out[ok] = values
            if not ok.all():
                out[~ok] = self.conditional_mean(v, x[~ok])
        self._w_last[v] = key, out
        return out.copy()

    def _reads_table(self, v):
        """Whether v has a table to read when the grid fits: it is neither
        empty nor all inputs, and no coordinate of it is discrete."""
        return 0 < len(v) < self.n and None not in [self._axes[i - 1] for i in v]

    def _table(self, v):
        """The interpolation ``_Table`` of ``_w_on_subgrid(v)``."""
        return _Table(self._w_on_subgrid(v), [self._axes[i - 1] for i in v],
                      [self.weights[i - 1] for i in v])

    @cached_property
    def _axes(self):
        """Per coordinate, its interpolation data (None when discrete)."""
        return [None if isinstance(c, DiscreteUniform) else _Axis(c, x, w)
                for c, x, w in zip(self.measure.components, self.nodes,
                                   self.weights)]

    def mean(self):
        return self._w_on_subgrid(())

    def total_variance(self):
        mean = self.mean()
        return self._moments[1] - mean ** 2

    def effect(self, z, x):
        """The ANOVA term g_z at arbitrary points ``x`` of shape (N, |z|).

        Built by the defining recursion from the conditional means of all
        subsets of z, each evaluated once at the projected points.  The
        columns of ``x`` follow the order of z, as in ``conditional_means``.
        """
        z = tuple(z)
        key = tuple(sorted(z))
        return _mobius(key, self.conditional_means(z, x))[key]

    # -- grid-based decomposition -------------------------------------------

    def _subgrid_shape(self, z):
        return tuple(self._sizes[i - 1] for i in z)

    def _w_on_subgrid(self, z):
        """Conditional mean w_z on the tensor grid of z's own quad nodes
        (the mean for the empty z)."""
        z = tuple(z)
        return self._fill_subgrid_tables([z])[z]

    def _fill_subgrid_tables(self, subsets):
        """{z: w_z on its subgrid} for every one of ``subsets`` (the mean for
        the empty one), each table computed once and kept in ``_w_cache``;
        on return ``_moments`` holds (E[g], E[g^2]).  The one place the
        engine integrates the model over its tensor grid.

        One sweep evaluates each box of ``_box_points`` once.  When the full
        grid fits, the sweep keeps it whole, as the table of all inputs, and
        every table is contracted from it, then and later, with no further
        model call.  Otherwise each box is contracted into every requested
        table whose complement takes the tensor rule: the complement axes
        against the weights of the box's nodes, added up over the boxes, and
        the axes of z kept at the box's place in the table.  A table whose
        complement takes QMC comes from ``conditional_mean`` at its
        subgrid's nodes.  The moments come from the sweep, or from one
        evaluation of the QMC rule over all inputs, as the plan says
        (``_takes_qmc(())``).  A sweep that takes the moments on a grid that
        does not fit also fills every table of at most two inputs that takes
        the tensor rule, so a later decomposition of that order costs no
        second sweep.
        """
        self._settle()
        everything = tuple(range(1, self.n + 1))
        todo = [z for z in subsets if z and z not in self._w_cache]
        moments = self._moments is None and not self._takes_qmc(())
        if self._full_grid_ok:
            swept = [] if everything in self._w_cache else [everything]
        else:
            wanted = todo + all_subsets(self.n, 2) if moments else todo
            swept = list(dict.fromkeys(
                z for z in wanted
                if z not in self._w_cache and not self._takes_qmc(z)))
        if swept or moments:
            tables = {z: np.zeros(self._subgrid_shape(z)) for z in swept}
            sums = [0.0, 0.0]
            for box, pts in _box_points(self.nodes):
                weights = [wk[s] for wk, s in zip(self.weights, box)]
                values = _evaluate(self.model, pts).reshape(
                    [wk.size for wk in weights])
                for z, w in tables.items():
                    w[tuple(box[i - 1] for i in z)] += _contract(
                        values, [None if i in z else weights[i - 1]
                                 for i in range(1, self.n + 1)])
                if moments:
                    sums[0] += float(_contract(values, weights))
                    sums[1] += float(_contract(values ** 2, weights))
            self._w_cache.update(tables)
            if moments:
                self._moments = tuple(sums)
        for z in todo:
            if z in self._w_cache:
                continue
            if self._full_grid_ok:
                self._w_cache[z] = _contract(
                    self._w_cache[everything],
                    [None if i in z else self.weights[i - 1]
                     for i in range(1, self.n + 1)])
            else:
                pts = _tensor_points([self.nodes[i - 1] for i in z])
                self._w_cache[z] = self.conditional_mean(z, pts).reshape(
                    self._subgrid_shape(z))
        if self._moments is None:
            pts, w = self._complement_rule(())
            values = _evaluate(self.model, pts)
            self._moments = (float(values @ w), float(values ** 2 @ w))
        return {z: self._w_cache[z] if z else self._moments[0] for z in subsets}

    def effect_on_subgrid(self, z):
        """g_z on the tensor grid of z's quad nodes."""
        z = tuple(z)

        def lift(u, v, gu):
            # broadcast g_u across the axes of v \ u
            return np.reshape(gu, [self._sizes[i - 1] if i in u else 1
                                   for i in v])

        return _mobius(z, self._fill_subgrid_tables(_subsets_of(z)), lift)[z]

    def term_variance(self, z):
        """V_z = integral of g_z^2 against the subset's marginal measure."""
        z = tuple(z)
        if len(z) == 0:
            return 0.0
        return float(_contract(self.effect_on_subgrid(z) ** 2,
                               [self.weights[i - 1] for i in z]))

    def variance_decomposition(self, max_order=None):
        if max_order is None:
            max_order = self.n if self.n <= 4 else 2
        subsets = all_subsets(self.n, max_order)
        self._fill_subgrid_tables(subsets)
        terms = {z: self.term_variance(z) for z in subsets}
        total = self.total_variance()
        residual = total - sum(terms.values()) if max_order < self.n else 0.0
        qmc = any(self._takes_qmc(z) for z in [()] + subsets)
        return VarianceDecomposition(measure=self.measure.name or "measure",
                                     total=total, mean=self.mean(), terms=terms,
                                     residual=residual, n=self.n,
                                     mode="qmc" if qmc else "quadrature")

    # -- plotting-oriented output -------------------------------------------

    def effect_curve(self, z, npts=129):
        """g_z tabulated on an even grid over the measure's plotting range."""
        z = tuple(sorted(z))
        if not 1 <= len(z) <= 2:
            raise ValueError("effect curves are for singletons and pairs")
        grids = [np.linspace(*self.measure.components[i - 1].plot_range(), npts)
                 for i in z]
        vals = self.effect(z, _tensor_points(grids)).reshape([npts] * len(z))
        return EffectCurve(measure=self.measure.name or "measure",
                           subset=z, grids=grids, values=vals)

    def annihilation_defect(self, z):
        """max_i |int g_z dmu_i| over i in z — zero for an exact decomposition."""
        z = tuple(z)
        if not z:
            return 0.0
        g = self.effect_on_subgrid(z)
        worst = 0.0
        for i in z:
            contracted = _contract(g, [self.weights[i - 1] if j == i else None
                                       for j in z])
            worst = max(worst, float(np.max(np.abs(contracted))))
        return worst


class _Axis:
    """Interpolation on one coordinate's Gauss nodes.

    Holds the barycentric weights of the nodes (1 / prod_k (x_j - x_k),
    scaled) and the map from values at the nodes to the coefficients of the
    interpolant in the polynomials orthonormal under the coordinate's
    measure (Legendre for a uniform, Hermite for a normal).  Gauss
    quadrature of order s is exact for degree 2s - 1, so that map is the
    quadrature itself: c_k = sum_j w_j phi_k(x_j) f(x_j).
    """

    def __init__(self, comp, nodes, weights):
        s = nodes.size
        k = np.arange(1, s)
        if isinstance(comp, Uniform):
            self.lo, self.hi = comp.lo, comp.hi
            self.center = 0.5 * (comp.lo + comp.hi)
            self.half = 0.5 * (comp.hi - comp.lo)
            self.jacobi = k / np.sqrt(4.0 * k * k - 1.0)
        else:
            self.lo, self.hi = -np.inf, np.inf
            self.center, self.half = comp.mean_, comp.sd
            self.jacobi = np.sqrt(k)
        d = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(d, 1.0)
        logw = -np.log(np.abs(d)).sum(axis=1)
        self.bary = np.prod(np.sign(d), axis=1) * np.exp(logw - logw.max())
        self.nodes = nodes
        self.to_coeffs = (self.poly(nodes) * weights[:, None]).T

    def poly(self, x):
        """(N, s): the orthonormal polynomials of degree < s at ``x``."""
        t = (x - self.center) / self.half
        out = np.empty((t.size, self.nodes.size))
        out[:, 0] = 1.0
        for k, b in enumerate(self.jacobi):     # three-term recurrence
            out[:, k + 1] = t * out[:, k] / b
            if k:
                out[:, k + 1] -= self.jacobi[k - 1] / b * out[:, k - 1]
        return out

    def basis(self, x):
        """(N, s): the Lagrange basis of the nodes at ``x``, barycentric form."""
        d = x[:, None] - self.nodes
        hit = d == 0.0
        c = self.bary / np.where(hit, 1.0, d)
        basis = c / c.sum(axis=1, keepdims=True)
        on_node = hit.any(axis=1)
        basis[on_node] = hit[on_node]
        return basis


class _Table:
    """A conditional mean on its subgrid, interpolated at points with an
    error gate.

    Values come from tensor barycentric interpolation, one (N, s) basis
    matrix per axis.  A row is accepted when it lies in every coordinate's
    support and its estimated error is at most INTERP_TOL times the RMS of
    the table under the measure.  The estimate adds two parts:

    * truncation: the coefficients of the last quarter of the degrees of
      each axis, in absolute value, evaluated at the row through the
      absolute orthonormal polynomials; for a resolved table they are
      rounding noise, for an unresolved one they are not small;
    * rounding: Higham's bound for the barycentric formula,
      (3s + 4) eps (sum_j |l_j(x) f_j| + Lambda(x) |p(x)|), with l_j the
      Lagrange basis and Lambda = sum_j |l_j| the Lebesgue function
      (Higham, IMA J. Numer. Anal. 24, 2004).  It grows far out in a
      normal coordinate, where the nodes thin out.
    """

    def __init__(self, values, axes, weights):
        coeffs = values
        tail = np.zeros(values.shape, dtype=bool)
        for ax, a in enumerate(axes):
            coeffs = np.moveaxis(np.tensordot(a.to_coeffs, coeffs,
                                              axes=([1], [ax])), 0, ax)
            degree = np.arange(values.shape[ax])
            tail |= (degree >= _tail(degree.size)).reshape(
                [-1 if k == ax else 1 for k in range(values.ndim)])
        self.axes = axes
        self.values = values
        self.tail = np.where(tail, np.abs(coeffs), 0.0)
        self.rounding = (3 * max(values.shape) + 4) * np.finfo(float).eps
        self.scale = float(np.sqrt(_contract(values ** 2, weights)))

    @property
    def resolved(self):
        """Whether the tail coefficients sum to at most INTERP_TOL times the
        table's RMS: the gate's truncation estimate with every polynomial at
        unit size.  A series judged resolved by its tail, as in Aurentz &
        Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017."""
        return float(self.tail.sum()) <= INTERP_TOL * self.scale

    def __call__(self, x):
        """(accepted, values): a mask over the rows of ``x`` and the
        interpolated values at the accepted rows."""
        ok = np.all([(c >= a.lo) & (c <= a.hi) for a, c in zip(self.axes, x.T)],
                    axis=0)
        cols = x[ok].T
        with np.errstate(all="ignore"):     # far-out rows overflow; the gate drops them
            bases = [a.basis(c) for a, c in zip(self.axes, cols)]
            values = _tensor_eval(self.values, bases)
            size = [np.abs(b) for b in bases]
            lebesgue = np.prod([b.sum(axis=1) for b in size], axis=0)
            truncation = _tensor_eval(self.tail, [np.abs(a.poly(c))
                                                  for a, c in zip(self.axes, cols)])
            rounding = self.rounding * (_tensor_eval(np.abs(self.values), size)
                                        + lebesgue * np.abs(values))
            good = truncation + rounding <= INTERP_TOL * self.scale
        ok[np.flatnonzero(ok)[~good]] = False
        return ok, values[good]


def _tail(s):
    """First degree of the coefficient tail of s nodes (last quarter, >= 2)."""
    return s - max(2, s // 4)


def _tensor_eval(table, mats):
    """sum_J table[J] * prod_a mats[a][:, J_a] for every row: a tensor
    table contracted with one (N, s_a) matrix per axis, with no block
    larger than (N, s)."""
    if len(mats) == 1:
        return mats[0] @ table
    if len(mats) == 2:
        return np.einsum("nj,nj->n", mats[0] @ table, mats[1])
    return sum(mats[0][:, j] * _tensor_eval(table[j], mats[1:])
               for j in range(table.shape[0]))


def _subsets_of(z):
    """All subsets of tuple z (including empty and z itself), canonical order."""
    z = tuple(z)
    out = []
    for mask in range(1 << len(z)):
        out.append(tuple(z[k] for k in range(len(z)) if mask >> k & 1))
    out.sort(key=canonical_key)
    return out


def _mobius(z, w, lift=lambda u, v, gu: gu):
    """Moebius inversion over the subsets of z: g_v = w_v - sum_{u < v} g_u.

    ``w`` maps every subset v of z (the empty one included) to its
    conditional mean w_v; returns every g_v.  The lower terms are subtracted
    one at a time in canonical order, each through ``lift(u, v, g_u)``,
    which brings g_u to the layout of w_v (values at points need none).
    """
    g = {}
    for v in _subsets_of(z):
        g[v] = np.array(w[v], dtype=float)
        for u in _subsets_of(v)[:-1]:
            g[v] -= lift(u, v, g[u])
    return g


def _fits(sizes):
    """Whether the full tensor grid of axes of these sizes fits."""
    return math.prod(sizes) <= FULL_GRID_CAP and len(sizes) <= 16


def _contract(values, weights):
    """Integrate ``values`` along each axis k against ``weights[k]``, last
    axis first; an axis whose entry is None is kept."""
    for ax in reversed(range(len(weights))):
        if weights[ax] is not None:
            values = np.tensordot(values, weights[ax], axes=([ax], [0]))
    return values


def _grid_boxes(sizes):
    """Boxes, one slice per axis, that tile the tensor grid of ``sizes`` in
    C order with at most BLOCK_POINTS points each: whole trailing axes, a
    run of nodes on the axis before them and one node on each axis before
    that."""
    k = next(k for k in range(1, len(sizes) + 1)
             if math.prod(sizes[k:]) <= BLOCK_POINTS)
    run = BLOCK_POINTS // math.prod(sizes[k:])
    for head in np.ndindex(*sizes[:k - 1]):
        for a in range(0, sizes[k - 1], run):
            yield tuple(slice(i, i + 1) for i in head) + (slice(a, a + run),) \
                + (slice(None),) * (len(sizes) - k)


def _box_points(axes):
    """(box, points) for every box of ``_grid_boxes`` over the tensor grid
    of ``axes``: the box's rows in C order, as ``_tensor_points`` builds
    them.

    The rows live in one buffer, sized by the first box and overwritten by
    each next one; only the columns whose slice changed are rewritten (the
    whole trailing axes are written once), and a shorter box is a view of
    the buffer's head.
    """
    buf, prev = None, None
    for box in _grid_boxes([a.size for a in axes]):
        nodes = [a[s] for a, s in zip(axes, box)]
        shape = [x.size for x in nodes]
        rows = math.prod(shape)
        if buf is None:             # the first box is the largest
            buf = np.empty((rows, len(axes)))
        pts = buf[:rows].reshape(shape + [len(axes)])
        for j, x in enumerate(nodes):
            if prev is None or box[j] != prev[j]:
                pts[..., j] = x.reshape([-1 if k == j else 1
                                         for k in range(len(axes))])
        prev = box
        yield box, pts.reshape(-1, len(axes))


def _tensor_points(axes):
    """Rows of the tensor grid of the given 1-d axes, last axis fastest.

    Each axis is broadcast straight into its column, so the only array as
    large as the grid is the result.
    """
    axes = [np.asarray(a) for a in axes]
    out = np.empty([a.size for a in axes] + [len(axes)],
                   dtype=np.result_type(*axes))
    for j, a in enumerate(axes):
        out[..., j] = a.reshape([-1 if k == j else 1 for k in range(len(axes))])
    return out.reshape(-1, len(axes))


def _tensor_rule(rules):
    """The tensor product of 1-d (nodes, weights) rules: (points, weights)."""
    pts = _tensor_points([x for x, _ in rules])
    return pts, np.prod(_tensor_points([w for _, w in rules]), axis=-1)


def _evaluate(model, x):
    """The model at points ``x`` (rows) as floats; non-finite output raises.

    Every model call of the package goes through here, so a NaN or an
    overflow is reported where it arises instead of as a zero variance or a
    value the report cannot hold.
    """
    y = np.asarray(model(x), dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        first = np.reshape(x, (y.size, -1))[bad[0]]
        raise FloatingPointError(f"model output is non-finite at {bad.size} "
                                 f"of {y.size} points, first at x = "
                                 f"{[float(v) for v in first]}")
    return y
