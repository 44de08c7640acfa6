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

Every integral is a tensor Gauss rule (an exact finite sum on a discrete
coordinate) over a grid of at most ``FULL_GRID_CAP`` points.  An engine's
``order`` is the most Gauss nodes per continuous coordinate.  Its first
integral of any kind climbs a ladder of orders (``LADDER``,
``AnovaEngine._settle``): from 16 nodes, or from the largest lower rung
whose grid fits when 16 does not, up to the last rung below ``order``.
Each rung decomposes the model off its full grid (the whole subset lattice
up to four inputs), and the order settles at the first rung whose mean,
total and terms moved by at most ``INTERP_TOL`` (relative to sqrt(V) and V)
from the rung below.  Gauss rules converge geometrically on smooth models,
so that change bounds the error of the rung below.  Each rung also caps
every axis it resolves at the fewest nodes that keep it resolved
(``AnovaEngine._caps``, one coefficient-tail rule on every family), and
each axis keeps the smallest cap it was given: an axis stops climbing once
it no longer changes the result, the dimension-adaptive rule of Gerstner &
Griebel (Computing 71, 2003).  When the grid at ``order`` fits, a rung
settles only once every continuous axis has a cap.  A rung
whose grid does not fit under the caps so far ends the climb.  A settled
engine is an engine at that order, with its rung's caps.  With no such rung
it keeps ``order`` on every axis when that grid fits, ``order`` under the
caps when that fits, and the last rung it climbed otherwise; an engine for
which neither ``order`` nor any rung fits raises ``ConfigError`` when it is
built.  A smooth 4-input model quartic in x3 costs 16^4 + (24^3 + 32^3) * 7
evaluations, not 64^4; the Ishigami model settles at 24, 32 or 48 nodes,
with 7 on x3 and 14, 21 or 26 on x1.

Variance terms need each w_z on the subgrid of z's own Gauss nodes, and
``AnovaEngine._fill_subgrid_tables`` is the one provider of those tables.  It
evaluates the full grid once, in boxes of at most ``BLOCK_POINTS`` points,
and keeps it whole.  Every integral of the decomposition is contracted from
that one kept grid: each table, the mean (the table of the empty subset) and
the total variance (from the grid's squared deviations from the mean), so
the mean, the total and every term are the same whatever the size of the
boxes.
``variance_decomposition`` inverts the whole subset lattice in one pass of
``_mobius``, so each g_z is built once.  The engine keeps its decomposition
per ``max_order``, the settled rung's among them, and returns that same
object to every later call, so callers must not change it; ``_use_order``
drops them.

Effects at arbitrary points need w_v there.  ``AnovaEngine._w_at`` reads w_v
off v's subgrid table as its interpolating polynomial, through the table's
coefficients in the polynomials orthonormal under each axis's measure,
gated row by row by an error estimate (see ``_Table``, each built once by
``_table``).  The direct integral over the
complement of v, ``conditional_mean``, serves the rows the gate rejects or
that lie outside a coordinate's support, the empty and the full subset, and
subsets with a discrete coordinate.  Every complement rule comes from
``_direct_rules``: on a settled engine the complement takes half the nodes
of the cap its rung gives each axis it resolves, checked row by row against
a second rule one node lower; a row on which the two disagree takes the
settled nodes.  Rows times rule points, and the rows of the full subset, go
to the model in the boxes of ``_grid_boxes``, so no model call of an engine
holds more than ``BLOCK_POINTS`` points.  Each subset keeps its last call to
``_w_at``: the rows' shape and bytes and the w_v returned, at most
N (|v| + 1) doubles, so the same rows asked again (by the other mixture
route, or by a subset that holds v) cost no table read and no model call.
``_use_order`` empties it, but for the full subset, whose w is g itself
at every order and under every measure: the engines that
``mixture.component_engines`` builds on one model share that entry, so the
model is evaluated once at rows that all of them are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .measures import (DEFAULT_ORDER, ConfigError, DiscreteUniform,
                       ProductMeasure, Uniform)


class ZeroVarianceError(ArithmeticError):
    """Total variance is (numerically) zero, so indices are undefined."""


# orders an engine tries below ``order`` (_settle); those below 16 only when
# the grid of 16 does not fit
LADDER = (6, 8, 12, 16, 24, 32, 48)
FULL_GRID_CAP = 2**22       # largest full tensor grid we will materialise
BLOCK_POINTS = 2**16        # most points an engine hands the model at once
PLOT_ROWS = 129             # rows per axis of a default effect curve
INTERP_TOL = 1e-9           # error target of a conditional mean read off a table
# a total variance within this many ulps of E[g^2] = V + mean^2 admits no
# indices (VarianceDecomposition.require_variance)
ZERO_VARIANCE_ULPS = 64


# ---------------------------------------------------------------------------
# subset bookkeeping (inputs are 1-based everywhere in the public API)
# ---------------------------------------------------------------------------

def all_subsets(n, max_order=None):
    """Nonempty subsets of {1..n} up to ``max_order``, in canonical order."""
    if max_order is None:
        max_order = n
    return [z for z in _subsets_of(tuple(range(1, n + 1)))
            if z and len(z) <= max_order]


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
    mode = "quadrature"     # always; kept for callers that read it

    def clamped_terms(self):
        return {z: max(v, 0.0) for z, v in self.terms.items()}

    def require_variance(self):
        """Raise ZeroVarianceError unless V is finite and above rounding noise.

        The test is scale-invariant: V <= c * eps * (V + mean^2), with
        c = ZERO_VARIANCE_ULPS.  V is centred, but each V_z comes from
        conditional means that hold the mean, so its rounding is a few ulps
        of E[g^2] = V + mean^2.  A subnormal E[g^2] has lost its digits, and
        c * eps times it underflows to zero, so it counts as zero itself.
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
        fewer nodes still; ``order`` is then the order the engine kept, and
        ``nodes`` and ``weights`` say what each axis used.
    seed : int
        Not used, since every integral is a tensor Gauss rule; kept for the
        callers that still pass it.

    The ladder of orders is fixed here and climbed on the first integral.
    An engine for which neither the grid of ``order`` nor that of any rung
    fits in ``FULL_GRID_CAP`` points raises ``ConfigError`` here.
    """

    def __init__(self, model, measure, order=DEFAULT_ORDER, seed=0):
        if not isinstance(measure, ProductMeasure):
            raise TypeError("AnovaEngine needs a ProductMeasure")
        self.model = model
        self.measure = measure
        self.n = measure.n
        self._w_full = {}     # _w_last of all inputs, kept and shared (_w_at)
        self._use_order(int(order))
        self._fits_order = _fits(self._sizes)
        # the ladder, climbed by _settle: the rungs below ``order`` from 16
        # on, or from the largest rung that fits when 16 does not; kept when
        # at least two are left or the grid of ``order`` does not fit, and
        # some coordinate is continuous
        first = max([r for r in LADDER if r <= 16 and _fits(self._grid(r))],
                    default=math.inf)
        rungs = [r for r in LADDER if first <= r < self.order]
        continuous = any(not isinstance(c, DiscreteUniform)
                         for c in measure.components)
        self._ladder = rungs if continuous and (
            len(rungs) > 1 or not self._fits_order) else []
        if not (self._fits_order or self._ladder):
            raise ConfigError(
                f"no tensor grid of the {self.n} inputs fits in "
                f"{FULL_GRID_CAP} points, at order {self.order} or at any "
                f"order from {LADDER[0]}")

    def _use_order(self, order, caps=None):
        """Take the Gauss rule of ``order``, with no table yet.

        ``caps`` (from ``_caps``) holds each coordinate's most nodes.
        """
        self.order = order
        nodes = [c.quad_nodes(k) for c, k in
                 zip(self.measure.components, self._grid(order, caps))]
        self.nodes = [np.asarray(x) for x, _ in nodes]
        self.weights = [np.asarray(w) for _, w in nodes]
        self._sizes = [x.size for x in self.nodes]
        self._w_cache = {}        # subset -> conditional mean on its subgrid
        self._tables = {}         # subset -> its interpolation _Table (_table)
        self._w_last = {}         # subset -> (key, w_v) of its last _w_at call
        self._halves = None       # per axis, h nodes or None (_direct_rules)
        self._decompositions = {}  # max_order -> its VarianceDecomposition
        vars(self).pop("_axes", None)   # the cached axes hold the old nodes

    def _grid(self, order, caps=None):
        """The axis sizes of the grid of ``order`` under ``caps``, counted,
        not built: min(order, cap) nodes on a continuous coordinate, its own
        points on a discrete one."""
        return [len(c.points) if isinstance(c, DiscreteUniform) else min(order, k)
                for c, k in zip(self.measure.components, caps or [order] * self.n)]

    def _settle(self):
        """Climb the ladder, once, before the engine's first integral.

        Each rung decomposes the model off its full grid, to the default
        ``max_order`` of ``variance_decomposition``: the whole subset lattice
        up to four inputs; beyond, where the lattice grows as 2^n, the terms
        of at most two inputs and the total.  The engine keeps the first
        rung where, against the rung below, the mean moved by at most
        ``INTERP_TOL`` times sqrt(V), and V and every V_z by at most
        ``INTERP_TOL`` times V; Gauss rules converge geometrically on smooth
        models, so that change bounds the error of the rung below.  Each
        rung computes its ``_caps`` once, and every axis takes the smaller
        of its cap so far and the rung's, so a cap never grows; the next
        rung, the settled engine and its direct complement rules use those
        caps, and the climb stops at a rung whose grid does not fit under
        them.  On an engine whose grid fits at ``order``, a rung settles
        only when every continuous axis has a finite cap so far, so that a
        lower order does not send the rows of an unresolved table to the
        direct integral.  The caps so far, not the rung's own: an axis
        capped at c nodes sits at the edge of its own tail test there, and
        a smooth 3-input model read unresolved at its cap would climb to
        ``order``.  Only there: on an engine whose grid at ``order`` does
        not fit, the test would take a smooth 4-input model from 32 nodes
        to 48, and the row gate already sends the rows of an unresolved
        table to the direct integral.  The settled rung's own caps set the
        lower rules of the direct integrals (``_halves``, see
        ``_direct_rules``), and its decomposition is the one
        ``variance_decomposition`` keeps.
        With no such rung the engine keeps, with no lower rules, ``order``
        uncapped when that grid fits, ``order`` under the caps when that
        fits, and otherwise the last rung it climbed.  When a rung raises,
        the engine goes back to ``order`` as built.
        """
        ladder, self._ladder = self._ladder, []
        if not ladder:
            return
        order, last = self.order, None
        caps = [math.inf] * self.n
        try:
            for rung in ladder:
                if not _fits(self._grid(rung, caps)):
                    break
                self._use_order(rung, caps)
                vd = self.variance_decomposition()
                terms = np.array([vd.total, *vd.terms.values()])
                still = last is not None and abs(vd.mean - last[0]) \
                    <= INTERP_TOL * math.sqrt(max(vd.total, 0.0)) \
                    and np.all(np.abs(terms - last[1]) <= INTERP_TOL * vd.total)
                rung_caps = self._caps()
                caps = [min(a, b) for a, b in zip(caps, rung_caps)]
                if still and (not self._fits_order or all(
                        c < math.inf for c, a in zip(caps, self._axes)
                        if a is not None)):
                    self._halves = [math.ceil(c / 2) if c < math.inf and s > 1
                                    else None
                                    for c, s in zip(rung_caps, self._sizes)]
                    return
                last = vd.mean, terms
        except BaseException:       # a failed rung leaves the engine as built
            self._ladder = ladder
            self._use_order(order)
            raise
        if self._fits_order:
            self._use_order(order)
        elif _fits(self._grid(order, caps)):
            self._use_order(order, caps)

    def _caps(self):
        """Per coordinate, the most nodes this rung's full grid says it needs
        (inf on a discrete axis and on one the grid leaves unresolved).

        Along a continuous axis, g's orthonormal-polynomial coefficients on
        the grid, each the largest over the other axes, are resolved when
        those from the ``_tail`` on sum to at most ``INTERP_TOL`` times the
        RMS of w_i (the least RMS of a table that holds the axis).  The axis
        is then capped at the fewest nodes whose tail starts above the last
        degree from which they sum to more.  The coefficients are summed as
        they stand, on every family: a series judged resolved by its tail,
        as in Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS
        43, 2017.  The row gate of ``_Table`` weighs each tail
        coefficient by |phi_k(x)| and sends the rows it rejects to the
        direct integral.
        """
        grid = self._w_cache[tuple(range(1, self.n + 1))]
        caps = [math.inf] * self.n
        for i, a in enumerate(self._axes):
            if a is not None:
                s, w = self._sizes[i], self._w_cache[(i + 1,)]
                tol = INTERP_TOL * math.sqrt(float(w ** 2 @ self.weights[i]))
                c = np.abs(np.tensordot(a.to_coeffs, grid, axes=([1], [i])))
                c = c.reshape(s, -1).max(axis=1)
                rest = np.cumsum(c[::-1])[::-1]
                d = max(np.flatnonzero(rest > tol), default=-1)
                if d < _tail(s):
                    caps[i] = next(k for k in range(1, s + 1) if _tail(k) > d)
        return caps

    # -- conditional means and effects at arbitrary points -------------------

    def conditional_mean(self, z, x):
        """w_z at points ``x`` of shape (N, |z|): E[g(X) | X_z = x_row].

        The empty subset gives the mean, all inputs the model at the rows
        (columns in input order), and any other z the integral over its
        complement by the rules of ``_direct_rules`` in turn: a row keeps
        the first value it accepts.  Each model call takes one box of rows
        times rule points from ``_grid_boxes``, at most ``BLOCK_POINTS``.
        """
        self._settle()
        z = tuple(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(z) == 0:
            return np.full(x.shape[0], self.mean())
        if x.shape[1] != len(z):
            raise ValueError(f"points have {x.shape[1]} columns for subset {z}")
        out = np.empty(x.shape[0])
        if len(z) == self.n:
            x = x[:, np.argsort(z)]
            for r, in _grid_boxes([x.shape[0]]):
                out[r] = _evaluate(self.model, x[r])
            return out
        zi = [i - 1 for i in z]
        ci = [i - 1 for i in range(1, self.n + 1) if i not in z]
        rows = np.arange(x.shape[0])
        for cpts, cw, tol in self._direct_rules(z):
            if not rows.size:
                break
            vals = np.empty((rows.size,) + cw.shape[1:])
            for r, p in _grid_boxes([rows.size, cpts.shape[0]]):
                block = np.empty((rows[r].size, cpts[p].shape[0], self.n))
                block[:, :, zi] = x[rows[r], None, :]
                block[:, :, ci] = cpts[p]
                part = _evaluate(self.model, block.reshape(-1, self.n)).reshape(
                    block.shape[:2]) @ cw[p]
                # a rule longer than a box: one row, its boxes summed in turn
                vals[r] = vals[r] + part if p.start else part
            if tol is None:
                out[rows] = vals
                break
            agree = np.abs(vals[:, 0] - vals[:, 1]) <= tol
            out[rows[agree]] = vals[agree, 0]
            rows = rows[~agree]
        return out

    def _direct_rules(self, z):
        """The rules of ``conditional_mean`` over the complement of z, each
        (points, weights, tol), lazily, every one a tensor ``rule``.

        The last is the settled rule, each axis at its settled nodes
        (weights (m,), tol None): every row it sees keeps its value.  Before
        it, on a settled engine, comes a pair of lower rules side by side
        (weights (m, 2), one column each): each axis of more than one node
        that ``_caps`` resolved at the settled rung, at cap c, takes
        h = ceil(c / 2) nodes in the first and max(h - 1, 1) in the second,
        and every other axis its settled nodes.  A Gauss rule of h
        nodes is exact to degree 2h - 1, so it integrates all that c nodes
        interpolate; a row keeps the h-node value when the two agree within
        ``INTERP_TOL`` times the RMS of z's subgrid table, the row gate's
        standard, and goes on to the settled rule otherwise.
        """
        comp = [i for i in range(1, self.n + 1) if i not in z]
        halves = [self._halves[i - 1] if self._halves else None for i in comp]

        def rule(counts):       # k nodes on a halved axis, settled elsewhere
            return _tensor_rule([
                self.measure.components[i - 1].quad_nodes(k) if k else
                (self.nodes[i - 1], self.weights[i - 1])
                for i, k in zip(comp, counts)])

        if any(halves):
            (hi, whi), (lo, wlo) = rule(halves), rule(
                [h and max(h - 1, 1) for h in halves])
            weights = np.zeros((whi.size + wlo.size, 2))
            weights[:whi.size, 0], weights[whi.size:, 1] = whi, wlo
            v = tuple(sorted(z))
            rms = math.sqrt(float(_contract(self._w_on_subgrid(v) ** 2,
                                            [self.weights[i - 1] for i in v])))
            yield np.vstack([hi, lo]), weights, INTERP_TOL * rms
        yield *rule([None] * len(comp)), None

    def conditional_means(self, z, x):
        """{v: w_v at the rows of ``x``} for every subset v of z, the empty
        one included, each v sorted; the columns of ``x`` follow the order
        of z, which need not be sorted."""
        z = tuple(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(z):
            raise ValueError(f"points have {x.shape[1]} columns for subset {z}")
        return {v: self._w_at(v, x[:, [z.index(i) for i in v]])
                for v in _subsets_of(tuple(sorted(z)))}

    def _w_at(self, v, x):
        """w_v at the rows of ``x`` (N, |v|), read off v's quadrature table.

        The table is ``_w_on_subgrid(v)``, interpolated by ``_Table``; rows
        it does not accept, and every row when v is empty or all inputs or
        when a coordinate of v is discrete, come from ``conditional_mean``.

        Each subset keeps its last call: the key ``(x.shape, x.tobytes())``
        (the shape, since an (N, 0) array has no bytes for any N) and the
        w_v it returned.  A call with the same key returns a copy of those
        values, with no table read and no model call.  The memo holds at
        most N (|v| + 1) doubles per subset and is emptied, with the
        tables, by ``_use_order``, but for the full subset's, the model at
        the rows whatever the order or measure: it sits in ``_w_full``,
        which ``_use_order`` keeps and ``mixture.component_engines`` shares.
        """
        self._settle()
        v = tuple(v)
        key = x.shape, x.tobytes()
        memo = self._w_full if len(v) == self.n else self._w_last
        last = memo.get(v)
        if last is not None and last[0] == key:
            return last[1].copy()
        if not self._reads_table(v):
            out = self.conditional_mean(v, x)
        else:
            ok, values = self._table(v)(x)
            out = np.empty(x.shape[0])
            out[ok] = values
            if not ok.all():
                out[~ok] = self.conditional_mean(v, x[~ok])
        memo[v] = key, out
        return out.copy()

    def _reads_table(self, v):
        """Whether v has a table to read: it is neither empty nor all
        inputs, and no coordinate of it is discrete."""
        return 0 < len(v) < self.n and None not in [self._axes[i - 1] for i in v]

    def _table(self, v):
        """The interpolation ``_Table`` of ``_w_on_subgrid(v)``, built once
        and kept in ``_tables`` until ``_use_order`` empties it."""
        if v not in self._tables:
            self._tables[v] = _Table(self._w_on_subgrid(v),
                                     [self._axes[i - 1] for i in v],
                                     [self.weights[i - 1] for i in v])
        return self._tables[v]

    @cached_property
    def _axes(self):
        """Per coordinate, its interpolation data (None when discrete)."""
        return [None if isinstance(c, DiscreteUniform) else _Axis(c, x, w)
                for c, x, w in zip(self.measure.components, self.nodes,
                                   self.weights)]

    def mean(self):
        return self._w_on_subgrid(())

    def effect(self, z, x):
        """The ANOVA term g_z at arbitrary points ``x`` of shape (N, |z|).

        Built by the defining recursion from the conditional means of all
        subsets of z, each evaluated once at the projected points.  The
        columns of ``x`` follow the order of z, as in ``conditional_means``.
        """
        z = tuple(z)
        key = tuple(sorted(z))
        return _mobius(_subsets_of(key), self.conditional_means(z, x))[key]

    # -- grid-based decomposition -------------------------------------------

    def _w_on_subgrid(self, z):
        """Conditional mean w_z on the tensor grid of z's own quad nodes
        (the mean for the empty z)."""
        z = tuple(z)
        return self._fill_subgrid_tables([z])[z]

    def _fill_subgrid_tables(self, subsets):
        """{z: w_z on its subgrid} for every one of ``subsets`` (the mean for
        the empty one), each table computed once and kept in ``_w_cache``.
        The one place the engine integrates the model over its tensor grid.

        The first call evaluates the full grid once, box by box
        (``_grid_boxes``, each box's rows from ``_tensor_points``), and keeps
        it whole as the table of all inputs.  Every table, the mean among
        them, is contracted from it, then and later, with no further model
        call, so no result depends on the size of the boxes.
        """
        self._settle()
        everything = tuple(range(1, self.n + 1))
        if everything not in self._w_cache:
            grid = np.empty(self._sizes)
            for box in _grid_boxes(self._sizes):
                nodes = [x[s] for x, s in zip(self.nodes, box)]
                grid[box] = _evaluate(self.model, _tensor_points(nodes)).reshape(
                    [x.size for x in nodes])
            self._w_cache[everything] = grid
        for z in subsets:
            if z not in self._w_cache:
                w = _contract(self._w_cache[everything],
                              [None if i in z else self.weights[i - 1]
                               for i in range(1, self.n + 1)])
                self._w_cache[z] = w if z else float(w)
        return {z: self._w_cache[z] for z in subsets}

    def effect_on_subgrid(self, z):
        """g_z on the tensor grid of z's quad nodes."""
        z = tuple(z)
        subsets = _subsets_of(z)
        return _mobius(subsets, self._fill_subgrid_tables(subsets),
                       self._lift)[z]

    def _lift(self, u, v, gu):
        """g_u in the layout of g_v: size 1 on each input of v not in u."""
        return np.reshape(gu, [self._sizes[i - 1] if i in u else 1 for i in v])

    def variance_decomposition(self, max_order=None):
        """The mean, the total and every V_z of at most ``max_order`` inputs
        (default: all of them up to four inputs, and at most two beyond).
        The one producer of V, the integral of (g - mean)^2 over the kept
        grid: centred, a large mean costs V no digits.

        One Moebius pass over the whole subset lattice gives every g_z on its
        subgrid, so each lower g_v is built once, not once per superset.  The
        engine computes its decomposition once per ``max_order`` and hands
        every later call the same object, the settled rung's among them
        (``_settle``); a caller must not change it.  ``_use_order`` drops
        them.
        """
        self._settle()
        if max_order is None:
            max_order = self.n if self.n <= 4 else 2
        vd = self._decompositions.get(max_order)
        if vd is not None:
            return vd
        subsets = [()] + all_subsets(self.n, max_order)
        g = _mobius(subsets, self._fill_subgrid_tables(subsets), self._lift)
        # each g_z goes once integrated, so the largest is squared alone and
        # none is left when the total squares the grid's deviations, in place
        terms = {z: float(_contract(g.pop(z) ** 2,
                                    [self.weights[i - 1] for i in z]))
                 for z in subsets[1:]}
        dev = self._w_on_subgrid(tuple(range(1, self.n + 1))) - self.mean()
        total = float(_contract(np.square(dev, out=dev), self.weights))
        residual = total - sum(terms.values()) if max_order < self.n else 0.0
        vd = VarianceDecomposition(measure=self.measure.name or "measure",
                                   total=total, mean=self.mean(), terms=terms,
                                   residual=residual, n=self.n)
        self._decompositions[max_order] = vd
        return vd

    # -- plotting-oriented output -------------------------------------------

    def effect_curve(self, z, npts=PLOT_ROWS):
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
    """The polynomials orthonormal under one coordinate's measure (Legendre
    for a uniform, Hermite for a normal), to the degree its Gauss nodes
    interpolate, and the map from values at the nodes to the coefficients
    of their interpolant in them.  Gauss quadrature of order s is exact for
    degree 2s - 1, so that map is the quadrature itself:
    c_k = sum_j w_j phi_k(x_j) f(x_j).
    """

    def __init__(self, comp, nodes, weights):
        k = np.arange(1, nodes.size)
        if isinstance(comp, Uniform):
            self.center = 0.5 * (comp.lo + comp.hi)
            self.half = 0.5 * (comp.hi - comp.lo)
            self.jacobi = k / np.sqrt(4.0 * k * k - 1.0)
        else:
            self.center, self.half = comp.mean_, comp.sd
            self.jacobi = np.sqrt(k)
        self.lo, self.hi = comp.support()
        self.to_coeffs = (self.poly(nodes) * weights[:, None]).T

    def poly(self, x):
        """(N, s): the orthonormal polynomials of degree < s at ``x``."""
        t = (x - self.center) / self.half
        out = np.empty((t.size, self.jacobi.size + 1))
        out[:, 0] = 1.0
        for k, b in enumerate(self.jacobi):     # three-term recurrence
            out[:, k + 1] = t * out[:, k] / b
            if k:
                out[:, k + 1] -= self.jacobi[k - 1] / b * out[:, k - 1]
        return out


class _Table:
    """A conditional mean on its subgrid, read at points through the
    coefficients of its interpolant in the axes' orthonormal polynomials,
    with an error gate.

    A row is accepted when it lies in every coordinate's support and its
    estimated error is at most INTERP_TOL times the RMS of the table under
    the measure.  The estimate is the table ``error`` evaluated at the row
    through the absolute orthonormal polynomials, |phi_J(x)| =
    prod_a |phi_{J_a}(x_a)|, and adds two parts:

    * truncation: the coefficients of the last quarter of the degrees of
      each axis, in absolute value; for a resolved table they are rounding
      noise, for an unresolved one they are not small;
    * rounding: (3s + 4) eps F_J, where F is the table of |values| mapped
      by |to_coeffs| along every axis, and s the most nodes on an axis.  F
      bounds each |c_J| and the rounding made in computing it, and weighed
      by |phi_J(x)| it grows far out in a normal coordinate, where the
      polynomials do.
    """

    def __init__(self, values, axes, weights):
        coeffs, size = values, np.abs(values)
        tail = np.zeros(values.shape, dtype=bool)
        for ax, a in enumerate(axes):
            coeffs = np.moveaxis(np.tensordot(a.to_coeffs, coeffs,
                                              axes=([1], [ax])), 0, ax)
            size = np.moveaxis(np.tensordot(np.abs(a.to_coeffs), size,
                                            axes=([1], [ax])), 0, ax)
            degree = np.arange(values.shape[ax])
            tail |= (degree >= _tail(degree.size)).reshape(
                [-1 if k == ax else 1 for k in range(values.ndim)])
        self.axes = axes
        self.coeffs = coeffs
        self.error = np.where(tail, np.abs(coeffs), 0.0) \
            + (3 * max(values.shape) + 4) * np.finfo(float).eps * size
        self.scale = float(np.sqrt(_contract(values ** 2, weights)))

    def __call__(self, x):
        """(accepted, values): a mask over the rows of ``x`` and the
        interpolated values at the accepted rows."""
        ok = np.all([(c >= a.lo) & (c <= a.hi) for a, c in zip(self.axes, x.T)],
                    axis=0)
        with np.errstate(all="ignore"):     # far-out rows overflow; the gate drops them
            polys = [a.poly(c) for a, c in zip(self.axes, x[ok].T)]
            values = _tensor_eval(self.coeffs, polys)
            good = _tensor_eval(self.error, [np.abs(p) for p in polys]) \
                <= INTERP_TOL * self.scale
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


@lru_cache(maxsize=None)
def _subsets_of(z):
    """All subsets of tuple z (including empty and z itself), canonical order:
    by size, then by the bitmask of their inputs.

    Computed once per tuple and shared, so the result is a tuple.
    """
    return tuple(sorted((tuple(z[k] for k in range(len(z)) if mask >> k & 1)
                         for mask in range(1 << len(z))),
                        key=lambda v: (len(v), sum(1 << i for i in v))))


def _mobius(subsets, w, lift=lambda u, v, gu: gu):
    """Moebius inversion over ``subsets``: g_v = w_v - sum_{u < v} g_u.

    ``subsets`` is a downward-closed family (every subset of a member is a
    member, the empty one included) in canonical order, and ``w`` maps each
    member v to its conditional mean w_v; returns every g_v.  Each g_v is
    built once, however many members hold v.  The lower terms are
    subtracted one at a time in canonical order, each through
    ``lift(u, v, g_u)``, which brings g_u to the layout of w_v (values at
    points need none).
    """
    g = {}
    for v in subsets:
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
