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
integral of any kind settles the grid it sweeps (``AnovaEngine._settle``)
in one loop over rungs, the same route for every engine: it opens on 8
nodes and then 16, each rung cut to the most common nodes at which its
grid fits (``AnovaEngine._fitted``); an engine whose rung of 16, so cut,
is the grid of ``order`` itself sweeps that grid alone.  Each rung caps
every axis it resolves at the fewest nodes that keep it resolved
(``AnovaEngine._caps``, by the one coefficient-tail rule of ``_resolve``,
judged against sqrt(V)), and the next rung sweeps each resolved axis at
its cap.  An unresolved axis takes 16 after the probe of 8, and after
that the nodes at which a fit of its log coefficients crosses the
tolerance: a line plus a log Gamma term (``_crossing``), since an entire
model's coefficients fall faster than geometrically.  A rung after the
first settles once its own caps are all finite, and the engine keeps its
nodes, with its caps.  With an axis unresolved at ``order``, or with no
next rung that is new and fits, it keeps the last rung it swept; an
engine whose grid does not fit at ``FEWEST_NODES`` per continuous
coordinate raises ``ConfigError`` when it is built.

``AnovaEngine._sweep`` evaluates the full grid once, in boxes of at most
``BLOCK_POINTS`` points, and keeps it whole with its mean, its coefficients
C_J centred on the mean in the polynomials orthonormal under each
coordinate's measure (its ``poly``; under the point weights on a discrete
one), taken by that measure's ``to_coeffs``, and their power P, so no
result depends on the size of the boxes.  Those polynomials are discretely
orthonormal on an s-node Gauss rule to degree s - 1, so V_z, an entry of
the (2,) * n tensor P, is the sum of C_J^2 over the J nonzero on exactly
the inputs of z, and V the sum of P (Parseval): no V_z is negative, and
they add up to V to rounding.  This is the polynomial-chaos reading of
Sobol indices (Sudret, Reliab. Eng. Syst. Saf. 93, 2008).  Each
decomposition (a new value on every call), each rms(w_v) and the caps of
a rung read P.  The centred grid is scaled by a power of two before
its transform, so every decision and every S_z is the same for g and 2^k g,
and V and each V_z are scaled back at the end.

Effects at arbitrary points need w_v there.  Since phi_0 = 1, the slice of C
that is zero off v holds the coefficients of w_v - mean on v's subgrid, so
E[w_v^2] is mean^2 plus V_u for every subset u of v (``_rms``).
``AnovaEngine._w_at`` reads w_v through that slice and each coordinate's
``poly`` as its interpolating polynomial (``_read``).  Rows of a single
input outside its support, more than 8 on a side, are read off a Legendre
table of w_v over their span (``_read_outside``): the direct integral at
the table's 8 Gauss nodes, and once more at its next count (``_resolve``)
where those do not resolve it.  Both gate each row (``_gate``) by one error
bound of their coefficients (``_bound``).  The direct integral over
the complement of v, ``conditional_mean``, serves the rows either gate
rejects and the other rows outside a coordinate's support, the empty and the
full subset, and subsets with a discrete coordinate.  Every complement
rule comes from ``_direct_rules``: on a settled engine the complement
takes half the nodes of the cap its rung gives each axis it resolves,
checked row by row against a second rule one node lower; a row on which
the two disagree takes the settled nodes.  Rows
times rule points, and the rows of the full subset, go to the model in the
boxes of ``_grid_boxes``, so no model call of an engine holds more than
``BLOCK_POINTS`` points.  Each subset keeps its last call to ``_w_at``: the
rows' shape and bytes and the w_v returned, at most N (|v| + 1) doubles, so
the same rows asked again (by the other mixture route, or by a subset that
holds v) cost no read and no model call.  ``_use_order`` empties it, but for
the full subset, whose w is g itself at every order and under every measure:
the engines that ``mixture.component_engines`` builds on one model share that
entry, so the model is evaluated once at rows that all of them are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import (DEFAULT_ORDER, ConfigError, DiscreteUniform,
                       ProductMeasure, Uniform)


class ZeroVarianceError(ArithmeticError):
    """Total variance is (numerically) zero, so indices are undefined."""


FULL_GRID_CAP = 2**22       # largest full tensor grid we will materialise
BLOCK_POINTS = 2**16        # most points an engine hands the model at once
FEWEST_NODES = 6            # the fewest continuous nodes an opening rung keeps
PLOT_ROWS = 129             # rows per axis of a default effect curve
INTERP_TOL = 1e-9           # error target of a conditional mean at points
# a model whose deviation sqrt(V) is within this many ulps of its RMS
# sqrt(V + mean^2) admits no indices (VarianceDecomposition.require_variance)
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


def _subset(z, n):
    """z as a tuple, once each of its inputs is an integer in 1..n and none
    repeats."""
    z = tuple(z)
    if len(set(z)) < len(z) or not all(
            isinstance(i, (int, np.integer)) and 1 <= i <= n for i in z):
        raise ValueError(f"subset {z} must hold distinct integers in 1..{n}")
    return z


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

    ``terms`` maps each subset (1-based tuple) to its variance share V_z, a
    sum of squares and so never negative.  ``residual`` holds whatever
    ``max_order`` truncated away (zero when every order was computed).
    ``indices`` holds each S_z as the engine took it off its scaled grid
    (``AnovaEngine._sweep``), the same for g and 2^k g even where a V_z
    underflows; without it, S_z is V_z / V.
    """

    measure: str
    total: float
    mean: float
    terms: dict
    residual: float
    n: int
    indices: dict = None
    mode = "quadrature"     # always; kept for callers that read it

    def require_variance(self):
        """Raise ZeroVarianceError unless V is finite and above rounding noise
        (``_no_variance``), or V lies below the float range."""
        if _no_variance(self.total, self.mean):
            raise ZeroVarianceError(f"measure {self.measure!r}: total variance "
                                    f"V = {self.total!r} is numerically zero "
                                    "or below the float range")

    def sobol_indices(self):
        """S_z = V_z / V."""
        self.require_variance()
        if self.indices is not None:
            return dict(self.indices)
        return {z: v / self.total for z, v in self.terms.items()}

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
        integral may settle on fewer nodes (``_settle``); ``order`` is then
        the most nodes on a continuous axis the engine kept, and ``nodes``
        and ``weights`` say what each axis used.
    seed : int
        Not used, since every integral is a tensor Gauss rule; kept for the
        callers that still pass it.

    An engine whose grid does not fit in ``FULL_GRID_CAP`` points with at
    most ``FEWEST_NODES`` nodes on each continuous coordinate raises
    ``ConfigError``.
    """

    def __init__(self, model, measure, order=DEFAULT_ORDER, seed=0):
        if not isinstance(measure, ProductMeasure):
            raise TypeError("AnovaEngine needs a ProductMeasure")
        self.model = model
        self.measure = measure
        self.n = measure.n
        self._continuous = [not isinstance(c, DiscreteUniform)  # has poly
                            for c in measure.components]
        self._w_full = {}     # _w_last of all inputs, kept and shared (_w_at)
        if not isinstance(order, (int, np.integer)) or order < 1:
            raise ValueError(f"order must be an integer >= 1, not {order!r}")
        self._most = int(order)     # as built: caps _read_outside too
        self._use_order(self._most)
        if not _fits(self._grid(min(self._most, FEWEST_NODES))):
            raise ConfigError(f"no tensor grid of the {self.n} inputs fits in "
                              f"{FULL_GRID_CAP} points, at order {order} or "
                              f"at any order from {FEWEST_NODES}")
        self._opening = (8, 16)     # the rungs _settle opens on

    def _use_order(self, order, caps=None):
        """Take the Gauss rule of ``order``, with no grid swept yet.

        ``caps`` (a rung's counts in ``_settle``) holds each coordinate's
        most nodes.
        """
        self.order = order
        nodes = [c.quad_nodes(k) for c, k in   # a discrete one: its points
                 zip(self.measure.components, caps or [order] * self.n)]
        self.nodes = [np.asarray(x) for x, _ in nodes]
        self.weights = [np.asarray(w) for _, w in nodes]
        self._sizes = [x.size for x in self.nodes]
        self._kept = None         # the grid, its mean, C, P and scale (_sweep)
        self._error = None        # C's error tensor E, built once (_read)
        self._w_last = {}         # subset -> (key, w_v) of its last _w_at call
        self._halves = None       # per axis, h nodes or None (_direct_rules)

    def _grid(self, k):
        """The axis sizes of the grid of k nodes, counted, not built: k on a
        continuous coordinate, its own points on a discrete one."""
        return [k if cont else len(c.points)
                for c, cont in zip(self.measure.components, self._continuous)]

    def _fitted(self, counts):
        """``counts`` with every continuous axis cut to m, the most common
        nodes, at most ``order``, at which the grid fits: no count rises,
        and a discrete axis keeps its points."""
        cuts = (list(map(min, counts, self._grid(m)))
                for m in range(self._most, 0, -1))
        return next(c for c in cuts if _fits(c))

    def _settle(self):
        """Settle the grid, once, before the engine's first integral.

        One loop over rungs: the opening rungs of 8 and then 16 nodes,
        each ``_fitted``, and after them the counts that ``_caps`` predicts.
        Each rung sweeps its full grid (``_sweep``) and reads its own
        ``_caps`` once, and the rung before frees its C.  On the next rung
        every continuous axis that this one resolves takes its cap, and
        every other one the next opening rung while there is one, and past
        them the next count of ``_caps`` (``_resolve``), which its fitted
        decay predicts; a predicted grid is swept only where it fits.  An
        engine whose rung of 16, cut to fit, is the grid of ``order`` (at
        most 16 nodes on a grid that fits) sweeps that grid alone.

        A rung after the first settles when its own caps are all finite.
        The engine keeps the settled rung's sweep, and its caps set the
        lower rules of the direct integrals (``_halves``, see
        ``_direct_rules``).  With an axis at ``order`` still unresolved,
        with counts already swept, or with a next grid that does not fit,
        the engine keeps the last rung it swept, with no lower rules.  When
        a rung raises, the engine goes back to ``order`` as built.

        A cap at or below the most nodes at which an earlier rung read that
        axis unresolved is no cap: those nodes may be blind to a term, as
        the opening's 8 are to a degree-8 Legendre term, which vanishes at
        all of them, and 16 to a degree-16 one, so the axis climbs.  That
        read is then spent, and the cap of the next rung stands: an axis
        read unresolved at c nodes only by the rounding of far normal nodes
        would otherwise climb one node a rung.
        """
        rungs, self._opening = self._opening, ()
        if not rungs or self._fitted(self._grid(rungs[-1])) == self._sizes:
            return      # settled, or the opening ends on the grid of order
        cont, seen, swept = self._continuous, [0] * self.n, []
        counts = self._fitted(self._grid(rungs[0]))
        try:
            while counts not in swept and _fits(counts):
                swept.append(counts)
                self._use_order(max(k for k, c in zip(counts, cont) if c),
                                counts)
                caps, nexts = self._caps()
                blind = [c <= u for c, u in zip(caps, seen)]
                seen = [0 if b else s if c == math.inf else u
                        for c, u, s, b in zip(caps, seen, self._sizes, blind)]
                caps = [math.inf if b else c for c, b in zip(caps, blind)]
                open_ = [i for i, c in enumerate(caps)
                         if cont[i] and c == math.inf]
                if len(swept) > 1 and not open_:
                    self._halves = [
                        math.ceil(c / 2) if c < math.inf and s > 1 else None
                        for c, s in zip(caps, self._sizes)]
                    return
                if any(self._sizes[i] >= self._most for i in open_):
                    return
                counts = list(map(min, caps, nexts))    # a cap < its next
                if len(swept) < len(rungs):     # the next opening rung
                    counts = self._fitted(list(map(
                        min, caps, self._grid(rungs[len(swept)]))))
        except BaseException:       # a failed rung leaves the engine as built
            self._opening = rungs
            self._use_order(self._most)
            raise

    def _caps(self):
        """(caps, nexts): per coordinate, the most nodes this rung's full
        grid says it needs and the count it takes next unresolved, by
        ``_resolve`` (inf and its own points on a discrete axis).

        Along a continuous axis, ``_resolve`` reads g's orthonormal-polynomial
        coefficients on the grid (its component's ``to_coeffs`` along that
        axis alone), each the largest over the other axes, against
        ``INTERP_TOL`` times sqrt(V), V the sum of P: the same for g and
        a g + b.  Each axis's transform is dropped before the next is taken.
        A grid whose V is numerically zero (``_no_variance``) has nothing to
        resolve: every axis takes its fewest nodes.
        """
        grid, mean, _, power, e = self._sweep()
        v = float(power.sum())
        with np.errstate(over="ignore"):    # a mean far above V is no V
            flat = _no_variance(v, float(np.ldexp(mean, -e)))
        tol = math.inf if flat else INTERP_TOL * math.sqrt(v)
        caps, nexts = [math.inf] * self.n, list(self._sizes)
        for i, (comp, s) in enumerate(zip(self.measure.components, self._sizes)):
            if self._continuous[i]:
                c = _along([comp.to_coeffs(s) if k == i else None
                            for k in range(self.n)], grid)
                c = np.ldexp(np.abs(c, out=c).max(
                    axis=tuple(k for k in range(self.n) if k != i)), -e)
                caps[i], nexts[i] = _resolve(c, tol, self._most)
        return caps, nexts

    # -- conditional means and effects at arbitrary points -------------------

    def conditional_mean(self, z, x):
        """w_z at points ``x`` of shape (N, |z|): E[g(X) | X_z = x_row].

        The empty subset gives the mean, all inputs the model at the rows
        (columns in input order), and any other z the integral over its
        complement by the rules of ``_direct_rules`` in turn: a row keeps
        the first value it accepts.  Each model call takes one box of rows
        times rule points from ``_grid_boxes``, at most ``BLOCK_POINTS``.
        """
        z = _subset(z, self.n)
        self._settle()
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
        ``INTERP_TOL`` times rms(w_z) (``_rms``), the row gate's standard,
        and goes on to the settled rule otherwise.
        """
        comp = [i for i in range(1, self.n + 1) if i not in z]
        halves = [self._halves[i - 1] if self._halves else None for i in comp]

        def rule(counts):       # k nodes on a halved axis, settled elsewhere
            return _tensor_rule([self.measure.components[i - 1].quad_nodes(
                k or self._sizes[i - 1]) for i, k in zip(comp, counts)])

        if any(halves):
            (hi, whi), (lo, wlo) = rule(halves), rule(
                [h and max(h - 1, 1) for h in halves])
            weights = np.zeros((whi.size + wlo.size, 2))
            weights[:whi.size, 0], weights[whi.size:, 1] = whi, wlo
            yield np.vstack([hi, lo]), weights, INTERP_TOL * self._rms(z)
        yield *rule([None] * len(comp)), None

    def conditional_means(self, z, x):
        """{v: w_v at the rows of ``x``} for every subset v of z, the empty
        one included, each v sorted; the columns of ``x`` follow the order
        of z, which need not be sorted."""
        z = _subset(z, self.n)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(z):
            raise ValueError(f"points have {x.shape[1]} columns for subset {z}")
        return {v: self._w_at(v, x[:, [z.index(i) for i in v]])
                for v in _subsets_of(tuple(sorted(z)))}

    def _w_at(self, v, x):
        """w_v at the rows of ``x`` (N, |v|), read off the kept grid's
        coefficients by ``_read``.  For a single input, its rows outside
        its support, when more than the probe's 8 lie on one side, are read
        off a Legendre table over that side's span (``_read_outside``).
        Rows neither accepts, and every row when v is empty or all inputs
        or when a coordinate of v is discrete, come from
        ``conditional_mean``.

        Each subset keeps its last call: the key ``(x.shape, x.tobytes())``
        (the shape, since an (N, 0) array has no bytes for any N) and the
        w_v it returned.  A call with the same key returns a copy of those
        values, with no read and no model call.  The memo holds at most
        N (|v| + 1) doubles per subset and is emptied by ``_use_order``,
        but for the full subset's, the model at the rows whatever the order
        or measure: it sits in ``_w_full``, which ``_use_order`` keeps and
        ``mixture.component_engines`` shares.
        """
        self._settle()
        v = tuple(v)
        key = x.shape, x.tobytes()
        memo = self._w_full if len(v) == self.n else self._w_last
        last = memo.get(v)
        if last is not None and last[0] == key:
            return last[1].copy()
        if not self._reads_grid(v):
            out = self.conditional_mean(v, x)
        else:
            ok, out = self._read(v, x)
            if len(v) == 1:
                lo, hi = self.measure.components[v[0] - 1].support()
                sides = [side for side in (x[:, 0] < lo, x[:, 0] > hi)
                         if np.count_nonzero(side) > 8]     # the probe's
                read = self._read_outside(v, [x[side, 0] for side in sides])
                for side, (accepted, values) in zip(sides, read):
                    ok[side], out[side] = accepted, values
            if not ok.all():
                out[~ok] = self.conditional_mean(v, x[~ok])
        memo[v] = key, out
        return out.copy()

    def _read_outside(self, v, sides):
        """[(accepted, values)]: w_v, v one continuous input, at each array
        of rows in ``sides`` (N,), all on one side outside its support,
        read off a Legendre table over the span [a, b] of those rows.

        w_v there is an integral over the complement of an analytic model,
        so its Legendre coefficients on [a, b] decay at least geometrically.
        A table takes ``conditional_mean`` at the 8 Gauss nodes of
        ``Uniform(a, b)``, the probe, and their coefficients by the family's
        ``to_coeffs``, one matrix per node count on every interval.  Where
        ``_resolve`` reads them unresolved against ``INTERP_TOL`` times
        rms(w_v) (``_rms``), the table is taken once more at its next count,
        at most the order the engine was built with, if fewer than its rows.
        Each round asks ``conditional_mean`` once, for the nodes of every
        table in it; rows of no span (one value, or a width beyond the float
        range) make no table and accept no row.  A row is accepted by
        ``_gate`` on the table's ``_bound``, and only off a table that has
        decayed: one whose largest tail coefficient exceeds 1e-3 of its
        largest coefficient accepts no row, since its tail then bounds
        nothing (on rows across the root of x1^19 every coefficient lies
        below the target, and a row read 1.46 targets off).
        """
        if not sides:
            return []
        tol = INTERP_TOL * self._rms(v)
        spans = [Uniform(x.min(), x.max()) if x.min() < x.max() and
                 math.isfinite(x.max() - x.min()) else None for x in sides]
        to_coeffs = Uniform(-1.0, 1.0).to_coeffs    # shared by every span
        tables = [None] * len(sides)    # each side's (nodes, w, coeffs)
        counts = {k: 8 for k, span in enumerate(spans) if span}
        for probe in (True, False):
            if not counts:
                break
            nodes = [spans[k].quad_nodes(c)[0] for k, c in counts.items()]
            w = self.conditional_mean(v, np.concatenate(nodes)[:, None])
            swept, counts = counts, {}
            for (k, c), wk in zip(swept.items(), np.split(w, np.cumsum(
                    list(swept.values()))[:-1])):
                coeffs = to_coeffs(c) @ wk
                tables[k] = c, wk, coeffs
                if probe:
                    cap, more = _resolve(np.abs(coeffs), tol, self._most)
                    if cap == math.inf and c < more < sides[k].size:
                        counts[k] = more
        out = [(np.zeros(x.size, dtype=bool), np.empty(x.size)) for x in sides]
        for k, (c, w, coeffs) in ((k, t) for k, t in enumerate(tables) if t):
            ok, values = _gate(coeffs, _bound(coeffs, w, [to_coeffs(c)], [True]),
                               [spans[k]], sides[k][:, None], tol)
            out[k] = ok & (np.abs(coeffs[_tail(c):]).max()
                           <= 1e-3 * np.abs(coeffs).max()), values
        return out

    def _reads_grid(self, v):
        """Whether w_v can be read off the kept grid: v is neither empty nor
        all inputs, and no coordinate of it is discrete."""
        return 0 < len(v) < self.n and all(self._continuous[i - 1] for i in v)

    def _read(self, v, x):
        """(accepted, values): w_v at every row of ``x`` (N, |v|, v sorted
        as C's axes are) as its interpolating polynomial on the grid, and a
        mask of the rows whose value passes ``_gate``.

        phi_0 = 1, so row 0 of every component's ``to_coeffs`` is its
        weights, and the slice C[at] of the kept coefficients that is zero
        off v (``at`` picks degree 0 on every other axis) is exactly the
        coefficients of w_v - mean on v's subgrid:
        w_v(x) = mean + sum_J C[at]_J phi_J(x).  Its error is E[at], of the
        ``_bound`` of C on the grid scaled as C is, by 2^-e, built on the
        first read and kept until ``_use_order``; the gate's tolerance,
        ``INTERP_TOL`` times rms(w_v) (``_rms``), is scaled alike.
        """
        grid, mean, coeffs, _, e = self._sweep()
        if self._error is None:
            self._error = _bound(coeffs, np.ldexp(grid, -e), [
                c.to_coeffs(s) for c, s in zip(self.measure.components,
                                               self._sizes)], self._continuous)
        at = tuple(slice(None) if i in v else 0 for i in range(1, self.n + 1))
        ok, values = _gate(coeffs[at], self._error[at],
                           [self.measure.components[i - 1] for i in v], x,
                           math.ldexp(INTERP_TOL * self._rms(v), -e))
        with np.errstate(all="ignore"):     # far-out rows; the gate drops them
            return ok, mean + np.ldexp(values, e)

    def _rms(self, v):
        """rms(w_v), the square root of E[w_v^2]: by Parseval, of mean^2
        plus V_u for every subset u of v, the entries of P zero off v,
        taken without squaring the mean.  Where it underflows it is 0, and
        ``_read`` accepts no row."""
        _, mean, _, power, e = self._sweep()
        at = tuple(slice(None) if i in v else 0 for i in range(1, self.n + 1))
        return math.hypot(mean, math.ldexp(math.sqrt(np.sum(power[at])), e))

    def mean(self):
        return self._sweep()[1]

    def effect(self, z, x):
        """The ANOVA term g_z at arbitrary points ``x`` of shape (N, |z|).

        Built by the defining recursion from the conditional means of all
        subsets of z, each evaluated once at the projected points.  The
        columns of ``x`` follow the order of z, as in ``conditional_means``.
        """
        z = _subset(z, self.n)
        key = tuple(sorted(z))
        return _mobius(_subsets_of(key), self.conditional_means(z, x))[key]

    # -- grid-based decomposition -------------------------------------------

    def _sweep(self):
        """(grid, mean, C, P, e): the model on the full grid, its mean, C,
        the orthonormal coefficients of (grid - mean) 2^-e (each component's
        ``to_coeffs`` along its axis), and P, its power, computed once and
        kept until ``_use_order``.

        The grid is evaluated box by box (``_grid_boxes``, each box's rows
        from ``_tensor_points``) and kept whole; the mean is its
        contraction with the weights, the last axis first, and C its one
        transform (``_along``), centred so that a large mean costs no
        coefficient any digits.  e is the exponent of the centred grid's
        largest entry, so C is the same for g and 2^k g, and no square in P
        overflows or underflows however large or small g is; each V_z is
        its entry of P times 4^e.  P is C^2 with each axis summed into its
        degree 0 and the rest: entry J of the (2,) * n result, J_k = 1 on
        exactly the inputs of z, stands for V_z.  Its first entry, the
        mean's, is zeroed, not subtracted, so that it rounds away no term.
        Every later integral reads them with no further model call, so no
        result depends on the size of the boxes.
        """
        self._settle()
        if self._kept is None:
            grid = np.empty(self._sizes)
            for box in _grid_boxes(self._sizes):
                nodes = [x[s] for x, s in zip(self.nodes, box)]
                grid[box] = _evaluate(self.model, _tensor_points(nodes)).reshape(
                    [x.size for x in nodes])
            mean = grid.ravel()
            for w in reversed(self.weights):    # last axis first, by rows
                mean = mean.reshape(-1, w.size) @ w
            mean = mean.item()
            # the largest |grid - mean|, as subtraction rounds monotonically
            e = math.frexp(max(grid.max() - mean, mean - grid.min()))[1]
            coeffs = _along([c.to_coeffs(s) for c, s in zip(
                self.measure.components, self._sizes)],
                np.ldexp(grid - mean, -e))
            power = _along([np.stack([d == 0, d > 0]) * 1.0
                            for d in map(np.arange, self._sizes)],
                           np.square(coeffs))
            power.flat[0] = 0.0     # the mean's, about zero once centred
            self._kept = grid, mean, coeffs, power, e
        return self._kept

    def variance_decomposition(self, max_order=None):
        """The mean, the total and every V_z of at most ``max_order`` inputs
        (default: all of them up to four inputs, and at most two beyond).

        Each V_z is an entry of the kept power P (``_sweep``) and V the sum
        of them all (Parseval), each scaled back by 4^e; every S_z is read
        off P itself, so it is the same for g and 2^k g.  A V that overflows
        raises OverflowError; one that underflows fails
        ``require_variance``.  Every call returns a new value, which the
        caller may change.
        """
        if max_order is None:
            max_order = self.n if self.n <= 4 else 2
        _, mean, _, power, e = self._sweep()
        name = self.measure.name or "measure"
        shares = {z: float(power[tuple(int(i in z)
                                       for i in range(1, self.n + 1))])
                  for z in all_subsets(self.n, max_order)}
        v = float(power.sum())
        try:
            total = math.ldexp(v, 2 * e)
        except OverflowError:
            raise OverflowError(f"measure {name!r}: total variance V = "
                                f"{v!r} * 2**{2 * e} overflows a float") \
                from None
        terms = {z: math.ldexp(p, 2 * e) for z, p in shares.items()}
        residual = total - sum(terms.values()) if max_order < self.n else 0.0
        return VarianceDecomposition(
            measure=name, total=total, mean=mean, terms=terms,
            residual=residual, n=self.n,
            indices={z: p / v for z, p in shares.items()} if v else None)

    # -- plotting-oriented output -------------------------------------------

    def effect_curve(self, z, npts=PLOT_ROWS):
        """g_z tabulated on an even grid over the measure's plotting range."""
        z = tuple(sorted(_subset(z, self.n)))
        if not 1 <= len(z) <= 2:
            raise ValueError("effect curves are for singletons and pairs")
        grids = [np.linspace(*self.measure.components[i - 1].plot_range(), npts)
                 for i in z]
        vals = self.effect(z, _tensor_points(grids)).reshape([npts] * len(z))
        return EffectCurve(measure=self.measure.name or "measure",
                           subset=z, grids=grids, values=vals)


def _no_variance(v, mean):
    """Whether V is not finite or at the level of rounding: the test is
    scale-invariant, sqrt(V) <= c * eps * rms with c = ZERO_VARIANCE_ULPS and
    rms = sqrt(V + mean^2) taken without squaring the mean.  V comes from
    the grid centred on its mean, where a model constant to rounding
    deviates by a few ulps of its rms.  An rms whose square is subnormal
    has lost its digits, so it counts as zero itself."""
    if not math.isfinite(v):
        return True
    rms = math.hypot(mean, math.sqrt(v))
    return rms < math.sqrt(np.finfo(float).tiny) or \
        math.sqrt(v) <= ZERO_VARIANCE_ULPS * np.finfo(float).eps * rms


def _tail(s):
    """First degree of the coefficient tail of s nodes (last quarter, >= 2)."""
    return s - max(2, s // 4)


def _nodes_past(d, most):
    """The fewest nodes, at most ``most``, whose tail starts past degree d."""
    return next((k for k in range(1, most) if _tail(k) > d), most)


def _resolve(c, tol, most):
    """(cap, next): the fewest nodes that resolve coefficients ``c`` (s of
    them, absolute) against ``tol``, and the count to take them at next.

    The series is resolved when those from the ``_tail`` on sum to at most
    ``tol``, and then capped at the fewest nodes whose tail starts past the
    last degree from which they sum to more; cap is inf otherwise.  The
    coefficients are summed as they stand, on every family: a series judged
    resolved by its tail against its own scale, as in Aurentz & Trefethen,
    "Chopping a Chebyshev series", ACM TOMS 43, 2017.  next is the fewest
    nodes whose tail starts past the degree at which ``c`` falls to ``tol``
    by its decay (``_crossing``): at least s + 1 and at most ``most``.
    """
    d = max(np.flatnonzero(np.cumsum(c[::-1])[::-1] > tol), default=-1)
    cap = _nodes_past(d, c.size) if d < _tail(c.size) else math.inf
    return cap, min(most, max(_nodes_past(_crossing(c, tol, most), most),
                              c.size + 1))


def _crossing(c, tol, most):
    """The degree at which coefficients ``c`` fall to ``tol`` by their
    decay, fitted by least squares to log e_k, with e_k = max(c_{k-1},
    c_k), over the upper half of the degrees: a + b k - gamma log Gamma(k+1).

    An entire function's coefficients decay like tau^k / Gamma(k+1)^gamma,
    gamma about 1 on a Legendre axis and 1/2 on a Hermite one (Boyd,
    Chebyshev and Fourier Spectral Methods, 2nd ed., 2001, ch. 2), and
    an analytic one's geometrically, like rho^-k (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013, ch. 8).  With gamma > 0
    the fit is concave in k, so it crosses ``tol`` once past the last
    degree, and a scan of the degrees from there finds the last one above
    ``tol``, which has the crossing's ``_nodes_past``: inf when the fit is
    still above ``tol`` at ``most``, the last degree when it is already
    below there.  With gamma <= 0, or only two degrees to fit, it is the
    least-squares line's crossing, gamma = 0: inf when the line does not
    fall.  The pair envelope bridges a coefficient that parity zeroes; a
    running maximum from the top would let a last zero (as of 7 sin^2 x2)
    anchor the fit and predict too few nodes."""
    k = np.arange(max(c.size // 2, 1), c.size)
    if k.size < 2:
        return math.inf
    y = np.log(np.maximum(np.maximum(c[k - 1], c[k]), np.finfo(float).tiny))
    target = math.log(tol) if tol > 0 else -math.inf    # no fit falls to 0
    if k.size > 2:
        (a, b, gamma), *_ = np.linalg.lstsq(np.stack(
            [np.ones(k.size), k, [-math.lgamma(j + 1.0) for j in k]], axis=1),
            y, rcond=None)
        if gamma > 0:
            def above(t):
                return a + b * t - gamma * math.lgamma(t + 1.0) > target

            last = int(k[-1])
            if not above(last):
                return last
            return next((t - 1 for t in range(last + 1, max(most, last) + 1)
                         if not above(t)), math.inf)
    at, level = k.mean(), y.mean()
    slope = float((k - at) @ (y - level)) / float((k - at) @ (k - at))
    if not slope < 0:
        return math.inf
    return at + (target - level) / slope


def _bound(coeffs, values, mats, tails):
    """The error tensor E of ``coeffs``, the series of ``values`` by the
    matrix mats[k] along each axis k, in two parts:

    * truncation: |C_J| on the last quarter of the degrees (``_tail``) of
      any axis k with tails[k] true; for a resolved axis they are rounding
      noise, for an unresolved one they are not small;
    * rounding: (3s + 4) eps F_J, where F is |values| mapped by the
      absolute matrices along every axis, and s the most nodes on an axis.
      F bounds each |C_J| and the rounding made in computing it, and
      weighed by |phi_J(x)| it grows far out in a normal coordinate, where
      the polynomials do.
    """
    error = (3 * max(coeffs.shape) + 4) * np.finfo(float).eps * _along(
        [np.abs(m) for m in mats], np.abs(values))
    tail = np.abs(coeffs)
    tail[tuple(slice(_tail(s) if cut else s)        # all but the tail
               for cut, s in zip(tails, coeffs.shape))] = 0.0
    return np.add(error, tail, out=error)


def _gate(coeffs, error, comps, x, tol):
    """(accepted, values): the series ``coeffs`` in the ``poly`` of each
    of ``comps`` at every row of ``x`` (N, len(comps)), and a mask of the
    rows that lie in every component's ``support()`` and whose ``error``,
    read through the absolute polynomial values, |phi_J(x)| =
    prod_a |phi_{J_a}(x_a)|, is at most ``tol``."""
    ok = np.all([(c >= lo) & (c <= hi) for (lo, hi), c in
                 zip((a.support() for a in comps), x.T)], axis=0)
    with np.errstate(all="ignore"):     # far-out rows overflow; the gate drops them
        polys = [a.poly(c, s) for a, c, s in zip(comps, x.T, coeffs.shape)]
        return ok & (_tensor_eval(error, [np.abs(p) for p in polys]) <= tol), \
            _tensor_eval(coeffs, polys)


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


def _mobius(subsets, w):
    """Moebius inversion over ``subsets``: g_v = w_v - sum_{u < v} g_u.

    ``subsets`` is a downward-closed family (every subset of a member is a
    member, the empty one included) in canonical order, and ``w`` maps each
    member v to its conditional mean w_v at the same points; returns every
    g_v.  Each g_v is built once, however many members hold v.  The lower
    terms are subtracted one at a time in canonical order.
    """
    g = {}
    for v in subsets:
        g[v] = np.array(w[v], dtype=float)
        for u in _subsets_of(v)[:-1]:
            g[v] -= g[u]
    return g


def _fits(sizes):
    """Whether the full tensor grid of axes of these sizes fits."""
    return math.prod(sizes) <= FULL_GRID_CAP and len(sizes) <= 16


def _along(mats, values):
    """``values`` with the matrix mats[k] applied along each axis k (an
    axis whose entry is None is kept): one batched matmul on a
    (pre, s, post) view per axis, the last axis one matmul on rows of s."""
    for k, m in enumerate(mats):
        if m is None:
            continue
        shape = values.shape
        if k == values.ndim - 1:
            values = values.reshape(-1, shape[k]) @ m.T
        else:
            values = m @ values.reshape(math.prod(shape[:k]), shape[k], -1)
        values = values.reshape(*shape[:k], m.shape[0], *shape[k + 1:])
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
    value the report cannot hold, with no numpy warning before it.
    """
    with np.errstate(all="ignore"):
        y = np.asarray(model(x), dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        first = np.reshape(x, (y.size, -1))[bad[0]]
        raise FloatingPointError(f"model output is non-finite at {bad.size} "
                                 f"of {y.size} points, first at x = "
                                 f"{[float(v) for v in first]}")
    return y
