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
``AnovaEngine._settle``): from a probe rung of 8 nodes and then 16, or from
the largest lower rung whose grid fits when 16 does not, up to the last rung
below ``order``.  The order settles at the first rung whose mean, V and
every V_z moved by at most ``INTERP_TOL`` (relative to sqrt(V) and V) from
the rung below.  Gauss rules converge geometrically on smooth models, so
that change bounds the error of the rung below.  Each rung also caps every
axis it resolves at the fewest nodes that keep it resolved
(``AnovaEngine._caps``, one coefficient-tail rule on every family).
The first rung's caps only size the second, whose own caps replace them;
from there on each axis keeps the smallest cap it was given: an axis stops
climbing once it no longer changes the result, the dimension-adaptive rule
of Gerstner & Griebel (Computing 71, 2003).  When the grid at ``order``
fits, a rung settles only once every continuous axis has a cap.  A rung
whose grid does not fit under the caps so far ends the climb.  A settled
engine is an engine at that order, with its rung's caps.  With no such rung
it keeps ``order`` on every axis when that grid fits, ``order`` under the
caps when that fits, and the last rung it climbed otherwise; an engine for
which neither ``order`` nor any rung fits raises ``ConfigError`` when it is
built.  A smooth 4-input model quartic in x3 costs
8^4 + (16^3 + 24^3 + 32^3) * 7 evaluations, not 64^4; the Ishigami model
settles at 24, 32 or 48 nodes, with 7 on x3 and 14, 21 or 26 on x1.

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
decomposition (a new value on every call), each rms(w_v) and the ladder's
test of a rung read P.

Effects at arbitrary points need w_v there.  Since phi_0 = 1, the slice of C
that is zero off v holds the coefficients of w_v - mean on v's subgrid, so
E[w_v^2] is mean^2 plus V_u for every subset u of v (``_rms``).
``AnovaEngine._w_at`` reads w_v through that slice and each coordinate's
``poly`` as its interpolating polynomial, gated row by row by an error
estimate (``_read``).  The direct integral over the complement of v,
``conditional_mean``, serves the rows the gate rejects or that lie outside a
coordinate's support, the empty and the full subset, and subsets with a
discrete coordinate.  Every complement rule comes from ``_direct_rules``: on
a settled engine the complement takes half the nodes of the cap its rung
gives each axis it resolves, checked row by row against a second rule one
node lower; a row on which the two disagree takes the settled nodes.  Rows
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
                       ProductMeasure)


class ZeroVarianceError(ArithmeticError):
    """Total variance is (numerically) zero, so indices are undefined."""


# orders an engine tries below ``order`` (_settle); those below 16 only when
# the grid of 16 does not fit, but for the probe rung of 8 before 16
LADDER = (6, 8, 12, 16, 24, 32, 48)
FULL_GRID_CAP = 2**22       # largest full tensor grid we will materialise
BLOCK_POINTS = 2**16        # most points an engine hands the model at once
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
    """

    measure: str
    total: float
    mean: float
    terms: dict
    residual: float
    n: int
    mode = "quadrature"     # always; kept for callers that read it

    def require_variance(self):
        """Raise ZeroVarianceError unless V is finite and above rounding noise.

        The test is scale-invariant: sqrt(V) <= c * eps * sqrt(V + mean^2),
        with c = ZERO_VARIANCE_ULPS.  V is taken from the grid centred on its
        mean, where a model constant to rounding deviates by a few ulps of
        its RMS sqrt(V + mean^2).  A subnormal E[g^2] = V + mean^2 has lost
        its digits, so it counts as zero itself.
        """
        v = self.total
        second = v + self.mean ** 2
        if not np.isfinite(v) or second < np.finfo(float).tiny or \
                math.sqrt(v) <= ZERO_VARIANCE_ULPS * np.finfo(float).eps \
                * math.sqrt(second):
            raise ZeroVarianceError(f"measure {self.measure!r}: total variance "
                                    f"{v!r} is numerically zero")

    def sobol_indices(self):
        """S_z = V_z / V."""
        self.require_variance()
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
        integral may settle on a lower order (``_settle``), some axes on
        fewer nodes still; ``order`` is then the order the engine kept, and
        ``nodes`` and ``weights`` say what each axis used.
    seed : int
        Not used, since every integral is a tensor Gauss rule; kept for the
        callers that still pass it.

    The ladder of orders is fixed here, with a probe rung of 8 nodes in
    front of a climb from 16, and climbed on the first integral.
    An engine for which neither the grid of ``order`` nor that of any rung
    fits in ``FULL_GRID_CAP`` points raises ``ConfigError`` here.
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
        self._use_order(int(order))
        self._fits_order = _fits(self._sizes)
        # the ladder, climbed by _settle: the rungs below ``order`` from 16
        # on, or from the largest rung that fits when 16 does not; kept when
        # at least two are left or the grid of ``order`` does not fit, and
        # some coordinate is continuous.  A climb from 16 opens with a probe
        # rung of 8 nodes, whose caps size the sweep of 16
        first = max([r for r in LADDER if r <= 16 and _fits(self._grid(r))],
                    default=math.inf)
        rungs = [r for r in LADDER if first <= r < self.order]
        probe = [8] if first == 16 else []
        self._ladder = probe + rungs if any(self._continuous) and (
            len(rungs) > 1 or not self._fits_order) else []
        if not (self._fits_order or self._ladder):
            raise ConfigError(
                f"no tensor grid of the {self.n} inputs fits in "
                f"{FULL_GRID_CAP} points, at order {self.order} or at any "
                f"order from {LADDER[0]}")

    def _use_order(self, order, caps=None):
        """Take the Gauss rule of ``order``, with no grid swept yet.

        ``caps`` (from ``_caps``) holds each coordinate's most nodes.
        """
        self.order = order
        nodes = [c.quad_nodes(k) for c, k in
                 zip(self.measure.components, self._grid(order, caps))]
        self.nodes = [np.asarray(x) for x, _ in nodes]
        self.weights = [np.asarray(w) for _, w in nodes]
        self._sizes = [x.size for x in self.nodes]
        self._kept = None         # the full grid, its mean, C and P (_sweep)
        self._error = None        # C's error tensor E, built once (_read)
        self._w_last = {}         # subset -> (key, w_v) of its last _w_at call
        self._halves = None       # per axis, h nodes or None (_direct_rules)

    def _grid(self, order, caps=None):
        """The axis sizes of the grid of ``order`` under ``caps``, counted,
        not built: min(order, cap) nodes on a continuous coordinate, its own
        points on a discrete one."""
        return [min(order, k) if cont else len(c.points) for c, cont, k in zip(
            self.measure.components, self._continuous, caps or [order] * self.n)]

    def _settle(self):
        """Climb the ladder, once, before the engine's first integral.

        Each rung sweeps its full grid (``_sweep``) and holds on only to
        its mean and power P, so its C is freed before the next sweep.  The
        engine keeps the first rung where, against the rung below, the mean
        moved by at most ``INTERP_TOL`` times sqrt(V), and V and every
        entry V_z of P by at most ``INTERP_TOL`` times V; Gauss rules
        converge geometrically on smooth models, so that change bounds the
        error of the rung below.  Each rung computes its ``_caps`` once.
        The first rung's caps only size the second: there the rung's own
        caps replace them, so every axis the first rung capped is read
        again by the same tail test at the nodes it was given, and an axis
        read unresolved there climbs uncapped.  (Eight nodes see nothing of
        a degree-8 Legendre term, which vanishes at all of them; at its cap
        of 4 the second rung sees it.)  From the second rung on, every axis
        takes the smaller of its cap so far and the rung's, so a cap never
        grows; the next rung, the settled engine and its direct complement
        rules use those caps, and the climb stops at a rung whose grid does
        not fit under them.  On an engine whose grid fits at ``order``, a
        rung settles only when every continuous axis has a finite cap so
        far, so that a lower order does not send the rows of an unresolved
        axis to the direct integral.  The caps so far, not the rung's own:
        an axis capped at c nodes sits at the edge of its own tail test
        there, and a smooth 3-input model read unresolved at its cap would
        climb to ``order``.  Only there: on an engine whose grid at
        ``order`` does not fit, the test would take a smooth 4-input model
        from 32 nodes to 48, and the row gate already sends the rows of an
        unresolved axis to the direct integral.  The settled rung's own
        caps set the lower rules of the direct integrals (``_halves``, see
        ``_direct_rules``), and its sweep is the one the engine keeps.
        With no such rung the engine keeps, with no lower rules, ``order``
        uncapped when that grid fits, ``order`` under the caps when that
        fits, and otherwise the last rung it climbed.  When a rung raises,
        the engine goes back to ``order`` as built.

        A climb from 16 opens with the probe rung of 8 nodes, which sizes
        the sweep of 16: each Ishigami engine's first sweep costs
        8^3 + 16^2 * 7 = 2,304 points, not 16^3 = 4,096.  Where the probe
        caps nothing it costs 8^n more points and changes no result.  On
        g = sum cos 2x_k + 0.5 x1 x2 + 0.3 sin x3 x4 under N(0, 1)^n it
        goes 1,445,888 -> 1,449,984 evaluations at n = 4, on the same
        32^4 grid, and 1,048,576 -> 1,081,344 (+3.1%) at n = 5; at n = 6,
        7 and 8 the grid of 16 does not fit, the climb has no probe, and
        nothing changes.
        """
        ladder, self._ladder = self._ladder, []
        if not ladder:
            return
        order, last = self.order, None
        caps = [math.inf] * self.n
        try:
            for k, rung in enumerate(ladder):
                if not _fits(self._grid(rung, caps)):
                    break
                self._use_order(rung, caps)
                # the mean and P, not C, which the next rung's sweep frees
                mean, power = self._sweep()[1::2]
                terms = np.append(power, power.sum())   # every V_z, then V
                still = last is not None and abs(mean - last[0]) \
                    <= INTERP_TOL * math.sqrt(terms[-1]) and np.all(
                        np.abs(terms - last[1]) <= INTERP_TOL * terms[-1])
                rung_caps = self._caps()
                caps = rung_caps if k == 1 else [
                    min(a, b) for a, b in zip(caps, rung_caps)]
                if still and (not self._fits_order or all(
                        c < math.inf for c, cont in zip(caps, self._continuous)
                        if cont)):
                    self._halves = [math.ceil(c / 2) if c < math.inf and s > 1
                                    else None
                                    for c, s in zip(rung_caps, self._sizes)]
                    return
                last = mean, terms
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
        the grid (its component's ``to_coeffs`` along that axis alone), each
        the largest over the other axes, are resolved when those from the
        ``_tail`` on sum to at most ``INTERP_TOL`` times rms(w_i) (``_rms``,
        the least RMS of a conditional mean that holds the axis).  The axis
        is then capped at the fewest nodes whose tail starts above the last
        degree from which they sum to more.  The coefficients are summed as
        they stand, on every family: a series judged resolved by its tail,
        as in Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS
        43, 2017.  The row gate of ``_read`` weighs each tail coefficient
        by |phi_k(x)| and sends the rows it rejects to the direct integral.
        """
        grid = self._sweep()[0]
        caps = [math.inf] * self.n
        for i, (comp, s) in enumerate(zip(self.measure.components, self._sizes)):
            if self._continuous[i]:
                tol = INTERP_TOL * self._rms((i + 1,))
                c = _along([comp.to_coeffs(s) if k == i else None
                            for k in range(self.n)], grid)
                c = np.abs(c, out=c).max(
                    axis=tuple(k for k in range(self.n) if k != i))
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
        coefficients by ``_read``; rows it does not accept, and every row
        when v is empty or all inputs or when a coordinate of v is
        discrete, come from ``conditional_mean``.

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
            if not ok.all():
                out[~ok] = self.conditional_mean(v, x[~ok])
        memo[v] = key, out
        return out.copy()

    def _reads_grid(self, v):
        """Whether w_v can be read off the kept grid: v is neither empty nor
        all inputs, and no coordinate of it is discrete."""
        return 0 < len(v) < self.n and all(self._continuous[i - 1] for i in v)

    def _read(self, v, x):
        """(accepted, values): w_v at every row of ``x`` (N, |v|, v sorted
        as C's axes are) as its interpolating polynomial on the grid, and a
        mask of the rows whose value passes the gate.

        phi_0 = 1, so row 0 of every component's ``to_coeffs`` is its
        weights, and the slice C[at] of the kept coefficients that is zero
        off v (``at`` picks degree 0 on every other axis) is exactly the
        coefficients of w_v - mean on v's subgrid:
        w_v(x) = mean + sum_J C[at]_J phi_J(x).  A row is accepted when it
        lies in every coordinate's ``support()`` and E[at] read through the
        absolute ``poly`` values, |phi_J(x)| = prod_a |phi_{J_a}(x_a)|, is at
        most ``INTERP_TOL`` times rms(w_v) (``_rms``).  The error tensor E,
        built on the first read and kept until ``_use_order``, adds two
        parts:

        * truncation: |C_J| on the last quarter of the degrees (``_tail``)
          of any continuous axis; for a resolved axis they are rounding
          noise, for an unresolved one they are not small;
        * rounding: (3s + 4) eps F_J, where F is |grid| mapped by the
          absolute ``to_coeffs`` along every axis, and s the most
          nodes on an axis.  F bounds each |C_J| and the rounding made in
          computing it, and weighed by |phi_J(x)| it grows far out in a
          normal coordinate, where the polynomials do.
        """
        grid, mean, coeffs, _ = self._sweep()
        if self._error is None:
            tail = np.zeros(self._sizes, dtype=bool)
            for k, (cont, s) in enumerate(zip(self._continuous, self._sizes)):
                if cont:
                    tail |= (np.arange(s) >= _tail(s)).reshape(
                        [-1 if j == k else 1 for j in range(self.n)])
            self._error = np.where(tail, np.abs(coeffs), 0.0) \
                + (3 * max(self._sizes) + 4) * np.finfo(float).eps * _along(
                    [np.abs(c.to_coeffs(s)) for c, s in zip(
                        self.measure.components, self._sizes)], np.abs(grid))
        at = tuple(slice(None) if i in v else 0 for i in range(1, self.n + 1))
        comps = [self.measure.components[i - 1] for i in v]
        ok = np.all([(c >= lo) & (c <= hi) for (lo, hi), c in
                     zip((a.support() for a in comps), x.T)], axis=0)
        with np.errstate(all="ignore"):     # far-out rows overflow; the gate drops them
            polys = [a.poly(c, self._sizes[i - 1])
                     for a, i, c in zip(comps, v, x.T)]
            values = mean + _tensor_eval(coeffs[at], polys)
            ok &= _tensor_eval(self._error[at], [np.abs(p) for p in polys]) \
                <= INTERP_TOL * self._rms(v)
        return ok, values

    def _rms(self, v):
        """rms(w_v), the square root of E[w_v^2]: by Parseval, of mean^2
        plus V_u for every subset u of v, the entries of P zero off v.
        Where those squares underflow it is 0, and ``_read`` accepts no
        row."""
        _, mean, _, power = self._sweep()
        at = tuple(slice(None) if i in v else 0 for i in range(1, self.n + 1))
        return math.sqrt(mean ** 2 + float(np.sum(power[at])))

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
        """(grid, mean, C, P): the model on the full grid, its mean, C, the
        orthonormal coefficients of grid - mean (each component's
        ``to_coeffs`` along its axis), and P, its power, computed once and
        kept until ``_use_order``.

        The grid is evaluated box by box (``_grid_boxes``, each box's rows
        from ``_tensor_points``) and kept whole; the mean is its
        contraction with the weights, the last axis first, and C its one
        transform (``_along``), centred so that a large mean costs no
        coefficient any digits.  P is C^2 with each axis summed into its
        degree 0 and the rest: entry J of the (2,) * n result, J_k = 1 on
        exactly the inputs of z, is V_z.  Its first entry, the mean's, is
        zeroed, not subtracted, so that it rounds away no term.  Every later
        integral reads them with no further model call, so no result
        depends on the size of the boxes.
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
            coeffs = _along([c.to_coeffs(s) for c, s in zip(
                self.measure.components, self._sizes)], grid - mean)
            power = _along([np.stack([d == 0, d > 0]) * 1.0
                            for d in map(np.arange, self._sizes)],
                           np.square(coeffs))
            power.flat[0] = 0.0     # the mean's, about zero once centred
            self._kept = grid, mean, coeffs, power
        return self._kept

    def variance_decomposition(self, max_order=None):
        """The mean, the total and every V_z of at most ``max_order`` inputs
        (default: all of them up to four inputs, and at most two beyond).

        Each V_z is an entry of the kept power P (``_sweep``) and V the sum
        of them all (Parseval).  Every call returns a new value, which the
        caller may change.
        """
        if max_order is None:
            max_order = self.n if self.n <= 4 else 2
        _, mean, _, power = self._sweep()
        terms = {z: float(power[tuple(int(i in z) for i in range(1, self.n + 1))])
                 for z in all_subsets(self.n, max_order)}
        total = float(power.sum())
        residual = total - sum(terms.values()) if max_order < self.n else 0.0
        return VarianceDecomposition(measure=self.measure.name or "measure",
                                     total=total, mean=mean, terms=terms,
                                     residual=residual, n=self.n)

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
