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
costs one sweep.  Otherwise (five or more continuous inputs on a grid that
does not fit) the moments take the QMC rule over all inputs.

Effects at arbitrary points need w_v there.  When the model's full tensor
grid fits, ``AnovaEngine._w_at`` reads w_v off v's subgrid table by tensor
barycentric interpolation (Berrut & Trefethen, SIAM Rev. 46, 2004), gated
row by row by an error estimate (see ``_Table``).  The direct integral over
the complement of v, ``conditional_mean``, serves the rows the gate rejects
or that lie outside a coordinate's support, the empty and the full subset,
subsets with a discrete coordinate, and every row when the grid does not
fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import DiscreteUniform, Normal, ProductMeasure, Uniform, substream


class ZeroVarianceError(ArithmeticError):
    """Total variance is (numerically) zero, so indices are undefined."""


DEFAULT_ORDER = 64          # Gaussian quadrature nodes per coordinate
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
        Gaussian nodes per continuous coordinate.
    seed : int
        Seed of the scrambled-Sobol rule (``QMC_LOG2`` points) used whenever
        an integral runs over more than three continuous coordinates.

    The integration plan is fixed here.  A table w_z takes the tensor rule
    when the grid fits or z's complement has at most ``TENSOR_DIM_CAP``
    continuous coordinates, and QMC otherwise (``_takes_qmc``); a
    conditional mean at points takes the tensor rule exactly when z's
    complement is that small.  The moments take the sweep when the grid fits
    or some singleton table takes the tensor rule, and QMC otherwise.
    ``mode`` is "qmc" when the plan holds any QMC integral; a
    ``VarianceDecomposition`` is tagged "qmc" when one of the integrals it
    used takes QMC.
    """

    def __init__(self, model, measure, order=DEFAULT_ORDER, seed=0):
        if not isinstance(measure, ProductMeasure):
            raise TypeError("AnovaEngine needs a ProductMeasure")
        self.model = model
        self.measure = measure
        self.order = int(order)
        self.seed = int(seed)
        self.n = measure.n
        nodes = measure.quad_nodes(order)
        self.nodes = [np.asarray(x) for x, _ in nodes]
        self.weights = [np.asarray(w) for _, w in nodes]
        self._sizes = [x.size for x in self.nodes]
        self._full_grid_ok = int(np.prod([float(s) for s in self._sizes])) <= FULL_GRID_CAP \
            and self.n <= 16
        self._w_cache = {}        # subset -> conditional mean on its subgrid
        self._moments = None      # (E[g], E[g^2]), lazily
        # the integration plan (see the class docstring)
        tensor = [self._tensor_complement((i,)) for i in range(1, self.n + 1)]
        self._swept_moments = self._full_grid_ok or any(tensor)
        self.mode = "quadrature" if all(tensor) else "qmc"
        if self.mode == "qmc":
            _qmc()                # set-up, not the first integral, pays the import

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
            pts = _tensor_points([self.nodes[i - 1] for i in comp])
            w = np.prod(_tensor_points([self.weights[i - 1] for i in comp]),
                        axis=-1)
            return pts, w
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
            return not self._swept_moments
        return not self._full_grid_ok and not self._tensor_complement(z)

    # -- conditional means and effects at arbitrary points -------------------

    def conditional_mean(self, z, x):
        """w_z at points ``x`` of shape (N, |z|): E[g(X) | X_z = x_row].

        For the empty subset returns the overall mean once per row.
        """
        z = tuple(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(z) == 0:
            return np.full(x.shape[0], self.mean())
        if x.shape[1] != len(z):
            raise ValueError(f"points have {x.shape[1]} columns for subset {z}")
        comp = [i for i in range(1, self.n + 1) if i not in z]
        cpts, cw = self._complement_rule(z)
        m = cpts.shape[0]
        out = np.empty(x.shape[0])
        # chunk the query points so the (chunk, m, n) block stays modest
        chunk = max(1, BLOCK_POINTS // max(m, 1))
        zi = [i - 1 for i in z]
        ci = [i - 1 for i in comp]
        for a in range(0, x.shape[0], chunk):
            xa = x[a:a + chunk]
            block = np.empty((xa.shape[0], m, self.n))
            block[:, :, zi] = xa[:, None, :]
            if ci:
                block[:, :, ci] = cpts[None, :, :]
            vals = _evaluate(self.model, block.reshape(-1, self.n))
            out[a:a + xa.shape[0]] = vals.reshape(xa.shape[0], m) @ cw
        return out

    def conditional_means(self, z, x):
        """{v: w_v at the rows of ``x``} for every subset v of z, the empty
        one included; the columns of ``x`` follow the order of z."""
        z = tuple(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return {v: self._w_at(v, x[:, [z.index(i) for i in v]])
                for v in _subsets_of(z)}

    def _w_at(self, v, x):
        """w_v at the rows of ``x`` (N, |v|), read off v's quadrature table.

        The table is ``_w_on_subgrid(v)``, interpolated by ``_Table``; rows
        it does not accept, and every row when v is empty or all inputs,
        when the full grid does not fit or when a coordinate of v is
        discrete, come from ``conditional_mean``.
        """
        v = tuple(v)
        axes = [self._axes[i - 1] for i in v]
        if not 0 < len(v) < self.n or not self._full_grid_ok or None in axes:
            return self.conditional_mean(v, x)
        if v not in self._tables:
            self._tables[v] = _Table(self._w_on_subgrid(v), axes,
                                     [self.weights[i - 1] for i in v])
        ok, values = self._tables[v](x)
        out = np.empty(x.shape[0])
        out[ok] = values
        if not ok.all():
            out[~ok] = self.conditional_mean(v, x[~ok])
        return out

    @cached_property
    def _axes(self):
        """Per coordinate, its interpolation data (None when discrete)."""
        return [None if isinstance(c, DiscreteUniform) else _Axis(c, x, w)
                for c, x, w in zip(self.measure.components, self.nodes,
                                   self.weights)]

    @cached_property
    def _tables(self):
        """Subset -> its interpolation ``_Table``, filled by ``_w_at``."""
        return {}

    def mean(self):
        return self._w_on_subgrid(())

    def total_variance(self):
        mean = self.mean()
        return self._moments[1] - mean ** 2

    def effect(self, z, x):
        """The ANOVA term g_z at arbitrary points ``x`` of shape (N, |z|).

        Built by the defining recursion from the conditional means of all
        subsets of z, each evaluated once at the projected points.
        """
        z = tuple(sorted(z))
        return _mobius(z, self.conditional_means(z, x))[z]

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
        (``_takes_qmc(())``); a sweep only they need fills no table.
        """
        everything = tuple(range(1, self.n + 1))
        todo = [z for z in subsets if z and z not in self._w_cache]
        if self._full_grid_ok:
            swept = [] if everything in self._w_cache else [everything]
        else:
            swept = [z for z in todo if not self._takes_qmc(z)]
        moments = self._moments is None and not self._takes_qmc(())
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
            s = values.shape[ax]
            shape = [1] * values.ndim
            shape[ax] = s
            tail |= (np.arange(s) >= s - max(2, s // 4)).reshape(shape)
        self.axes = axes
        self.values = values
        self.tail = np.where(tail, np.abs(coeffs), 0.0)
        self.rounding = (3 * max(values.shape) + 4) * np.finfo(float).eps
        self.scale = float(np.sqrt(_contract(values ** 2, weights)))

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
