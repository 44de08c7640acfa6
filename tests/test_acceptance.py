"""Acceptance gate: the numbered guarantees this build ships with.

Each test checks one guarantee end to end at its stated tolerance and
prints exactly one PASS/FAIL line (visible even under output capture).
The numeric targets of guarantees 1 and 2 are the closed-form constants
of tests/_reference.py rounded for presentation, and a package-free test
checks each of them against its constant at the guarantee's own tolerance.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from mixsens.anova import AnovaEngine, all_subsets
from mixsens.cli import main as cli_main
from mixsens.diagnostics import (dimension_distribution,
                                 mixture_dimension_distribution,
                                 monotonicity_check, ultramodularity_check)
from mixsens.estimators import (generate_sample, given_data_indices,
                                reweighted_indices)
from mixsens.measures import (DiscreteUniform, MeasureSet, ProductMeasure,
                              Uniform)
from mixsens.mixture import (component_engines, mixture_annihilation_defect,
                             mixture_effect_curve,
                             mixture_effect_from_components,
                             mixture_effect_from_pooled_conditionals,
                             mixture_variance_decomposition)
from mixsens.models import (CompositeMultilinearModel, IshigamiModel,
                            core_partition, ishigami_measure_set)

import _reference as ref

PI = math.pi

# rounded reference values the build must reproduce (criteria 1 and 2)
TABLE = {
    "mu1": {"terms": {(1,): 4.35, (2,): 6.13, (3,): 0.0, (1, 3): 3.37},
            "total": 13.84,
            "sobol": {(1,): 0.31, (2,): 0.44, (3,): 0.0, (1, 3): 0.24},
            "d_s": 1.24},
    "mu2": {"terms": {(1,): 0.73, (2,): 5.90, (3,): 0.0, (1, 3): 0.41},
            "total": 7.05,
            "sobol": {(1,): 0.10, (2,): 0.84, (3,): 0.0, (1, 3): 0.06},
            "d_s": 1.06},
    "mu3": {"terms": {(1,): 0.82, (2,): 6.12, (3,): 2.73, (1, 3): 0.64},
            "total": 10.32,
            "sobol": {(1,): 0.08, (2,): 0.59, (3,): 0.26, (1, 3): 0.062},
            "d_s": 1.06},
}
MIXTURE_TARGETS = {
    "terms": {(1,): 1.97, (2,): 6.05, (3,): 0.91, (1, 3): 1.48},
    "total": 11.44,
    "between": 1.03,
    "mass": {(1,): 0.16, (2,): 0.62, (3,): 0.07, (1, 3): 0.12},
    "d_s": 1.12,
    "share": 0.90,
}
TABLE_TOL = 0.01
MIXTURE_TOL = {"terms": 0.02, "total": 0.02, "between": 0.02, "mass": 0.02,
               "d_s": 0.02, "share": 0.01}


def _report(capsys, label, failures):
    status = "PASS" if not failures else "FAIL — " + "; ".join(failures)
    with capsys.disabled():
        print(f"[acceptance] {label}: {status}", flush=True)
    assert not failures, f"{label}: " + "; ".join(failures)


def _check(failures, got, want, tol, what):
    if abs(got - want) > tol:
        failures.append(f"{what}: got {got:.6f}, target {want} ±{tol:g}")


def test_targets_match_reference(capsys):
    # Calls nothing in mixsens, so a bad rounding fails here on its own
    # rather than inside c01 or c02.
    failures = []
    for m, want in TABLE.items():
        for key, exact in (("terms", ref.TERMS), ("sobol", ref.SOBOL)):
            for z, v in want[key].items():
                _check(failures, exact[m][z], v, TABLE_TOL,
                       f"reference {key}{z} under {m}")
        _check(failures, ref.TOTAL[m], want["total"], TABLE_TOL,
               f"reference total under {m}")
        _check(failures, ref.D_S[m], want["d_s"], TABLE_TOL,
               f"reference D_S under {m}")
    exact = {"terms": ref.B_TERMS, "total": ref.MIX_TOTAL,
             "between": ref.BETWEEN, "mass": ref.MIX_MASS,
             "d_s": ref.MIX_D_S, "share": ref.SHARE}
    for key, want in MIXTURE_TARGETS.items():
        if isinstance(want, dict):
            for z, v in want.items():
                _check(failures, exact[key][z], v, MIXTURE_TOL[key],
                       f"reference mixture {key}{z}")
        else:
            _check(failures, exact[key], want, MIXTURE_TOL[key],
                   f"reference mixture {key}")
    _report(capsys, "rounded targets agree with tests/_reference.py",
            failures)


@pytest.fixture(scope="module")
def prior_engines():
    mset = ishigami_measure_set(prior=ref.PRIOR)
    engines = component_engines(mset, IshigamiModel())
    vds = [eng.variance_decomposition() for eng in engines]
    return mset, engines, vds


def test_c01_per_measure_variance_table(prior_engines, capsys):
    t0 = time.monotonic()
    _, _, vds = prior_engines
    failures = []
    for vd in vds:
        want = TABLE[vd.measure]
        for z, v in want["terms"].items():
            _check(failures, vd.terms[z], v, TABLE_TOL,
                   f"V_{z} under {vd.measure}")
        _check(failures, vd.total, want["total"], TABLE_TOL,
               f"total variance under {vd.measure}")
        s = vd.sobol_indices()
        for z, v in want["sobol"].items():
            _check(failures, s[z], v, TABLE_TOL, f"S_{z} under {vd.measure}")
        _check(failures, dimension_distribution(vd).d_s, want["d_s"],
               TABLE_TOL, f"superposition dimension under {vd.measure}")
    elapsed = time.monotonic() - t0
    if elapsed > 10:
        failures.append(f"runtime {elapsed:.1f}s over the 10s budget")
    _report(capsys, "1 per-measure variance table", failures)


def test_c02_mixture_decomposition(prior_engines, capsys):
    t0 = time.monotonic()
    mset, engines, vds = prior_engines
    md = mixture_variance_decomposition(engines, mset.prior)
    dd = mixture_dimension_distribution(mset.prior, vds)
    failures = []
    for z, v in MIXTURE_TARGETS["terms"].items():
        _check(failures, md.terms[z], v, MIXTURE_TOL["terms"],
               f"mixture term B_{z}")
    _check(failures, md.total, MIXTURE_TARGETS["total"],
           MIXTURE_TOL["total"], "mixture total variance")
    _check(failures, md.between, MIXTURE_TARGETS["between"],
           MIXTURE_TOL["between"], "variability-of-means term")
    for z, v in MIXTURE_TARGETS["mass"].items():
        _check(failures, dd.masses[z], v, MIXTURE_TOL["mass"],
               f"mixture mass at {z}")
    _check(failures, dd.d_s, MIXTURE_TARGETS["d_s"], MIXTURE_TOL["d_s"],
           "mixture superposition dimension")
    _check(failures, md.structural_share, MIXTURE_TARGETS["share"],
           MIXTURE_TOL["share"], "structural share")
    elapsed = time.monotonic() - t0
    if elapsed > 10:
        failures.append(f"runtime {elapsed:.1f}s over the 10s budget")
    _report(capsys, "2 mixture decomposition", failures)


def test_c03_two_route_equality(prior_engines, capsys):
    t0 = time.monotonic()
    mset, engines, _ = prior_engines
    rng = np.random.default_rng(2024)
    failures = []
    worst = 0.0
    # benchmark model, 1000 points in the support intersection
    pts = rng.uniform(0.0, PI, size=(1000, 3))
    for z in all_subsets(3):
        cols = [i - 1 for i in z]
        a = mixture_effect_from_components(engines, mset.prior, z, pts[:, cols])
        b = mixture_effect_from_pooled_conditionals(engines, mset.prior, z,
                                                    pts[:, cols])
        worst = max(worst, float(np.max(np.abs(a - b))))
    # three random composite-multilinear models on overlapping boxes
    for k in range(3):
        model = CompositeMultilinearModel(
            factors=(np.polynomial.Polynomial(rng.uniform(-1, 1, 3)),
                     np.polynomial.Polynomial(rng.uniform(-1, 1, 3))),
            terms=((1,), (2,), (1, 2)),
            coeffs=tuple(rng.uniform(-1, 1, 3)))
        pair = MeasureSet(measures=(
            ProductMeasure((Uniform(-1, 1), Uniform(0, 2)), name="wide"),
            ProductMeasure((Uniform(0, 1), Uniform(1, 2)), name="narrow")),
            prior=(0.5, 0.5))
        engs = component_engines(pair, model, order=32)
        inner = np.column_stack([rng.uniform(0, 1, 1000),
                                 rng.uniform(1, 2, 1000)])
        for z in all_subsets(2):
            cols = [i - 1 for i in z]
            a = mixture_effect_from_components(engs, pair.prior, z,
                                               inner[:, cols])
            b = mixture_effect_from_pooled_conditionals(engs, pair.prior, z,
                                                        inner[:, cols])
            worst = max(worst, float(np.max(np.abs(a - b))))
    if worst > 1e-7:
        failures.append(f"route disagreement {worst:.3e} exceeds 1e-7")
    elapsed = time.monotonic() - t0
    if elapsed > 30:
        failures.append(f"runtime {elapsed:.1f}s over the 30s budget")
    _report(capsys, "3 two-route equality on shared support", failures)


def test_c04_reweighting_demo(capsys):
    t0 = time.monotonic()
    mset = ishigami_measure_set(("mu1", "mu2"))
    sample = generate_sample(IshigamiModel(), mset.measures[0], 10_000,
                             seed=ref.SEED_REWEIGHT_DEMO)
    failures = []
    base = given_data_indices(sample).s
    for i, want in enumerate((0.33, 0.45, 0.00)):
        _check(failures, base[i], want, 0.02, f"S_x{i + 1} from the sample")
    shifted = reweighted_indices(sample, [mset.measures[1]])[0].s
    for i, want in enumerate((0.11, 0.83, 0.01)):
        _check(failures, shifted[i], want, 0.03,
               f"S_x{i + 1} after reweighting")
    elapsed = time.monotonic() - t0
    if elapsed > 5:
        failures.append(f"runtime {elapsed:.1f}s over the 5s budget")
    _report(capsys, "4 one-sample reweighting demo", failures)


def test_c05_core_detection(capsys):
    model = IshigamiModel()
    failures = []
    five = ishigami_measure_set(("mu1", "mu2", "mu3", "mu4", "mu5"))
    groups = core_partition(model, five)
    if groups != [[0, 3, 4], [1], [2]]:
        failures.append(f"five-measure partition came out as {groups}")
    pair = ishigami_measure_set(("mu1", "mu3"))
    if core_partition(model, pair) != [[0], [1]]:
        failures.append("mu1 and mu3 were not separated")
    # equal effect functions on the shared support, through the engine path
    shared = ishigami_measure_set(("mu1", "mu4", "mu5"))
    engines = component_engines(shared, model)
    xs = np.linspace(-PI / 2 + 1e-9, PI / 2 - 1e-9, 201)
    pairs_pts = {(1,): xs[:, None], (2,): xs[:, None], (3,): xs[:, None],
                 (1, 3): np.column_stack([xs, xs])}
    for z, pts in pairs_pts.items():
        vals = [eng.effect(z, pts) for eng in engines]
        spread = max(float(np.max(np.abs(vals[0] - v))) for v in vals[1:])
        if spread > 1e-9:
            failures.append(f"effects on {z} differ by {spread:.2e} "
                            "across one core")
    _report(capsys, "5 core detection and effect equality", failures)


def test_c06_orthogonality_and_mixture_defect(prior_engines, capsys,
                                              annihilation_defect):
    mset, engines, _ = prior_engines
    failures = []
    worst = max(annihilation_defect(eng, z)
                for eng in engines for z in all_subsets(3))
    if worst > 1e-7:
        failures.append(f"per-measure annihilation defect {worst:.2e} "
                        "exceeds 1e-7")
    defect = mixture_annihilation_defect(engines, mset.prior, (3,))
    if abs(defect) <= 0.01:
        failures.append(f"mixture defect for x3 is {defect:.4f}, expected a "
                        "clearly nonzero value")
    oracle = ref.DEFECT[(3,)]
    if abs(defect - oracle) > 1e-6:
        failures.append(f"defect {defect:.9f} vs independent oracle "
                        f"{oracle:.9f} differ beyond 1e-6")
    _report(capsys, "6 orthogonality and mixture defect", failures)


def _enumerated_decomposition(g, levels):
    """Exhaustive ANOVA on a uniform discrete grid, plain loops only."""
    sizes = [len(v) for v in levels]
    n = len(levels)
    mesh = np.meshgrid(*levels, indexing="ij")
    grid = np.asarray(g(np.stack([m.ravel() for m in mesh], axis=-1)),
                      dtype=float).reshape(sizes)
    mean = grid.mean()
    effects = {}
    terms = {}
    for z in all_subsets(n):
        comp = tuple(i for i in range(n) if (i + 1) not in z)
        w = grid.mean(axis=comp) if comp else grid.copy()
        gz = w - mean
        for r in range(1, len(z)):
            for v in combinations(z, r):
                shape = [sizes[i - 1] if i in v else 1 for i in z]
                gz = gz - effects[v].reshape(shape)
        effects[z] = gz
        terms[z] = float((gz ** 2).mean())
    return mean, float(grid.var()), terms


def test_c07_discrete_enumeration_oracle(capsys):
    rng = np.random.default_rng(77)
    failures = []
    models = [
        lambda x: np.sin(x[:, 0]) * x[:, 1] + x[:, 2] ** 2,
        lambda x: np.exp(x[:, 0] / 3) + x[:, 1] * x[:, 2] - x[:, 0] * x[:, 2],
        lambda x: (x[:, 0] + 1) * (x[:, 1] - 2) * (x[:, 2] + 0.5),
    ]
    for k, g in enumerate(models):
        levels = [np.sort(rng.uniform(-2, 2, size=rng.integers(2, 6)))
                  for _ in range(3)]
        measure = ProductMeasure(tuple(DiscreteUniform(tuple(v))
                                       for v in levels))
        vd = AnovaEngine(g, measure).variance_decomposition()
        mean, total, terms = _enumerated_decomposition(g, levels)
        if abs(vd.mean - mean) > 1e-12:
            failures.append(f"model {k}: mean off by {abs(vd.mean - mean):.2e}")
        if abs(vd.total - total) > 1e-12:
            failures.append(f"model {k}: variance off by "
                            f"{abs(vd.total - total):.2e}")
        for z, v in terms.items():
            if abs(vd.terms[z] - v) > 1e-12:
                failures.append(f"model {k}: V_{z} off by "
                                f"{abs(vd.terms[z] - v):.2e}")
    _report(capsys, "7 exact match with exhaustive enumeration", failures)


def test_c08_monotone_polynomial_battery(capsys):
    rng = np.random.default_rng(88)
    failures = []
    for k in range(20):
        factors = tuple(
            np.polynomial.Polynomial(np.concatenate([[rng.uniform(0, 1)],
                                                     rng.uniform(0, 2, 2)]))
            for _ in range(3))
        model = CompositeMultilinearModel(
            factors=factors,
            terms=((1,), (2,), (3,), (1, 2), (2, 3)),
            coeffs=tuple(rng.uniform(0.1, 1.5, 5)))
        measures = tuple(
            ProductMeasure(tuple(Uniform(lo, lo + w) for lo, w in
                                 zip(rng.uniform(0, 0.3, 3),
                                     rng.uniform(0.4, 0.7, 3))),
                           name=f"m{j}")
            for j in range(3))
        prior = rng.dirichlet(np.ones(3))
        mset = MeasureSet(measures=measures, prior=tuple(prior))
        engines = component_engines(mset, model, order=16)
        for eng in engines:
            for i in (1, 2, 3):
                verdict = monotonicity_check(eng.effect_curve((i,), npts=65))
                if not verdict.nondecreasing:
                    failures.append(f"model {k}, {eng.measure.name}, x{i}: "
                                    f"{verdict.verdict}")
        for i in (1, 2, 3):
            curve = mixture_effect_curve(engines, mset.prior, i, npts=65)
            verdict = monotonicity_check(curve.mixture_values)
            if not verdict.nondecreasing:
                failures.append(f"model {k}, mixture, x{i}: {verdict.verdict}")
    sine = component_engines(ishigami_measure_set(("mu1",)), IshigamiModel())
    if monotonicity_check(sine[0].effect_curve((1,))).verdict != "nonmonotone":
        failures.append("the benchmark's sine effect was not flagged "
                        "nonmonotone")
    _report(capsys, "8 monotone effects for monotone models", failures)


def test_c09_ultramodularity_battery(capsys):
    rng = np.random.default_rng(99)
    failures = []
    cases = []
    while len(cases) < 10:  # ultramodular: PSD with a nonnegative cross term
        d1, d2 = rng.uniform(0.2, 2.0, 2)
        off = rng.uniform(0.0, math.sqrt(d1 * d2))
        cases.append((d1, d2, off, True))
    while len(cases) < 20:  # negative cross term must fail
        d1, d2 = rng.uniform(0.2, 2.0, 2)
        off = -rng.uniform(0.05, math.sqrt(d1 * d2))
        cases.append((d1, d2, off, False))
    for k, (d1, d2, off, expect) in enumerate(cases):
        a = np.array([[d1, off], [off, d2]])

        def quad(x, a=a):
            return np.einsum("ni,ij,nj->n", x, a, x)

        rep = ultramodularity_check(quad, [(0, 1), (0, 1)], grid_k=7)
        analytic = off >= 0
        if rep.ultramodular != expect:
            failures.append(f"case {k}: verdict {rep.ultramodular}, "
                            f"expected {expect}")
        if rep.ultramodular != analytic:
            failures.append(f"case {k}: verdict disagrees with the sign rule")
    _report(capsys, "9 ultramodularity battery", failures)


def test_c10_byte_identical_reports(tmp_path, capsys):
    cfg = tmp_path / "measures.yaml"
    cfg.write_text(ref.MEASURES_YAML)
    blobs = []
    for run in ("first", "again"):
        out = tmp_path / run
        code = cli_main(["analyze", "--model", "ishigami",
                         "--measures", str(cfg), "--prior", "--out", str(out)])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    failures = []
    if not all(b == blobs[0] for b in blobs[1:]):
        failures.append("reports differ across reruns")
    payload = json.loads(blobs[0])
    if payload["config"]["sections"] != sorted(payload["config"]["sections"]):
        failures.append("report sections are not canonically ordered")
    _report(capsys, "10 byte-identical reports", failures)
