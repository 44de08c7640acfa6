"""One benchmark process: set up, run one operation leg, check its outputs.

    python3 bench/worker.py '<spec json>'

``run.py`` starts one of these per leg of every operation, so peak memory
is per operation and set-up is paid every time, as it is for a user.  The
spec names the leg, the generated inputs, the monotonic time the parent
launched this process, whether to trace, and where to write the result.

Every leg has a ``setup`` (everything up to "ready": imports, the measure
set, the engines), a timed ``run`` and an untimed ``check`` against an
oracle that does not share the code path under test.
"""

import hashlib
import importlib.util
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

from mixsens import cli, mixture, models
from mixsens.anova import AnovaEngine
from mixsens.measures import (MeasureSet, Normal, ProductMeasure, Uniform,
                              load_measure_set)
from mixsens.report import quad_qty

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUBSETS_3 = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def load_reference():
    """The frozen Ishigami constants, computed outside the package."""
    path = os.path.join(ROOT, "tests", "_reference.py")
    spec = importlib.util.spec_from_file_location("_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def label(z):
    return "".join(f"x{i}" for i in z)


class Checks:
    """Pass/fail checks plus the largest oracle error, for accuracy_digits.

    Each error is first raised to the oracle's own precision ``floor``
    (relative to the value's size), so a result cannot claim more digits
    than the oracle holds.
    """

    def __init__(self):
        self.failures = []
        self.worst = 0.0

    def near(self, what, got, want, tol, floor):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not math.isfinite(err):
            err = math.inf
        scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
        self.worst = max(self.worst, err, floor * scale)
        if not err <= tol:
            self.failures.append(f"{what}: error {err:.3e} above {tol:g}")

    def expect(self, what, ok):
        if not ok:
            self.failures.append(what)

    @property
    def digits(self):
        return -math.log10(self.worst) if self.worst > 0 else None


# ---------------------------------------------------------------------------
# the command-line legs: cli-prior, and mc-sample's write and read legs
# ---------------------------------------------------------------------------

REF_FLOOR = 5e-12        # the reference constants carry 12 digits


class CliLeg:
    def __init__(self, inputs, tracer):
        self.inputs = inputs
        self.models = []
        load_measure_set(inputs["measures"])
        resolve = cli.resolve_model

        def counted(arg):
            model = tracing.CountedModel(resolve(arg), tracer)
            self.models.append(model)
            return model
        cli.resolve_model = counted

    @property
    def evals(self):
        return sum(m.points for m in self.models)

    def run(self):
        return cli.main(self.argv())

    def report(self):
        with open(os.path.join(self.inputs["out"], "report.json"), "rb") as fh:
            blob = fh.read()
        return blob, json.loads(blob)


class CliPrior(CliLeg):
    def argv(self):
        return ["analyze", "--model", "ishigami",
                "--measures", self.inputs["measures"], "--prior",
                "--out", self.inputs["out"]]

    def check(self, code, ref, chk):
        chk.expect(f"exit code {code}", code == 0)
        if code != 0:
            return None
        blob, rep = self.report()
        for mu in ("mu1", "mu2", "mu3"):
            m = rep["measures"][mu]
            chk.near(f"{mu} mean", m["mean"]["value"], ref.MEAN[mu], 1e-8,
                     REF_FLOOR)
            chk.near(f"{mu} variance", m["variance"]["value"], ref.TOTAL[mu],
                     1e-8, REF_FLOOR)
            for z in SUBSETS_3:
                chk.near(f"{mu} V_{label(z)}", m["terms"][label(z)]["value"],
                         ref.TERMS[mu].get(z, 0.0), 1e-8, REF_FLOOR)
                chk.near(f"{mu} S_{label(z)}", m["sobol"][label(z)]["value"],
                         ref.SOBOL[mu].get(z, 0.0), 1e-9, REF_FLOOR)
            dim = rep["dimension"]["per_measure"][mu]
            chk.near(f"{mu} d_s", dim["d_s"]["value"], ref.D_S[mu], 1e-8,
                     REF_FLOOR)
            chk.near(f"{mu} d_t", dim["d_t"]["value"], ref.D_T[mu], 1e-8,
                     REF_FLOOR)
        hi_t = rep["dimension"]["bounds"]["d_t"][1]["value"]
        chk.near("d_t upper bound", hi_t, ref.D_T["mu3"], 1e-8, REF_FLOOR)
        mix = rep["mixture"]
        for key, want in (("mean", ref.MIX_MEAN), ("total", ref.MIX_TOTAL),
                          ("between", ref.BETWEEN),
                          ("structural_share", ref.SHARE)):
            chk.near(f"mixture {key}", mix[key]["value"], want, 1e-8,
                     REF_FLOOR)
        for z in SUBSETS_3:
            chk.near(f"mixture B_{label(z)}", mix["terms"][label(z)]["value"],
                     ref.B_TERMS.get(z, 0.0), 1e-8, REF_FLOOR)
            chk.near(f"mixture mass {label(z)}",
                     mix["dimension"]["mass"][label(z)]["value"],
                     ref.MIX_MASS.get(z, 0.0), 1e-8, REF_FLOOR)
        chk.near("mixture d_s", mix["dimension"]["d_s"]["value"], ref.MIX_D_S,
                 1e-8, REF_FLOOR)
        chk.near("mixture d_t", mix["dimension"]["d_t"]["value"], ref.MIX_D_T,
                 1e-8, REF_FLOOR)
        for i in (1, 2, 3):
            chk.near(f"defect x{i}", mix["defects"][f"x{i}"]["value"],
                     ref.DEFECT[(i,)], 1e-9, REF_FLOOR)
        rob = rep["robust"]
        chk.expect("robust ranking", rob["most_important"] == 2
                   and rob["least_important"] is None
                   and rob["blocks"] == [[2], [1, 3]])
        chk.expect("trend verdicts",
                   rep["trend"]["per_measure"]["mu1"]["x1"]["verdict"]
                   == "nonmonotone"
                   and rep["trend"]["mixture"]["x2"]["verdict"]
                   == "nonmonotone")
        chk.expect("core groups",
                   rep["cores"]["groups"] == [["mu1"], ["mu2"], ["mu3"]])
        text = blob.decode("utf8")
        chk.expect("report carries a path or worker count",
                   self.inputs["out"] not in text and "workers" not in text)
        curve = np.loadtxt(os.path.join(self.inputs["out"], "effect_mu1_x1.csv"),
                           delimiter=",", skiprows=1)
        q3 = math.pi ** 4 / 5
        chk.near("effect_mu1_x1.csv", curve[:, 1],
                 np.sin(curve[:, 0]) * (1 + 0.1 * q3), 1e-8, 1e-15)
        return hashlib.sha256(blob).hexdigest()


def check_mc_indices(rep, ref, chk):
    """First-order S_i under every candidate within the report's own MC tol."""
    for mu in ("mu1", "mu2", "mu3"):
        cells = rep["measures"][mu]["first_order"]
        for i in (1, 2, 3):
            cell = cells[f"x{i}"]
            chk.near(f"{mu} S_x{i}", cell["value"], ref.SOBOL[mu][(i,)],
                     cell["tol"], REF_FLOOR)


class McWrite(CliLeg):
    def argv(self):
        return ["analyze", "--model", "ishigami",
                "--measures", self.inputs["measures"],
                "--estimator", "reweight", "--n", str(self.inputs["n"]),
                "--seed", str(self.inputs["sample_seed"]),
                "--sections", "measures", "robust",
                "--out", self.inputs["out"]]

    def check(self, code, ref, chk):
        chk.expect(f"exit code {code}", code == 0)
        if code == 0:
            check_mc_indices(self.report()[1], ref, chk)


class McRead(CliLeg):
    def argv(self):
        return ["analyze", "--model", self.inputs["sample"],
                "--measures", self.inputs["measures"],
                "--estimator", "reweight", "--out", self.inputs["out"]]

    def check(self, code, ref, chk):
        chk.expect(f"exit code {code}", code == 0)
        if code != 0:
            return
        rep = self.report()[1]
        with open(self.inputs["write_report"], encoding="utf8") as fh:
            written = json.load(fh)
        for section in ("measures", "robust"):
            chk.expect(f"read-back {section} differs from the write run",
                       rep.get(section) == written.get(section))
        check_mc_indices(rep, ref, chk)


# ---------------------------------------------------------------------------
# the library legs: two-route and decomp-4d
# ---------------------------------------------------------------------------

class TwoRoute:
    """Mixture effects by both routes: Ishigami, then multilinear pairs."""

    def __init__(self, inputs, tracer):
        data = np.load(inputs["points"])
        self.models = []
        self.ishigami_set = models.ishigami_measure_set(
            prior=(1 / 3, 1 / 3, 1 / 3))
        self.ishigami_points = data["ishigami"]
        self.ishigami = mixture.component_engines(
            self.ishigami_set, self.counted(models.IshigamiModel(), tracer))
        self.pair_set = MeasureSet(measures=(
            ProductMeasure((Uniform(-1, 1), Uniform(0, 2)), name="wide"),
            ProductMeasure((Uniform(0, 1), Uniform(1, 2)), name="narrow")),
            prior=(0.5, 0.5))
        self.pairs = []
        for k in range(len(data["coeffs"])):
            model = models.CompositeMultilinearModel(
                factors=(np.polynomial.Polynomial(data["factor1"][k]),
                         np.polynomial.Polynomial(data["factor2"][k])),
                terms=((1,), (2,), (1, 2)), coeffs=tuple(data["coeffs"][k]))
            engines = mixture.component_engines(
                self.pair_set, self.counted(model, tracer), order=32)
            self.pairs.append((model, engines, data["inner"][k]))

    def counted(self, model, tracer):
        self.models.append(tracing.CountedModel(model, tracer))
        return self.models[-1]

    @property
    def evals(self):
        return sum(m.points for m in self.models)

    @staticmethod
    def both_routes(engines, prior, subsets, pts):
        out = {}
        for z in subsets:
            x = pts[:, [i - 1 for i in z]]
            out[z] = (
                mixture.mixture_effect_from_components(engines, prior, z, x),
                mixture.mixture_effect_from_pooled_conditionals(engines, prior,
                                                                z, x))
        return out

    def run(self):
        ishigami = self.both_routes(self.ishigami, self.ishigami_set.prior,
                                    SUBSETS_3, self.ishigami_points)
        pairs = [self.both_routes(engines, self.pair_set.prior,
                                  ((1,), (2,), (1, 2)), pts)
                 for _, engines, pts in self.pairs]
        return ishigami, pairs

    def check(self, out, ref, chk):
        ishigami, pairs = out
        gap = 0.0
        for z, (comp, pooled) in ishigami.items():
            gap = max(gap, float(np.max(np.abs(comp - pooled))))
            x = self.ishigami_points[:, [i - 1 for i in z]]
            chk.near(f"Ishigami component route {label(z)} vs closed form",
                     comp, models.ishigami_mixture_effect(
                         self.ishigami_set, z, x),
                     quad_qty(0.0)["tol"], 1e-15)
        for (model, _, pts), routes in zip(self.pairs, pairs):
            for z, (comp, pooled) in routes.items():
                gap = max(gap, float(np.max(np.abs(comp - pooled))))
                x = pts[:, [i - 1 for i in z]]
                exact = sum(p * model.exact_effect(m, z, x, order=32)
                            for p, m in zip(self.pair_set.prior,
                                            self.pair_set.measures))
                chk.near(f"multilinear component route {label(z)} vs "
                         "closed form", comp, exact, quad_qty(0.0)["tol"],
                         1e-15)
        chk.expect(f"route gap {gap:.3e} above 1e-7", gap <= 1e-7)


def decomp_model(x):
    """g = sin x1 (1 + 0.1 x3^4) + 7 sin^2 x2 + (1 + 0.1 x3^4) cos x4."""
    x = np.asarray(x, dtype=float)
    t3 = 1.0 + 0.1 * x[..., 2] ** 4
    return np.sin(x[..., 0]) * t3 + 7.0 * np.sin(x[..., 1]) ** 2 \
        + t3 * np.cos(x[..., 3])


DECOMP_ORACLE = models.CompositeMultilinearModel(
    factors=(np.sin, lambda t: 7.0 * np.sin(t) ** 2,
             lambda t: 1.0 + 0.1 * t ** 4, np.cos),
    terms=((1, 3), (2,), (3, 4)))


class Decomp4d:
    def __init__(self, inputs, tracer):
        self.measure = ProductMeasure(tuple(Normal(0.0, 1.0) for _ in range(4)),
                                      name="normal4")
        self.model = tracing.CountedModel(decomp_model, tracer)
        self.engine = AnovaEngine(self.model, self.measure,
                                  seed=inputs["engine_seed"])

    @property
    def evals(self):
        return self.model.points

    def run(self):
        return self.engine.variance_decomposition(max_order=2)

    def check(self, vd, ref, chk):
        tol = quad_qty(0.0, vd.mode)["tol"]
        for z, v in vd.terms.items():
            chk.near(f"V_{label(z)}", v,
                     DECOMP_ORACLE.exact_term_variance(self.measure, z),
                     tol, 1e-15)


LEGS = {"cli-prior": CliPrior, "mc-write": McWrite, "mc-read": McRead,
        "two-route": TwoRoute, "decomp-4d": Decomp4d}


def main(spec):
    result = {"import_s": time.monotonic() - spec["t0"]}
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    leg = LEGS[spec["leg"]](spec["inputs"], tracer)
    result["setup_s"] = time.monotonic() - spec["t0"]
    if spec["mode"] == "op":
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        out = leg.run()
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        result["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["evals"] = leg.evals
        chk = Checks()
        result["digest"] = leg.check(out, load_reference(), chk)
        result["failures"] = chk.failures
        result["accuracy_digits"] = chk.digits
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        res = main(spec)
        code = 0
    except Exception:  # reported to the parent as a failed operation
        res = {"failures": [traceback.format_exc(limit=4)]}
        code = 1
    with open(spec["result"], "w", encoding="utf8") as fh:
        json.dump(res, fh)
    sys.exit(code)
