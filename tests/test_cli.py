"""End-to-end command line runs: report contents, files, exit codes."""

import csv
import json
import math
import os
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsens import anova, cli, measures, report
from mixsens.anova import VarianceDecomposition, all_subsets, subset_label
from mixsens.cli import main
from mixsens.estimators import (EvaluatedSample, generate_sample,
                                 read_sample, write_sample)
from mixsens.measures import load_measure_set
from mixsens.models import IshigamiModel, ishigami_measures, resolve_model

import _reference as ref

PI_LO_HI = "{family: uniform, params: {lo: -3.141592653589793, hi: 3.141592653589793}}"
HALF_PI = "{family: uniform, params: {lo: 0.0, hi: 3.141592653589793}}"
GAUSS = "{family: normal, params: {mean: 0.0, sd: 1.0}}"

MEASURES_YAML = f"""\
n: 3
measures:
  - name: mu1
    components:
      - {PI_LO_HI}
      - {PI_LO_HI}
      - {PI_LO_HI}
  - name: mu2
    components:
      - {GAUSS}
      - {GAUSS}
      - {GAUSS}
  - name: mu3
    components:
      - {HALF_PI}
      - {HALF_PI}
      - {HALF_PI}
"""

PRIOR_LINE = "prior: [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]\n"

# base N(0, 1) x U(0, 1) and wide U(-40, 40) x U(0, 1): the density ratio
# wide / base grows as exp(x1^2 / 2) in the base's tail
TAIL_YAML = f"""\
n: 2
measures:
  - name: base
    components:
      - {GAUSS}
      - {{family: uniform, params: {{lo: 0.0, hi: 1.0}}}}
  - name: wide
    components:
      - {{family: uniform, params: {{lo: -40.0, hi: 40.0}}}}
      - {{family: uniform, params: {{lo: 0.0, hi: 1.0}}}}
"""


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    with_prior = d / "measures.yaml"
    with_prior.write_text(MEASURES_YAML + PRIOR_LINE)
    no_prior = d / "measures_noprior.yaml"
    no_prior.write_text(MEASURES_YAML)
    return {"prior": str(with_prior), "noprior": str(no_prior)}


def run(argv):
    return main(["analyze"] + argv)


def load_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outdir(configs, tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    code = run(["--model", "ishigami", "--measures", configs["prior"],
                "--prior", "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("estimator", ["quad", "pickfreeze", "reweight"])
def test_every_index_row_is_its_report_cell(configs, tmp_path, estimator):
    # indices_long.csv holds each first- and total-order cell of the
    # measures section once: by measure, then by input, first before total
    code = run(["--model", "ishigami", "--measures", configs["noprior"],
                "--estimator", estimator, "--n", "1024", "--seed", "1",
                "--sections", "measures", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "indices_long.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = [(name, i, kind, entry[f"{kind}_order"][f"x{i}"])
             for name, entry in load_report(tmp_path)["measures"].items()
             for i in (1, 2, 3) for kind in ("first", "total")
             if f"{kind}_order" in entry]
    assert len(rows) == len(cells) == (18 if estimator != "reweight" else 9)
    for row, (name, i, kind, cell) in zip(rows, cells):
        assert (row["measure"], int(row["input"]), row["index"]) \
            == (name, i, kind)
        assert float(row["value"]) == cell["value"]
        assert row["mode"] == cell["mode"]
        assert (float(row["se"]) if row["se"] else None) == cell.get("se")


class TestQuadraturePriorRun:
    def test_emits_the_expected_files(self, outdir):
        names = {p.name for p in outdir.iterdir()}
        assert "report.json" in names and "indices_long.csv" in names
        for m in ("mu1", "mu2", "mu3"):
            for i in (1, 2, 3):
                assert f"effect_{m}_x{i}.csv" in names
        for i in (1, 2, 3):
            assert f"effect_mixture_x{i}.csv" in names

    def test_per_measure_values(self, outdir):
        rep = load_report(outdir)
        mu1 = rep["measures"]["mu1"]
        assert mu1["first_order"]["x1"]["value"] \
            == pytest.approx(ref.SOBOL["mu1"][(1,)], abs=1e-9)
        assert mu1["variance"]["value"] == pytest.approx(ref.TOTAL["mu1"],
                                                         abs=1e-8)
        assert mu1["sobol"]["x1x3"]["value"] \
            == pytest.approx(ref.SOBOL["mu1"][(1, 3)], abs=1e-9)

    def test_mixture_values(self, outdir):
        mix = load_report(outdir)["mixture"]
        assert mix["between"]["value"] == pytest.approx(ref.BETWEEN, abs=1e-8)
        assert mix["structural_share"]["value"] == pytest.approx(ref.SHARE,
                                                                 abs=1e-8)
        assert mix["defects"]["x3"]["value"] \
            == pytest.approx(ref.DEFECT[(3,)], abs=1e-9)
        assert mix["dimension"]["d_s"]["value"] == pytest.approx(ref.MIX_D_S,
                                                                 abs=1e-8)

    def test_dimension_and_robust(self, outdir):
        rep = load_report(outdir)
        dim = rep["dimension"]
        assert dim["per_measure"]["mu1"]["d_s"]["value"] \
            == pytest.approx(ref.D_S["mu1"], abs=1e-8)
        assert dim["bounds"]["d_t"][1]["value"] \
            == pytest.approx(ref.D_T["mu3"], abs=1e-8)
        rob = rep["robust"]
        assert rob["most_important"] == 2
        assert rob["least_important"] is None
        assert rob["blocks"] == [[2], [1, 3]]
        for key in ("d_s", "d_t"):
            assert rob[f"{key}_bounds"] == dim["bounds"][key]

    def test_trend_and_cores(self, outdir):
        rep = load_report(outdir)
        assert rep["trend"]["per_measure"]["mu1"]["x1"]["verdict"] \
            == "nonmonotone"
        assert rep["trend"]["mixture"]["x2"]["verdict"] == "nonmonotone"
        assert rep["cores"]["groups"] == [["mu1"], ["mu2"], ["mu3"]]

    @pytest.mark.parametrize("name", ["mu1", "mu2"])
    def test_a_curve_of_rounding_noise_is_flat(self, outdir, name):
        # g_3 = 0.1 (x3^4 - E x3^4) E[sin x1] vanishes under mu1 and mu2,
        # so their x3 curves hold rounding noise; the verdict is judged to
        # the error the values carry, INTERP_TOL sqrt(V) of the engine
        cell = load_report(outdir)["trend"]["per_measure"][name]["x3"]
        assert cell["nondecreasing"] and cell["nonincreasing"]
        assert cell["max_violation"]["tol"] == pytest.approx(
            anova.INTERP_TOL * math.sqrt(ref.TOTAL[name]), rel=1e-9)
        values = np.loadtxt(outdir / f"effect_{name}_x3.csv", delimiter=",",
                            skiprows=1)[:, 1]
        assert np.all(np.abs(values) <= 1e-14)

    def test_effect_csv_matches_the_closed_form(self, outdir):
        data = np.loadtxt(outdir / "effect_mu1_x1.csv", delimiter=",",
                          skiprows=1)
        x, vals = data[:, 0], data[:, 1]
        q3 = math.pi ** 4 / 5
        assert np.allclose(vals, np.sin(x) * (1 + 0.1 * q3), atol=1e-8)

    def test_report_carries_no_runtime_noise(self, outdir):
        text = (outdir / "report.json").read_text()
        assert str(outdir) not in text       # no absolute paths
        assert "workers" not in text
        cfg = load_report(outdir)["config"]
        assert cfg["measures_file"] == "measures.yaml"
        assert cfg["sections"] == sorted(cfg["sections"])


def tagged_cells(node):
    """Every {"value", "mode", "tol"} leaf under a report section."""
    if isinstance(node, dict):
        if "mode" in node:
            return [node]
        return [c for v in node.values() for c in tagged_cells(v)]
    if isinstance(node, list):
        return [c for v in node for c in tagged_cells(v)]
    return []


def test_quadrature_decompositions_tag_every_derived_cell(configs, tmp_path,
                                                         monkeypatch):
    # every integral of an engine is a tensor Gauss rule, so every cell
    # derived from its decompositions carries the quadrature tag
    vds = [VarianceDecomposition(measure=nm, total=1.0, mean=0.0,
                                 terms={(1,): s1, (2,): 0.3, (3,): 0.7 - s1},
                                 residual=0.0, n=3)
           for nm, s1 in (("mu1", 0.1), ("mu2", 0.2), ("mu3", 0.4))]
    monkeypatch.setattr(cli, "component_engines", lambda mset, model: [
        SimpleNamespace(variance_decomposition=lambda vd=vd: vd) for vd in vds])
    code = run(["--model", "ishigami", "--measures", configs["noprior"],
                "--sections", "measures", "robust", "dimension",
                "--out", str(tmp_path)])
    assert code == 0
    rep = load_report(tmp_path)
    for section in ("measures", "robust", "dimension"):
        cells = tagged_cells(rep[section])
        assert cells and {(c["mode"], c["tol"]) for c in cells} \
            == {("quadrature", 1e-9)}, section


MULTILINEAR4_YAML = """\
n: 4
factors: [[0.5, 1.0], [0.0, 1.0, 0.5], [1.0, -0.3], [0.2, 0.0, 1.0]]
terms: [[1, 2], [2, 3], [1, 3, 4], [4]]
coeffs: [1.0, 0.7, 1.3, 0.4]
"""

TWO_MEASURES4_YAML = """\
n: 4
measures:
  - name: flat
    components:
      - {family: uniform, params: {lo: -1.0, hi: 2.0}}
      - {family: uniform, params: {lo: 0.0, hi: 1.0}}
      - {family: uniform, params: {lo: -1.0, hi: 1.0}}
      - {family: uniform, params: {lo: 0.0, hi: 2.0}}
  - name: bell
    components:
      - {family: normal, params: {mean: 0.5, sd: 0.8}}
      - {family: normal, params: {mean: 0.5, sd: 0.3}}
      - {family: normal, params: {mean: 0.0, sd: 0.5}}
      - {family: normal, params: {mean: 1.0, sd: 0.5}}
prior: [0.4, 0.6]
"""


# the 4-input model with a fifth input in the term 0.5 (0.2 + x4^2) x5
MULTILINEAR5_YAML = """\
n: 5
factors: [[0.5, 1.0], [0.0, 1.0, 0.5], [1.0, -0.3], [0.2, 0.0, 1.0], [0.0, 1.0]]
terms: [[1, 2], [2, 3], [1, 3, 4], [4], [4, 5]]
coeffs: [1.0, 0.7, 1.3, 0.4, 0.5]
"""

FIVE_MEASURES5_YAML = """\
n: 5
measures:
  - name: flat
    components:
      - {family: uniform, params: {lo: -1.0, hi: 2.0}}
      - {family: uniform, params: {lo: 0.0, hi: 1.0}}
      - {family: uniform, params: {lo: -1.0, hi: 1.0}}
      - {family: uniform, params: {lo: 0.0, hi: 2.0}}
      - {family: uniform, params: {lo: -1.0, hi: 1.0}}
  - name: bell
    components:
      - {family: normal, params: {mean: 0.5, sd: 0.8}}
      - {family: normal, params: {mean: 0.5, sd: 0.3}}
      - {family: normal, params: {mean: 0.0, sd: 0.5}}
      - {family: normal, params: {mean: 1.0, sd: 0.5}}
      - {family: normal, params: {mean: 0.0, sd: 1.0}}
  - name: left
    components:
      - {family: uniform, params: {lo: -1.0, hi: 0.5}}
      - {family: normal, params: {mean: 0.2, sd: 0.3}}
      - {family: uniform, params: {lo: -1.0, hi: 0.0}}
      - {family: normal, params: {mean: 0.5, sd: 0.5}}
      - {family: uniform, params: {lo: 0.0, hi: 1.0}}
  - name: right
    components:
      - {family: normal, params: {mean: 1.0, sd: 0.5}}
      - {family: uniform, params: {lo: 0.5, hi: 1.0}}
      - {family: normal, params: {mean: 0.5, sd: 0.3}}
      - {family: uniform, params: {lo: 1.0, hi: 2.0}}
      - {family: normal, params: {mean: 0.5, sd: 0.5}}
  - name: wide
    components:
      - {family: uniform, params: {lo: -2.0, hi: 3.0}}
      - {family: uniform, params: {lo: -1.0, hi: 2.0}}
      - {family: normal, params: {mean: 0.0, sd: 1.0}}
      - {family: uniform, params: {lo: -1.0, hi: 3.0}}
      - {family: normal, params: {mean: 0.0, sd: 2.0}}
prior: [0.3, 0.2, 0.2, 0.2, 0.1]
"""


def _counted_evaluations(monkeypatch):
    """A list that gets (caller, points) for every model call from now on."""
    points = []
    evaluate = anova._evaluate

    def counted(model, x):
        points.append((sys._getframe(1).f_code.co_name, len(x)))
        return evaluate(model, x)

    monkeypatch.setattr(anova, "_evaluate", counted)
    return points


def test_a_four_input_prior_run_matches_the_closed_form(tmp_path,
                                                        monkeypatch):
    # the engines' 64^4 grids do not fit: each settles on one that does,
    # and its effects at points are read off its tables; the mixture-curve rows
    # outside flat's supports, 32 to 38 a side, are read off a Legendre
    # table of 8 direct rows a side (8 tables, 1,152 points)
    (tmp_path / "model.yaml").write_text(MULTILINEAR4_YAML)
    (tmp_path / "measures.yaml").write_text(TWO_MEASURES4_YAML)
    out = tmp_path / "out"
    points = _counted_evaluations(monkeypatch)
    assert run(["--model", str(tmp_path / "model.yaml"), "--measures",
                str(tmp_path / "measures.yaml"), "--prior",
                "--out", str(out)]) == 0
    # each engine sweeps the probe's 8^4 points, then its caps: 4 x 5 x 4 x 5
    assert sum(k for c, k in points if c == "_sweep") == 2 * (8**4 + 400)
    assert sum(k for _, k in points) == 10_144
    rep = load_report(out)
    model = resolve_model(str(tmp_path / "model.yaml"))
    mset = load_measure_set(str(tmp_path / "measures.yaml"))
    for name, measure in zip(mset.names, mset.measures):
        exact = {z: model.exact_term_variance(measure, z)
                 for z in all_subsets(4)}
        total = sum(exact.values())
        cells = rep["measures"][name]
        assert cells["variance"]["value"] == pytest.approx(total, abs=1e-9)
        for z, v in exact.items():
            label = subset_label(z)
            assert cells["terms"][label]["value"] == pytest.approx(v, abs=1e-9)
            assert cells["sobol"][label]["value"] \
                == pytest.approx(v / total, abs=1e-9)


def test_a_five_input_prior_run_matches_the_closed_form(tmp_path,
                                                        monkeypatch):
    # the engines' 64^5 grids do not fit; each settles from the opening
    # rungs of 8 nodes, then 16; the mixture-curve rows outside a
    # uniform support, 14 to 72 a side, are read off a Legendre table of 8
    # direct rows a side (23 tables, 6,352 points)
    (tmp_path / "model.yaml").write_text(MULTILINEAR5_YAML)
    (tmp_path / "measures.yaml").write_text(FIVE_MEASURES5_YAML)
    out = tmp_path / "out"
    points = _counted_evaluations(monkeypatch)
    assert run(["--model", str(tmp_path / "model.yaml"), "--measures",
                str(tmp_path / "measures.yaml"), "--prior",
                "--out", str(out)]) == 0
    # each engine sweeps the probe's 8^5 points, then its caps:
    # 4 x 5 x 4 x 5 x 4
    assert sum(k for c, k in points if c == "_sweep") == 5 * (8**5 + 1600)
    assert sum(k for _, k in points) == 178_192
    rep = load_report(out)
    model = resolve_model(str(tmp_path / "model.yaml"))
    mset = load_measure_set(str(tmp_path / "measures.yaml"))
    for name, measure in zip(mset.names, mset.measures):
        exact = {z: model.exact_term_variance(measure, z)
                 for z in all_subsets(5)}
        total = sum(exact.values())
        cells = rep["measures"][name]
        assert cells["variance"]["value"] == pytest.approx(total, abs=1e-9)
        # beyond four inputs a decomposition stops at pairs
        kept = all_subsets(5, max_order=2)
        assert set(cells["terms"]) == {subset_label(z) for z in kept}
        for z in kept:
            assert cells["terms"][subset_label(z)]["value"] \
                == pytest.approx(exact[z], abs=1e-9), (name, z)
        assert cells["residual"]["value"] == pytest.approx(
            total - sum(exact[z] for z in kept), abs=1e-9)


def test_a_prior_run_makes_the_measured_number_of_model_evaluations(
        tmp_path, monkeypatch):
    # each engine sweeps the probe of 8 nodes, 16 with x3 at 7 nodes, and
    # the rung its coefficient decay predicts (mu1 21 x 29 x 7, mu2
    # 27 x 45 x 7, mu3 14 x 21 x 7, x1 of mu3 at its cap of 14 from 16):
    # 21,738 points; the mixture-curve rows outside a uniform measure's
    # support, 14 or 64 on a side, are read off a Legendre table over the
    # side's rows (``_read_outside``), from a probe of 8 direct rows and, where its
    # tail is not resolved and its decay predicts fewer rows than the side
    # has, one more sweep at that count (11 on mu1's x1, 13 on mu1's x2, 10
    # on mu3's x1 and 13 on its x2 past pi, 17 on mu3's x1 and 22 on its x2
    # below 0), and every table accepts all its rows; the table nodes, and
    # the 6 outer rows a side of mu2's x2 curve that its settled table
    # rejects, take the direct integral by the pair of lower rules,
    # ceil(cap / 2) and one node fewer on each axis the settled rung
    # resolves, and agree there, so none takes the settled nodes: 20,585
    cfg = tmp_path / "measures.yaml"
    cfg.write_text(ref.MEASURES_YAML)
    points = _counted_evaluations(monkeypatch)
    assert main(["analyze", "--model", "ishigami", "--measures", str(cfg),
                 "--prior", "--out", str(tmp_path / "out")]) == 0
    by_caller = {}
    for caller, size in points:
        by_caller[caller] = by_caller.get(caller, 0) + size
    assert by_caller == {"_sweep": 21_738,
                         "conditional_mean": 20_585}
    assert sum(by_caller.values()) == 42_323


def test_a_cores_run_makes_no_model_evaluation(configs, tmp_path,
                                               monkeypatch):
    # the signatures are factor means; no section read here needs an engine
    points = []
    evaluate = anova._evaluate
    monkeypatch.setattr(anova, "_evaluate", lambda model, x: (
        points.append(len(x)), evaluate(model, x))[1])
    out = tmp_path / "out"
    assert run(["--model", "ishigami", "--measures", configs["noprior"],
                "--sections", "cores", "--out", str(out)]) == 0
    assert points == []
    assert load_report(out)["cores"]["groups"] == [["mu1"], ["mu2"], ["mu3"]]


class TestDeterminism:
    def test_reports_are_byte_identical_across_workers(self, configs,
                                                       tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run(["--model", "ishigami", "--measures", configs["prior"],
                        "--prior", "--out", str(out)])
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_mc_rerun_is_byte_identical(self, configs, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run(["--model", "ishigami", "--measures", configs["prior"],
                        "--estimator", "pickfreeze", "--n", "1024",
                        "--seed", "7", "--out", str(out)])
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]


def test_a_prior_run_computes_each_gauss_rule_once(tmp_path, monkeypatch):
    # the rungs each engine sweeps (the probe of 8 nodes, 16, and the
    # counts its coefficient decay predicts: uniform mu1 21 and 29, normal
    # mu2 27 and 45, uniform mu3 21), the caps of the axes a rung resolves
    # (x3 at 7 on all three, mu3's x1 at 14), the pairs of lower rules of
    # the direct curve rows
    # (uniform 3, 4, 6, 9, 10, 11 and 13: half of mu1's and mu3's caps at
    # the settled rung, and one fewer; normal 3, 4, 12 and 13 for mu2's
    # outer x2 rows, from its caps of 26 on x1 and 7 on x3), the tables of
    # the curve rows outside a uniform support (their probe of 8, and 10,
    # 11, 13, 17 and 22 nodes where the probe's decay predicts them),
    # and the order 64 it was built at, which the core signatures and the
    # restricted defect rules reuse: they make no rule of their own, and the
    # k = j defect terms are read off the engines' own tables
    cfg = tmp_path / "measures.yaml"
    cfg.write_text(ref.MEASURES_YAML)
    computed = []
    for module, name in ((np.polynomial.legendre, "leggauss"),
                         (np.polynomial.hermite, "hermgauss")):
        def counted(order, rule=getattr(module, name), name=name):
            computed.append((name, order))
            return rule(order)
        monkeypatch.setattr(module, name, counted)
    measures._gauss_rule.cache_clear()
    try:
        assert main(["analyze", "--model", "ishigami", "--measures", str(cfg),
                     "--prior", "--out", str(tmp_path / "out")]) == 0
    finally:
        measures._gauss_rule.cache_clear()
    assert sorted(computed) == [("hermgauss", 3), ("hermgauss", 4),
                                ("hermgauss", 7), ("hermgauss", 8),
                                ("hermgauss", 12), ("hermgauss", 13),
                                ("hermgauss", 16),
                                ("hermgauss", 27), ("hermgauss", 45),
                                ("hermgauss", 64),
                                ("leggauss", 3), ("leggauss", 4),
                                ("leggauss", 6), ("leggauss", 7),
                                ("leggauss", 8),
                                ("leggauss", 9), ("leggauss", 10),
                                ("leggauss", 11), ("leggauss", 13),
                                ("leggauss", 14),
                                ("leggauss", 16), ("leggauss", 17),
                                ("leggauss", 21), ("leggauss", 22),
                                ("leggauss", 29), ("leggauss", 64)]
    assert len(computed) <= measures._gauss_rule.cache_info().maxsize


class TestEstimatorModes:
    def test_pickfreeze(self, configs, tmp_path):
        code = run(["--model", "ishigami", "--measures", configs["prior"],
                    "--estimator", "pickfreeze", "--n", "4096",
                    "--out", str(tmp_path)])
        assert code == 0
        rep = load_report(tmp_path)
        mu1 = rep["measures"]["mu1"]
        assert mu1["method"] == "pickfreeze"
        assert mu1["n_evals"] == 4096 * 5
        cell = mu1["first_order"]["x1"]
        assert cell["value"] == pytest.approx(ref.SOBOL["mu1"][(1,)], abs=0.05)
        assert "se" in cell and "raw" in cell
        assert "total_order" in mu1
        assert rep["robust"]["estimated_mode"] is True

    def test_bruteforce(self, configs, tmp_path):
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", "bruteforce", "--n", "40000",
                    "--sections", "measures", "--out", str(tmp_path)])
        assert code == 0
        mu1 = load_report(tmp_path)["measures"]["mu1"]
        assert mu1["method"] == "bruteforce"
        assert mu1["n_evals"] == 3 * 200 * 200
        assert "total_order" not in mu1

    def test_givendata_writes_samples(self, configs, tmp_path):
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", "givendata", "--n", "2048",
                    "--out", str(tmp_path)])
        assert code == 0
        for m in ("mu1", "mu2", "mu3"):
            assert (tmp_path / f"sample_{m}.csv").exists()
            assert (tmp_path / f"sample_{m}.csv.meta.json").exists()
        rep = load_report(tmp_path)
        assert rep["measures"]["mu2"]["method"] == "givendata"

    def test_reweight_reuses_one_base_sample(self, configs, tmp_path):
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", "reweight", "--n", "8192",
                    "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sample_mu1.csv").exists()
        assert not (tmp_path / "sample_mu2.csv").exists()
        rep = load_report(tmp_path)
        assert rep["measures"]["mu1"]["method"] == "givendata"
        assert rep["measures"]["mu2"]["method"] == "reweighted"
        assert rep["measures"]["mu2"]["first_order"]["x2"]["value"] \
            == pytest.approx(ref.SOBOL["mu2"][(2,)], abs=0.08)

    def test_reweighted_entries_carry_the_kish_ess(self, configs, tmp_path):
        argv = ["--model", "ishigami", "--measures", configs["noprior"],
                "--estimator", "reweight", "--n", "512", "--sections",
                "measures"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--out", str(tmp_path / "b")]) == 0
        text = (tmp_path / "a" / "report.json").read_bytes()
        assert text == (tmp_path / "b" / "report.json").read_bytes()
        measures = json.loads(text)["measures"]
        # the base sample, as drawn
        assert not {"ess", "uncovered"} & set(measures["mu1"])
        # mu2's mass outside mu1's box; mu3's box lies inside it
        assert measures["mu2"]["uncovered"] == pytest.approx(
            0.005032483364918905, abs=1e-12)
        assert measures["mu3"]["uncovered"] == 0.0
        reg = ishigami_measures()
        base = read_sample(tmp_path / "a" / "sample_mu1.csv")
        base.measure = reg["mu1"]
        for name in ("mu2", "mu3"):
            w = reg[name].density(base.x) / reg["mu1"].density(base.x)
            assert measures[name]["ess"] == w.sum() ** 2 / (w ** 2).sum()
            assert 0 < measures[name]["ess"] <= 512

    def test_a_read_back_sample_reports_what_the_write_run_did(
            self, configs, tmp_path):
        # the uncovered mass comes from the measures, the rest from the rows
        assert run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", "reweight", "--n", "512", "--sections",
                    "measures", "--out", str(tmp_path / "w")]) == 0
        assert run(["--model", str(tmp_path / "w" / "sample_mu1.csv"),
                    "--measures", configs["noprior"], "--estimator",
                    "reweight", "--out", str(tmp_path / "r")]) == 0
        written, read = (load_report(tmp_path / d)["measures"]
                         for d in ("w", "r"))
        assert read == written and read["mu2"]["uncovered"] > 0.005

    def test_the_reweight_loop_holds_little_beyond_the_sample(self, configs,
                                                              monkeypatch):
        # one 2^16-row sample under mu1, reweighted to mu2 and mu3: beyond
        # its own x and y the loop holds the int32 orders, the weights and
        # the (y - m)^2 column of the weighted moments, 0.91 times the
        # sample; densities and gathered columns are taken one block of
        # rows at a time, and 2^16 rows of three inputs are four blocks
        # (whole-column densities and gathers make it 1.16, copies of the
        # sample 2.0, float64 orders alone 1.4 to 1.5).  The file write is
        # left out; its memory is one block (test_report.py).
        monkeypatch.setattr(cli, "write_sample", lambda sample, path: path)
        mset = load_measure_set(configs["noprior"])
        args = SimpleNamespace(estimator="reweight", n=1024, seed=3, out="")
        cli._estimates("model", IshigamiModel(), mset, args)   # first use
        args.n = 2**16
        tracemalloc.start()
        try:
            _, ests, _ = cli._estimates("model", IshigamiModel(), mset, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.method for e in ests] == ["givendata", "reweighted",
                                            "reweighted"]
        sample = 2**16 * (3 + 1) * 8
        assert peak - sample <= 0.96 * sample

    @pytest.mark.parametrize("estimator", ["givendata", "reweight"])
    def test_robust_cells_of_estimates_are_mc(self, configs, tmp_path,
                                              estimator):
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", estimator, "--n", "64",
                    "--sections", "measures", "robust",
                    "--out", str(tmp_path)])
        assert code == 0
        robust = load_report(tmp_path)["robust"]
        cells = tagged_cells([robust["s_lo"], robust["s_hi"]])
        assert len(cells) == 6
        assert {(c["mode"], c["tol"]) for c in cells} == {("MC", 0.05)}


@pytest.mark.parametrize("estimator,from_file", [
    pytest.param("pickfreeze", False, id="pickfreeze-model"),
    pytest.param("bruteforce", False, id="bruteforce-model"),
    pytest.param("givendata", False, id="givendata-model"),
    pytest.param("reweight", False, id="reweight-model"),
    pytest.param("givendata", True, id="givendata-file"),
    pytest.param("reweight", True, id="reweight-file")])
def test_robust_alone_matches_robust_with_measures(configs, tmp_path,
                                                   estimator, from_file):
    # the robust section reads the same per-measure estimates whether or not
    # the measures section is asked for, and the same samples back them
    model = "ishigami"
    if from_file:
        model = str(tmp_path / "runs.csv")
        write_sample(generate_sample(IshigamiModel(), ishigami_measures()["mu1"],
                                     1024, seed=ref.SEED_GIVEN_DATA), model)
    reports, samples = [], []
    for tag, sections in (("alone", ["robust"]),
                          ("both", ["measures", "robust"])):
        out = tmp_path / tag
        code = run(["--model", model, "--measures", configs["noprior"],
                    "--estimator", estimator, "--n", "1024", "--seed", "3",
                    "--sections", *sections, "--out", str(out)])
        assert code == 0
        reports.append(load_report(out))
        samples.append({p.name: p.read_bytes()
                        for p in sorted(out.glob("sample_*"))})
    assert "measures" not in reports[0]
    assert reports[0]["robust"] == reports[1]["robust"]
    assert samples[0] == samples[1]
    assert bool(samples[0]) == (estimator in ("givendata", "reweight")
                                and not from_file)


class TestSampleFileMode:
    @pytest.fixture()
    def sample_csv(self, tmp_path):
        reg = ishigami_measures()
        sample = generate_sample(IshigamiModel(), reg["mu1"], 4096,
                                 seed=ref.SEED_GIVEN_DATA)
        path = tmp_path / "runs.csv"
        write_sample(sample, path)
        return str(path)

    def test_givendata_from_file(self, configs, sample_csv, tmp_path):
        out = tmp_path / "out"
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--estimator", "givendata", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert list(rep["measures"]) == ["mu1"]  # named by the sidecar
        assert rep["measures"]["mu1"]["first_order"]["x2"]["value"] \
            == pytest.approx(ref.SOBOL["mu1"][(2,)], abs=0.05)
        assert rep["config"]["sections"] == ["measures", "robust"]

    def test_reweight_from_file_covers_the_set(self, configs, sample_csv,
                                               tmp_path):
        out = tmp_path / "out"
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--estimator", "reweight", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert set(rep["measures"]) == {"mu1", "mu2", "mu3"}
        assert rep["measures"]["mu3"]["method"] == "reweighted"

    def test_reweight_needs_a_known_base(self, configs, sample_csv, tmp_path,
                                         capsys):
        meta = sample_csv + ".meta.json"
        with open(meta) as fh:
            blob = json.load(fh)
        blob["measure"] = "mystery"
        with open(meta, "w") as fh:
            json.dump(blob, fh)
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--estimator", "reweight", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "not in the measures file" in capsys.readouterr().err

    def test_reweight_needs_the_sidecar(self, configs, sample_csv, tmp_path,
                                        capsys):
        # with no sidecar nothing names the measure the sample was drawn from
        os.remove(sample_csv + ".meta.json")
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--estimator", "reweight", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "needs the sidecar's measure tag" in capsys.readouterr().err

    def test_quad_estimator_rejects_sample_input(self, configs, sample_csv,
                                                 tmp_path, capsys):
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "executable model" in capsys.readouterr().err

    def test_quad_estimator_rejects_sample_input_for_robust(
            self, configs, sample_csv, tmp_path, capsys):
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--sections", "robust", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "executable model" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_inapplicable_sections_warn_but_run(self, configs, sample_csv,
                                                tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["--model", sample_csv, "--measures", configs["noprior"],
                    "--estimator", "givendata",
                    "--sections", "measures", "cores", "--out", str(out)])
        assert code == 0
        assert "cores" in capsys.readouterr().err
        assert "cores" not in load_report(out)

    def test_the_config_lists_only_the_sections_run(self, configs, sample_csv,
                                                   tmp_path):
        # the gate drops mixture, trend and cores before the config is built
        out = tmp_path / "o"
        code = run(["--model", sample_csv, "--measures", configs["prior"],
                    "--estimator", "givendata", "--sections", "measures",
                    "trend", "cores", "--prior", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        sections = sorted(set(rep) - {"schema_version", "tool", "config"})
        assert rep["config"]["sections"] == sections == ["measures"]


class TestFailureModes:
    def test_mixture_without_prior_is_a_config_error(self, configs, tmp_path,
                                                     capsys):
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--prior", "--out", str(tmp_path)])
        assert code == 2
        assert "prior required" in capsys.readouterr().err

    def test_missing_sample_file(self, configs, tmp_path):
        code = run(["--model", str(tmp_path / "ghost.csv"),
                    "--measures", configs["noprior"],
                    "--estimator", "givendata", "--out", str(tmp_path)])
        assert code == 3

    def test_malformed_sample_file(self, configs, tmp_path, capsys):
        rows = "".join(f"{k},{k % 3},{k % 5},{k}\n" for k in range(20))
        # the last two: bytes that are not UTF-8, in the header and a row
        for text, where in ((b"x1,x2,x3,g\n1,2\n", "row 2"),
                            (f"x1,x2,x3,g\n{rows}1,2,3,nan\n".encode(), "row 22"),
                            (f"x1,x2,x3,g\n{rows}inf,2,3,4\n".encode(), "row 22"),
                            (b"\xff\xfex1,x2,x3,g\n" + rows.encode(), "header"),
                            (b"x1,x2,x3,g\n\xff\xfe,1,2,3\n", "row 2")):
            bad = tmp_path / "bad.csv"
            bad.write_bytes(text)
            code = run(["--model", str(bad), "--measures", configs["noprior"],
                        "--estimator", "givendata", "--out", str(tmp_path)])
            assert code == 3
            err = capsys.readouterr().err
            assert "data error" in err and where in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("meta,rows,estimator,where", [
        pytest.param("[1, 2]", 64, "givendata", "meta.json",
                     id="sidecar-list"),
        pytest.param('{"measure": 5}', 64, "givendata", "meta.json",
                     id="sidecar-measure-number"),
        pytest.param('{"measure": ["mu1"]}', 64, "givendata", "meta.json",
                     id="sidecar-measure-list"),
        pytest.param('{"measure": "\xff"}', 64, "givendata", "meta.json",
                     id="sidecar-not-utf8"),
        pytest.param('{"measure": "mu1", "count": 64, "n": 2}', 64,
                     "givendata", "3 inputs, but its sidecar says n 2",
                     id="sidecar-n-2"),
        pytest.param('{"measure": "mu1"}', 5, "givendata", "5 rows, below 10",
                     id="five-rows-givendata"),
        pytest.param('{"measure": "mu1"}', 5, "reweight", "5 rows, below 10",
                     id="five-rows-reweight")])
    def test_malformed_sample_is_a_data_error(self, configs, tmp_path, capsys,
                                              meta, rows, estimator, where):
        path = tmp_path / "sample_mu1.csv"
        write_sample(generate_sample(IshigamiModel(),
                                     ishigami_measures()["mu1"], rows, seed=1),
                     path)
        # latin-1: each character one byte, so "\xff" is not UTF-8
        (tmp_path / "sample_mu1.csv.meta.json").write_bytes(
            meta.encode("latin-1"))
        code = run(["--model", str(path), "--measures", configs["noprior"],
                    "--estimator", estimator, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and where in err and "Traceback" not in err

    @pytest.mark.parametrize("x1,code", [(30.0, 0), (38.0, 4)])
    def test_a_weight_beyond_the_float_range_ends_in_no_traceback(
            self, tmp_path, capsys, x1, code):
        # the density ratio at x1 = 30 is about 8e193, whose square
        # overflows; at x1 = 38 the ratio itself does
        (tmp_path / "m.yaml").write_text(TAIL_YAML)
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.standard_normal(200), rng.random(200)])
        x[7, 0] = x1
        path = write_sample(EvaluatedSample(x=x, y=x[:, 0] + x[:, 1] ** 2,
                                            measure_name="base"),
                            tmp_path / "s.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run(["--model", path, "--measures", str(tmp_path / "m.yaml"),
                       "--estimator", "reweight", "--out",
                       str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert got == code and "Traceback" not in err
        if code:    # the ratio's overflow is the error, not a warning too
            assert not caught
            assert "numeric error: non-finite importance weight" in err
        else:
            assert len(caught) == 1 and str(caught[0].message).startswith(
                "effective sample size 1.0 below 50")
            assert load_report(tmp_path / "o")["measures"]["wide"]["ess"] \
                == 1.0

    @pytest.mark.parametrize("scale,cause", [
        (1e160, "total variance V = 0.06675375837143942 * 2**1064 overflows "
                "a float"),
        (1e-200, "total variance V = 0.0 is numerically zero or below the "
                 "float range")], ids=["overflow", "underflow"])
    def test_a_variance_beyond_the_float_range_is_a_numeric_error(
            self, tmp_path, capsys, scale, cause):
        # s (x1 + x2 x3) on U(0, 1)^3: the engine settles on the grid of
        # s = 1 and decomposes it; only V itself leaves the float range
        (tmp_path / "g.yaml").write_text(
            "n: 3\nfactors: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]\n"
            f"terms: [[1], [2, 3]]\ncoeffs: [{scale!r}, {scale!r}]\n")
        (tmp_path / "m.yaml").write_text(
            "n: 3\nmeasures:\n  - name: cube\n    components:\n"
            + "      - {family: uniform, params: {lo: 0.0, hi: 1.0}}\n" * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(["--model", str(tmp_path / "g.yaml"), "--measures",
                       str(tmp_path / "m.yaml"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert got == 4
        assert err == f"numeric error: measure 'cube': {cause}\n"

    @pytest.mark.parametrize("estimator,cause", [
        ("reweight", "target 'wide', largest weight 6.03e+307, largest |g| 5"),
        ("givendata", "the sample as drawn, largest |g| 1e+200")],
        ids=["reweight", "givendata"])
    def test_moments_beyond_the_float_range_are_a_numeric_error(
            self, tmp_path, capsys, estimator, cause):
        # toward wide, two weights of about 6e307 (x1 = ±37.74) times g = 5
        # and 4 overflow, and as drawn the square of g = 1e200 does
        (tmp_path / "m.yaml").write_text(TAIL_YAML)
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.standard_normal(200), rng.random(200)])
        y = x[:, 0] + x[:, 1] ** 2
        x[[7, 8], 0], y[[7, 8]] = (37.74, -37.74), (5.0, 4.0)
        if estimator == "givendata":
            y[3] = 1e200
        path = write_sample(EvaluatedSample(x=x, y=y, measure_name="base"),
                            tmp_path / "s.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(["--model", path, "--measures", str(tmp_path / "m.yaml"),
                       "--estimator", estimator, "--out",
                       str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert got == 4 and "Traceback" not in err
        assert err == ("numeric error: the moments of g leave the float "
                       f"range ({cause})\n")

    def test_a_truncated_sample_is_a_data_error(self, configs, tmp_path,
                                                capsys):
        # its sidecar still says 1024 rows; the first 500 are left
        path = tmp_path / "sample_mu1.csv"
        write_sample(generate_sample(IshigamiModel(),
                                     ishigami_measures()["mu1"], 1024, seed=1),
                     path)
        path.write_bytes(b"".join(path.read_bytes().splitlines(True)[:501]))
        code = run(["--model", str(path), "--measures", configs["noprior"],
                    "--estimator", "reweight", "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert "500 rows, but its sidecar says count 1024" in err

    def test_a_range_process_that_dies_is_a_data_error(self, configs,
                                                       tmp_path, capsys,
                                                       split_tables,
                                                       monkeypatch):
        path = tmp_path / "sample_mu1.csv"
        write_sample(generate_sample(IshigamiModel(),
                                     ishigami_measures()["mu1"], 64, seed=1),
                     path)
        split_tables(2)
        monkeypatch.setattr(report, "_run_child",
                            lambda job, fd, pipes: os._exit(5))
        code = run(["--model", str(path), "--measures", configs["noprior"],
                    "--estimator", "givendata", "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "exit status 5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("estimator", ["givendata", "reweight"])
    def test_an_estimation_process_that_dies_is_a_data_error(
            self, configs, tmp_path, capsys, split_tables, monkeypatch,
            estimator):
        # the sample is read in ranges as usual; only the processes that
        # estimate a range of its inputs die
        path = tmp_path / "sample_mu1.csv"
        write_sample(generate_sample(IshigamiModel(),
                                     ishigami_measures()["mu1"], 64, seed=1),
                     path)
        forks = split_tables(2)
        run_child = report._run_child

        def dying(job, fd, pipes):
            if "_binned_first_order" in job.func.__qualname__:
                os._exit(5)
            run_child(job, fd, pipes)

        monkeypatch.setattr(report, "_run_child", dying)
        code = run(["--model", str(path), "--measures", configs["noprior"],
                    "--estimator", estimator, "--out", str(tmp_path / "o")])
        assert code == 3 and len(forks) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "exit status 5" in err
        assert "Traceback" not in err

    def test_dimension_mismatch(self, configs, tmp_path):
        bad = tmp_path / "narrow.csv"
        bad.write_text("x1,g\n0.5,1.0\n0.6,2.0\n")
        code = run(["--model", str(bad), "--measures", configs["noprior"],
                    "--estimator", "givendata", "--out", str(tmp_path)])
        assert code == 3

    def test_constant_model_is_a_numeric_error(self, configs, tmp_path,
                                               capsys):
        only_mu1 = tmp_path / "mu1.yaml"
        only_mu1.write_text(MEASURES_YAML.split("  - name: mu2")[0])
        # rounding leaves V = 5.55e-17 for the constant 0.7 under mu1
        for coeff, measures in (("2.0", configs["noprior"]),
                                ("0.7", str(only_mu1))):
            model = tmp_path / "flat.yaml"
            model.write_text("n: 3\nfactors: [[1.0], [1.0], [1.0]]\n"
                             f"terms: [[1]]\ncoeffs: [{coeff}]\n")
            code = run(["--model", str(model), "--measures", measures,
                        "--out", str(tmp_path / "o")])
            assert code == 4
            err = capsys.readouterr().err
            assert "numeric error" in err and "Traceback" not in err

    def test_no_grid_that_fits_is_a_config_error(self, tmp_path, capsys):
        # nine continuous inputs: neither 64^9 nor 6^9 points fit
        unit = "{family: uniform, params: {lo: 0.0, hi: 1.0}}"
        (tmp_path / "measures.yaml").write_text(
            "n: 9\nmeasures:\n  - name: unit\n    components:\n"
            + f"      - {unit}\n" * 9)
        (tmp_path / "model.yaml").write_text(
            "n: 9\nfactors: " + str([[0.0, 1.0]] * 9)
            + "\nterms: " + str([[i] for i in range(1, 10)]) + "\n")
        out = tmp_path / "o"
        code = run(["--model", str(tmp_path / "model.yaml"), "--measures",
                    str(tmp_path / "measures.yaml"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "no tensor grid" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("estimator", ["quad", "pickfreeze", "givendata"])
    def test_non_finite_model_output(self, configs, tmp_path, capsys,
                                     estimator):
        # (1e300 x1)(1e300 x2) overflows to inf almost everywhere
        model = tmp_path / "overflow.yaml"
        model.write_text("n: 3\nfactors: [[0.0, 1.0e300], [0.0, 1.0e300], "
                         "[1.0]]\nterms: [[1, 2]]\n")
        out = tmp_path / "o"
        code = run(["--model", str(model), "--measures", configs["noprior"],
                    "--estimator", estimator, "--n", "64",
                    "--sections", "measures", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert not any(out.iterdir())     # rejected before any file

    def test_an_input_beyond_the_float_range_is_one_numeric_error(
            self, tmp_path, capsys):
        # x3^4 overflows at every node of U(-1e100, 1e100): the model's
        # overflow is reported once, with no numpy warning before it
        (tmp_path / "wide.yaml").write_text(
            MEASURES_YAML.split("  - name: mu2")[0].rsplit("      - ", 1)[0]
            + "      - {family: uniform, params: {lo: -1.0e100, hi: 1.0e100}}\n")
        code = run(["--model", "ishigami", "--measures",
                    str(tmp_path / "wide.yaml"), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "numeric error: model output is non-finite at 512 of 512 points")

    @pytest.mark.parametrize("model,measures,inputs", [
        ("ishigami", "n: 1\nmeasures:\n  - name: unit\n    components:\n"
         "      - {family: uniform, params: {lo: 0.0, hi: 1.0}}\n", (3, 1)),
        ("n: 2\nfactors: [[0.0, 1.0], [0.0, 1.0]]\nterms: [[1, 2]]\n",
         MEASURES_YAML, (2, 3)),
        ("n: 2\nfactors: [[0.0, 1.0], [0.0, 1.0]]\nterms: [[1, 2]]\n",
         TWO_MEASURES4_YAML, (2, 4))], ids=["3-on-1", "2-on-3", "2-on-4"])
    def test_a_model_of_another_input_count_is_a_config_error(
            self, tmp_path, capsys, model, measures, inputs):
        (tmp_path / "measures.yaml").write_text(measures)
        if model != "ishigami":
            (tmp_path / "model.yaml").write_text(model)
            model = str(tmp_path / "model.yaml")
        out = tmp_path / "o"
        code = run(["--model", model, "--measures",
                    str(tmp_path / "measures.yaml"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"has {inputs[0]} inputs, measures file declares {inputs[1]}" \
            in err and "config error" in err and "Traceback" not in err
        assert not out.exists()     # rejected before any work

    @pytest.mark.parametrize("estimator,n", [
        ("pickfreeze", 0), ("pickfreeze", 15), ("bruteforce", -5),
        ("givendata", 3), ("reweight", 9), ("quad", 0)])
    def test_budget_below_the_estimator_minimum(self, configs, tmp_path,
                                                capsys, estimator, n):
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", estimator, "--n", str(n),
                    "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())    # rejected before any work

    @pytest.mark.parametrize("estimator", cli.ESTIMATORS)
    def test_a_negative_seed_is_a_config_error(self, configs, tmp_path,
                                               capsys, estimator):
        # numpy's SeedSequence takes no negative entropy; quad uses no seed
        # but wrote -1 into the report
        out = tmp_path / "o"
        code = run(["--model", "ishigami", "--measures", configs["noprior"],
                    "--estimator", estimator, "--n", "64", "--seed", "-1",
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("measures,model", [
        pytest.param(MEASURES_YAML.replace("lo: 0.0", "lo: abc", 1), None,
                     id="lo-abc"),
        pytest.param(MEASURES_YAML.replace("n: 3", "n: abc"), None, id="n-abc"),
        pytest.param(MEASURES_YAML.replace("n: 3", "n: [1]"), None,
                     id="n-list"),
        pytest.param(MEASURES_YAML + "prior: [x]\n", None, id="prior-x"),
        pytest.param(MEASURES_YAML.replace("mean: 0.0", "mean: .inf", 1), None,
                     id="normal-mean-inf"),
        pytest.param(MEASURES_YAML.replace(PI_LO_HI, "{family: uniform, params: "
                                           "{lo: -1e308, hi: 1e308}}", 1),
                     None, id="uniform-width-overflows"),
        pytest.param(MEASURES_YAML, "n: 3\nfactors: [[1.0, a], [1.0], [1.0]]\n"
                     "terms: [[1]]\n", id="factor-coefficient-a"),
        pytest.param(MEASURES_YAML, "n: 3\nfactors: [[1.0], [1.0], [1.0]]\n"
                     "terms: [[1], [2]]\ncoeffs: [a, b]\n", id="coeffs-ab"),
        pytest.param(MEASURES_YAML, "n: 3\nfactors: [[1.0], [1.0], [1.0]]\n"
                     "terms: 5\n", id="terms-5"),
        pytest.param(MEASURES_YAML.replace("name: mu2", 'name: ""'), None,
                     id="empty-measure-name"),
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys,
                                                measures, model):
        path = tmp_path / "measures.yaml"
        path.write_text(measures)
        model_arg = "ishigami"
        if model is not None:
            model_arg = str(tmp_path / "model.yaml")
            (tmp_path / "model.yaml").write_text(model)
        out = tmp_path / "o"
        code = run(["--model", model_arg, "--measures", str(path),
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("model", ["ishigami:a=abc", "ishigami:a",
                                       "ishigami:a=inf", "ishigami:a=nan"])
    def test_bad_ishigami_parameter_is_a_config_error(self, configs, tmp_path,
                                                      capsys, model):
        out = tmp_path / "o"
        code = run(["--model", model, "--measures", configs["noprior"],
                    "--sections", "measures", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert "ishigami parameter a" in err
        assert not out.exists()

    def test_unknown_section_is_a_usage_error(self, configs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--model", "ishigami", "--measures", configs["noprior"],
                 "--sections", "vibes", "--out", str(tmp_path)])
        assert exc.value.code == 2


# -- fuzz: no YAML tree of measures ends in a traceback -----------------------

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["uniform", "normal", "mu1", "lo", "hi", "1e999", ""]))
_KEYS = st.sampled_from(["n", "prior", "measures", "name", "components",
                         "family", "params", "lo", "hi", "mean", "sd"])
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.dictionaries(st.one_of(_KEYS, st.text(max_size=3)), kids, max_size=4)),
    max_leaves=12)
def _mostly(valid):
    """``valid`` nine times in ten, and any tree in its place otherwise."""
    return st.integers(0, 9).flatmap(lambda k: _TREES if k == 9 else valid)


def _numbers(lo, hi):
    """Floats in [lo, hi] mostly, any float or int or tree otherwise."""
    return _mostly(st.one_of(st.floats(lo, hi), st.integers(-3, 3), st.floats(
        allow_nan=True, allow_infinity=True)))


_COMPONENTS = _mostly(st.one_of(
    st.fixed_dictionaries({"family": st.just("uniform"), "params":
                           st.fixed_dictionaries({"lo": _numbers(-9.0, 0.0),
                                                  "hi": _numbers(1.0, 9.0)})}),
    st.fixed_dictionaries({"family": st.just("normal"), "params":
                           st.fixed_dictionaries({"mean": _numbers(-9.0, 9.0),
                                                  "sd": _numbers(0.5, 9.0)})})))
_MEASURES = _mostly(st.fixed_dictionaries({
    "name": st.one_of(st.sampled_from(["mu1", "mu2", "mu3"]), _LEAVES),
    "components": _mostly(st.lists(_COMPONENTS, min_size=3, max_size=3))}))
_CONFIGS = _mostly(st.fixed_dictionaries(
    {"n": _mostly(st.just(3)),
     "measures": _mostly(st.lists(_MEASURES, min_size=1, max_size=3))},
    optional={"prior": _mostly(st.lists(_numbers(0.0, 1.0), max_size=4))}))


@settings(max_examples=300, deadline=None)
@given(tree=_CONFIGS)
@example(tree={"n": 3, "measures": [{"name": "wide", "components": [
    {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
    {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
    {"family": "uniform", "params": {"lo": -1.2e77, "hi": 1.0}}]}]})
def test_no_yaml_tree_of_measures_ends_in_a_traceback(tree):
    # the measures config as any YAML document: a cores run exits 0, or 2, 3
    # or 4 with its message and no report.  The example's core signature
    # overflows (E[1 + 0.1 x3^4] on a width of 1e77)
    import contextlib
    import io
    import tempfile

    import yaml

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "measures.yaml")
        with open(path, "w", encoding="utf8") as fh:
            yaml.safe_dump(tree, fh, allow_unicode=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run(["--model", "ishigami", "--measures", path,
                        "--sections", "cores", "--out",
                        os.path.join(tmp, "out")])
        assert code in (0, 2, 3, 4), code
        assert "Traceback" not in err.getvalue()
        if code:
            assert not os.path.exists(os.path.join(tmp, "out", "report.json"))
