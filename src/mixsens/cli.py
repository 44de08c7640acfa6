"""Batch command line: run a full analysis and emit a report plus CSVs.

    mixsens analyze --model ishigami --measures measures.yaml --prior \
        --out results/

loads the candidate measures, runs the requested sections (per-measure
variance decompositions, mixture split, robust ranking, dimension
distributions, trend checks, core detection), and writes one canonical JSON
report plus CSV plot data into the output directory.  Exit codes: 0 success,
2 configuration problem, 3 unreadable/malformed data, 4 numeric failure
(e.g. zero-variance model).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .anova import ZeroVarianceError, _combined_mode, subset_label
from .diagnostics import (dimension_bounds, dimension_distribution,
                          mixture_dimension_distribution, monotonicity_check,
                          robust_ranking)
from .estimators import (EstimationError, SampleFormatError,
                         brute_force_first_order, generate_sample,
                         given_data_indices, pick_freeze_indices, read_sample,
                         reweight, write_sample)
from .measures import ConfigError, SupportError, load_measure_set
from .mixture import (component_engines, mixture_annihilation_defect,
                      mixture_effect_curve, mixture_variance_decomposition)
from .models import core_partition, core_signature, resolve_model
from .report import (SCHEMA_VERSION, mc_qty, qty, quad_qty,
                     write_effect_curve_csv, write_indices_csv,
                     write_mixture_curve_csv, write_report)

ALL_SECTIONS = ("measures", "mixture", "robust", "dimension", "trend", "cores")
ESTIMATORS = ("quad", "bruteforce", "pickfreeze", "givendata", "reweight")
# smallest --n each estimator can work with (1 for the rest): pick-freeze
# needs 16 design rows, given data two bins of five points
MIN_N = {"pickfreeze": 16, "givendata": 10, "reweight": 10}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixsens",
        description="Variance-based sensitivity analysis under a set of "
                    "candidate input distributions.")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser(
        "analyze",
        help="run an analysis and write report.json plus CSV plot data")
    an.add_argument("--model", required=True,
                    help="built-in model name (e.g. 'ishigami', "
                         "'ishigami:a=7,b=0.1'), a model config file, or an "
                         "evaluated-sample CSV (given-data/reweight only)")
    an.add_argument("--measures", required=True,
                    help="measure-set config file (YAML/JSON)")
    an.add_argument("--prior", action="store_true",
                    help="run the with-prior (mixture) path; the measures "
                         "file must carry a prior")
    an.add_argument("--estimator", choices=ESTIMATORS, default="quad",
                    help="index estimator for the per-measure section "
                         "(default: quad = tensor quadrature)")
    an.add_argument("--n", type=int, default=8192,
                    help="MC budget: sample size for givendata/reweight, "
                         "design rows for pickfreeze, ~sqrt budget per loop "
                         "for bruteforce (default 8192)")
    an.add_argument("--seed", type=int, default=0,
                    help="seed for every stochastic step (default 0)")
    an.add_argument("--out", default="out", help="output directory")
    an.add_argument("--sections", nargs="+", choices=ALL_SECTIONS,
                    metavar="SECTION",
                    help=f"sections to compute (subset of "
                         f"{', '.join(ALL_SECTIONS)}); default: all that "
                         "apply to the model/estimator")
    an.set_defaults(func=cmd_analyze)
    return parser


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def _per_input(values, cell):
    """``{"x1": cell(values[0]), "x2": ...}``: one report cell per input."""
    return {f"x{i}": cell(v) for i, v in enumerate(values, 1)}


def _quad_measures_section(vds):
    out = {}
    for vd in vds:
        cell = partial(quad_qty, engine_mode=vd.mode)
        out[vd.measure] = {
            "mean": cell(vd.mean),
            "variance": cell(vd.total),
            "residual": cell(vd.residual),
            "terms": {subset_label(z): cell(v) for z, v in vd.terms.items()},
            "sobol": {subset_label(z): cell(v)
                      for z, v in vd.sobol_indices().items()},
            "first_order": _per_input(vd.first_order(), cell),
            "total_order": _per_input(vd.total_order(), cell),
        }
    return out


def _estimate_parts(est):
    """(kind, raw, clamped, se) for each kind of index an estimate carries."""
    parts = [("first", est.s, est.clamped_s, est.s_se)]
    if est.st is not None:
        parts.append(("total", est.st, est.clamped_st, est.st_se))
    return parts


def _estimate_entry(est):
    reweighted = est.method == "reweighted"

    def cell(item):
        raw, clamped, se = item
        out = mc_qty(clamped, se=se, reweighted=reweighted)
        out["raw"] = float(raw)
        if se is not None:
            out["se"] = float(se)
        return out

    entry = {"method": est.method, "n_evals": est.n_evals}
    if est.ess is not None:
        entry["ess"] = est.ess
    for kind, raw, clamped, se in _estimate_parts(est):
        ses = [None] * raw.size if se is None else se
        entry[f"{kind}_order"] = _per_input(zip(raw, clamped, ses), cell)
    return entry


def _indices_rows_from_vds(vds):
    rows = []
    for vd in vds:
        s, st = vd.first_order(), vd.total_order()
        for i in range(vd.n):
            for kind, v in (("first", s[i]), ("total", st[i])):
                cell = quad_qty(v, vd.mode)
                rows.append((vd.measure, i + 1, kind, cell["value"], None,
                             cell["mode"]))
    return rows


def _indices_rows_from_estimates(names, estimates):
    rows = []
    for name, est in zip(names, estimates):
        mode = "reweighted" if est.method == "reweighted" else "MC"
        for kind, _, clamped, se in _estimate_parts(est):
            for i, v in enumerate(clamped):
                rows.append((name, i + 1, kind, v,
                             None if se is None else se[i], mode))
    return rows


def _dimension_entry(dd, mode):
    return {
        "d_s": quad_qty(dd.d_s, mode),
        "d_t": quad_qty(dd.d_t, mode),
        "mass": {subset_label(z): quad_qty(m, mode)
                 for z, m in dd.masses.items()},
    }


def _dimension_section(vds):
    per = {vd.measure: _dimension_entry(dimension_distribution(vd), vd.mode)
           for vd in vds}
    lo_s, hi_s, lo_t, hi_t = dimension_bounds(vds)
    mode = _combined_mode(vds)
    return {
        "per_measure": per,
        "bounds": {"d_s": [quad_qty(lo_s, mode), quad_qty(hi_s, mode)],
                   "d_t": [quad_qty(lo_t, mode), quad_qty(hi_t, mode)]},
    }


def _mixture_section(engines, mset, vds, curves, outdir):
    prior = np.asarray(mset.prior)
    md = mixture_variance_decomposition(engines, prior)
    defects = [mixture_annihilation_defect(engines, prior, (i,))
               for i in range(1, mset.n + 1)]
    dd = mixture_dimension_distribution(prior, vds)
    mode = md.mode
    section = {
        "prior": [float(p) for p in prior],
        "mean": quad_qty(md.mixture_mean, mode),
        "component_means": {nm: quad_qty(m, mode)
                            for nm, m in zip(md.names, md.component_means)},
        "terms": {subset_label(z): quad_qty(v, mode)
                  for z, v in md.terms.items()},
        "residual": quad_qty(md.residual, mode),
        "structural": quad_qty(md.structural, mode),
        "between": quad_qty(md.between, mode),
        "total": quad_qty(md.total, mode),
        "structural_share": quad_qty(md.structural_share, mode),
        "defects": _per_input(defects, partial(quad_qty, engine_mode=mode)),
        "dimension": _dimension_entry(dd, mode),
    }
    files = [write_mixture_curve_csv(
        curve, os.path.join(outdir, f"effect_mixture_x{curve.input}.csv"))
        for curve in curves]
    return section, files


def _robust_section(names, s_matrix, ses, dims, cell):
    """Robust ranking; ``cell`` tags its numbers as the indices were made."""
    rr = robust_ranking(s_matrix, ses=ses, dims=dims)
    section = {
        "s_lo": _per_input(rr.s_lo, cell),
        "s_hi": _per_input(rr.s_hi, cell),
        "dominates": [[bool(v) for v in row] for row in rr.dominates],
        "blocks": [list(b) for b in rr.blocks],
        "most_important": rr.most_important,
        "least_important": rr.least_important,
        "estimated_mode": rr.estimated,
        "measures_considered": list(names),
    }
    if rr.d_s_bounds is not None:
        section["d_s_bounds"] = [cell(v) for v in rr.d_s_bounds]
        section["d_t_bounds"] = [cell(v) for v in rr.d_t_bounds]
    return section


def _verdict_entry(values):
    verdict = monotonicity_check(values)
    return {
        "verdict": verdict.verdict,
        "nondecreasing": verdict.nondecreasing,
        "nonincreasing": verdict.nonincreasing,
        "max_violation": qty(verdict.max_violation, "quadrature", verdict.tol),
    }


def _trend_section(engines, mset, outdir, mix_curves):
    """Monotonicity verdicts per measure, and of the mixture curves if any."""
    section = {"per_measure": {}}
    files = []
    for eng in engines:
        per = {}
        for i in range(1, mset.n + 1):
            curve = eng.effect_curve((i,))
            per[f"x{i}"] = _verdict_entry(curve.values)
            path = os.path.join(
                outdir, f"effect_{eng.measure.name}_{subset_label((i,))}.csv")
            files.append(write_effect_curve_csv(curve, path))
        section["per_measure"][eng.measure.name] = per
    if mix_curves is not None:      # tabulated for inputs 1..n in order
        section["mixture"] = _per_input(
            [mcurve.mixture_values for mcurve in mix_curves], _verdict_entry)
    return section, files


def _cores_section(model, mset):
    groups = core_partition(model, mset)
    names = mset.names
    return {
        "groups": [[names[k] for k in grp] for grp in groups],
        "signatures": {names[k]: [quad_qty(v) for v in
                                  core_signature(model, mset.measures[k])]
                       for k in range(len(mset))},
    }


# ---------------------------------------------------------------------------
# the analyze command
# ---------------------------------------------------------------------------

def _resolve_source(arg):
    """Classify --model: ('model', callable) or ('sample', path)."""
    if arg.endswith(".csv"):
        return "sample", arg
    return "model", resolve_model(arg)


def _default_sections(kind, estimator):
    if kind == "sample":
        return {"measures", "robust"}
    sections = {"measures", "robust", "trend", "cores"}
    if estimator == "quad":
        sections.add("dimension")
    return sections


def _reweighted_estimates(sample, mset, base_name):
    """Given-data indices under every measure of the set from one sample.

    The sample's own measure (``base_name``) uses it as drawn; every other
    candidate reweights it by density ratios.
    """
    ests = [given_data_indices(sample) if nm == base_name
            else given_data_indices(reweight(sample, m))
            for m, nm in zip(mset.measures, mset.names)]
    return list(mset.names), ests


def _measure_estimates(model, mset, estimator, n, seed, outdir):
    """Per-measure MC estimates (and any sample files written)."""
    files = []
    if estimator == "bruteforce":
        loop = max(2, int(np.sqrt(n)))
        ests = [brute_force_first_order(model, m, loop, loop, seed)
                for m in mset.measures]
        return list(mset.names), ests, files
    if estimator == "pickfreeze":
        ests = [pick_freeze_indices(model, m, n, seed) for m in mset.measures]
        return list(mset.names), ests, files
    if estimator == "givendata":
        names, ests = [], []
        for m, nm in zip(mset.measures, mset.names):
            sample = generate_sample(model, m, n, seed)
            files.append(write_sample(sample, os.path.join(outdir, f"sample_{nm}.csv")))
            ests.append(given_data_indices(sample))
            names.append(nm)
        return names, ests, files
    # reweight: one base sample under the first measure, density-ratio
    # weights for every other candidate
    sample = generate_sample(model, mset.measures[0], n, seed)
    files.append(write_sample(sample, os.path.join(outdir, f"sample_{mset.names[0]}.csv")))
    return (*_reweighted_estimates(sample, mset, mset.names[0]), files)


def _sample_mode_estimates(path, mset, estimator):
    sample = read_sample(path)
    if sample.n != mset.n:
        raise SampleFormatError(f"{path}: sample has {sample.n} inputs, "
                                f"measures file declares {mset.n}")
    if estimator == "givendata":
        name = sample.measure_name or "sample"
        return [name], [given_data_indices(sample)]
    if estimator != "reweight":
        raise ConfigError(f"estimator {estimator!r} needs an executable "
                          "model, not a sample file")
    if not sample.measure_name:
        raise SampleFormatError(f"{path}: reweighting needs the sidecar's "
                                "measure tag to identify the base measure")
    try:
        base = mset.by_name(sample.measure_name)
    except KeyError:
        raise SampleFormatError(
            f"{path}: base measure {sample.measure_name!r} is not in the "
            "measures file") from None
    sample.measure = base
    return _reweighted_estimates(sample, mset, sample.measure_name)


def cmd_analyze(args):
    min_n = MIN_N.get(args.estimator, 1)
    if args.n < min_n:
        raise ConfigError(f"--n {args.n} is below {min_n}, the smallest "
                          f"budget estimator {args.estimator!r} accepts")
    kind, source = _resolve_source(args.model)
    mset = load_measure_set(args.measures)
    sections = set(args.sections) if args.sections is not None else \
        _default_sections(kind, args.estimator)
    if args.prior:
        sections.add("mixture")
    if "mixture" in sections and mset.prior is None:
        raise ConfigError("prior required: the mixture section needs a "
                          "'prior' entry in the measures file")
    os.makedirs(args.out, exist_ok=True)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "mixsens", "version": __version__},
        "config": {
            "model": args.model,
            "measures_file": os.path.basename(args.measures),
            "measure_names": list(mset.names),
            "estimator": args.estimator,
            "n": args.n,
            "seed": args.seed,
            "prior": list(mset.prior) if mset.prior is not None else None,
            "sections": sorted(sections),
        },
    }
    files = []

    engines = None
    vds = None
    if kind == "model":
        model = source
        needs_engines = bool({"mixture", "dimension", "trend"} & sections) \
            or args.estimator == "quad"
        if needs_engines:
            engines = component_engines(mset, model, seed=args.seed)
            vds = [eng.variance_decomposition() for eng in engines]

    # -- measures ------------------------------------------------------------
    est_names = est_list = None
    if "measures" in sections:
        if args.estimator == "quad":
            if kind == "sample":
                raise ConfigError("estimator 'quad' needs an executable "
                                  "model, not a sample file")
            report["measures"] = _quad_measures_section(vds)
            rows = _indices_rows_from_vds(vds)
        else:
            if kind == "model":
                est_names, est_list, sample_files = _measure_estimates(
                    model, mset, args.estimator, args.n, args.seed, args.out)
                files += sample_files
            else:
                est_names, est_list = _sample_mode_estimates(
                    source, mset, args.estimator)
            report["measures"] = {nm: _estimate_entry(est)
                                  for nm, est in zip(est_names, est_list)}
            rows = _indices_rows_from_estimates(est_names, est_list)
        files.append(write_indices_csv(
            rows, os.path.join(args.out, "indices_long.csv")))

    # -- dimension -----------------------------------------------------------
    if "dimension" in sections:
        if vds is None:
            _warn("dimension section needs full quadrature decompositions; "
                  "skipped")
        else:
            report["dimension"] = _dimension_section(vds)

    # -- mixture -------------------------------------------------------------
    mix_curves = None
    if "mixture" in sections:
        if engines is None:
            _warn("mixture section needs an executable model; skipped")
        else:
            # tabulated once: the CSVs here, the trend verdicts below
            mix_curves = [mixture_effect_curve(engines, np.asarray(mset.prior), i)
                          for i in range(1, mset.n + 1)]
            section, mix_files = _mixture_section(
                engines, mset, vds, mix_curves, args.out)
            report["mixture"] = section
            files += mix_files

    # -- robust --------------------------------------------------------------
    if "robust" in sections:
        if args.estimator == "quad" and vds is not None:
            s_matrix = np.array([vd.first_order() for vd in vds])
            dims = dimension_bounds(vds)
            report["robust"] = _robust_section(
                [vd.measure for vd in vds], s_matrix, None, dims,
                partial(quad_qty, engine_mode=_combined_mode(vds)))
        elif est_list is not None:
            s_matrix = np.array([est.clamped_s for est in est_list])
            ses = None
            if all(est.s_se is not None for est in est_list):
                ses = np.array([est.s_se for est in est_list])
            report["robust"] = _robust_section(est_names, s_matrix, ses, None,
                                               mc_qty)
        else:
            _warn("robust section needs per-measure indices; skipped")

    # -- trend ---------------------------------------------------------------
    if "trend" in sections:
        if engines is None:
            _warn("trend section needs an executable model; skipped")
        else:
            section, trend_files = _trend_section(engines, mset, args.out,
                                                  mix_curves)
            report["trend"] = section
            files += trend_files

    # -- cores ---------------------------------------------------------------
    if "cores" in sections:
        if kind != "model":
            _warn("cores section needs an executable model; skipped")
        else:
            try:
                report["cores"] = _cores_section(model, mset)
            except TypeError as exc:
                _warn(f"cores section skipped: {exc}")

    report_path = write_report(report, os.path.join(args.out, "report.json"))
    files.append(report_path)
    print(f"report: {report_path} ({len(files)} files)")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SampleFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ZeroVarianceError, EstimationError, SupportError,
            ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
