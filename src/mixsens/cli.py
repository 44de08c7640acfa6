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
import math
import os
import sys

import numpy as np

from . import __version__
from .anova import INTERP_TOL, ZeroVarianceError, subset_label
from .diagnostics import (dimension_bounds, dimension_distribution,
                          mixture_dimension_distribution, monotonicity_check,
                          robust_ranking)
from .estimators import (EstimationError, SampleFormatError,
                         brute_force_first_order, generate_sample,
                         given_data_indices, pick_freeze_indices, read_sample,
                         reweighted_indices, write_sample)
from .measures import ConfigError, SupportError, load_measure_set
from .mixture import (component_engines, mixture_annihilation_defect,
                      mixture_effect_curve, mixture_variance_decomposition)
from .models import core_groups, core_signature, resolve_model
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
        out[vd.measure] = {
            "mean": quad_qty(vd.mean),
            "variance": quad_qty(vd.total),
            "residual": quad_qty(vd.residual),
            "terms": {subset_label(z): quad_qty(v)
                      for z, v in vd.terms.items()},
            "sobol": {subset_label(z): quad_qty(v)
                      for z, v in vd.sobol_indices().items()},
            "first_order": _per_input(vd.first_order(), quad_qty),
            "total_order": _per_input(vd.total_order(), quad_qty),
        }
    return out


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
        entry["uncovered"] = est.uncovered
    parts = [("first", est.s, est.clamped_s, est.s_se)]
    if est.st is not None:
        parts.append(("total", est.st, est.clamped_st, est.st_se))
    for kind, raw, clamped, se in parts:
        ses = [None] * raw.size if se is None else se
        entry[f"{kind}_order"] = _per_input(zip(raw, clamped, ses), cell)
    return entry


def _indices_rows(section):
    """The rows of ``indices_long.csv``, one per index cell of the measures
    ``section``: by measure, then by input, first order before total."""
    rows = []
    for name, entry in section.items():
        for i, label in enumerate(entry["first_order"], 1):
            for kind in ("first", "total"):
                cell = entry.get(f"{kind}_order", {}).get(label)
                if cell is not None:
                    rows.append((name, i, kind, cell["value"], cell.get("se"),
                                 cell["mode"]))
    return rows


def _dimension_entry(dd):
    return {
        "d_s": quad_qty(dd.d_s),
        "d_t": quad_qty(dd.d_t),
        "mass": {subset_label(z): quad_qty(m) for z, m in dd.masses.items()},
    }


def _dimension_section(vds):
    per = {vd.measure: _dimension_entry(dimension_distribution(vd))
           for vd in vds}
    lo_s, hi_s, lo_t, hi_t = dimension_bounds(vds)
    return {
        "per_measure": per,
        "bounds": {"d_s": [quad_qty(lo_s), quad_qty(hi_s)],
                   "d_t": [quad_qty(lo_t), quad_qty(hi_t)]},
    }


def _mixture_section(engines, mset, vds, md, curves, outdir):
    prior = np.asarray(mset.prior)
    defects = [mixture_annihilation_defect(engines, prior, (i,))
               for i in range(1, mset.n + 1)]
    dd = mixture_dimension_distribution(prior, vds)
    section = {
        "prior": [float(p) for p in prior],
        "mean": quad_qty(md.mixture_mean),
        "component_means": {nm: quad_qty(m)
                            for nm, m in zip(md.names, md.component_means)},
        "terms": {subset_label(z): quad_qty(v) for z, v in md.terms.items()},
        "residual": quad_qty(md.residual),
        "structural": quad_qty(md.structural),
        "between": quad_qty(md.between),
        "total": quad_qty(md.total),
        "structural_share": quad_qty(md.structural_share),
        "defects": _per_input(defects, quad_qty),
        "dimension": _dimension_entry(dd),
    }
    files = [write_mixture_curve_csv(
        curve, os.path.join(outdir, f"effect_mixture_x{curve.input}.csv"))
        for curve in curves]
    return section, files


def _robust_section(names, s_matrix, ses, cell, vds=None):
    """Robust ranking; ``cell`` tags its numbers as the indices were made.
    Quadrature decompositions ``vds`` add the dimension bounds."""
    rr = robust_ranking(s_matrix, ses=ses)
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
    if vds is not None:
        lo_s, hi_s, lo_t, hi_t = dimension_bounds(vds)
        section["d_s_bounds"] = [cell(lo_s), cell(hi_s)]
        section["d_t_bounds"] = [cell(lo_t), cell(hi_t)]
    return section


def _verdict_entry(values, floor):
    verdict = monotonicity_check(values, floor)
    return {
        "verdict": verdict.verdict,
        "nondecreasing": verdict.nondecreasing,
        "nonincreasing": verdict.nonincreasing,
        "max_violation": qty(verdict.max_violation, "quadrature", verdict.tol),
    }


def _trend_section(engines, mset, vds, md, outdir, mix_curves):
    """Monotonicity verdicts per measure, and of the mixture curves if any,
    each to at least the error its values carry: ``INTERP_TOL`` sqrt(V) of
    its engine's decomposition in ``vds``, or of the mixture's ``md``."""
    section = {"per_measure": {}}
    files = []
    for eng, vd in zip(engines, vds):
        floor = INTERP_TOL * math.sqrt(vd.total)
        per = {}
        for i in range(1, mset.n + 1):
            curve = eng.effect_curve((i,))
            per[f"x{i}"] = _verdict_entry(curve.values, floor)
            path = os.path.join(
                outdir, f"effect_{eng.measure.name}_{subset_label((i,))}.csv")
            files.append(write_effect_curve_csv(curve, path))
        section["per_measure"][eng.measure.name] = per
    if mix_curves is not None:      # tabulated for inputs 1..n in order
        floor = INTERP_TOL * math.sqrt(md.total)
        section["mixture"] = _per_input(
            [mcurve.mixture_values for mcurve in mix_curves],
            lambda values: _verdict_entry(values, floor))
    return section, files


def _cores_section(model, mset):
    sigs = [core_signature(model, m) for m in mset.measures]
    names = mset.names
    return {
        "groups": [[names[k] for k in grp] for grp in core_groups(sigs)],
        "signatures": {nm: [quad_qty(v) for v in sig]
                       for nm, sig in zip(names, sigs)},
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


def _estimates(kind, source, mset, args):
    """Per-measure MC estimates ``(names, estimates, files)`` from a sample
    file or from the model; any sample drawn is written to ``args.out``."""
    names, estimator, files = list(mset.names), args.estimator, []
    if kind == "sample":
        sample = read_sample(source)
        if sample.n != mset.n:
            raise SampleFormatError(f"{source}: sample has {sample.n} inputs, "
                                    f"measures file declares {mset.n}")
        if len(sample) < MIN_N[estimator]:
            raise SampleFormatError(
                f"{source}: sample has {len(sample)} rows, below "
                f"{MIN_N[estimator]}, the fewest estimator {estimator!r} "
                "accepts")
        if estimator == "givendata":
            return [sample.measure_name or "sample"], \
                [given_data_indices(sample)], files
        if not sample.measure_name:
            raise SampleFormatError(f"{source}: reweighting needs the "
                                    "sidecar's measure tag to identify the "
                                    "base measure")
        try:
            sample.measure = mset.by_name(sample.measure_name)
        except KeyError:
            raise SampleFormatError(
                f"{source}: base measure {sample.measure_name!r} is not in "
                "the measures file") from None
    elif estimator in ("bruteforce", "pickfreeze"):
        loop = max(2, int(np.sqrt(args.n)))
        return names, [brute_force_first_order(source, m, loop, loop, args.seed)
                       if estimator == "bruteforce"
                       else pick_freeze_indices(source, m, args.n, args.seed)
                       for m in mset.measures], files
    else:
        def drawn(m, nm):
            sample = generate_sample(source, m, args.n, args.seed)
            files.append(write_sample(
                sample, os.path.join(args.out, f"sample_{nm}.csv")))
            return sample

        if estimator == "givendata":    # one sample per measure
            return names, [given_data_indices(drawn(m, nm))
                           for m, nm in zip(mset.measures, names)], files
        sample = drawn(mset.measures[0], names[0])
    # reweight: the sample's own measure uses it as drawn, every other
    # candidate by density-ratio weights, all in one pass
    return names, reweighted_indices(
        sample, [None if nm == sample.measure_name else m
                 for m, nm in zip(mset.measures, names)]), files


def cmd_analyze(args):
    min_n = MIN_N.get(args.estimator, 1)
    if args.n < min_n:
        raise ConfigError(f"--n {args.n} is below {min_n}, the smallest "
                          f"budget estimator {args.estimator!r} accepts")
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} is negative")
    kind, source = _resolve_source(args.model)
    mset = load_measure_set(args.measures)
    if kind == "model" and source.n != mset.n:
        raise ConfigError(f"model {args.model!r} has {source.n} inputs, "
                          f"measures file declares {mset.n}")
    sections = set(args.sections) if args.sections is not None else \
        _default_sections(kind, args.estimator)
    if args.prior:
        sections.add("mixture")
    if "mixture" in sections and mset.prior is None:
        raise ConfigError("prior required: the mixture section needs a "
                          "'prior' entry in the measures file")
    indexed = {"measures", "robust"} & sections     # the per-measure indices
    if kind == "sample":
        # one gate: a sample file gives estimates from given data, nothing
        # that needs the model itself; before the config lists the sections
        if indexed and args.estimator not in ("givendata", "reweight"):
            raise ConfigError(f"estimator {args.estimator!r} needs an "
                              "executable model, not a sample file")
        for name in ("dimension", "mixture", "trend", "cores"):
            if name in sections:
                _warn(f"{name} section needs an executable model; skipped")
                sections.discard(name)
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

    engines = vds = None
    if kind != "sample" and ({"mixture", "dimension", "trend"} & sections or
                             indexed and args.estimator == "quad"):
        engines = component_engines(mset, source)
        vds = [eng.variance_decomposition() for eng in engines]

    # -- measures ------------------------------------------------------------
    est_names = est_list = None
    if indexed and args.estimator != "quad":
        est_names, est_list, est_files = _estimates(kind, source, mset, args)
        files += est_files
    if "measures" in sections:
        report["measures"] = _quad_measures_section(vds) \
            if est_list is None else {nm: _estimate_entry(est) for nm, est
                                      in zip(est_names, est_list)}
        files.append(write_indices_csv(_indices_rows(report["measures"]),
                                       os.path.join(args.out,
                                                    "indices_long.csv")))

    # -- dimension -----------------------------------------------------------
    if "dimension" in sections:
        report["dimension"] = _dimension_section(vds)

    # -- mixture -------------------------------------------------------------
    mix_curves = md = None
    if "mixture" in sections:
        # each made once: the CSVs and the section here, the trend below
        prior = np.asarray(mset.prior)
        md = mixture_variance_decomposition(engines, prior)
        mix_curves = [mixture_effect_curve(engines, prior, i)
                      for i in range(1, mset.n + 1)]
        section, mix_files = _mixture_section(
            engines, mset, vds, md, mix_curves, args.out)
        report["mixture"] = section
        files += mix_files

    # -- robust --------------------------------------------------------------
    if "robust" in sections:
        if est_list is None:
            s_matrix = np.array([vd.first_order() for vd in vds])
            report["robust"] = _robust_section(
                [vd.measure for vd in vds], s_matrix, None, quad_qty, vds)
        else:
            s_matrix = np.array([est.clamped_s for est in est_list])
            ses = None
            if all(est.s_se is not None for est in est_list):
                ses = np.array([est.s_se for est in est_list])
            report["robust"] = _robust_section(est_names, s_matrix, ses,
                                               mc_qty)

    # -- trend ---------------------------------------------------------------
    if "trend" in sections:
        section, trend_files = _trend_section(engines, mset, vds, md,
                                              args.out, mix_curves)
        report["trend"] = section
        files += trend_files

    # -- cores ---------------------------------------------------------------
    if "cores" in sections:
        try:
            report["cores"] = _cores_section(source, mset)
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
