"""mixsens benchmark: four workloads, end-to-end metrics, per-layer trace.

    python3 bench/run.py --workload cli-prior --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout.  The load is a closed loop with
one client: each operation starts only after the previous one ended, and
every leg of an operation runs in a fresh ``bench/worker.py`` process
(BLAS pinned to one thread) so set-up and peak memory are per operation.
Operations repeat until ``--seconds`` have passed; timings are medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it say, by name and unit, what was measured and on
which machine.  See bench/README.md for why each workload exists.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before numpy starts its BLAS

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
DEADLINE_S = 165        # no operation starts that could end after this
MIN_SETUPS = 3          # set-up samples per run, topped up by probes

# The metrics the JSON line carries with --trace 0.  Two more are printed
# but not gated: accuracy_digits (decomp-4d's V_z carry the square of the
# seeded QMC mean error, so it spreads by a third across seeds) and
# error_rate (0 on a working program; failed/attempted carry it).
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("model_evals", "count"),
              ("peak_rss_mb", "MB"))
PRINTED = END_TO_END + (("accuracy_digits", "digits"),)

PER_LAYER = (
    ("anova.conditional_mean.self_s", "s"),
    ("anova.conditional_mean.calls", "count"),
    ("anova.conditional_mean.evals", "count"),
    ("anova.conditional_mean.unique_ratio", "ratio"),
    ("anova.effect.self_s", "s"),
    ("anova.effect.calls", "count"),
    ("anova.effect_curve.self_s", "s"),
    ("anova.effect_curve.calls", "count"),
    ("anova.variance_decomposition.self_s", "s"),
    ("anova.variance_decomposition.calls", "count"),
    ("anova.variance_decomposition.evals", "count"),
    ("mixture.effect_from_components.self_s", "s"),
    ("mixture.effect_from_pooled_conditionals.self_s", "s"),
    ("mixture.effect_curve.self_s", "s"),
    ("mixture.effect_curve.calls", "count"),
    ("mixture.annihilation_defect.self_s", "s"),
    ("mixture.annihilation_defect.evals", "count"),
    ("mixture.variance_decomposition.self_s", "s"),
    ("diagnostics.self_s", "s"),
    ("estimators.generate_sample.self_s", "s"),
    ("estimators.write_sample.self_s", "s"),
    ("estimators.read_sample.self_s", "s"),
    ("estimators.given_data_indices.self_s", "s"),
    ("estimators.reweight.self_s", "s"),
    ("estimators.write_sample.bytes", "B"),
    ("estimators.read_sample.bytes", "B"),
    ("estimators.reweight.ess_min", "count"),
    ("measures.quad_nodes.self_s", "s"),
    ("measures.quad_nodes.calls", "count"),
    ("measures.load_measure_set.self_s", "s"),
    ("models.core_partition.self_s", "s"),
    ("usermodel.self_s", "s"),
    ("usermodel.calls", "count"),
    ("report.write_report.self_s", "s"),
    ("report.write_csv.self_s", "s"),
    ("report.write_csv.bytes", "B"),
    ("cli.cmd_analyze.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)


def load_reference():
    path = os.path.join(ROOT, "tests", "_reference.py")
    spec = importlib.util.spec_from_file_location("_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def derived_seed(seed, tag):
    return int(np.random.default_rng([seed, tag]).integers(2**31))


# ---------------------------------------------------------------------------
# workloads: inputs made from the seed, and the legs of one operation
# ---------------------------------------------------------------------------

class CliPrior:
    """The canonical user run: `analyze --model ishigami --prior`."""

    legs = ("cli-prior",)

    def __init__(self, seed, workdir, ref):
        self.measures = os.path.join(workdir, "measures.yaml")
        with open(self.measures, "w", encoding="utf8") as fh:
            fh.write(ref.MEASURES_YAML)

    def inputs(self, opdir):
        return [{"measures": self.measures, "out": os.path.join(opdir, "out")}]


class TwoRoute:
    """Mixture effects by both routes at seeded points (acceptance c03)."""

    legs = ("two-route",)
    points = 1000

    def __init__(self, seed, workdir, ref):
        rng = np.random.default_rng(seed)
        n = self.points
        self.path = os.path.join(workdir, "points.npz")
        np.savez(self.path,
                 ishigami=rng.uniform(0.0, math.pi, size=(n, 3)),
                 factor1=rng.uniform(-1, 1, (3, 3)),
                 factor2=rng.uniform(-1, 1, (3, 3)),
                 coeffs=rng.uniform(-1, 1, (3, 3)),
                 inner=np.stack([np.column_stack([rng.uniform(0, 1, n),
                                                  rng.uniform(1, 2, n)])
                                 for _ in range(3)]))

    def inputs(self, opdir):
        return [{"points": self.path}]


class Decomp4d:
    """variance_decomposition(max_order=2) of a smooth 4-input model."""

    legs = ("decomp-4d",)

    def __init__(self, seed, workdir, ref):
        self.engine_seed = derived_seed(seed, 4)

    def inputs(self, opdir):
        return [{"engine_seed": self.engine_seed}]


class McSample:
    """Write a 2^19 reweighting sample, then read it back and re-estimate."""

    legs = ("mc-write", "mc-read")
    n = 2**19

    def __init__(self, seed, workdir, ref):
        self.sample_seed = derived_seed(seed, 19)
        self.measures = os.path.join(workdir, "measures.yaml")
        with open(self.measures, "w", encoding="utf8") as fh:
            fh.write(ref.MEASURES_YAML)

    def inputs(self, opdir):
        write = os.path.join(opdir, "write")
        return [{"measures": self.measures, "n": self.n,
                 "sample_seed": self.sample_seed, "out": write},
                {"measures": self.measures,
                 "sample": os.path.join(write, "sample_mu1.csv"),
                 "write_report": os.path.join(write, "report.json"),
                 "out": os.path.join(opdir, "read")}]


WORKLOADS = {"cli-prior": CliPrior, "two-route": TwoRoute,
             "decomp-4d": Decomp4d, "mc-sample": McSample}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def spawn(leg, inputs, mode, traced, result_path, timeout):
    """Run one worker process to completion; returns its result dict."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    spec = {"leg": leg, "inputs": inputs, "mode": mode, "trace": traced,
            "result": result_path}
    spec["t0"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": [f"{leg}: no result within {timeout:.0f} s"]}
    try:
        with open(result_path, encoding="utf8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"failures": [f"{leg}: exit {proc.returncode}, no result: "
                               + proc.stderr[-500:]]}
    if proc.returncode != 0 and not result.get("failures"):
        result.setdefault("failures", []).append(
            f"{leg}: exit {proc.returncode}")
    return result


def merge_layers(parts):
    """Per-layer metrics of one operation from the traces of its legs."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if key == "estimators.reweight.ess_min":
                if value > 0:
                    out[key] = min(out.get(key) or value, value)
            else:
                out[key] = out.get(key, 0) + value
    out.setdefault("estimators.reweight.ess_min", 0.0)
    return out


def run_op(workload, workdir, index, traced, deadline):
    opdir = os.path.join(workdir, f"op{index}")
    os.makedirs(opdir)
    t0 = time.monotonic()
    op = {"traced": traced, "wall_s": 0.0, "evals": 0, "rss_mb": 0.0,
          "setup_s": [], "import_s": [], "failures": [], "digits": [],
          "digests": [], "layers": []}
    try:
        for leg, inputs in zip(workload.legs, workload.inputs(opdir)):
            res = spawn(leg, inputs, "op", traced,
                        os.path.join(opdir, f"{leg}.json"),
                        deadline - time.monotonic())
            op["failures"] += res.get("failures") or []
            if "wall_s" not in res:
                break
            op["wall_s"] += res["wall_s"]
            op["evals"] += res["evals"]
            op["rss_mb"] = max(op["rss_mb"], res["rss_mb"])
            op["setup_s"].append(res["setup_s"])
            op["import_s"].append(res["import_s"])
            if res["accuracy_digits"] is not None:
                op["digits"].append(res["accuracy_digits"])
            if res.get("digest"):
                op["digests"].append(res["digest"])
            if "layers" in res:
                op["layers"].append(res["layers"])
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    op["elapsed"] = time.monotonic() - t0
    if op["layers"]:
        layers = merge_layers(op["layers"])
        rows = layers.pop("anova.conditional_mean.rows")
        distinct = layers.pop("anova.conditional_mean.distinct_rows")
        layers["anova.conditional_mean.unique_ratio"] = \
            distinct / rows if rows else 0.0
        top = layers.pop("trace.top_s")
        layers["trace.coverage"] = top / op["wall_s"] if op["wall_s"] else 0.0
        op["layers"] = layers
    return op


def run_workload(name, seed, seconds, trace, ref):
    """Operations in a closed loop for ``seconds``; returns the ops and
    every set-up sample taken."""
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    ops, setups, imports = [], [], []
    try:
        workload = WORKLOADS[name](seed, workdir, ref)
        longest = 0.0
        while True:
            traced = trace and len(ops) % 2 == 1
            op = run_op(workload, workdir, len(ops), traced, deadline)
            ops.append(op)
            setups += op["setup_s"]
            imports += op["import_s"]
            longest = max(longest, op["elapsed"])
            now = time.monotonic()
            enough = now - start >= seconds and (not trace or len(ops) >= 2)
            if enough or now + longest > deadline or op["failures"]:
                break
        probe = 0
        while len(setups) < MIN_SETUPS and time.monotonic() + 30 < deadline:
            path = os.path.join(workdir, f"setup{probe}.json")
            res = spawn(workload.legs[0], workload.inputs(workdir)[0], "setup",
                        False, path, deadline - time.monotonic())
            if "setup_s" not in res:
                break
            setups.append(res["setup_s"])
            imports.append(res["import_s"])
            probe += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:         # another run still uses it
            pass
    return ops, setups, imports


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def tail_note(values):
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}={q[int(p * 10) - 1]:.4f} s (n={n})"
    return f"n={n}; no percentile has 10 samples beyond it"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={importlib.metadata.version('scipy')} "
            f"blas={blas.get('name')} "
            f"blas_threads={THREAD_ENV['OPENBLAS_NUM_THREADS']} "
            "load=closed loop, 1 client")


def summarize(name, seed, trace, ops, setups, imports):
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(1 for op in ops if op["failures"])
    digests = {d for op in ops for d in op["digests"]}
    if len(digests) > 1:
        failed = max(failed, 1)
        print("report.json differs between operations of one run"
              + (" (traced vs untraced)" if traced else ""), file=sys.stderr)
    for op in ops:
        for msg in op["failures"]:
            print(f"{name}: {msg}", file=sys.stderr)
    ok = [op for op in plain if not op["failures"]]
    walls = [op["wall_s"] for op in ok]
    e2e = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "model_evals": median([op["evals"] for op in ok]),
        "peak_rss_mb": median([op["rss_mb"] for op in ok]),
        "accuracy_digits": median([min(op["digits"]) for op in ok
                                   if op["digits"]]),
    }
    units = dict(PRINTED)
    print(f"workload {name} seed {seed}: {len(ops)} operation(s), "
          f"{len(traced)} traced")
    for key, value in e2e.items():
        note = ""
        if key == "wall_s":
            note = f"  median; {tail_note(walls)}"
        elif key == "setup_s":
            note = f"  median of {len(setups)} set-ups"
        print(f"  {key:<16} {value!s:>22} {units[key]}{note}")
    print(f"  {'error_rate':<16} {failed / len(ops):>22} ratio  "
          f"({failed} failed of {len(ops)} attempted)")
    if trace:
        layers = {key: median([op["layers"].get(key, 0.0) for op in traced
                               if op["layers"]]) for key, _ in PER_LAYER}
        layers["setup.import_s"] = median(imports)
        traced_walls = [op["wall_s"] for op in traced if not op["failures"]]
        layers["trace.overhead_s"] = (
            median(traced_walls) - median(walls)
            if traced_walls and walls else None)
        metrics = {key: {"value": layers[key], "unit": unit}
                   for key, unit in PER_LAYER}
        for key, unit in PER_LAYER:
            print(f"  {key:<48} {layers[key]!s:>22} {unit}")
    else:
        metrics = {key: {"value": e2e[key], "unit": unit}
                   for key, unit in END_TO_END}
    print(machine())
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for need in (("src", "mixsens", "__init__.py"), ("tests", "_reference.py")):
        if not os.path.isfile(os.path.join(ROOT, *need)):
            print(f"bench: {os.path.join(*need)} not found; run from a mixsens "
                  "source checkout", file=sys.stderr)
            return 2
    ref = load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        ops, setups, imports = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), ref)
        correct &= summarize(name, args.seed, bool(args.trace), ops, setups,
                             imports)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
