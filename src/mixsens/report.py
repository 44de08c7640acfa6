"""Canonical report serialization and CSV plot-data writers.

The JSON report is the primary artifact: one versioned document whose
numeric leaves are tagged with how they were computed ("quadrature", "MC",
or "reweighted") and with a tolerance.  Serialization is canonical — keys
sorted, floats printed with 17 significant digits (enough to round-trip a
double bit-exactly), fixed indentation — so identical analyses produce
byte-identical files and golden tests can diff them.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .anova import _tensor_points

SCHEMA_VERSION = "1"

QUADRATURE_TOL = 1e-9      # declared accuracy of the settled tensor quadrature
MC_TOL = 0.05              # declared accuracy of an MC estimate without a standard error
# 17 significant digits print every double so that it parses back bit-exactly
FLOAT_FMT = "%.17g"
WRITE_ROWS = 4096          # CSV rows formatted per write


def qty(value, mode, tol):
    """A tagged numeric report field."""
    if mode not in ("quadrature", "MC", "reweighted"):
        raise ValueError(f"unknown computation mode {mode!r}")
    return {"value": float(value), "mode": mode, "tol": float(tol)}


def quad_qty(value, engine_mode=None):
    """Tag a value from the integration engine.  ``engine_mode`` is not used,
    since every engine integrates by quadrature; kept for callers that pass
    a decomposition's ``mode``."""
    return qty(value, "quadrature", QUADRATURE_TOL)


def mc_qty(value, se=None, reweighted=False):
    """Tag an MC estimate; tolerance is 2 standard errors when known."""
    mode = "reweighted" if reweighted else "MC"
    tol = MC_TOL if se is None else 2.0 * float(se)
    return qty(value, mode, tol)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _fmt_float(v):
    if not math.isfinite(v):
        raise ArithmeticError(f"non-finite value {v!r} cannot enter a report")
    text = FLOAT_FMT % v
    # guarantee the text parses back to exactly the same double
    if float(text) != v:
        raise ArithmeticError(f"{text} does not parse back to {v!r}")
    return text


def _serialize(obj, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        parts = [_serialize(v, indent + 1) for v in items]
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: "
                         f"{_serialize(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj):
    return _serialize(obj, 0) + "\n"


def write_report(report, path):
    text = canonical_json(report)
    with open(path, "w", encoding="utf8", newline="\n") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# CSV plot data
# ---------------------------------------------------------------------------

def _write_table(path, header, columns):
    """CSV of a header row over float columns, CRLF line ends.

    ``columns`` holds 1-d columns or 2-d blocks of them, placed side by side.
    The body is the text ``np.savetxt(fh, table, fmt=FLOAT_FMT,
    delimiter=",", newline="\\r\\n")`` writes, formatted ``WRITE_ROWS`` rows
    at a time by one ``%`` over a repeated row template.
    """
    table = np.column_stack(columns)
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf8") as fh:
        csv.writer(fh).writerow(header)
        for a in range(0, table.shape[0], WRITE_ROWS):
            block = table[a:a + WRITE_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))
    return path


def write_effect_curve_csv(curve, path):
    """One first-order (or pair) effect curve: x[,y],value columns."""
    axes = ["x"] if len(curve.grids) == 1 else [f"x{i}" for i in curve.subset]
    return _write_table(path, axes + ["value"],
                        [_tensor_points(curve.grids), curve.values.ravel()])


def write_mixture_curve_csv(mcurve, path):
    """Mixture first-order curve: grid, one column per component, mixture."""
    return _write_table(path, ["x", *mcurve.component_values, "mixture"],
                        [mcurve.grid, *mcurve.component_values.values(),
                         mcurve.mixture_values])


def write_indices_csv(rows, path):
    """Long-format index table: measure,input,index,value,se,mode."""
    with open(path, "w", newline="", encoding="utf8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["measure", "input", "index", "value", "se", "mode"])
        for measure, inp, kind, value, se, mode in rows:
            wr.writerow([measure, inp, kind, FLOAT_FMT % value,
                         "" if se is None else FLOAT_FMT % se, mode])
    return path
