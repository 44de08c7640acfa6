"""Canonical report serialization and CSV plot-data writers.

The JSON report is the primary artifact: one versioned document whose
numeric leaves are tagged with how they were computed ("quadrature", "MC",
or "reweighted") and with a tolerance.  Serialization is canonical — keys
sorted, floats printed with 17 significant digits (enough to round-trip a
double bit-exactly), fixed indentation — so identical analyses produce
byte-identical files and golden tests can diff them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import shutil
import signal
import threading

import numpy as np

from .anova import _tensor_points

SCHEMA_VERSION = "1"

QUADRATURE_TOL = 1e-9      # declared accuracy of the settled tensor quadrature
MC_TOL = 0.05              # declared accuracy of an MC estimate without a standard error
# 17 significant digits print every double so that it parses back bit-exactly
FLOAT_FMT = "%.17g"
WRITE_ROWS = 4096          # CSV rows formatted per write
PART_ROWS = 2**16          # fewest rows of a table worth a process of their own


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

def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(rows):
    """Into how many contiguous ranges to split a table of about ``rows``
    rows: one per usable CPU, each of at least ``PART_ROWS`` rows, and one
    where this process cannot fork safely (no ``os.fork``, or other Python
    threads running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), rows // PART_ROWS))


def _run_child(job, fd, pipes):
    """In a forked child: run ``job``, write the byte strings it returns to
    ``fd``, exit.  Exit status 0 only when all were written; ``os._exit``
    skips the parent's exit handlers and unflushed buffers."""
    status = 1
    try:
        for pipe in pipes:          # read ends inherited from the parent
            pipe.close()
        chunks = job()
        with open(fd, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked(job, cuts):
    """Run ``job(cuts[k], cuts[k + 1])`` for each range but the first in a
    forked child process while the body runs in this one, and yield one
    binary stream per child, in order.

    ``job`` returns byte strings (or objects with a C-contiguous buffer),
    which its child sends down its stream once ``job`` has returned.  No
    ``job`` makes a BLAS call, so no child depends on a BLAS thread pool
    surviving the fork.  When the body ends, every stream is read to its
    end and every child reaped, and a child that did not exit cleanly
    raises OSError; when the body raises, the children are killed and
    reaped first.
    """
    pids, pipes = [], []
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(functools.partial(job, a, b), w, pipes)
                pids.append(pid)
            finally:
                os.close(w)
        yield pipes
        for pipe in pipes:
            while pipe.read(1 << 20):
                pass
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    if any(codes):
        raise OSError(f"a process working on part of a table or of a "
                      f"sample's inputs ended with exit status "
                      f"{max(codes, key=abs)}")


def _write_table(path, header, columns):
    """CSV of a header row over float columns, CRLF line ends.

    ``columns`` holds 1-d columns or 2-d blocks of them, placed side by side.
    The body is the text ``np.savetxt(fh, np.column_stack(columns),
    fmt=FLOAT_FMT, delimiter=",", newline="\\r\\n")`` writes, formatted
    ``WRITE_ROWS`` rows at a time by one ``%`` over a repeated row template;
    only one block of the table is ever stacked.  A long table is split into
    ``_parts`` contiguous row ranges: this process formats and writes the
    first while a forked child formats each other one, whose text is then
    copied to the file in row order.
    """
    columns = [np.asarray(c) for c in columns]
    rows = columns[0].shape[0]
    if any(c.shape[0] != rows for c in columns):
        raise ValueError("columns of a table must have the same length")
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    row = ",".join([FLOAT_FMT] * width) + "\r\n"

    def body(a, b):             # the text of rows a..b-1, block by block
        for s in range(a, b, WRITE_ROWS):
            block = np.column_stack([c[s:min(b, s + WRITE_ROWS)]
                                     for c in columns])
            yield (row * block.shape[0] % tuple(block.ravel().tolist())
                   ).encode()

    parts = _parts(rows)
    cuts = [rows * k // parts for k in range(parts + 1)]
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with _forked(lambda a, b: list(body(a, b)), cuts) as pipes, \
            open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for text in body(0, cuts[1]):
            fh.write(text)
        for pipe in pipes:
            shutil.copyfileobj(pipe, fh)
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
