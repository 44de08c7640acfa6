"""CSV plot-data writers: header quoting, line ends, bit-exact values."""

import csv
import os
import signal
import tracemalloc

import numpy as np
import pytest

from mixsens import report
from mixsens.anova import AnovaEngine
from mixsens.mixture import MixtureEffectCurve
from mixsens.models import IshigamiModel, ishigami_measures
from mixsens.report import (FLOAT_FMT, WRITE_ROWS, _write_table,
                            write_effect_curve_csv, write_mixture_curve_csv)


def read_csv(path):
    with open(path, newline="", encoding="utf8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, np.array([[float(v) for v in row] for row in rows])


def test_mixture_curve_csv_quotes_names_and_round_trips_values(tmp_path):
    names = ["lo,hi", 'say "mu"', "µ3"]
    edge = np.array([-0.0, 5e-324, 1e300])
    curve = MixtureEffectCurve(
        input=1, grid=np.array([-1.0, 0.1, 2.5]),
        component_values={nm: np.roll(edge, k) for k, nm in enumerate(names)},
        mixture_values=-edge)
    path = write_mixture_curve_csv(curve, tmp_path / "mix.csv")
    raw = (tmp_path / "mix.csv").read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\r\n") == 4
    assert b"\n" not in raw.replace(b"\r\n", b"")
    header, table = read_csv(path)
    assert header == ["x", *names, "mixture"]
    expected = np.column_stack([curve.grid, *curve.component_values.values(),
                                curve.mixture_values])
    # bit-exact, so the sign of zero and the subnormal survive too
    assert table.tobytes() == expected.tobytes()


def test_pair_effect_curve_rows_run_over_the_tensor_grid(tmp_path):
    eng = AnovaEngine(IshigamiModel(), ishigami_measures()["mu1"], order=16)
    curve = eng.effect_curve((1, 3), npts=9)
    header, table = read_csv(write_effect_curve_csv(curve, tmp_path / "p.csv"))
    assert header == ["x1", "x3", "value"]
    g1, g3 = curve.grids
    expected = np.array([[x, y, curve.values[r, c]]
                         for r, x in enumerate(g1) for c, y in enumerate(g3)])
    assert table.tobytes() == expected.tobytes()


EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 2.2250738585072014e-308,
                        1.0, -3.0, 1e16, 123456789.0, 0.1, np.pi])


TABLE_ROWS = [1, 2, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1,
              2 * WRITE_ROWS + 1]


def assert_savetxt_text(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = np.where(rng.random((rows, 3)) < 0.5,
                      rng.choice(EDGE_VALUES, size=(rows, 3)),
                      rng.standard_normal((rows, 3)))
    values[0, :] = EDGE_VALUES[:3]
    columns = [values[:, 0], values[:, 1:], np.arange(rows, dtype=float)]
    path = _write_table(tmp_path / "t.csv", ["a", "b c", "d", "e"], columns)
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf8") as fh:
        fh.write("a,b c,d,e\r\n")
        np.savetxt(fh, np.column_stack(columns), fmt=FLOAT_FMT,
                   delimiter=",", newline="\r\n")
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("rows", TABLE_ROWS)
def test_table_body_is_the_text_savetxt_writes(tmp_path, rows):
    assert_savetxt_text(tmp_path, rows)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("rows", TABLE_ROWS)
def test_a_table_split_across_processes_is_the_text_savetxt_writes(
        tmp_path, split_tables, rows, cpus):
    # each range but the first is formatted by a forked child; the range
    # ends fall inside and on the bounds of the WRITE_ROWS blocks
    forks = split_tables(cpus)
    assert_savetxt_text(tmp_path, rows)
    assert len(forks) == min(cpus, rows) - 1
    with pytest.raises(ChildProcessError):      # every child reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_write_reaps_the_range_processes(tmp_path, split_tables,
                                                  monkeypatch):
    def full(src, dst):
        raise OSError("no space left on device")

    forks = split_tables(3)
    monkeypatch.setattr(report.shutil, "copyfileobj", full)
    with pytest.raises(OSError, match="no space"):
        _write_table(tmp_path / "t.csv", ["a", "b"],
                     [np.arange(9.0), np.ones(9)])
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("death, status", [
    (lambda: os._exit(7), "7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")])
def test_a_range_process_that_dies_raises_oserror(tmp_path, split_tables,
                                                   monkeypatch, death, status):
    split_tables(2)
    monkeypatch.setattr(report, "_run_child", lambda job, fd, pipes: death())
    with pytest.raises(OSError, match=f"exit status {status}$"):
        _write_table(tmp_path / "t.csv", ["a", "b"],
                     [np.arange(9.0), np.ones(9)])


def test_a_table_is_stacked_one_block_at_a_time(tmp_path):
    # the peak of writing 16 blocks is that of writing one, not a copy of
    # the whole table (2 MB here) on top of it
    def peak(rows):
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal((rows, 3)), rng.standard_normal(rows)]
        tracemalloc.start()
        try:
            _write_table(tmp_path / "t.csv", ["a", "b", "c", "d"], columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(WRITE_ROWS)            # any first-use allocation happens here
    one, table = peak(WRITE_ROWS), 16 * WRITE_ROWS * 4 * 8
    assert peak(16 * WRITE_ROWS) <= one + table // 4
