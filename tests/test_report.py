"""CSV plot-data writers: header quoting, line ends, bit-exact values."""

import csv

import numpy as np

from mixsens.anova import AnovaEngine
from mixsens.mixture import MixtureEffectCurve
from mixsens.models import IshigamiModel, ishigami_measures
from mixsens.report import write_effect_curve_csv, write_mixture_curve_csv


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
