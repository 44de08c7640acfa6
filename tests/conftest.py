"""Fixtures shared by the test modules."""

import os

import numpy as np
import pytest

from mixsens import report
from mixsens.anova import _contract, _tensor_points


@pytest.fixture()
def split_tables(monkeypatch):
    """``force(cpus)`` splits every later table of at least ``cpus`` rows
    into ``cpus`` row ranges, one process each, and returns the list of the
    children forked from then on.  No child may outlive the test."""
    def force(cpus):
        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(report, "PART_ROWS", 1)
        monkeypatch.setattr(report, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(report.os, "fork", counted)
        return forks

    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def annihilation_defect():
    """``defect(eng, z)``: max over i in z of |int g_z dmu_i|, with g_z
    from the point route (``AnovaEngine.effect``) at the Gauss nodes of z
    and each integral by the engine's rule along input i; zero for an exact
    decomposition."""
    def defect(eng, z):
        nodes = [eng.nodes[i - 1] for i in z]
        g = eng.effect(z, _tensor_points(nodes)).reshape([x.size for x in nodes])
        return max(float(np.max(np.abs(_contract(
            g, [eng.weights[i - 1] if j == i else None for j in z]))))
            for i in z)
    return defect
