"""Fixtures shared by the test modules."""

import os

import pytest

from mixsens import report


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
