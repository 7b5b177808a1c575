import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heatlab.grid import SpaceGrid, gaussian_field
from heatlab.weights import family_from_rate, first_family_rate


@pytest.fixture(scope="session")
def family3():
    """First certified weight family at delta = 3, M = 512."""
    return family_from_rate(3.0, first_family_rate(3.0, 512))


@pytest.fixture(scope="session")
def grid12():
    return SpaceGrid(half_width=12.0, n=1024)


@pytest.fixture(scope="session")
def gauss12(grid12):
    return gaussian_field(grid12)


@pytest.fixture
def popen_spy(monkeypatch):
    """Every process ``subprocess.Popen`` starts while the test runs."""
    started, real = [], subprocess.Popen

    def spy(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_grid_calls(monkeypatch) -> list:
    """Record the argument of every ``SpaceGrid.mass`` call that squares rows itself,
    the one route to a norm or a tail fraction; a call handing its rows on in
    blocks to nested calls squares none."""
    calls = []
    original = SpaceGrid.mass

    def counting(self, values):
        nested = len(calls)
        result = original(self, values)
        if len(calls) == nested:
            calls.append(values)
        return result

    monkeypatch.setattr(SpaceGrid, "mass", counting)
    return calls


def read_csv(path, header: str) -> np.ndarray:
    """The columns of a ``write_csv`` file under ``header``, one row of the result each."""
    rows = Path(path).read_text().strip().splitlines()
    assert rows[0] == header
    return np.array([[float(x) for x in row.split(",")] for row in rows[1:]]).T


def pytest_configure(config):
    np.seterr(over="raise", invalid="raise")
