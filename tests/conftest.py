import tracemalloc

import numpy as np
import pytest

from heatlab import SpaceGrid, family_from_rate, first_family_rate, gaussian_field


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


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_configure(config):
    np.seterr(over="raise", invalid="raise")
