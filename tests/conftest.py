import numpy as np
import pytest
from hypothesis import settings

from warptrap.geometry import WarpGeometry
from warptrap.spectral import Grid, build_operator, eigen_full

# one deterministic setting for every property test: the same examples on
# every run, and no per-example deadline (the first example of a test may
# pay for an import); each test sets its own max_examples
settings.register_profile("warptrap", derandomize=True, deadline=None)
settings.load_profile("warptrap")


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Bind the LAPACK eigensolver (``dstemr`` in numpy's OpenBLAS) once,
    outside any timed region; every eigenpair solve uses it."""
    grid = Grid(0.0, 1.0, 8)
    eigen_full(build_operator(grid, lambda x: 0.0 * x))


@pytest.fixture(scope="session")
def geom_m1_trapped():
    return WarpGeometry.of(1, -1.0)


@pytest.fixture(scope="session")
def geom_m1_front():
    return WarpGeometry.of(1, 1.0)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
