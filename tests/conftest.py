import numpy as np
import pytest

from mfeit import RunConfig
from mfeit.phantom import make_phantom, synthesize_data

from helpers import TWO_BUMPS, ONE_BUMP


@pytest.fixture(scope="session")
def data33():
    """Two-bump dataset on the n=33 grid, 5 frequencies, refinement 2."""
    cfg = RunConfig(n=33, c0=0.2, n_freq=5, refinement=2, phantom=TWO_BUMPS)
    return synthesize_data(TWO_BUMPS, cfg), cfg


@pytest.fixture(scope="session")
def data33_single():
    """Single-bump dataset on the n=33 grid, 5 frequencies, refinement 2."""
    cfg = RunConfig(n=33, c0=0.2, n_freq=5, refinement=2, phantom=ONE_BUMP)
    return synthesize_data(ONE_BUMP, cfg), cfg


@pytest.fixture(scope="session")
def truth33(data33):
    data, cfg = data33
    return np.stack(make_phantom(TWO_BUMPS, data.grid, cfg.admissible))
