"""The shared ``rng`` fixture; helpers live in ``oracles.py``."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
