"""The shared ``rng`` fixture and the Hypothesis profiles; helpers live in ``oracles.py``.

Property tests run under the ``replay`` profile: the same examples on every
run and in every checkout, with no example database (no ``.hypothesis/``
directory whose saved failures one checkout replays and a fresh clone does
not). ``pytest --hypothesis-profile=explore --hypothesis-seed=N`` draws new
examples from seed ``N`` instead.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("replay", database=None, derandomize=True)
settings.register_profile("explore", database=None)
settings.load_profile("replay")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
