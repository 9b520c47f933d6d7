import os

import numpy as np
import pytest
from hypothesis import settings

# the CI workflow selects "ci": the same examples on every run, and no per-example deadline
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
