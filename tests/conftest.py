import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
# Opt-in: HYPOTHESIS_PROFILE=thorough runs every property test on 500 draws.
settings.register_profile("thorough", settings.get_profile("default"),
                          max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
