import numpy as np
import pytest

from crownkit.crown import random_crown_point, random_real_element  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20090)
