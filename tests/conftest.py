import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests replay the same examples on every run: no random seed, no
# example database, no wall-clock deadline (the first call of a kernel pays
# for imports and caches).  ``--hypothesis-profile`` selects another profile.
settings.register_profile(
    "critsense", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("critsense")

from critsense import ModelSpec, PauliOperator, solve_model


def sum_z(L):
    return PauliOperator(L, [(1.0, "I" * j + "Z" + "I" * (L - 1 - j)) for j in range(L)])


def staggered_z(L):
    return PauliOperator(
        L, [((-1.0) ** j, "I" * j + "Z" + "I" * (L - 1 - j)) for j in range(L)]
    )


@pytest.fixture(scope="session")
def critical_states():
    """Ground states of the uniform critical chain, cached per size."""
    cache = {}

    def get(L, J=1.0, h=1.0, boundary="periodic"):
        key = (L, J, h, boundary)
        if key not in cache:
            cache[key] = solve_model(
                ModelSpec(kind="tfim", L=L, J=J, h=h, boundary=boundary)
            )
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(np.random.Philox(20260809))
