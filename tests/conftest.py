"""Shared fixtures, curve-file table helpers and hypothesis profile for the test suite."""

import base64
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fracvis.fractals import circle, koch_generalized, polyline

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

KOCH_CLASSIC_DIM = math.log(4) / math.log(3)


def encode_vertices(values) -> str:
    """The curve-file ``vertices`` string of a flat list of floats."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_vertices(text: str) -> np.ndarray:
    """The (m, 2) points of a curve-file ``vertices`` string, read as the
    README shows."""
    return np.frombuffer(base64.b64decode(text), "<f8").reshape(-1, 2)


@pytest.fixture(scope="session")
def unit_segment():
    return polyline([(0.0, 0.0), (1.0, 0.0)])


@pytest.fixture(scope="session")
def square():
    return polyline(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    )


@pytest.fixture(scope="session")
def circle_1024():
    return circle((0.0, 0.0), 1.0, 1024)


@pytest.fixture(scope="session")
def koch5():
    return koch_generalized(KOCH_CLASSIC_DIM, 5)


@pytest.fixture(scope="session")
def koch7():
    return koch_generalized(KOCH_CLASSIC_DIM, 7)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)
