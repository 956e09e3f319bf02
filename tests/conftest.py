import os

# BLAS is pinned before numpy loads, as in the benchmark: the sigma problems
# are small enough that a second OpenBLAS thread costs more than it gains
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from polydet.geometry import build_polygon, field_from_vertex_velocities
from polydet.validation import (  # noqa: F401  (re-exported to the test modules)
    _dilation as dilation_field,
    _random_convex as random_convex_polygon,
    _side_shift as side_shift_field,
)


def translation_field(p, c=1.0 + 0.5j):
    return field_from_vertex_velocities(p, [c] * p.n)


def rotation_field(p):
    return field_from_vertex_velocities(p, [1j * v for v in p.vertices])


def jittered_initialization(monkeypatch, jitter, seed):
    """Make the SC solve start from its initial gap logs plus seeded
    Gaussian noise of size jitter."""
    from polydet import scmap

    real = scmap._initial_gap_logs

    def jittered(L):
        u0 = real(L)
        return u0 + jitter * np.random.default_rng(seed).standard_normal(u0.shape)

    monkeypatch.setattr(scmap, "_initial_gap_logs", jittered)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# the triangle of criterion 7, whose moved copies carry a close eigenvalue pair
CRIT7_TRIANGLE = (0, 1, 0.3 + 0.8j)


@pytest.fixture(scope="session")
def unit_square():
    return build_polygon([0, 1, 1 + 1j, 1j])


@pytest.fixture(scope="session")
def crit7_triangle():
    return build_polygon(CRIT7_TRIANGLE)
