import numpy as np
import pytest

from liefilter.groups import SO3, DiagonalGroup, MatrixLieGroup


@pytest.fixture(scope="session")
def so3():
    return SO3()


@pytest.fixture(scope="session")
def diag3():
    return DiagonalGroup(3)


@pytest.fixture(scope="session")
def diag1():
    return DiagonalGroup(1)


@pytest.fixture(scope="session")
def generic_so3():
    """SO(3) served by the generic power-series fallbacks instead of the
    closed forms; exercises the base-class code paths."""
    basis = np.zeros((3, 3, 3))
    basis[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    basis[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    basis[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    return MatrixLieGroup(basis, name="generic-so3")


@pytest.fixture(scope="session")
def se3():
    """SE(3) as 4x4 homogeneous matrices, coordinates (rotation, translation),
    built from its basis so every Jacobian comes from the generic fallbacks."""
    basis = np.zeros((6, 4, 4))
    basis[:3, :3, :3] = SO3().basis
    for i in range(3):
        basis[3 + i, i, 3] = 1.0
    return MatrixLieGroup(basis, name="SE(3)")


def assert_bitwise(a, b):
    """Equal shapes, values and sign bits, so that -0.0 differs from +0.0."""
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def random_ball(rng, radius, count=1):
    """Uniformly scaled random directions with norms up to ``radius``."""
    v = rng.standard_normal((count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (radius * rng.uniform(0.05, 1.0, (count, 1)))
