import numpy as np
import pytest

import liegroup_index as li


@pytest.fixture(scope="session")
def t1():
    return li.torus(1)


@pytest.fixture(scope="session")
def t2():
    return li.torus(2)


@pytest.fixture(scope="session")
def rule_t1(t1):
    # resolves band 10 products
    return li.haar_quadrature(t1, 21)


@pytest.fixture(scope="session")
def rule_su2():
    # resolves band 6 products (all l <= 3 Schur pairs)
    return li.haar_quadrature(li.SU2, 6)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def random_su2_point(rng):
    t = rng.uniform(0.0, 2.0 * np.pi)
    nu = rng.uniform(-1.0, 1.0) * np.sin(t / 2.0)
    s = rng.uniform(0.0, 2.0 * np.pi)
    return li.su2_point(t, nu, s)


def basis_entries(basis):
    """(xi, i, j) of every basis entry, in the basis order."""
    return [(xi, i, j) for xi in basis.labels
            for i in range(xi.dim) for j in range(xi.dim)]
