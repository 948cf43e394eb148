import numpy as np
import pytest

import stopngo as sg
from stopngo.kernels import solve_kernels
from stopngo.riemann import boundary_rows


@pytest.fixture(scope="session")
def net():
    return sg.default_network()


@pytest.fixture(scope="session")
def rows(net):
    return boundary_rows(net)


@pytest.fixture(scope="session")
def window(net):
    return net.ss1.kappa + net.ss2.kappa


@pytest.fixture(scope="session")
def tables(net):
    """Kernel-table factory with a per-resolution cache.

    Closed-loop runs need the table grid to match the simulation grid, so
    several modules ask for the same resolutions; solving once is enough.
    """
    cache = {}

    def get(M):
        if M not in cache:
            cache[M] = (
                solve_kernels(1, net, M=M),
                solve_kernels(2, net, M=M),
            )
        return cache[M]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260818)
