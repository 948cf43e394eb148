import dataclasses

import numpy as np
import pytest

import stopngo as sg
from stopngo.kernels import solve_kernels
from stopngo.riemann import boundary_rows


@pytest.fixture(scope="session")
def net():
    return sg.default_network()


@pytest.fixture(scope="session")
def gamma_net(net):
    """A network with non-unit exponents (1.6 and 0.9) and unequal rho_max and tau."""
    return sg.make_network(
        dataclasses.replace(net.seg1, gamma=1.6, tau=150.0, rho_max=0.7),
        dataclasses.replace(net.seg2, gamma=0.9, tau=75.0, rho_max=0.9),
        5.0,
    )


@pytest.fixture(scope="session")
def rows(net):
    return boundary_rows(net)


@pytest.fixture(scope="session")
def window(net):
    return net.ss1.kappa + net.ss2.kappa


def _table_factory(net):
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
def tables(net):
    """Kernel-table factory with a per-resolution cache.

    Closed-loop runs read only the kernel constant D_i of a table, so any
    resolution serves any simulation grid; the tests that compare with the
    dense tables ask for them on the state grid, and several modules ask for
    the same resolutions, so solving once is enough.
    """
    return _table_factory(net)


@pytest.fixture(scope="session")
def gamma_tables(gamma_net):
    """The same factory for ``gamma_net``."""
    return _table_factory(gamma_net)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260818)
