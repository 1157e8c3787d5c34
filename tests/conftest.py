import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bkneser import KneserParams, brute_force_phi, build_graph, exact_phi


@pytest.fixture(scope="session")
def k3():
    return build_graph(KneserParams(1, 1))


@pytest.fixture(scope="session")
def matching6():
    return build_graph(KneserParams(2, 0))


@pytest.fixture(scope="session")
def petersen():
    return build_graph(KneserParams(2, 1))


@pytest.fixture(scope="session")
def petersen_exact(petersen):
    return exact_phi(petersen)


@pytest.fixture(scope="session")
def petersen_brute(petersen):
    return brute_force_phi(petersen)


@pytest.fixture(scope="session")
def kg62():
    return build_graph(KneserParams(2, 2))


@pytest.fixture(scope="session")
def kg62_brute(kg62):
    return brute_force_phi(kg62, cap=15)
