import numpy as np
import pytest

from coxspec import build_group, cayley_graph
from coxspec.verify import run_suite

PHI = (1 + np.sqrt(5)) / 2


@pytest.fixture(scope="session")
def groups():
    return {name: build_group(name) for name in ("A3", "B3", "H3")}


@pytest.fixture(scope="session")
def h3(groups):
    return groups["H3"]


@pytest.fixture(scope="session")
def a3(groups):
    return groups["A3"]


@pytest.fixture(scope="session")
def b3(groups):
    return groups["B3"]


@pytest.fixture(scope="session")
def graphs(groups):
    return {name: cayley_graph(g) for name, g in groups.items()}


@pytest.fixture(scope="session")
def verify_report():
    """The records of `coxspec verify --suite all`, computed once."""
    return run_suite("all")
