import sys

import numpy as np
import pytest

import coxspec.cli  # noqa: F401  (binds build_operator; patched by no_operator)
from coxspec import build_group, randwalk
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
def verify_report():
    """The records of `coxspec verify --suite all`, computed once."""
    return run_suite("all")


@pytest.fixture
def no_operator(monkeypatch):
    """`build_operator` raises at every module that binds it: a test that
    takes this fixture shows that its calls build no dense operator."""
    original = randwalk.build_operator

    def refuse(group, x):
        raise AssertionError("dense operator built")

    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coxspec" and getattr(module, "build_operator", None) is original:
            monkeypatch.setattr(module, "build_operator", refuse)
            patched.append(name)
    assert {"coxspec.randwalk", "coxspec.verify", "coxspec.cli"} <= set(patched)
