"""Session-wide fixtures: the expensive solves are shared across modules."""

import time

import pytest

from bn6.auxiliary import build_profiles
from bn6.reduction import expansion_check
from bn6.shooting import find_lambda0


@pytest.fixture(scope="session")
def certificate():
    return find_lambda0(6)


@pytest.fixture(scope="session")
def profiles(certificate):
    return build_profiles(6, certificate, grid_n=4096)


@pytest.fixture(scope="session")
def profiles_coarse(certificate):
    return build_profiles(6, certificate, grid_n=2048)


@pytest.fixture(scope="session")
def expansion(profiles):
    """(report, seconds): one default expansion_check and its wall time."""
    start = time.perf_counter()
    report = expansion_check(profiles)
    return report, time.perf_counter() - start
