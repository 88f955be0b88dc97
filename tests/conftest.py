"""Session-wide fixtures: the expensive solves are shared across modules."""

import time

import numpy as np
import pytest

from bn6.auxiliary import build_profiles
from bn6.reduction import expansion_check
from bn6.shooting import find_lambda0

from oracles import refinement_sweep, w_eta


@pytest.fixture(scope="session")
def certificate():
    return find_lambda0(6)


@pytest.fixture(scope="session")
def profiles(certificate):
    return build_profiles(certificate, grid_n=4096)


@pytest.fixture(scope="session")
def profiles_ladder(certificate, profiles):
    """{n: the profiles on n cells}, n = 512, 1024, 2048 and 4096."""
    return {**{n: build_profiles(certificate, grid_n=n)
               for n in (512, 1024, 2048)}, 4096: profiles}


@pytest.fixture(scope="session")
def expansion(profiles):
    """(report, seconds): one default expansion_check and its wall time."""
    start = time.perf_counter()
    report = expansion_check(profiles)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def refinement(profiles):
    """One refinement_sweep of the profiles."""
    return refinement_sweep(profiles)


@pytest.fixture(scope="session")
def w_eta_ladder(profiles_ladder):
    """{n: w_eta at eta = 0.45 e_2 on n-cell profiles}, n = 512, 1024,
    2048."""
    eta = np.zeros(6)
    eta[1] = 0.45
    return {n: w_eta(profiles_ladder[n], eta) for n in (512, 1024, 2048)}
