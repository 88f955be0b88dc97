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
def fields(certificate):
    """The certificate's AuxFields: u_0, v and w from its shots."""
    return build_profiles(certificate)


@pytest.fixture(scope="session")
def tables(fields):
    """(u_0, v, w) tabulated on 4096 cells."""
    return fields.tabulate(4096)


@pytest.fixture(scope="session")
def tables_ladder(fields, tables):
    """{n: (u_0, v, w) on n cells}, n = 512, 1024, 2048 and 4096."""
    return {**{n: fields.tabulate(n) for n in (512, 1024, 2048)},
            4096: tables}


@pytest.fixture(scope="session")
def expansion(fields):
    """(report, seconds): one default expansion_check and its wall time."""
    start = time.perf_counter()
    report = expansion_check(fields)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def refinement(fields):
    """One refinement_sweep of the fields."""
    return refinement_sweep(fields)


@pytest.fixture(scope="session")
def w_eta_ladder(certificate, tables_ladder):
    """{n: w_eta at eta = 0.45 e_2 on n-cell tables}, n = 512, 1024,
    2048."""
    eta = np.zeros(6)
    eta[1] = 0.45
    return {n: w_eta(certificate.lam0, *tables_ladder[n][:2], eta)
            for n in (512, 1024, 2048)}
