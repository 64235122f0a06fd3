"""Fixtures shared by more than one test module."""

import math

import pytest

from kslab import solver
from kslab.functionals import _INTEGRANDS


@pytest.fixture()
def overflow_row(monkeypatch):
    """overflow_row(at) makes the P_SG integral of the at-th diagnostics
    row that the solver computes from then on (row 0 is the initial
    state's) overflow to inf, as a steep state's P_SG can."""
    def arm(at):
        real, calls = solver._integrals, []

        def overflowing(*args):
            sums = real(*args)
            calls.append(None)
            if len(calls) == at + 1:
                sums[_INTEGRANDS.index("P_SG")] = math.inf
            return sums

        monkeypatch.setattr(solver, "_integrals", overflowing)
    return arm
