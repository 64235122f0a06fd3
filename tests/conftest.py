"""Fixtures shared by more than one test module."""

import math

import pytest

from kslab import solver


@pytest.fixture()
def overflow_row(monkeypatch):
    """overflow_row(at) makes the P_SG integral of the at-th diagnostics
    row that the solver computes from then on (row 0 is the initial
    state's) overflow to inf, as a steep state's P_SG can."""
    def arm(at):
        real, calls = solver._integrals, []

        def overflowing(*args):
            rep = real(*args)
            calls.append(None)
            if len(calls) == at + 1:
                return rep._replace(g_norm_sq=math.inf)
            return rep

        monkeypatch.setattr(solver, "_integrals", overflowing)
    return arm
