"""Fixtures shared across test modules."""

import pytest

from repro.experiments import fig10_xc90


@pytest.fixture(scope="session")
def fig10_results():
    """Fig. 10's three scenarios at a 1.2 s horizon, run once for the
    figure's tests and the cruise-control example (read-only)."""
    return fig10_xc90.run_all(duration_s=1.2)
