"""Fixtures shared across test modules."""

import pytest

from repro.experiments.report import FIGURES


@pytest.fixture(scope="session")
def figure_result():
    """``figure_result(name)``: the result of ``report.FIGURES[name]`` at
    the ``tiny`` scale, computed once per test run (read-only)."""
    cache = {}
    figures = dict(FIGURES)  # the real entries, whatever a test patches later

    def result(name):
        if name not in cache:
            figure = figures[name]
            cache[name] = figure.run(**figure.params["tiny"])
        return cache[name]

    return result
