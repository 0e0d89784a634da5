"""The default mode-tree generator reproduces the recorded golden trees."""

import pytest

from tests.golden_mode_trees import CELLS, load_golden, run_cell


def test_golden_file_covers_every_cell():
    assert sorted(load_golden()["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_tree_reproduces_golden_fingerprint(cell, workers):
    assert run_cell(cell, workers=workers) == load_golden()["cells"][cell]
