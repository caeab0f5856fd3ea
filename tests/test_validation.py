import numpy as np
import pytest

from bitlet.layout import subset_of_row
from bitlet.validation import _subsets, run_validation


def test_every_self_check_passes():
    # runs every catalog program and every move program through the simulator
    checks = run_validation("all")
    assert len(checks) == 16
    assert [c for c in checks if not c.passed] == []


@pytest.mark.parametrize("k", range(1, 6))
def test_subset_lookup_equals_subset_of_row(k):
    for rows in range(1, 131):
        want = [subset_of_row(r, rows, k) for r in range(rows)]
        assert _subsets(np.arange(rows), rows, k).tolist() == want
