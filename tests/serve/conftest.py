"""Serve-suite fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import random_tensor


@pytest.fixture
def pair():
    """A modest contraction pair shared across serve tests."""
    x = random_tensor((8, 7, 5, 4), 160, seed=211)
    y = random_tensor((5, 4, 9), 90, seed=212)
    return x, y, (2, 3), (0, 1)


def assert_tensors_bit_identical(z, ref, label: str) -> None:
    assert tuple(z.shape) == tuple(ref.shape), label
    np.testing.assert_array_equal(
        z.indices, ref.indices, err_msg=f"{label}: index mismatch"
    )
    np.testing.assert_array_equal(
        z.values, ref.values, err_msg=f"{label}: value bytes differ"
    )
