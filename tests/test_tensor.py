"""Param, the trainable array carrier of the layers: masking, density and
the grad buffer."""

import numpy as np
import pytest

from jointprune.errors import ShapeError
from jointprune.layers import Param


def test_param_mask_zeroes_values():
    p = Param("w", np.array([1.0, -2.0, 3.0, -4.0]))
    assert p.density() == 1.0
    p.set_mask(np.array([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(p.value, [1.0, 0.0, 3.0, 0.0])
    assert p.density() == 0.5
    with pytest.raises(ShapeError, match="mask shape"):
        p.set_mask(np.ones(3))


def test_param_grad_buffer_matches():
    p = Param("w", np.zeros((3, 4), dtype=np.float32))
    assert p.grad.shape == (3, 4) and p.grad.dtype == np.float32
    assert np.all(p.grad == 0)
