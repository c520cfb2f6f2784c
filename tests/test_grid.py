import numpy as np
import pytest

from spinkin.grid import SpatialGrid1D


def test_wavenumbers_computed_once_and_read_only():
    grid = SpatialGrid1D(16, 2 * np.pi)
    k = grid.k
    assert grid.k is k
    assert np.array_equal(k, 2 * np.pi * np.fft.fftfreq(16, d=grid.dx))
    with pytest.raises(ValueError):
        k[1] = 0.0
    # derivative's odd-order Nyquist zeroing must not touch the shared copy
    assert np.allclose(grid.derivative(np.sin(grid.x)), np.cos(grid.x))
    assert grid.k[8] == k[8] != 0.0
