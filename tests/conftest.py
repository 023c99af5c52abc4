import numpy as np
import pytest


class ZeroNoise:
    """rng stand-in whose Gaussian and Gamma draws are all zero (disables noise)."""

    def standard_normal(self, size=None):
        if size is None:
            return 0.0
        return np.zeros(size)

    def gamma(self, shape, size=None):
        return np.zeros(np.shape(shape) if size is None else size)


@pytest.fixture
def zero_noise():
    return ZeroNoise()
