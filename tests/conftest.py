import functools

import numpy as np
import pytest

from jamsim import run_trials


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


@pytest.fixture(scope="session")
def trials():
    """run_trials(cfg, scheme, n_trials), each run once per session.

    Runs are deterministic in their arguments, so checks that need the same
    trials share one run.
    """
    return functools.cache(run_trials)
