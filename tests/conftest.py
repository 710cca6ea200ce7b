import numpy as np
import pytest

from nlqsim import nlcompiler, statevec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, n):
    """A normalized random principal vector of 2**n amplitudes."""
    a = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return statevec.init_from_amplitudes(a)


def random_register(rng, n):
    """A register whose ancilla-|0> branch is a random principal vector."""
    return statevec.clean_register(random_state(rng, n))


def random_coupling(rng, n, scale=1.0):
    m = rng.normal(size=(2**n, 2**n)) * scale
    return nlcompiler.CouplingMatrix.from_dense((m + m.T) / 2.0)
