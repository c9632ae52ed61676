import numpy as np

from opsample.population import CLASSIFICATION, REGRESSION, Population


def make_classification(z, chi=None):
    """Tiny classification population with given failure flags and chi."""
    n = len(z)
    aux = None if chi is None else {"chi": np.array(chi, dtype=float)}
    return Population(CLASSIFICATION, np.arange(n), [int(zi) for zi in z], np.zeros(n, int), aux)


def make_regression(deltas, chi=None):
    """Tiny regression population with given absolute offsets and chi."""
    n = len(deltas)
    aux = None if chi is None else {"chi": np.array(chi, dtype=float)}
    return Population(REGRESSION, np.arange(n), np.zeros(n), np.array(deltas, dtype=float), aux)


def random_tiny_population(rng: np.random.Generator, task=CLASSIFICATION, n_min=3, n_max=6):
    """Random tiny population with arbitrary outcomes and strictly positive chi."""
    n = int(rng.integers(n_min, n_max + 1))
    chi = rng.random(n) + 0.05
    if task == CLASSIFICATION:
        z = rng.integers(0, 2, size=n)
        return make_classification(z, chi)
    deltas = rng.random(n)
    return make_regression(deltas, chi)
