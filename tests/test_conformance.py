"""The law that runs is the law the oracle enumerates.

The exact oracle replays each law under :class:`EnumeratingStream`, while
production runs draw through :class:`RandomStream`, whose batched
primitives are separate code.  For every law on one fixed 6-record
population, the frequencies of the ordered selected-id tuple over fixed
seeds must match the enumerated path probabilities under a G-test.
Ordered tuples cover the laws whose estimate depends on draw order
(deepest, twoups, ces).
"""

import numpy as np
import pytest
from scipy import stats

from conftest import make_classification

from opsample.draw import RandomStream, derive_seed
from opsample.harness import enumerate_paths
from opsample.population import LabelingOracle
from opsample.techniques import REGISTRY, TECHNIQUES, TechniqueConfig, run_technique

#: ces's knobs, small enough for its 2,400 paths.
CES_KNOBS = {"ces_initial": 1, "ces_candidates": 2, "ces_group": 1, "ces_bins": 2}
SEEDS = 15_000
#: Per-law threshold.  The seeds are fixed, so the outcome is deterministic;
#: a correct law falls below it with probability 1e-4 over seed sets.
MIN_P = 1e-4
#: Tuples expected fewer times than this are pooled into one cell, so the
#: statistic's chi-square approximation holds.
MIN_EXPECTED = 5.0


def _population():
    return make_classification([0, 1, 0, 1, 1, 0], [0.1, 0.5, 0.2, 0.9, 0.05, 0.4])


def _config(name):
    aux = "chi" if REGISTRY[name].needs_chi else None
    knobs = CES_KNOBS if name == "ces" else {}
    return TechniqueConfig(technique=name, aux=aux, budget=3, k=2, **knobs)


def _path_law(pop, config):
    """Exact probability of each ordered selected-id tuple, summed over the paths giving it."""
    law = {}
    for probability, result in enumerate_paths(pop, config):
        key = tuple(result.selected_ids.tolist())
        law[key] = law.get(key, 0.0) + probability
    return law


@pytest.mark.parametrize("name", TECHNIQUES)
def test_random_stream_draws_the_enumerated_law(name):
    pop, config = _population(), _config(name)
    law = _path_law(pop, config)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    seen = {}
    for i in range(SEEDS):
        rng = RandomStream(derive_seed(0, "conformance", name, i))
        result = run_technique(pop, LabelingOracle(pop), config, rng)
        key = tuple(result.selected_ids.tolist())
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) <= set(law), "a drawn tuple lies outside the enumerated support"

    g, p, cells = _g_test(law, seen)
    assert p > MIN_P, f"{name}: G = {g:.1f} over {cells} cells, p = {p:.2e}"


def _g_test(law, seen):
    """(G, p, cells) of the drawn tuple counts against the enumerated law."""
    keys = list(law)
    total = sum(seen.values())
    expected = np.array([law[key] * total for key in keys])
    observed = np.array([seen.get(key, 0) for key in keys], dtype=float)
    rare = expected < MIN_EXPECTED
    if rare.any():
        expected = np.append(expected[~rare], expected[rare].sum())
        observed = np.append(observed[~rare], observed[rare].sum())
    # The expectations sum to the draw count up to rounding; scale them onto it exactly.
    expected *= total / expected.sum()
    g, p = stats.power_divergence(observed, expected, lambda_="log-likelihood")
    return float(g), float(p), len(expected)
