"""Sampling-based estimation of operational model accuracy from a labeling budget."""

from .auxvar import (
    ActivationTraces,
    ChiVector,
    chi_from_confidence,
    compute_dsa,
    compute_lsa,
    min_max_normalize,
    reconstruction_error,
    selection_probabilities,
    shift_positive,
)
from .draw import (
    RandomStream,
    derive_seed,
    pps_with_replacement,
    srs_with_replacement,
    srs_without_replacement,
)
from .harness import (
    EvalConfig,
    EvalReport,
    IntractableError,
    NotEnumerableError,
    enumerate_expectation,
    enumerate_paths,
    offset_histogram,
    rmedse,
    rmse,
    run_experiment,
    summarize,
)
from .partition import PartitionMap, kmeans_1d, neyman_allocation
from .population import (
    CLASSIFICATION,
    REGRESSION,
    LabelingOracle,
    Population,
    SyntheticConfig,
    generate_synthetic,
    load_population,
    true_accuracy,
    write_population_csv,
)
from .techniques import (
    TECHNIQUES,
    TechniqueConfig,
    TechniqueResult,
    run_technique,
    ssrs_allocation,
)

__version__ = "0.1.0"
