"""Operational-dataset model, file ingestion, synthetic populations, labeling oracle.

The population holds predictions plus hidden ground truth.  Sampling
techniques may only learn true outcomes through a :class:`LabelingOracle`,
which meters labeling cost per distinct example.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .auxvar import min_max_normalize
from .draw import RandomStream

__all__ = [
    "CLASSIFICATION",
    "REGRESSION",
    "Population",
    "LabelingOracle",
    "SyntheticConfig",
    "load_population",
    "generate_synthetic",
    "true_accuracy",
]

CLASSIFICATION = "classification"
REGRESSION = "regression"


class Population:
    """The full operational dataset D as columns; immutable after construction.

    Holds the true and predicted columns (labels for classification, values
    for regression), a dict of auxiliary columns and an optional feature
    matrix, all in record-id order.  Row k of every argument is one record;
    ``ids`` must be a permutation of 0..N-1, and rows are reordered by id.
    A non-finite value or auxiliary value is refused with its row number.
    """

    def __init__(self, task, ids, true, predicted, aux=None, features=None):
        if task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {task!r}")
        ids = np.asarray(ids, dtype=np.int64)
        N = ids.size
        if N == 0:
            raise ValueError("population must contain at least one record")
        if task == CLASSIFICATION:
            true, predicted = np.asarray(true), np.asarray(predicted)
            if true.dtype.kind not in "biu" or predicted.dtype.kind not in "biu":
                raise ValueError("class labels must be integers")
            true, predicted = true.astype(np.int64), predicted.astype(np.int64)
        else:
            true, predicted = np.asarray(true, dtype=float), np.asarray(predicted, dtype=float)
        aux = {name: np.asarray(col, dtype=float) for name, col in (aux or {}).items()}
        if features is not None:
            features = np.asarray(features, dtype=float)
        if any(col.shape != (N,) for col in (true, predicted, *aux.values())) or (
            features is not None and (features.ndim != 2 or len(features) != N)
        ):
            raise ValueError(f"every column must hold one entry per record ({N})")
        if task == REGRESSION:
            _require_finite(true, "non-finite true_value")
            _require_finite(predicted, "non-finite predicted_value")
        if aux:
            _require_finite(np.vstack(list(aux.values())), "non-finite auxiliary value")
        if not np.array_equal(np.sort(ids), np.arange(N)):
            raise ValueError("record ids must be unique and dense in [0, N)")
        if np.any(ids != np.arange(N)):
            by_id = np.argsort(ids)
            true, predicted = true[by_id], predicted[by_id]
            aux = {name: col[by_id] for name, col in aux.items()}
            features = None if features is None else features[by_id]
        self.task = task
        self.N = N
        self._true = true
        self._predicted = predicted
        self._aux = aux
        self._features = features
        # Outcome: z (misclassification flag) or delta (absolute offset).
        if task == CLASSIFICATION:
            self._outcomes = (predicted != true).astype(float)
        else:
            self._outcomes = np.abs(true - predicted)

    @property
    def aux_names(self):
        return sorted(self._aux)

    def aux_vector(self, name: str) -> np.ndarray:
        """A read-only view of the named auxiliary column; refused if any value is negative."""
        if name not in self._aux:
            raise KeyError(f"auxiliary variable {name!r} not present (have {self.aux_names})")
        values = self._aux[name].view()
        if np.any(values < 0):
            raise ValueError("auxiliary values must be nonnegative")
        values.flags.writeable = False
        return values

    def features_matrix(self) -> np.ndarray | None:
        """Feature vectors for representativeness-driven selection, if present."""
        return self._features

    def _true_outcomes(self) -> np.ndarray:
        """Full ground truth; evaluation-side only, never handed to techniques."""
        return self._outcomes


def _require_finite(columns: np.ndarray, what: str):
    """Refuse the first row (last axis) holding a non-finite entry in any column."""
    bad = ~np.isfinite(columns)
    if bad.any():
        row = int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])
        raise ValueError(f"{what} at row {row}")


class LabelingOracle:
    """Gatekeeper for ground truth: reveals one outcome at a time, counts cost.

    Cost is counted per distinct example; re-revealing an already labeled
    example is free (a human labels each input once).
    """

    def __init__(self, population: Population):
        self.population = population
        self._mask = np.zeros(population.N, dtype=bool)
        self.reveal_count = 0

    def reveal(self, record_id: int):
        if not 0 <= record_id < self.population.N:
            raise IndexError(f"record id {record_id} out of range")
        if not self._mask[record_id]:
            self._mask[record_id] = True
            self.reveal_count += 1
        value = self.population._true_outcomes()[record_id]
        return int(value) if self.population.task == CLASSIFICATION else float(value)

    def reveal_many(self, record_ids) -> np.ndarray:
        ids = np.asarray(record_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.population.N):
            raise IndexError("record id out of range")
        self._mask[ids] = True
        self.reveal_count = int(np.count_nonzero(self._mask))
        return self.population._true_outcomes()[ids]

    def labeled_outcomes(self):
        """(ids, outcomes) over everything labeled so far, id-ascending."""
        ids = np.flatnonzero(self._mask)
        return ids, self.population._true_outcomes()[ids]


@dataclass
class SyntheticConfig:
    """Knobs for ground-truth-controllable test populations."""

    task: str = CLASSIFICATION
    N: int = 10000
    target_accuracy: float = 0.9
    chi_correlation: float = 0.8
    noise_seed: int | None = None
    offset_scale: float = 0.25
    failure_slope: float = 4.0
    # Right-skew of the auxiliary variable (0 = linear latent).  Confidence
    # style scores on accurate models are heavily right-skewed; a skewed chi
    # is what makes unequal-probability sampling expose many more failures.
    chi_skew: float = 1.5

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not 0.0 < self.target_accuracy < 1.0:
            raise ValueError("infeasible calibration: target accuracy must be in (0, 1)")
        if not -1.0 <= self.chi_correlation <= 1.0:
            raise ValueError("chi correlation must lie in [-1, 1]")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def generate_synthetic(config: SyntheticConfig, seed: int) -> Population:
    """Population with a tunable chi-to-failure correlation.

    A latent standard normal u drives both the failure mechanism and
    (mixed with independent noise per ``chi_correlation``) the auxiliary
    variable, so the correlation knob directly controls how informative chi
    is about failures.
    """
    rng = RandomStream(seed)
    noise = RandomStream(config.noise_seed) if config.noise_seed is not None else rng.split("chi-noise")
    u = rng.standard_normal(config.N)
    g = noise.standard_normal(config.N)
    rho = config.chi_correlation
    chi_latent = rho * u + math.sqrt(max(0.0, 1.0 - rho * rho)) * g
    if config.chi_skew:
        chi_latent = np.exp(config.chi_skew * chi_latent)
    chi = min_max_normalize(chi_latent)

    if config.task == CLASSIFICATION:
        target = 1.0 - config.target_accuracy
        v = rng.random(config.N)
        b = config.failure_slope

        def realized(a):
            return float(np.mean(v < _sigmoid(a + b * u)))

        lo, hi = -60.0, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if realized(mid) < target:
                lo = mid
            else:
                hi = mid
        # Bisection lands between adjacent crossing points, so the gap is at
        # most one record (1/N <= 1/sqrt(N)); pick the closest endpoint.
        a = min((lo, 0.5 * (lo + hi), hi), key=lambda c: abs(realized(c) - target))
        if abs(realized(a) - target) > 1.0 / math.sqrt(config.N):
            raise ValueError("infeasible calibration: cannot reach target accuracy")
        true = (v < _sigmoid(a + b * u)).astype(np.int64)
        predicted = np.zeros(config.N, dtype=np.int64)
    else:
        base = np.exp(config.offset_scale * u)
        scale = math.sqrt((1.0 - config.target_accuracy) / float(np.mean(base**2)))
        delta = scale * base
        sign = np.where(rng.random(config.N) < 0.5, -1.0, 1.0)
        true = rng.standard_normal(config.N)
        predicted = true + sign * delta
    return Population(config.task, np.arange(config.N), true, predicted, aux={"chi": chi})


def true_accuracy(population: Population) -> float:
    """xi = 1 - failure rate (classification) or 1 - mean squared offset."""
    outcomes = population._true_outcomes()
    if population.task == CLASSIFICATION:
        return 1.0 - float(np.mean(outcomes))
    delta_sq = float(np.mean(outcomes**2))
    if delta_sq > 1.0:
        warnings.warn(
            "unnormalized offsets: mean squared offset exceeds 1, accuracy is negative",
            stacklevel=2,
        )
    return 1.0 - delta_sq


_CLASS_COLS = ("id", "true_label", "predicted_label")
_REG_COLS = ("id", "true_value", "predicted_value")


def _population_from_file(columns: dict, schema: dict | None) -> Population:
    """Population from file columns (name -> list of raw cell values, file order)."""
    schema = dict(schema or {})
    names = list(columns)

    def actual(name):
        return schema.get(name, name)

    have_class = all(actual(c) in names for c in _CLASS_COLS[1:])
    have_reg = all(actual(c) in names for c in _REG_COLS[1:])
    if have_class and have_reg:
        raise ValueError("mixed task columns: both label and value pairs present")
    if not have_class and not have_reg:
        missing = [c for c in _CLASS_COLS[1:] + _REG_COLS[1:] if actual(c) not in names]
        raise ValueError(f"missing column(s): no complete task pair among {missing}")
    if actual("id") not in names:
        raise ValueError(f"missing column: {actual('id')}")
    task = CLASSIFICATION if have_class else REGRESSION
    id_col, true_col, pred_col = (actual(c) for c in (_CLASS_COLS if have_class else _REG_COLS))
    feat_cols = sorted(
        (c for c in names if c.startswith("feat_")),
        key=lambda c: int(c.split("_", 1)[1]),
    )
    reserved = {id_col, true_col, pred_col, *feat_cols}

    def floats(name):
        return np.array(list(map(float, columns[name])), dtype=float)

    # int() per cell keeps Python's message for a non-integer label.
    convert = (lambda name: list(map(int, columns[name]))) if have_class else floats
    return Population(
        task,
        list(map(int, columns[id_col])),
        convert(true_col),
        convert(pred_col),
        aux={c: floats(c) for c in names if c not in reserved},
        features=np.column_stack([floats(c) for c in feat_cols]) if feat_cols else None,
    )


def load_population(path, schema: dict | None = None) -> Population:
    """Read a population from CSV (header row) or JSON (list of objects).

    ``schema`` maps canonical column names (id, true_label, predicted_label,
    true_value, predicted_value) to the file's actual column names.  Any
    other column is an auxiliary variable, except feat_0..feat_m which form
    the feature matrix.  A non-finite value, a CSV row whose field count
    differs from the header's and a JSON row whose keys differ from row 0's
    are refused with their row number (0-based, header excluded).
    """
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        if not rows:
            raise ValueError("empty population file")
        keys = rows[0].keys()
        k = next((k for k, row in enumerate(rows) if row.keys() != keys), None)
        if k is not None:
            missing, extra = sorted(keys - rows[k].keys()), sorted(rows[k].keys() - keys)
            raise ValueError(f"row {k} has other keys than row 0: missing {missing}, extra {extra}")
        columns = {c: [row[c] for row in rows] for c in keys}
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
        if not rows:
            raise ValueError("empty population file")
        if set(map(len, rows)) != {len(header)}:
            k = next(k for k, row in enumerate(rows) if len(row) != len(header))
            raise ValueError(f"row {k} has {len(rows[k])} fields, the header {len(header)}")
        columns = dict(zip(header, zip(*rows)))
    return _population_from_file(columns, schema)


def write_population_csv(population: Population, path):
    """Inverse of load_population for the canonical column layout."""
    aux_names = population.aux_names
    feats = population.features_matrix()
    if population.task == CLASSIFICATION:
        head = ["id", "true_label", "predicted_label"]
    else:
        head = ["id", "true_value", "predicted_value"]
    head += aux_names
    # tolist() gives Python ints and floats, which csv writes as their repr.
    columns = [range(population.N), population._true.tolist(), population._predicted.tolist()]
    columns += [population._aux[a].tolist() for a in aux_names]
    if feats is not None:
        head += [f"feat_{j}" for j in range(feats.shape[1])]
        columns += feats.T.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        writer.writerows(zip(*columns))
