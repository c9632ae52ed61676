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
    A non-finite value, auxiliary value or feature value is refused with its
    row number, and so is an auxiliary value above ``max_float / (16 N^2)``
    and a feature value above ``max_float / 2`` in magnitude.

    The auxiliary and feature columns are read-only copies, so label-free
    values derived from them can be kept: each is computed once per
    population under a key (see :meth:`_derived`), and none is pickled.
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
        aux = {name: np.array(col, dtype=float) for name, col in (aux or {}).items()}
        if features is not None:
            features = np.array(features, dtype=float)
        if any(col.shape != (N,) for col in (true, predicted, *aux.values())) or (
            features is not None and (features.ndim != 2 or len(features) != N)
        ):
            raise ValueError(f"every column must hold one entry per record ({N})")
        if task == REGRESSION:
            _refuse_rows(~np.isfinite(true), "non-finite true_value")
            _refuse_rows(~np.isfinite(predicted), "non-finite predicted_value")
        if aux:
            stacked = np.vstack(list(aux.values()))
            _refuse_rows(~np.isfinite(stacked), "non-finite auxiliary value")
            # Below this bound a sum over N values stays finite, with a factor
            # of 16 N to spare.
            _refuse_rows(np.abs(stacked) > np.finfo(float).max / (16 * N * N),
                         "auxiliary value too large")
        if features is not None:
            _refuse_rows(~np.isfinite(features.T), "non-finite feature value")
            # Below this bound a column's max - min stays finite.
            _refuse_rows(np.abs(features.T) > np.finfo(float).max / 2, "feature value too large")
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
        self._read_only_columns()
        self._memo = {}
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
        self._aux_range(name)
        return self._aux[name].view()  # a view of a read-only column cannot be made writeable

    def _aux_range(self, name: str) -> tuple:
        """(min, max) of the named auxiliary column; refused if the min is negative."""
        if name not in self._aux:
            raise KeyError(f"auxiliary variable {name!r} not present (have {self.aux_names})")
        col = self._aux[name]
        lo, hi = self._derived(("aux", name), lambda: (col.min(), col.max()))
        if lo < 0:
            raise ValueError("auxiliary values must be nonnegative")
        return lo, hi

    def _derived(self, key: tuple, compute):
        """``compute()``, computed once under ``key``; arrays in it are made read-only.

        ``key`` names every input that ``compute`` reads, and none is an
        outcome, so every run on this population may share the value.
        """
        if key not in self._memo:
            value = compute()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    def _read_only_columns(self):
        for col in (*self._aux.values(), self._features):
            if col is not None:
                col.flags.writeable = False

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_memo"]  # derived values are computed again, not shipped
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._read_only_columns()  # unpickled arrays come back writeable
        self._memo = {}

    def features_matrix(self) -> np.ndarray | None:
        """Feature vectors for representativeness-driven selection, if present; a read-only view."""
        return None if self._features is None else self._features.view()

    def _true_outcomes(self) -> np.ndarray:
        """Full ground truth; evaluation-side only, never handed to techniques."""
        return self._outcomes


def _refuse_rows(bad: np.ndarray, what: str):
    """Refuse the first row (last axis) where ``bad`` holds in any column."""
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

    @property
    def reveal_count(self) -> int:
        """The number of distinct examples labeled so far."""
        return int(np.count_nonzero(self._mask))

    def reveal(self, record_id: int):
        if not 0 <= record_id < self.population.N:
            raise IndexError(f"record id {record_id} out of range")
        self._mask[record_id] = True
        value = self.population._true_outcomes()[record_id]
        return int(value) if self.population.task == CLASSIFICATION else float(value)

    def reveal_many(self, record_ids) -> np.ndarray:
        ids = np.asarray(record_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.population.N):
            raise IndexError("record id out of range")
        self._mask[ids] = True
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
    offset_scale: float = 0.25

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not 0.0 < self.target_accuracy < 1.0:
            raise ValueError("infeasible calibration: target accuracy must be in (0, 1)")
        if not -1.0 <= self.chi_correlation <= 1.0:
            raise ValueError("chi correlation must lie in [-1, 1]")


# Slope of the classification failure logit in the latent u.
_FAILURE_SLOPE = 4.0
# Right-skew of the auxiliary variable.  Confidence style scores on accurate
# models are heavily right-skewed; a skewed chi is what makes
# unequal-probability sampling expose many more failures.
_CHI_SKEW = 1.5


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _failure_intercept(u, v, target: float) -> float:
    """The intercept a whose failure rate mean(v < sigmoid(a + slope * u)) is closest to target.

    Bisection on [-60, 60], stopped at its fixed point: once a step leaves
    (lo, hi) as it was, every later step recomputes the same midpoint.
    """

    def realized(a):
        return float(np.mean(v < _sigmoid(a + _FAILURE_SLOPE * u)))

    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if realized(mid) < target else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    # Bisection lands between adjacent crossing points, so the gap is at
    # most one record (1/N <= 1/sqrt(N)); pick the closest endpoint.
    a = min((lo, 0.5 * (lo + hi), hi), key=lambda c: abs(realized(c) - target))
    if abs(realized(a) - target) > 1.0 / math.sqrt(u.size):
        raise ValueError("infeasible calibration: cannot reach target accuracy")
    return a


def generate_synthetic(config: SyntheticConfig, seed: int) -> Population:
    """Population with a tunable chi-to-failure correlation.

    A latent standard normal u drives both the failure mechanism and
    (mixed with independent noise per ``chi_correlation``) the auxiliary
    variable, so the correlation knob directly controls how informative chi
    is about failures.
    """
    rng = RandomStream(seed)
    noise = rng.split("chi-noise")
    u = rng.standard_normal(config.N)
    g = noise.standard_normal(config.N)
    rho = config.chi_correlation
    chi_latent = rho * u + math.sqrt(max(0.0, 1.0 - rho * rho)) * g
    chi = min_max_normalize(np.exp(_CHI_SKEW * chi_latent))

    if config.task == CLASSIFICATION:
        v = rng.random(config.N)
        a = _failure_intercept(u, v, 1.0 - config.target_accuracy)
        true = (v < _sigmoid(a + _FAILURE_SLOPE * u)).astype(np.int64)
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


def _layout(names) -> tuple:
    """The roles of a file's columns: (task, integer columns, key, aux, features).

    key is (id, true, predicted); the integer columns are id, and the class
    labels of a classification file; aux keeps file order and features go by
    index, feat_0..feat_m.  Names with both task pairs, neither, or no id are
    refused.
    """
    have_class = all(c in names for c in _CLASS_COLS[1:])
    have_reg = all(c in names for c in _REG_COLS[1:])
    if have_class and have_reg:
        raise ValueError("mixed task columns: both label and value pairs present")
    if not have_class and not have_reg:
        missing = [c for c in _CLASS_COLS[1:] + _REG_COLS[1:] if c not in names]
        raise ValueError(f"missing column(s): no complete task pair among {missing}")
    if "id" not in names:
        raise ValueError("missing column: id")
    key = _CLASS_COLS if have_class else _REG_COLS
    feats = sorted(
        (c for c in names if c.startswith("feat_")),
        key=lambda c: int(c.split("_", 1)[1]),
    )
    aux = [c for c in names if c not in {*key, *feats}]
    task = CLASSIFICATION if have_class else REGRESSION
    return task, set(key if have_class else key[:1]), key, aux, feats


def _population_from_columns(columns: dict) -> Population:
    """Population from parsed file columns, name -> values in file order."""
    task, _, (id_col, true_col, pred_col), aux, feats = _layout(list(columns))
    return Population(
        task,
        columns[id_col],
        columns[true_col],
        columns[pred_col],
        aux={c: columns[c] for c in aux},
        features=np.column_stack([columns[c] for c in feats]) if feats else None,
    )


def _population_from_cells(columns: dict) -> Population:
    """Population from raw file cells, name -> cells in file order, parsed one by one.

    int() parses the integer columns and keeps Python's message for a
    non-integer id or label; float() parses the rest.  Cells are parsed in
    the order id, true, predicted, aux, features, so the first bad one named
    does not depend on where its column sits in the file.
    """
    _, ints, key, aux, feats = _layout(list(columns))
    return _population_from_columns({
        name: list(map(int, columns[name])) if name in ints
        else np.array(list(map(float, columns[name])), dtype=float)
        for name in (*key, *aux, *feats)
    })


# The bytes numpy's CSV parser reads exactly as float() and int() do.  numpy
# also strips \x1c-\x1f as whitespace, which Python refuses, and some
# non-ASCII cells crash its integer parser, so a file holding any other byte
# takes the per-cell parse.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def _parse_csv_body(path: str, header: list, header_lines: int) -> dict | None:
    """The CSV body as one array per header name, parsed by numpy in one pass.

    The integer columns of the header's layout are int64, every other
    column is float64.  None if numpy refuses the file or the header.
    """
    with open(path, "rb") as fh:
        chunks = iter(lambda: fh.read(1 << 16), b"")
        if any(chunk.translate(None, _PLAIN_BYTES) for chunk in chunks):
            return None
    try:
        ints = _layout(header)[1]
        dtype = np.dtype([(name, np.int64 if name in ints else np.float64) for name in header])
        if dtype.names != tuple(header):  # numpy renames an empty name
            return None
        with warnings.catch_warnings():
            # numpy releases that still deprecate (not refuse) reading an
            # integer cell such as 1.5 through a float only warn and truncate;
            # as an error the warning becomes numpy's ValueError.
            warnings.simplefilter("error", DeprecationWarning)
            body = np.loadtxt(
                path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                skiprows=header_lines, ndmin=1, encoding="utf-8",
            )
    except ValueError:
        return None
    return {name: np.ascontiguousarray(body[name]) for name in header}


def load_population(path) -> Population:
    """Read a population from CSV (header row) or JSON (list of objects).

    The columns are id and either true_label and predicted_label or
    true_value and predicted_value.  Any other column is an auxiliary variable, except feat_0..feat_m which form
    the feature matrix.  A non-finite value, a CSV row whose field count
    differs from the header's, a JSON row that is no object and a JSON row
    whose keys differ from row 0's are refused with their row number
    (0-based, header excluded).

    numpy parses a CSV body in one pass; a file it refuses is parsed cell
    by cell, which gives the same values and names the first bad cell or row.
    """
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        if not isinstance(rows, list):
            raise ValueError(f"JSON population must be a list of objects, not {type(rows).__name__}")
        if not rows:
            raise ValueError("empty population file")
        k = next((k for k, row in enumerate(rows) if not isinstance(row, dict)), None)
        if k is not None:
            raise ValueError(f"JSON population must be a list of objects; row {k} is not one")
        keys = rows[0].keys()
        k = next((k for k, row in enumerate(rows) if row.keys() != keys), None)
        if k is not None:
            missing, extra = sorted(keys - rows[k].keys()), sorted(rows[k].keys() - keys)
            raise ValueError(f"row {k} has other keys than row 0: missing {missing}, extra {extra}")
        return _population_from_cells({c: [row[c] for row in rows] for c in keys})
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        header_lines = reader.line_num
        first = next(filter(None, reader), None)  # the first non-blank row
        if first is None:
            raise ValueError("empty population file")
        body = _parse_csv_body(path, header, header_lines)
        if body is not None:
            return _population_from_columns(body)
        rows = [first, *filter(None, reader)]
    if set(map(len, rows)) != {len(header)}:
        k = next(k for k, row in enumerate(rows) if len(row) != len(header))
        raise ValueError(f"row {k} has {len(rows[k])} fields, the header {len(header)}")
    return _population_from_cells(dict(zip(header, zip(*rows))))


def write_population_csv(population: Population, path):
    """Inverse of load_population for the canonical column layout.

    The body goes out 4096 rows at a time, as one string with the bytes
    ``csv.writer`` writes: the repr of each Python int and float (none needs
    quoting) and CRLF line ends.  Only one block of rows is ever held as
    Python objects.
    """
    aux_names = population.aux_names
    feats = population.features_matrix()
    head = list(_CLASS_COLS if population.task == CLASSIFICATION else _REG_COLS) + aux_names
    columns = [np.arange(population.N), population._true, population._predicted]
    columns += [population._aux[a] for a in aux_names]
    if feats is not None:
        head += [f"feat_{j}" for j in range(feats.shape[1])]
        columns += list(feats.T)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(head)
        for start in range(0, population.N, 4096):
            # tolist() gives Python ints and floats, whose repr csv.writer writes.
            cells = (map(repr, column[start:start + 4096].tolist()) for column in columns)
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
