import csv
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_classification, make_regression

from opsample.population import (
    CLASSIFICATION,
    REGRESSION,
    LabelingOracle,
    Population,
    SyntheticConfig,
    _failure_intercept,
    generate_synthetic,
    load_population,
    true_accuracy,
    write_population_csv,
)


class TestLoad:
    def test_three_row_classification_csv(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(
            "id,true_label,predicted_label,confidence\n0,1,1,0.9\n1,0,1,0.6\n2,2,2,0.8\n"
        )
        pop = load_population(path)
        assert pop.N == 3
        assert pop.task == CLASSIFICATION
        np.testing.assert_allclose(pop.aux_vector("confidence"), [0.9, 0.6, 0.8])
        assert true_accuracy(pop) == pytest.approx(2 / 3)

    def test_nan_aux_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label,confidence\n0,1,1,0.9\n1,0,1,nan\n")
        with pytest.raises(ValueError, match="non-finite auxiliary value at row 1"):
            load_population(path)

    @pytest.mark.parametrize("column", ["true_value", "predicted_value"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_outcome_rejected(self, tmp_path, column, bad):
        row = {"true_value": "1.5", "predicted_value": "1.0"}
        row[column] = bad
        path = tmp_path / "pop.csv"
        path.write_text(
            "id,true_value,predicted_value\n0,1.5,1.0\n"
            f"1,{row['true_value']},{row['predicted_value']}\n"
        )
        with pytest.raises(ValueError, match=f"non-finite {column} at row 1"):
            load_population(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label\n0,1,1\n1,0.5,1\n")
        with pytest.raises(ValueError, match="invalid literal for int"):
            load_population(path)

    def test_rows_reordered_by_id(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label,chi\n1,1,0,0.25\n0,0,0,0.75\n")
        pop = load_population(path)
        np.testing.assert_array_equal(pop._true_outcomes(), [0.0, 1.0])
        np.testing.assert_array_equal(pop.aux_vector("chi"), [0.75, 0.25])

    def test_sparse_ids_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label\n0,1,0\n2,0,0\n")
        with pytest.raises(ValueError, match="dense"):
            load_population(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label,chi\n0,1,0,0.5\n1,0,0\n")
        with pytest.raises(ValueError, match="row 1 has 3 fields"):
            load_population(path)

    def test_regression_csv(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_value,predicted_value\n0,1.5,1.0\n1,2.0,2.25\n")
        pop = load_population(path)
        assert pop.task == REGRESSION
        np.testing.assert_allclose(pop._true_outcomes(), [0.5, 0.25])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label\n0,1\n")
        with pytest.raises(ValueError, match="missing"):
            load_population(path)

    def test_mixed_task_columns(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(
            "id,true_label,predicted_label,true_value,predicted_value\n0,1,1,0.0,0.0\n"
        )
        with pytest.raises(ValueError, match="mixed task"):
            load_population(path)

    def test_json_roundtrip(self, tmp_path):
        rows = [
            {"id": 0, "true_label": 1, "predicted_label": 1, "chi": 0.2},
            {"id": 1, "true_label": 0, "predicted_label": 1, "chi": 0.7},
        ]
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(rows))
        pop = load_population(path)
        assert pop.N == 2
        np.testing.assert_allclose(pop.aux_vector("chi"), [0.2, 0.7])

    @pytest.mark.parametrize(
        "row, match",
        [
            ({"id": 1, "true_label": 0, "predicted_label": 1},
             r"row 1 has other keys than row 0: missing \['chi'\], extra \[\]"),
            ({"id": 1, "true_label": 0, "predicted_label": 1, "chi": 0.7, "dsa": 0.1},
             r"row 1 has other keys than row 0: missing \[\], extra \['dsa'\]"),
        ],
    )
    def test_json_ragged_row_rejected(self, tmp_path, row, match):
        rows = [{"id": 0, "true_label": 1, "predicted_label": 1, "chi": 0.2}, row]
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match=match):
            load_population(path)

    def test_feature_columns(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label,feat_0,feat_1\n0,1,1,0.5,0.1\n1,0,1,0.2,0.9\n")
        pop = load_population(path)
        assert pop.features_matrix().shape == (2, 2)
        assert pop.aux_names == []

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,true_label,predicted_label,feat_0,feat_1\n0,1,1,0.5,0.1\n1,0,1,0.2,nan\n")
        with pytest.raises(ValueError, match="non-finite feature value at row 1"):
            load_population(path)

    def test_csv_roundtrip_preserves_everything(self, tmp_path):
        pop = generate_synthetic(SyntheticConfig(N=40), seed=3)
        path = tmp_path / "out.csv"
        write_population_csv(pop, path)
        back = load_population(path)
        assert back.N == pop.N
        np.testing.assert_array_equal(back._true_outcomes(), pop._true_outcomes())
        np.testing.assert_allclose(
            back.aux_vector("chi"), pop.aux_vector("chi")
        )


    def test_csv_roundtrip_keeps_the_feature_matrix(self, tmp_path):
        features = np.array([[0.5, 1.25], [0.1, 3.0], [2.0 / 3.0, 0.0]])
        pop = Population(
            CLASSIFICATION, [0, 1, 2], [1, 0, 1], [1, 1, 1], aux={"chi": [0.3, 0.2, 0.1]},
            features=features,
        )
        path = tmp_path / "features.csv"
        write_population_csv(pop, path)
        back = load_population(path)
        np.testing.assert_array_equal(back.features_matrix(), features)
        assert back.aux_names == ["chi"]


_CLASS_HEAD = "id,true_label,predicted_label,chi\n"
_REG_HEAD = "id,true_value,predicted_value,chi\n"
_ROWS = "0,1,1,0.5\n1,0,1,0.25\n"
_LOADED = (CLASSIFICATION, [1, 0], [1, 1], {"chi": [0.5, 0.25]}, None)

# CSV body -> what load_population gives: (task, true, predicted, aux,
# features) compared bitwise, or the exact (error type, message).  Recorded
# from the loader that parsed every file cell by cell with float() and int().
LOADER_CASES = {
    "quoted-cells": (_CLASS_HEAD + '"0","1","1","0.5"\n1,0,"1",0.25\n', _LOADED),
    "spaces-around-values": (_CLASS_HEAD + "0, 1 ,1 , 0.5\n 1,0,1,0.25 \n", _LOADED),
    "blank-lines": (_CLASS_HEAD + "\n0,1,1,0.5\n\n1,0,1,0.25\n\n", _LOADED),
    "whitespace-only-row": (_CLASS_HEAD + "0,1,1,0.5\n   \n1,0,1,0.25\n",
                            (ValueError, "row 1 has 1 fields, the header 4")),
    "hash-inside-a-cell": (_CLASS_HEAD + "0,1,1,0.5#x\n1,0,1,0.25\n",
                           (ValueError, "could not convert string to float: '0.5#x'")),
    "underscore-float": (_CLASS_HEAD + "0,1,1,1_0\n1,0,1,0.25\n",
                         (CLASSIFICATION, [1, 0], [1, 1], {"chi": [10.0, 0.25]}, None)),
    "underscore-label": (_CLASS_HEAD + "0,1_0,1,1\n1,0,1,0.25\n",
                         (CLASSIFICATION, [10, 0], [1, 1], {"chi": [1.0, 0.25]}, None)),
    "infinity-aux": (_CLASS_HEAD + "0,1,1,0.5\n1,0,1,Infinity\n",
                     (ValueError, "non-finite auxiliary value at row 1")),
    "nan-true-value": (_REG_HEAD + "0,1.5,1.0,1\n1,nan,2.25,0.25\n",
                       (ValueError, "non-finite true_value at row 1")),
    "inf-predicted-value": (_REG_HEAD + "0,1.5,inf,1\n1,2.0,2.25,0.25\n",
                            (ValueError, "non-finite predicted_value at row 0")),
    "plus-signs": (_CLASS_HEAD + "+0,+1,1,+0.5\n1,0,+1,0.25\n", _LOADED),
    "float-label": (_CLASS_HEAD + "0,1.0,1,0.5\n1,0,1,0.25\n",
                    (ValueError, "invalid literal for int() with base 10: '1.0'")),
    "fractional-label": (_CLASS_HEAD + "0,1,1,0.5\n1,1.5,1,0.25\n",
                         (ValueError, "invalid literal for int() with base 10: '1.5'")),
    "fractional-id": (_CLASS_HEAD + "0,1,1,0.5\n2.7,0,1,0.25\n",
                      (ValueError, "invalid literal for int() with base 10: '2.7'")),
    "exponent-id": (_REG_HEAD + "0,1,1,0.5\n1e0,0,1,0.25\n",
                    (ValueError, "invalid literal for int() with base 10: '1e0'")),
    "cr-only": ((_CLASS_HEAD + _ROWS).replace("\n", "\r"), _LOADED),
    "crlf": ((_REG_HEAD + "0,1.5,1.0,0.5\n1,2.0,2.25,0.25\n").replace("\n", "\r\n"),
             (REGRESSION, [1.5, 2.0], [1.0, 2.25], {"chi": [0.5, 0.25]}, None)),
    "header-only": (_CLASS_HEAD, (ValueError, "empty population file")),
    "header-and-blank-lines": (_CLASS_HEAD + "\n\r\n\n", (ValueError, "empty population file")),
    "twenty-digit-id": (_CLASS_HEAD + "0,1,1,0.5\n12345678901234567890,0,1,0.25\n",
                        (OverflowError, "Python int too large to convert to C long")),
    "duplicate-header-name": (
        "id,true_label,predicted_label,chi,chi\n0,1,1,0.5,0.75\n1,0,1,0.25,0.125\n",
        (CLASSIFICATION, [1, 0], [1, 1], {"chi": [0.75, 0.125]}, None),
    ),
    "empty-header-name": ("id,true_label,predicted_label,\n" + _ROWS,
                          (CLASSIFICATION, [1, 0], [1, 1], {"": [0.5, 0.25]}, None)),
    "quoted-newline-in-header": ('id,true_label,predicted_label,"c\nhi"\n' + _ROWS,
                                 (CLASSIFICATION, [1, 0], [1, 1], {"c\nhi": [0.5, 0.25]}, None)),
    "empty-cell": (_CLASS_HEAD + "0,1,1,\n1,0,1,0.25\n",
                   (ValueError, "could not convert string to float: ''")),
    "negative-zero": (
        "id,true_value,predicted_value,true_label\n0,-0,-0.0,-0\n1,2.0,2.25,3\n",
        (REGRESSION, [-0.0, 2.0], [-0.0, 2.25], {"true_label": [-0.0, 3.0]}, None),
    ),
    "features": ("id,true_value,predicted_value,feat_1,feat_0\n1,0.1,0.2,3e-1,4\n0,1e0,-2,5,.5\n",
                 (REGRESSION, [1.0, 0.1], [-2.0, 0.2], {}, [[0.5, 5.0], [4.0, 0.3]])),
    "file-separator-before-an-id": (_CLASS_HEAD + "0,1,1,0.5\n\x1c1,0,1,0.25\n",
                                    (ValueError, "invalid literal for int() with base 10: '\\x1c1'")),
    "arabic-indic-digit": (_CLASS_HEAD + "٠,1,1,0.5\n1,0,1,0.25\n", _LOADED),
    "mixed-task-and-bad-cells": (
        "id,true_label,predicted_label,true_value,predicted_value\n0,1.5,1,2,x\n",
        (ValueError, "mixed task columns: both label and value pairs present"),
    ),
    "bad-aux-cell-before-a-bad-id": ("chi,id,true_value,predicted_value\nx,y,1,2\n",
                                     (ValueError, "invalid literal for int() with base 10: 'y'")),
}


def _assert_bitwise(actual, expected, dtype):
    expected = np.array(expected, dtype=dtype)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# "ignore" is what a user gets: Python ignores a DeprecationWarning raised
# in library code, where the suite turns every warning into an error.
@pytest.mark.parametrize("warning_filter", ["error", "ignore"])
@pytest.mark.parametrize("case", list(LOADER_CASES))
def test_loader_gives_the_per_cell_parse(tmp_path, case, warning_filter):
    body, expected = LOADER_CASES[case]
    path = tmp_path / "pop.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(body)
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter)
        _assert_loads(path, expected)


def _assert_loads(path, expected):
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as info:
            load_population(path)
        assert type(info.value) is error and str(info.value) == message
        return
    task, true, predicted, aux, features = expected
    pop = load_population(path)
    assert pop.task == task
    label = np.int64 if task == CLASSIFICATION else np.float64
    _assert_bitwise(pop._true, true, label)
    _assert_bitwise(pop._predicted, predicted, label)
    assert pop.aux_names == sorted(aux)
    for name, values in aux.items():
        _assert_bitwise(pop.aux_vector(name), values, np.float64)
    if features is None:
        assert pop.features_matrix() is None
    else:
        _assert_bitwise(np.ascontiguousarray(pop.features_matrix()), features, np.float64)


@pytest.mark.filterwarnings("ignore")
def test_integer_cell_read_through_a_float_takes_the_per_cell_parse(tmp_path, monkeypatch):
    # Older numpy releases read an int64 cell such as 1.5 through a float,
    # truncate it and only warn; with the warning as an error they raise.
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, dtype, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        except DeprecationWarning as warning:
            raise ValueError("could not convert string '1.5' to int64") from warning
        floats = np.dtype([(name, np.float64) for name in dtype.names])
        return loadtxt(*args, dtype=floats, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "pop.csv"
    path.write_text(_CLASS_HEAD + "0,1,1,0.5\n1,1.5,1,0.25\n", encoding="utf-8")
    _assert_loads(path, (ValueError, "invalid literal for int() with base 10: '1.5'"))


def test_load_memory_is_columns_not_row_lists(tmp_path):
    # At N=2*10^4 the per-row str lists of a csv.reader parse peak near 9 MB.
    path = tmp_path / "pool.csv"
    write_population_csv(generate_synthetic(SyntheticConfig(task=REGRESSION, N=20_000), seed=0), path)
    tracemalloc.start()
    try:
        load_population(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _csv_writer_reference(population, path):
    """write_population_csv as csv.writer wrote it, row by row: the byte reference."""
    aux_names = population.aux_names
    feats = population.features_matrix()
    head = ["id", "true_label", "predicted_label"] if population.task == CLASSIFICATION else [
        "id", "true_value", "predicted_value"]
    head += aux_names
    columns = [range(population.N), population._true.tolist(), population._predicted.tolist()]
    columns += [population._aux[a].tolist() for a in aux_names]
    if feats is not None:
        head += [f"feat_{j}" for j in range(feats.shape[1])]
        columns += feats.T.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        writer.writerows(zip(*columns))


def _writer_pools():
    floats = np.array([-0.0, 5e-324, 1e-5, 1e-4, 0.1, 1.0, 1e16])
    n = floats.size
    odd_aux = {"chi": floats[::-1].copy(), 'odd, "name"': -floats}
    floats_features = np.column_stack([floats, floats[::-1], 1.0 / np.arange(3, n + 3)])
    rng = np.random.default_rng(5)
    big = 5000  # rows in two blocks of the writer
    return {
        "classification": generate_synthetic(SyntheticConfig(N=40), seed=3),
        "regression": generate_synthetic(SyntheticConfig(task=REGRESSION, N=40), seed=3),
        "floats-classification": Population(
            CLASSIFICATION, np.arange(n)[::-1], [0, 1, -3, 2**62, 7, 0, 1], [1, 1, 0, 5, 7, 0, 2],
            aux=odd_aux, features=floats_features,
        ),
        "floats-regression": Population(
            REGRESSION, np.arange(n), floats, -floats[::-1], aux=odd_aux, features=floats_features,
        ),
        "two-blocks-regression": Population(
            REGRESSION, rng.permutation(big), rng.normal(size=big), rng.normal(size=big),
            aux={"chi": rng.random(big), "x y": rng.normal(size=big)},
            features=rng.normal(size=(big, 2)) * 10.0 ** rng.integers(-30, 30, size=(big, 2)),
        ),
        "two-blocks-classification": generate_synthetic(SyntheticConfig(N=4097), seed=1),
    }


@pytest.mark.parametrize("pool", list(_writer_pools()))
def test_writer_gives_the_csv_writer_bytes(tmp_path, pool):
    population = _writer_pools()[pool]
    write_population_csv(population, tmp_path / "pop.csv")
    _csv_writer_reference(population, tmp_path / "reference.csv")
    assert (tmp_path / "pop.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestColumns:
    def test_columns_reordered_by_id(self):
        pop = Population(
            REGRESSION, [1, 0], [0.5, 0.0], [0.0, 0.25], aux={"chi": [0.2, 0.9]},
            features=[[1.0, 2.0], [3.0, 4.0]],
        )
        np.testing.assert_array_equal(pop._true_outcomes(), [0.25, 0.5])
        np.testing.assert_array_equal(pop.aux_vector("chi"), [0.9, 0.2])
        np.testing.assert_array_equal(pop.features_matrix(), [[3.0, 4.0], [1.0, 2.0]])

    def test_non_finite_feature_rejected_with_its_row(self):
        features = np.zeros((5, 2))
        features[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite feature value at row 3"):
            Population(CLASSIFICATION, np.arange(5), np.zeros(5, int), np.zeros(5, int), features=features)

    def test_feature_value_too_large_rejected_with_its_row(self):
        # (i - 4.5) * 2e307 spans more than the float range: max - min overflows.
        features = np.column_stack([np.zeros(10), (np.arange(10) - 4.5) * 2e307])
        with pytest.raises(ValueError, match="feature value too large at row 0"):
            Population(CLASSIFICATION, np.arange(10), np.zeros(10, int), np.zeros(10, int),
                       features=features)
        features[[0, 9], 1] = np.finfo(float).max / 2 * np.array([-1, 1])
        Population(CLASSIFICATION, np.arange(10), np.zeros(10, int), np.zeros(10, int),
                   features=features)

    def test_aux_value_above_the_bound_rejected_with_its_row(self):
        bound = np.finfo(float).max / (16 * 5 * 5)
        chi = np.full(5, bound)
        Population(CLASSIFICATION, np.arange(5), np.zeros(5, int), np.zeros(5, int), aux={"chi": chi})
        chi[2] = np.nextafter(bound, np.inf)
        with pytest.raises(ValueError, match="auxiliary value too large at row 2"):
            Population(
                CLASSIFICATION, np.arange(5), np.zeros(5, int), np.zeros(5, int),
                aux={"ok": np.ones(5), "chi": chi},
            )

    def test_float_labels_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            Population(CLASSIFICATION, [0, 1], [0.0, 1.0], [0, 0])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one entry per record"):
            Population(REGRESSION, [0, 1], [0.0, 1.0], [0.0], aux={})

    def test_aux_vector_is_a_read_only_view(self):
        pop = make_classification([0, 1], [0.5, 0.25])
        chi = pop.aux_vector("chi")
        assert isinstance(chi, np.ndarray) and chi.dtype == float
        np.testing.assert_array_equal(chi, [0.5, 0.25])
        with pytest.raises(ValueError, match="read-only"):
            chi[0] = 1.0
        np.testing.assert_array_equal(pop.aux_vector("chi"), [0.5, 0.25])

    def test_negative_aux_refused_by_aux_vector(self):
        pop = make_classification([0, 1], [0.5, -0.25])
        with pytest.raises(ValueError, match="auxiliary values must be nonnegative"):
            pop.aux_vector("chi")


class TestRecordValidation:
    def test_ids_must_be_dense(self):
        with pytest.raises(ValueError, match="dense"):
            Population(CLASSIFICATION, [0, 2], [0, 0], [0, 0])


class TestTrueAccuracy:
    def test_simple_count(self):
        assert true_accuracy(make_classification([1, 0, 0, 0])) == pytest.approx(0.75)

    def test_all_correct(self):
        assert true_accuracy(make_classification([0, 0, 0])) == 1.0

    def test_regression_hand_example(self):
        pop = make_regression([0.1, 0.3])
        assert true_accuracy(pop) == pytest.approx(0.95)

    def test_unnormalized_offsets_warn(self):
        pop = make_regression([2.0, 2.0])
        with pytest.warns(UserWarning, match="unnormalized"):
            xi = true_accuracy(pop)
        assert xi == pytest.approx(1.0 - 4.0)


class TestOracle:
    def test_repeat_reveal_free(self):
        pop = make_classification([1, 0, 0])
        oracle = LabelingOracle(pop)
        oracle.reveal(1)
        oracle.reveal(1)
        assert oracle.reveal_count == 1
        ids, outcomes = oracle.labeled_outcomes()
        assert ids.tolist() == [1] and outcomes.tolist() == [0]

    def test_distinct_reveals_counted(self):
        pop = make_classification([1, 0, 0, 1])
        oracle = LabelingOracle(pop)
        for i in range(4):
            oracle.reveal(i)
        assert oracle.reveal_count == 4

    def test_misclassified_record_gives_z1(self):
        pop = make_classification([1, 0])
        assert LabelingOracle(pop).reveal(0) == 1

    def test_out_of_range(self):
        pop = make_classification([0])
        with pytest.raises(IndexError):
            LabelingOracle(pop).reveal(5)

    def test_reveal_many_counts_distinct(self):
        pop = make_classification([0, 1, 0, 1, 0])
        oracle = LabelingOracle(pop)
        oracle.reveal_many([0, 0, 1, 1, 2])
        assert oracle.reveal_count == 3


class TestSynthetic:
    def test_calibration_hits_target(self):
        pop = generate_synthetic(SyntheticConfig(N=10000, target_accuracy=0.9), seed=1)
        assert 0.89 <= true_accuracy(pop) <= 0.91

    def test_reproducible(self):
        cfg = SyntheticConfig(N=500, target_accuracy=0.8, chi_correlation=0.5)
        a = generate_synthetic(cfg, seed=9)
        b = generate_synthetic(cfg, seed=9)
        np.testing.assert_array_equal(a._true_outcomes(), b._true_outcomes())
        np.testing.assert_array_equal(a.aux_vector("chi"), b.aux_vector("chi"))

    def test_rho_one_rank_order(self):
        cfg = SyntheticConfig(N=200, target_accuracy=0.7, chi_correlation=1.0)
        pop = generate_synthetic(cfg, seed=2)
        chi = pop.aux_vector("chi")
        # chi must be a monotone function of the latent that drives failure
        # probability: sort by chi and check the latent ordering via a proxy.
        # With rho=1 and no noise, chi is strictly increasing in u, so the
        # failure *probability* ranking equals the chi ranking by construction;
        # verify via the failure rate of the top vs bottom half.
        order = np.argsort(chi)
        z = pop._true_outcomes()[order]
        assert z[-100:].mean() > z[:100].mean()

    def test_rho_zero_uncorrelated(self):
        violations = 0
        n = 2000
        for seed in range(100):
            cfg = SyntheticConfig(N=n, target_accuracy=0.9, chi_correlation=0.0)
            pop = generate_synthetic(cfg, seed=seed)
            chi = pop.aux_vector("chi")
            z = pop._true_outcomes()
            corr = np.corrcoef(chi, z)[0, 1]
            if abs(corr) > 3.0 / np.sqrt(n):
                violations += 1
        assert violations <= 4  # ~0.3% expected rate per seed

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            SyntheticConfig(N=100, target_accuracy=1.0)
        with pytest.raises(ValueError, match="infeasible"):
            SyntheticConfig(N=100, target_accuracy=0.0)

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_intercept_is_the_200_step_bisection(self, n):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            u, v = rng.standard_normal(n), rng.random(n)
            for accuracy in (0.5, 0.9, 0.99):
                target = 1.0 - accuracy
                assert _failure_intercept(u, v, target) == _reference_intercept(u, v, target)

    def test_regression_offsets(self):
        cfg = SyntheticConfig(task=REGRESSION, N=1000, target_accuracy=0.9)
        pop = generate_synthetic(cfg, seed=4)
        assert true_accuracy(pop) == pytest.approx(0.9, abs=1e-9)
        deltas = pop._true_outcomes()
        assert np.all(deltas > 0)


def _reference_intercept(u, v, target):
    """The failure intercept by all 200 bisection steps, without the fixed-point stop."""

    def realized(a):
        return float(np.mean(v < 1.0 / (1.0 + np.exp(-(a + 4.0 * u)))))

    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized(mid) < target:
            lo = mid
        else:
            hi = mid
    return min((lo, 0.5 * (lo + hi), hi), key=lambda c: abs(realized(c) - target))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: Population("ranking", [0], [0], [0]), ValueError, "unknown task 'ranking'"),
        (lambda tmp: Population(CLASSIFICATION, [], [], []), ValueError,
         "population must contain at least one record"),
        (lambda tmp: LabelingOracle(make_classification([0, 1])).reveal_many([0, 2]), IndexError,
         "record id out of range"),
        (lambda tmp: SyntheticConfig(N=1), ValueError, "N must be >= 2"),
        (lambda tmp: SyntheticConfig(chi_correlation=1.5), ValueError,
         "chi correlation must lie in [-1, 1]"),
        (lambda tmp: load_population(_write(tmp / "pop.json", "[]")), ValueError,
         "empty population file"),
        (lambda tmp: load_population(_write(tmp / "pop.json", '{"id": [0, 1]}')), ValueError,
         "JSON population must be a list of objects, not dict"),
        (lambda tmp: load_population(_write(tmp / "pop.json", "[1, 2]")), ValueError,
         "JSON population must be a list of objects; row 0 is not one"),
        (lambda tmp: load_population(
            _write(tmp / "pop.json", '[{"id": 0, "true_label": 1, "predicted_label": 1}, [0, 1, 1]]')),
         ValueError, "JSON population must be a list of objects; row 1 is not one"),
        (lambda tmp: load_population(_write(tmp / "pop.csv", "id,true_label,predicted_label\n")),
         ValueError, "empty population file"),
    ],
)
def test_refusals(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


def _write(path, text):
    path.write_text(text)
    return path
