import json
import re

import numpy as np
import pytest

from conftest import make_classification, make_regression

from opsample.population import (
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

    def test_regression_offsets(self):
        cfg = SyntheticConfig(task=REGRESSION, N=1000, target_accuracy=0.9)
        pop = generate_synthetic(cfg, seed=4)
        assert true_accuracy(pop) == pytest.approx(0.9, abs=1e-9)
        deltas = pop._true_outcomes()
        assert np.all(deltas > 0)


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
