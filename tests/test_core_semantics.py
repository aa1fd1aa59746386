"""Hand-verified semantics of the scenario machinery (paper §III-E).

These tests pin down exactly which tables each scenario's metric pair is
computed from, using crafted datasets where the right answer is known by
construction rather than by statistics.
"""

import numpy as np
import pytest

from repro.cleaning import CleaningMethod
from repro.core import (
    CleanMLStudy,
    Scenario,
    StudyConfig,
    derive_seed,
)
from repro.core.schema import MetricPair
from repro.datasets import Dataset, attach_row_ids
from repro.table import Column, Table, make_schema


class FlipLabelCleaning(CleaningMethod):
    """Test double: 'cleans' by restoring a known-good label column.

    The dirty table has every label inverted relative to the feature; a
    model trained on it is perfectly wrong, so each scenario's metric
    pair is predictable exactly.
    """

    error_type = "mislabels"
    detection = "flip"
    repair = "flip"

    def fit(self, train: Table) -> "FlipLabelCleaning":
        return self

    def transform(self, table: Table) -> Table:
        flipped = [
            "b" if label == "a" else "a" for label in table.labels
        ]
        return table.replace_labels(flipped)


def make_inverted_dataset(n=80):
    """x>0 <=> true label 'a', but the dirty labels are all inverted."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-3, 0.3, n // 2), rng.normal(3, 0.3, n // 2)])
    true_labels = ["a" if value > 0 else "b" for value in x]
    wrong_labels = ["b" if label == "a" else "a" for label in true_labels]
    schema = make_schema(numeric=["x"], label="y")
    clean = attach_row_ids(
        Table.from_dict(schema, {"x": x.tolist(), "y": true_labels})
    )
    dirty = clean.replace_labels(wrong_labels)
    return Dataset(
        name="Inverted",
        dirty=dirty,
        clean=clean,
        error_types=("mislabels",),
    )


class TestScenarioSemantics:
    @pytest.fixture(scope="class")
    def experiments(self):
        dataset = make_inverted_dataset()
        config = StudyConfig(
            n_splits=3, cv_folds=2, models=("knn",), seed=0
        )
        study = CleanMLStudy(config)
        study.add(dataset, "mislabels", methods=[FlipLabelCleaning()])
        study.run()
        raw = study.raw_experiments
        return {
            (e.level, e.scenario): e for e in raw
        }

    def test_bd_pair_is_b_then_d(self, experiments):
        """BD: dirty-trained model scores ~0, clean-trained ~1 on clean test."""
        experiment = experiments[("R1", Scenario.BD)]
        for pair in experiment.pairs:
            assert pair.before <= 0.1   # case B: trained on inverted labels
            assert pair.after >= 0.9    # case D: trained on fixed labels

    def test_cd_pair_is_c_then_d(self, experiments):
        """CD: the clean-trained model vs dirty then clean test labels."""
        experiment = experiments[("R1", Scenario.CD)]
        for pair in experiment.pairs:
            assert pair.before <= 0.1   # case C: labels in test still wrong
            assert pair.after >= 0.9    # case D: test labels fixed

    def test_all_levels_present(self, experiments):
        levels = {key[0] for key in experiments}
        assert levels == {"R1", "R2", "R3"}


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed("x", 1, "y")
        assert a == derive_seed("x", 1, "y")
        assert a != derive_seed("x", 2, "y")
        assert 0 <= a < 2**31

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")


class TestMetricPair:
    def test_frozen(self):
        pair = MetricPair(before=0.5, after=0.6)
        with pytest.raises(AttributeError):
            pair.before = 0.7


class TestDatasetVariant:
    def test_variant_shares_clean_table(self):
        dataset = make_inverted_dataset()
        flipped = dataset.dirty.replace_labels(list(dataset.dirty.labels))
        variant = dataset.variant("Inverted_copy", flipped)
        assert variant.clean is dataset.clean
        assert variant.name == "Inverted_copy"
        assert variant.error_types == dataset.error_types
