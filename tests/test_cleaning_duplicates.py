"""Tests for duplicate cleaning (key collision + ZeroER)."""

import numpy as np
import pytest

from repro.cleaning import (
    KeyCollisionCleaning,
    PairFeaturizer,
    TwoComponentGaussianMixture,
    UnionFind,
    ZeroERCleaning,
    deduplicate,
)
from repro.cleaning.zeroer import candidate_pairs, tokenize
from repro.table import Table, make_schema


@pytest.fixture
def restaurants():
    schema = make_schema(
        numeric=["rating"],
        categorical=["name", "city"],
        label="y",
        keys=("name", "city"),
    )
    return Table.from_dict(
        schema,
        {
            "name": [
                "Blue Bottle", "Blue Bottle", "Ritual Coffee",
                "Sightglass", "Ritual Coffee",
            ],
            "city": ["SF", "SF", "SF", "SF", "LA"],
            "rating": [4.5, 4.4, 4.2, 4.0, 4.1],
            "y": ["good", "good", "good", "ok", "good"],
        },
    )


class TestUnionFind:
    def test_clusters(self):
        union = UnionFind(5)
        union.union(0, 1)
        union.union(1, 2)
        clusters = union.clusters()
        assert list(clusters.values()) == [[0, 1, 2]]

    def test_no_singleton_clusters(self):
        assert UnionFind(3).clusters() == {}

    def test_deduplicate_keeps_first(self, restaurants):
        deduped = deduplicate(restaurants, [(0, 1)])
        assert deduped.n_rows == 4
        assert deduped.column("rating").values[0] == 4.5


class TestKeyCollision:
    def test_same_key_collides(self, restaurants):
        method = KeyCollisionCleaning().fit(restaurants)
        assert method.collisions(restaurants) == [(0, 1)]
        cleaned = method.transform(restaurants)
        assert cleaned.n_rows == 4

    def test_different_city_does_not_collide(self, restaurants):
        method = KeyCollisionCleaning().fit(restaurants)
        pairs = method.collisions(restaurants)
        assert (2, 4) not in pairs  # Ritual SF vs Ritual LA

    def test_missing_key_never_collides(self):
        schema = make_schema(categorical=["k"], label="y", keys=("k",))
        table = Table.from_dict(
            schema, {"k": [None, None, "a"], "y": ["p", "n", "p"]}
        )
        method = KeyCollisionCleaning().fit(table)
        assert method.collisions(table) == []

    def test_falls_back_to_categorical_features_without_keys(self):
        schema = make_schema(categorical=["c"], label="y")
        table = Table.from_dict(
            schema, {"c": ["a", "a", "b"], "y": ["p", "n", "p"]}
        )
        cleaned = KeyCollisionCleaning().fit_transform(table)
        assert cleaned.n_rows == 2


class TestTokenize:
    def test_basic(self):
        assert tokenize("Blue Bottle, SF!") == {"blue", "bottle", "sf"}

    def test_none(self):
        assert tokenize(None) == set()


class TestCandidatePairs:
    def test_small_table_enumerates_all(self, restaurants):
        a, b = candidate_pairs(restaurants, ["name", "city"])
        assert len(a) == len(b) == 10  # C(5, 2)

    def test_pairs_are_ordered(self, restaurants):
        a, b = candidate_pairs(restaurants, ["name"])
        assert (a < b).all()


class TestMixture:
    def test_separates_two_populations(self):
        rng = np.random.default_rng(0)
        low = rng.normal(0.1, 0.05, size=(200, 3))
        high = rng.normal(0.9, 0.05, size=(20, 3))
        X = np.vstack([low, high])
        mixture = TwoComponentGaussianMixture().fit(X)
        posterior = mixture.match_posterior(X)
        assert posterior[-20:].mean() > 0.9
        assert posterior[:200].mean() < 0.1

    def test_too_few_rows_raises(self):
        with pytest.raises(ValueError):
            TwoComponentGaussianMixture().fit(np.zeros((2, 2)))


class TestZeroER:
    def make_dup_table(self, n_clean=60, seed=0):
        rng = np.random.default_rng(seed)
        syllables = [
            "lo", "mi", "ra", "ken", "zu", "pa", "ti", "ver", "nak", "sol",
            "bri", "qua", "fen", "dor", "yel",
        ]

        def random_name():
            words = [
                "".join(rng.choice(syllables, size=rng.integers(2, 4)))
                for _ in range(2)
            ]
            return " ".join(words)

        names = [random_name() for _ in range(n_clean)]
        cities = [f"city{i % 7}" for i in range(n_clean)]
        ratings = rng.uniform(1, 5, n_clean).round(2).tolist()
        labels = ["good" if i % 2 else "ok" for i in range(n_clean)]
        # near-duplicates of the first five records with a suffix typo
        for i in range(5):
            names.append(names[i] + " inc")
            cities.append(cities[i])
            ratings.append(ratings[i] + 0.01)
            labels.append(labels[i])
        schema = make_schema(
            numeric=["rating"], categorical=["name", "city"], label="y"
        )
        return Table.from_dict(
            schema,
            {"name": names, "city": cities, "rating": ratings, "y": labels},
        )

    def test_finds_planted_duplicates(self):
        table = self.make_dup_table()
        method = ZeroERCleaning().fit(table)
        cleaned = method.transform(table)
        assert cleaned.n_rows < table.n_rows
        assert cleaned.n_rows >= 55  # did not nuke everything

    def test_fit_on_train_applies_to_test(self):
        train = self.make_dup_table(seed=1)
        method = ZeroERCleaning().fit(train)
        test = self.make_dup_table(n_clean=30, seed=2)
        cleaned = method.transform(test)
        assert cleaned.n_rows <= test.n_rows

    def test_tiny_table_is_noop(self):
        schema = make_schema(categorical=["c"], label="y")
        table = Table.from_dict(schema, {"c": ["a", "b"], "y": ["p", "n"]})
        cleaned = ZeroERCleaning().fit_transform(table)
        assert cleaned.n_rows == 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ZeroERCleaning(threshold=1.5)


class TestPairFeaturizer:
    def test_identical_rows_score_high(self, restaurants):
        featurizer = PairFeaturizer().fit(restaurants)
        features = featurizer.features(restaurants, np.array([0, 0]), np.array([1, 3]))
        assert features[0].mean() > features[1].mean()

    def test_feature_width(self, restaurants):
        featurizer = PairFeaturizer().fit(restaurants)
        # 2 categorical features x 2 + 1 numeric
        assert featurizer.n_features == 5
