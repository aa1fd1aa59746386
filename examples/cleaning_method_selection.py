"""BoostClean-style cleaning-method selection (the R3 relation).

Given a dirty dataset, which (detection, repair) pair should you use?
The paper's answer — also BoostClean's — is to select the method whose
cleaned data yields the best *validation* score, jointly with the model.
This example walks one Credit split through the full selection table
(like the paper's Table 9) and then reports how often validation-based
selection picks a method that also wins on the test set.

Run with::

    python examples/cleaning_method_selection.py
"""

from repro import StudyConfig, load_dataset, methods_for
from repro.core import EvaluationContext, derive_seed
from repro.table import train_test_split


def main() -> None:
    config = StudyConfig(
        n_splits=5,
        cv_folds=2,
        models=("logistic_regression", "naive_bayes", "decision_tree"),
        seed=0,
    )
    dataset = load_dataset("Credit", seed=0, n_rows=300)
    print(f"dataset: {dataset.name} (imbalanced -> metric = {dataset.metric})\n")

    context = EvaluationContext(dataset, config)
    methods = methods_for(
        "outliers", include_advanced=False, random_state=config.seed
    )

    # Table-9 style walk-through of a single split
    seed = derive_seed(0, "selection-example", 0)
    raw_train, raw_test = train_test_split(dataset.dirty, seed=seed)
    print(f"{'method':<14} {'best model':<22} {'val':>7} {'test D':>8}")
    print("-" * 55)
    chosen = None
    for method in methods:
        method.fit(raw_train)
        clean_train = method.transform(raw_train)
        clean_test = method.transform(raw_test)
        best = context.best_model(clean_train, f"demo:{method.name}", 0)
        test_metric = best.evaluate(*best.encode(clean_test))
        marker = ""
        if chosen is None or best.val_score > chosen[0]:
            chosen = (best.val_score, method.name, test_metric)
        print(
            f"{method.name:<14} {best.model_name:<22} "
            f"{best.val_score:>7.3f} {test_metric:>8.3f}"
        )
    print(f"\nselected by validation: {chosen[1]} (test D = {chosen[2]:.3f})")

    # how often does validation selection find a test-set winner?
    hits = 0
    for split in range(config.n_splits):
        seed = derive_seed(0, "selection-example", split + 1)
        raw_train, raw_test = train_test_split(dataset.dirty, seed=seed)
        best = context.best_cleaned(raw_train, raw_test, methods, split)
        test_scores = []
        for method in methods:
            method.fit(raw_train)
            model = context.best_model(
                method.transform(raw_train), f"audit:{method.name}", split
            )
            clean_test = method.transform(raw_test)
            test_scores.append(model.evaluate(*model.encode(clean_test)))
        if best.test_metric >= max(test_scores) - 0.01:
            hits += 1
    print(
        f"validation-selected method was within 0.01 of the test-set "
        f"optimum in {hits}/{config.n_splits} splits"
    )


if __name__ == "__main__":
    main()
