"""Human vs automatic cleaning study (paper §VII-C, Table 19).

Three human-cleaning modes mirror the paper's:

* **oracle value filling** (BabyProduct missing values) — the generator's
  ground truth restores planted cells, playing the human who looked the
  values up;
* **oracle relabeling** (Clothing mislabels) — ground-truth labels play
  the manually corrected ones;
* **rule-based cleaning** (Company / Restaurant / University
  inconsistencies) — the dataset's curated ``{wrong: right}`` rules play
  the human-written denial constraints.

Both arms get R3-style model selection; the automatic arm additionally
selects its cleaning method.  Both arms are evaluated on the
*human-cleaned* test set: it is the gold standard (for generated
datasets, literally the ground truth), and evaluating each arm on its
own cleaned test would let a mislabel cleaner grade its own homework —
relabeled test labels agree with model predictions more than the truth
does.  Flag **P** means human cleaning won.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cleaning.base import INCONSISTENCIES, MISLABELS, CleaningMethod
from ..cleaning.human import OracleCleaning
from ..cleaning.inconsistencies import RuleBasedInconsistencyCleaning
from ..cleaning.registry import methods_for
from ..datasets.base import Dataset
from ..stats.flags import Flag, flags_with_fdr
from ..stats.ttest import PairedTTestResult, paired_t_test
from ..table import train_test_split
from .runner import StudyConfig, derive_seed
from .schema import MetricPair
from .selection import EvaluationContext


@dataclass(frozen=True)
class HumanCleaningComparison:
    """One Table-19 row."""

    dataset: str
    error_type: str
    human_mode: str  # "oracle" | "rules"
    flag: Flag
    test: PairedTTestResult
    pairs: tuple[MetricPair, ...]


def human_cleaner(dataset: Dataset, error_type: str) -> CleaningMethod:
    """The human-cleaning arm the paper prescribes for this dataset."""
    if error_type == INCONSISTENCIES:
        if not dataset.rules:
            raise ValueError(f"{dataset.name} has no curated cleaning rules")
        return RuleBasedInconsistencyCleaning(dataset.rules)
    return OracleCleaning(dataset.clean, error_type)


def run_human_study(
    dataset: Dataset,
    error_type: str,
    config: StudyConfig,
    methods: list[CleaningMethod] | None = None,
) -> HumanCleaningComparison:
    """One Table-19 comparison: human vs best automatic cleaning."""
    context = EvaluationContext(dataset, config)
    if methods is None:
        methods = methods_for(
            error_type,
            include_advanced=config.include_advanced_cleaning,
            random_state=config.seed,
        )
    human = human_cleaner(dataset, error_type)
    human_mode = "rules" if error_type == INCONSISTENCIES else "oracle"

    pairs: list[MetricPair] = []
    for split in range(config.n_splits):
        split_seed = derive_seed(config.seed, dataset.name, "human", split)
        raw_train, raw_test = train_test_split(
            dataset.dirty, test_ratio=config.test_ratio, seed=split_seed
        )
        automatic = context.best_cleaned(
            raw_train, raw_test, methods, split, tag="auto"
        )
        human.fit(raw_train)
        human_train = human.transform(raw_train)
        human_test = human.transform(raw_test)
        human_model = context.best_model(human_train, "human", split)
        pairs.append(
            MetricPair(
                before=automatic.model.evaluate(
                    *automatic.model.encode(human_test)
                ),
                after=human_model.evaluate(*human_model.encode(human_test)),
            )
        )

    test = paired_t_test(
        [pair.before for pair in pairs], [pair.after for pair in pairs]
    )
    flag = flags_with_fdr(
        [test], alpha=config.alpha, procedure=config.fdr_procedure
    )[0]
    return HumanCleaningComparison(
        dataset=dataset.name,
        error_type=error_type,
        human_mode=human_mode,
        flag=flag,
        test=test,
        pairs=tuple(pairs),
    )
