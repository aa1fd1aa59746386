"""The CleanML database schema (paper §III, Table 1).

Three relations whose primary keys successively drop attributes:

* **R1** (vanilla): dataset, error type, detection, repair, ML model,
  scenario -> flag;
* **R2** (+ model selection): drops the model attribute;
* **R3** (+ cleaning-method selection): further drops detection/repair.

Each row also stores the evidence behind its flag — the three p-values
and the mean metric pair — so analysis queries can recompute flags under
different corrections (the FDR ablation uses exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ..stats.flags import Flag
from ..stats.ttest import PairedTTestResult


class Scenario(Enum):
    """Where cleaning is applied (paper §III-E).

    BD — model development: clean the *training* data, compare models
    trained on dirty vs cleaned training sets on the same cleaned test
    set (case B vs case D).

    CD — model deployment: clean the *test* data, compare one
    cleaned-train model on the dirty vs cleaned test set (case C vs D).
    """

    BD = "BD"
    CD = "CD"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class MetricPair:
    """One (before, after) metric pair from one train/test split."""

    before: float
    after: float


@dataclass(frozen=True)
class ExperimentRow:
    """One tuple of R1, R2 or R3.

    The key attributes not applicable at a given level are ``None``
    (``ml_model`` in R2/R3; ``detection``/``repair`` in R3), mirroring
    how the paper's relations drop attributes.
    """

    dataset: str
    error_type: str
    scenario: Scenario
    detection: str | None = None
    repair: str | None = None
    ml_model: str | None = None
    flag: Flag = Flag.INSIGNIFICANT
    test: PairedTTestResult | None = None
    mean_before: float = 0.0
    mean_after: float = 0.0

    def with_flag(self, flag: Flag) -> "ExperimentRow":
        """Copy of the row with a different flag (FDR pass)."""
        return replace(self, flag=flag)


#: relation names in paper order
R1, R2, R3 = "R1", "R2", "R3"
RELATION_NAMES = (R1, R2, R3)

#: key attributes per relation (paper Table 1)
RELATION_KEYS = {
    R1: ("dataset", "error_type", "detection", "repair", "ml_model", "scenario"),
    R2: ("dataset", "error_type", "detection", "repair", "scenario"),
    R3: ("dataset", "error_type", "scenario"),
}
