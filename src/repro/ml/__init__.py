"""ML substrate: seven from-scratch classifiers, metrics, model selection."""

from .base import Classifier, check_fit_inputs, one_hot, softmax
from .boosting import AdaBoostClassifier
from .cv_kernel import FoldWorkspace, evaluate_candidates
from .forest import RandomForestClassifier
from .gbt import XGBoostClassifier
from .knn import KNeighborsClassifier
from .linear import LogisticRegression
from .metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    log_loss,
    precision_recall_f1,
)
from .mlp import MLPClassifier
from .model_selection import (
    RandomSearch,
    cross_val_score,
    kfold_plan,
    sample_params,
    score_predictions,
)
from .nacl import NaCLClassifier
from .naive_bayes import GaussianNB
from .regression import KNNRegressor, RidgeRegression, mae, r2_score, rmse
from .registry import MODEL_NAMES, display_name, make_model, search_space
from .tree import DecisionTreeClassifier

__all__ = [
    "AdaBoostClassifier",
    "Classifier",
    "DecisionTreeClassifier",
    "FoldWorkspace",
    "GaussianNB",
    "KNNRegressor",
    "KNeighborsClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "MODEL_NAMES",
    "NaCLClassifier",
    "RandomForestClassifier",
    "RandomSearch",
    "RidgeRegression",
    "XGBoostClassifier",
    "accuracy",
    "check_fit_inputs",
    "confusion_matrix",
    "cross_val_score",
    "display_name",
    "evaluate_candidates",
    "f1_score",
    "log_loss",
    "mae",
    "make_model",
    "one_hot",
    "precision_recall_f1",
    "r2_score",
    "rmse",
    "kfold_plan",
    "sample_params",
    "score_predictions",
    "search_space",
    "softmax",
]
