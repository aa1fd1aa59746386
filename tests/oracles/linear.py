"""Allocating LogisticRegression loop and softmax — the spec of the fused kernel.

``logistic_fit_reference`` is the gradient-descent loop
``repro.ml.linear.LogisticRegression.fit`` ran before it became one
preallocated in-place loop, and ``loss_reference`` is its ``_loss``
helper; the production fit must leave ``coef_``/``intercept_``
byte-equal to the oracle.  ``softmax_reference`` is the allocating row
softmax that ``repro.ml.base.softmax`` must match bit for bit.
"""

import numpy as np

from repro.ml.base import check_fit_inputs, one_hot


def softmax_reference(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically-stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_reference(model, X, targets, weights, intercept) -> float:
    """Mean cross-entropy of ``(weights, intercept)`` plus the L2 penalty."""
    proba = softmax_reference(X @ weights + intercept)
    nll = -np.sum(targets * np.log(np.clip(proba, 1e-12, 1.0)))
    penalty = 0.5 * model.l2 * np.sum(weights**2)
    return float(nll / len(X) + penalty)


def logistic_fit_reference(model, X: np.ndarray, y: np.ndarray):
    """Fit ``model`` (a ``LogisticRegression``) with the allocating loop."""
    X, y, n_classes = check_fit_inputs(X, y)
    n_samples, n_features = X.shape
    model.n_classes_ = n_classes
    targets = one_hot(y, n_classes)

    weights = np.zeros((n_features, n_classes))
    intercept = np.zeros(n_classes)
    velocity_w = np.zeros_like(weights)
    velocity_b = np.zeros_like(intercept)
    previous_loss = loss_reference(model, X, targets, weights, intercept)
    step = model.learning_rate

    for _ in range(model.max_iter):
        look_w = weights + model.momentum * velocity_w
        look_b = intercept + model.momentum * velocity_b
        proba = softmax_reference(X @ look_w + look_b)
        error = (proba - targets) / n_samples
        grad_w = X.T @ error + model.l2 * look_w
        grad_b = error.sum(axis=0)

        new_velocity_w = model.momentum * velocity_w - step * grad_w
        new_velocity_b = model.momentum * velocity_b - step * grad_b
        new_weights = weights + new_velocity_w
        new_intercept = intercept + new_velocity_b

        loss = loss_reference(model, X, targets, new_weights, new_intercept)
        if not np.isfinite(loss) or loss > previous_loss + 1e-3:
            # divergence guard: halve the step, kill the momentum,
            # and retry from the current point
            step *= 0.5
            velocity_w = np.zeros_like(weights)
            velocity_b = np.zeros_like(intercept)
            if step < 1e-8:
                break
            continue

        velocity_w, velocity_b = new_velocity_w, new_velocity_b
        weights, intercept = new_weights, new_intercept
        if abs(previous_loss - loss) < model.tol:
            previous_loss = loss
            break
        previous_loss = loss

    model.coef_ = weights
    model.intercept_ = intercept
    return model
