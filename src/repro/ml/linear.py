"""Multinomial logistic regression trained by gradient descent.

Full-batch gradient descent with Nesterov momentum and L2 regularization.
Features arrive standardized from :class:`~repro.table.FeatureEncoder`, so
a fixed learning rate converges reliably; an early-stopping tolerance on
the loss keeps small problems fast.

``fit`` is one fused loop: every buffer is allocated once per fit, every
step runs through ``out=`` and in-place numpy calls, the loss reuses the
logits buffer, and accepted/candidate buffers swap instead of being
reallocated.  The arithmetic is that of the plain allocating loop kept as
the test oracle ``tests/oracles/linear.py`` — same operations, same
operand order, same reductions — so ``coef_``/``intercept_`` are
byte-equal to it.  The row softmax is :func:`repro.ml.base.softmax` run
in place (its row sum is a column fold for k < 8 classes and numpy's
``sum(axis=1)`` from k = 8; see there).  What the bits rule out: sparse
or float32 ``X``, dropping all-zero columns, reassociating
``X @ (w + momentum * v)``, and a contiguous copy of ``X.T`` (its GEMM
does not round like ``X.T @ error``).
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fit_inputs, one_hot, softmax


class LogisticRegression(Classifier):
    """Softmax regression (binary problems are the 2-class special case).

    Parameters
    ----------
    l2:
        L2 penalty strength on the weights (not the intercept).
    learning_rate / max_iter / tol:
        Gradient-descent schedule.  Training stops early when the absolute
        loss improvement drops below ``tol``.
    momentum:
        Nesterov momentum coefficient.
    """

    def __init__(
        self,
        l2: float = 1e-3,
        learning_rate: float = 0.5,
        max_iter: int = 300,
        tol: float = 1e-6,
        momentum: float = 0.9,
    ) -> None:
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.momentum = momentum

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y, n_classes = check_fit_inputs(X, y)
        n_samples, n_features = X.shape
        self.n_classes_ = n_classes
        targets = one_hot(y, n_classes)
        momentum, l2 = self.momentum, self.l2

        weights = np.zeros((n_features, n_classes))
        intercept = np.zeros(n_classes)
        velocity_w = np.zeros_like(weights)
        velocity_b = np.zeros_like(intercept)
        new_weights, new_intercept = np.empty_like(weights), np.empty_like(intercept)
        new_velocity_w = np.empty_like(weights)
        new_velocity_b = np.empty_like(intercept)
        look_w, look_b = np.empty_like(weights), np.empty_like(intercept)
        grad_w, grad_b = np.empty_like(weights), np.empty_like(intercept)
        squared = np.empty_like(weights)
        logits = np.empty((n_samples, n_classes))
        row = np.empty((n_samples, 1))

        def loss_at(w: np.ndarray, b: np.ndarray) -> float:
            # the full (n, k) product, zero terms included: np.sum's
            # pairwise order depends on them
            np.matmul(X, w, out=logits)
            np.add(logits, b, out=logits)
            softmax(logits, out=logits, row=row)
            np.clip(logits, 1e-12, 1.0, out=logits)
            np.log(logits, out=logits)
            np.multiply(logits, targets, out=logits)
            nll = -logits.sum()
            np.square(w, out=squared)
            penalty = 0.5 * l2 * squared.sum()
            return float(nll / n_samples + penalty)

        previous_loss = loss_at(weights, intercept)
        step = self.learning_rate

        for _ in range(self.max_iter):
            # Nesterov look-ahead; momentum * velocity stays in the
            # new-velocity buffer for the update below
            np.multiply(velocity_w, momentum, out=new_velocity_w)
            np.add(weights, new_velocity_w, out=look_w)
            np.multiply(velocity_b, momentum, out=new_velocity_b)
            np.add(intercept, new_velocity_b, out=look_b)
            np.matmul(X, look_w, out=logits)
            logits += look_b
            softmax(logits, out=logits, row=row)
            # error = (proba - targets) / n_samples
            logits -= targets
            logits /= n_samples
            np.matmul(X.T, logits, out=grad_w)
            look_w *= l2
            grad_w += look_w
            logits.sum(axis=0, out=grad_b)

            grad_w *= step
            new_velocity_w -= grad_w
            grad_b *= step
            new_velocity_b -= grad_b
            np.add(weights, new_velocity_w, out=new_weights)
            np.add(intercept, new_velocity_b, out=new_intercept)

            loss = loss_at(new_weights, new_intercept)
            if not np.isfinite(loss) or loss > previous_loss + 1e-3:
                # divergence guard: halve the step, kill the momentum,
                # and retry from the current point
                step *= 0.5
                velocity_w.fill(0.0)
                velocity_b.fill(0.0)
                if step < 1e-8:
                    break
                continue

            velocity_w, new_velocity_w = new_velocity_w, velocity_w
            velocity_b, new_velocity_b = new_velocity_b, velocity_b
            weights, new_weights = new_weights, weights
            intercept, new_intercept = new_intercept, intercept
            if abs(previous_loss - loss) < self.tol:
                previous_loss = loss
                break
            previous_loss = loss

        self.coef_ = weights
        self.intercept_ = intercept
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw class scores (logits)."""
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))
