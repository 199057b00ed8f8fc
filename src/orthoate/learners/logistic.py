"""Multinomial logistic regression by full-batch gradient descent.

Minimises the mean negative log-likelihood of a softmax model plus an
L2 penalty on the slopes (intercepts unpenalised), taking plain
gradient steps with Armijo backtracking so the recorded loss history is
non-increasing across accepted steps.

Each Armijo trial evaluates only the loss.  The gradient is formed once
per accepted step, from that step's probabilities; a rejected trial's
probabilities are dropped before the next trial.  ``softmax`` reduces
rows of fewer than 8 classes column by column, in the order numpy's
row reductions use, so it gives the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidArgument, ShapeMismatch
from .base import Standardizer, class_count, integer_labels, validate_features

# numpy sums fewer than this many numbers in order and longer rows
# pairwise; the column-wise softmax reproduces only the former, and only
# for float64 logits, whose shifted copy can take exp in place.
_IN_ORDER_SUM = 8


def softmax(logits: np.ndarray) -> np.ndarray:
    k = logits.shape[1]
    if not 2 <= k < _IN_ORDER_SUM or logits.dtype != np.float64:
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    # A reduction over a short row costs far more than one pass over a
    # column.  max is exact in any order, and the columns are added in
    # the order numpy adds a row of fewer than 8 numbers.
    top = np.maximum(logits[:, 0], logits[:, 1])
    for j in range(2, k):
        np.maximum(top, logits[:, j], out=top)
    e = logits - top[:, None]
    np.exp(e, out=e)
    total = e[:, 0] + e[:, 1]
    for j in range(2, k):
        total += e[:, j]
    e /= total[:, None]
    return e


@dataclass
class LogisticFit:
    intercept: np.ndarray
    coef: np.ndarray
    l2: float
    n_iter: int
    converged: bool
    loss_history: np.ndarray
    std: Standardizer

    @property
    def n_classes(self) -> int:
        return self.intercept.size

    def predict_proba(self, X) -> np.ndarray:
        X = validate_features(X, p=self.coef.shape[1])
        return softmax(self.std.transform(X) @ self.coef.T + self.intercept)


def fit_logistic(
    X,
    d,
    n_classes: int | None = None,
    l2: float = 1e-4,
    max_iter: int = 2000,
    tol: float = 1e-6,
) -> LogisticFit:
    """Fit the softmax model; stops when the gradient max-norm falls below tol."""
    X = validate_features(X)
    d = np.asarray(d)
    if d.shape != (X.shape[0],):
        raise ShapeMismatch("labels must match X rows")
    labels = integer_labels(d)
    k = class_count(labels, n_classes)
    if l2 < 0:
        raise InvalidArgument("l2 must be >= 0")
    n, p = X.shape
    std = Standardizer.fit(X)
    Xs = std.transform(X)
    rows = np.arange(n)
    # Each row's own-label entry, as positions in the flattened (n, k) P.
    own = rows * k + labels

    W = np.zeros((k, p))
    b = np.zeros(k)

    def loss_of(W, b):
        """The penalised loss at (W, b) and the probabilities it came from."""
        logits = Xs @ W.T
        logits += b
        P = softmax(logits)
        # Clip only inside the log; P itself feeds the exact gradient.
        nll = -np.mean(np.log(np.clip(P.take(own), 1e-300, None)))
        nll += 0.5 * l2 * float((W * W).sum())
        return nll, P

    def gradient(P, W):
        """The gradient at the step whose probabilities are ``P``; overwrites ``P``.

        Subtracting 1 at each row's label gives the floats of P - onehot.
        """
        P[rows, labels] -= 1.0
        return P.T @ Xs / n + l2 * W, P.mean(axis=0)

    # Each P is dropped as soon as its step is decided, so that it is
    # not alive while the next trial's P is built.
    loss, P = loss_of(W, b)
    gW, gb = gradient(P, W)
    P = None
    history = [loss]
    eta = 1.0
    converged = False
    n_iter = 0
    armijo = 1e-4
    for n_iter in range(1, max_iter + 1):
        gnorm2 = float((gW * gW).sum() + (gb * gb).sum())
        if np.sqrt(gnorm2) < tol or max(np.abs(gW).max(), np.abs(gb).max()) < tol:
            converged = True
            break
        eta = min(eta * 2.0, 1e4)
        while True:
            W_new = W - eta * gW
            b_new = b - eta * gb
            loss_new, P = loss_of(W_new, b_new)
            if loss_new <= loss - armijo * eta * gnorm2:
                break
            P = None
            eta *= 0.5
            if eta < 1e-14:
                break
        if eta < 1e-14:
            break
        gW, gb = gradient(P, W_new)
        P = None
        W, b, loss = W_new, b_new, loss_new
        history.append(loss)
    return LogisticFit(
        intercept=b,
        coef=W,
        l2=l2,
        n_iter=n_iter,
        converged=converged,
        loss_history=np.asarray(history),
        std=std,
    )
