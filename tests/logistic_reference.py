"""Test oracle: the multinomial logistic fit before its per-iteration savings.

``fit_logistic`` builds the gradient at every Armijo trial and
``softmax`` takes its row max and row sum as numpy reductions.  The
package's versions must produce the same floats.
"""

from __future__ import annotations

import numpy as np

from orthoate.exceptions import ShapeMismatch
from orthoate.learners.base import Standardizer, class_count, integer_labels, validate_features
from orthoate.learners.logistic import LogisticFit


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
        raise ValueError("l2 must be >= 0")
    n, p = X.shape
    std = Standardizer.fit(X)
    Xs = std.transform(X)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0

    W = np.zeros((k, p))
    b = np.zeros(k)

    def loss_and_grad(W, b):
        P = softmax(Xs @ W.T + b)
        # Clip only inside the log; P itself feeds the exact gradient.
        nll = -np.mean(np.log(np.clip(P[np.arange(n), labels], 1e-300, None)))
        nll += 0.5 * l2 * float((W * W).sum())
        R = P - onehot
        gW = R.T @ Xs / n + l2 * W
        gb = R.mean(axis=0)
        return nll, gW, gb

    loss, gW, gb = loss_and_grad(W, b)
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
            loss_new, gW_new, gb_new = loss_and_grad(W_new, b_new)
            if loss_new <= loss - armijo * eta * gnorm2:
                break
            eta *= 0.5
            if eta < 1e-14:
                break
        if eta < 1e-14:
            break
        W, b, loss, gW, gb = W_new, b_new, loss_new, gW_new, gb_new
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
