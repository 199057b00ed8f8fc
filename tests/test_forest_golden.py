"""Golden fixture for the random forests: every tree, bit for bit.

Each case fits one forest on inputs drawn from a fixed numpy seed and
compares, per tree, ``feature``, ``left`` and ``right`` by value (their
integer dtype may change) and ``threshold``, ``value`` and the forest's
``predict``/``predict_proba`` output on a query grid by float64 bytes.
The stored form is one SHA-256 digest per array, in
``tests/golden/forest/digests.json``.

To rewrite the stored digests after an intended change to the fits, run
from the repository root:

    PYTHONPATH=src python tests/test_forest_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from orthoate import fit_forest_classifier, fit_forest_regressor

DIGESTS = Path(__file__).parent / "golden" / "forest" / "digests.json"


def _readme_fold():
    # A training fold of a README-sized dataset: Q=4000 rows, 56% for
    # training, p=2 covariates, 3 treatment arms.
    rng = np.random.default_rng(101)
    n = 2240
    X = rng.normal(size=(n, 2))
    logits = np.column_stack([np.zeros(n), X[:, 0], -X[:, 1]])
    prob = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    d = (rng.uniform(size=(n, 1)) > prob.cumsum(axis=1)).sum(axis=1)
    y = X[:, 0] + np.sin(X[:, 1]) + d + rng.normal(size=n)
    return X, y, d


def _tied(kind, n, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "binary":
        return rng.integers(0, 2, size=(n, p)).astype(float)
    return np.round(rng.normal(size=(n, p)), 1)


def _regression(X, y, **kw):
    return lambda: fit_forest_regressor(X, y, **kw)


def _classification(X, d, **kw):
    return lambda: fit_forest_classifier(X, d, **kw)


def _cases():
    X, y, d = _readme_fold()
    cases = {}
    for arm in range(3):
        rows = d == arm
        cases[f"readme_outcome_{arm}"] = (
            _regression(X[rows], y[rows], n_trees=20, seed=10 + arm), X
        )
    cases["readme_propensity"] = (_classification(X, d, n_classes=3, n_trees=20, seed=13), X)

    rng = np.random.default_rng(102)
    X10 = rng.normal(size=(600, 10))
    y10 = X10[:, 0] - X10[:, 3] ** 2 + rng.normal(size=600)
    d10 = (X10[:, 1] + rng.normal(size=600) > 0).astype(int)
    cases["p10_regression"] = (_regression(X10, y10, n_trees=8, seed=1), X10[:200])
    cases["p10_classification"] = (
        _classification(X10, d10, n_classes=2, n_trees=8, seed=2), X10[:200]
    )

    Xs = rng.normal(size=(300, 3))
    ys = Xs[:, 0] * Xs[:, 1] + 0.1 * rng.normal(size=300)
    cases["unlimited_depth"] = (
        _regression(Xs, ys, n_trees=5, max_depth=None, min_leaf=1, seed=3), Xs
    )
    cases["no_bootstrap_regression"] = (
        _regression(Xs, ys, n_trees=3, bootstrap=False, seed=4), Xs
    )
    ds = (Xs[:, 0] > 0).astype(int) + (Xs[:, 2] > 0.5).astype(int)
    cases["no_bootstrap_classification"] = (
        _classification(Xs, ds, n_classes=3, n_trees=3, bootstrap=False, seed=5), Xs
    )

    Xb = _tied("binary", 400, 3, 103)
    yb = Xb[:, 0] + 2 * Xb[:, 1] * Xb[:, 2] + rng.normal(size=400)
    db = (Xb.sum(axis=1) + rng.integers(0, 2, size=400)).astype(int) % 2
    cases["binary_features_regression"] = (
        _regression(Xb, yb, n_trees=10, min_leaf=2, seed=6), Xb
    )
    cases["binary_features_classification"] = (
        _classification(Xb, db, n_classes=2, n_trees=10, min_leaf=2, seed=7), Xb
    )
    Xr = _tied("rounded", 500, 2, 104)
    yr = np.round(Xr[:, 0] + rng.normal(size=500), 1)
    dr = np.clip(np.round(Xr[:, 1] + 1.5), 0, 3).astype(int)
    cases["rounded_features_regression"] = (
        _regression(Xr, yr, n_trees=10, max_depth=6, min_leaf=3, seed=8), Xr
    )
    cases["rounded_features_four_classes"] = (
        _classification(Xr, dr, n_classes=4, n_trees=10, min_leaf=2, seed=9), Xr
    )
    cases["constant_target"] = (
        _regression(Xs, np.full(300, 2.5), n_trees=4, seed=10), Xs
    )
    return cases


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _fingerprint(fit, Xq) -> dict:
    """Digests of every tree array and of the forest's predictions on ``Xq``."""
    trees = []
    for tree in fit.trees:
        trees.append({
            "nodes": len(tree.feature),
            "feature": _sha(np.asarray(tree.feature, dtype=np.int64)),
            "left": _sha(np.asarray(tree.left, dtype=np.int64)),
            "right": _sha(np.asarray(tree.right, dtype=np.int64)),
            "threshold": _sha(np.asarray(tree.threshold, dtype=np.float64)),
            "value": _sha(np.asarray(tree.value, dtype=np.float64)),
        })
    pred = fit.predict_proba(Xq) if hasattr(fit, "predict_proba") else fit.predict(Xq)
    return {"trees": trees, "prediction": _sha(np.asarray(pred, dtype=np.float64))}


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_forest_matches_golden(case):
    expected = json.loads(DIGESTS.read_text())[case]
    fit_fn, Xq = CASES[case]
    got = _fingerprint(fit_fn(), Xq)
    assert len(got["trees"]) == len(expected["trees"])
    for t, (g, e) in enumerate(zip(got["trees"], expected["trees"])):
        assert g == e, f"{case}: tree {t} differs"
    assert got["prediction"] == expected["prediction"], f"{case}: predictions differ"


def _rewrite() -> None:
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    payload = {case: _fingerprint(fn(), Xq) for case, (fn, Xq) in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _rewrite()
    sys.exit(0)
