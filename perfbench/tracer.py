"""Outside-in layer trace for the orthoate benchmark.

A :class:`Tracer` rebinds public orthoate functions, at every module
attribute (or class attribute) that holds them, to wrappers that record
one span per call: name, start, end, parent span and run id.  Spans stay
in memory; :meth:`Tracer.layer_metrics` turns one run's spans and counts
into ``<layer>.<function>.<stat>`` figures.  Nothing under the package
is edited, and every rebound attribute is restored when the ``traced``
block exits, also when the traced code raises.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  The module is where the function is
# defined; every orthoate module attribute bound to the same object is
# rebound with it, so callers that imported the name see the wrapper.
TARGETS = (
    ("orthoate.cli", "main", "cli.main"),
    ("orthoate.cli", "cmd_simulate", "cli.simulate"),
    ("orthoate.cli", "cmd_estimate", "cli.estimate"),
    ("orthoate.cli", "cmd_sweep", "cli.sweep"),
    ("orthoate.cli", "cmd_verify", "cli.verify"),
    ("orthoate.dataio", "load_csv_dataset", "dataio.load_csv_dataset"),
    ("orthoate.dataio", "save_csv_dataset", "dataio.save_csv_dataset"),
    ("orthoate.dataio", "write_report", "dataio.write_report"),
    ("orthoate.simulation", "generate_dataset", "simulation.generate_dataset"),
    ("orthoate.simulation", "run_sweep", "simulation.run_sweep"),
    ("orthoate.learners", "fit_nuisances", "learners.fit_nuisances"),
    ("orthoate.learners.forest", "fit_forest_regressor", "learners.fit_forest_regressor"),
    ("orthoate.learners.forest", "fit_forest_classifier", "learners.fit_forest_classifier"),
    ("orthoate.learners.lasso", "fit_lasso_cv", "learners.fit_lasso_cv"),
    ("orthoate.learners.lasso", "fit_lasso", "learners.fit_lasso"),
    ("orthoate.learners.logistic", "fit_logistic", "learners.fit_logistic"),
    ("orthoate.learners.base", "NuisanceFits.outcome_matrix", "learners.outcome_matrix"),
    ("orthoate.learners.base", "NuisanceFits.propensity_matrix", "learners.propensity_matrix"),
    ("orthoate.estimators", "estimate_dr", "estimators.estimate_dr"),
    ("orthoate.estimators", "estimate_dml", "estimators.estimate_dml"),
    ("orthoate.estimators", "estimate_higher_order", "estimators.estimate_higher_order"),
    ("orthoate.estimators", "single_resample_pass", "estimators.single_resample_pass"),
    ("orthoate.estimators", "estimate_moments", "estimators.estimate_moments"),
    ("orthoate.score", "compute_coefficients", "score.compute_coefficients"),
    ("orthoate.score", "correction_values", "score.correction_values"),
    ("orthoate.score", "dml_correction_values", "score.dml_correction_values"),
    ("orthoate.gateaux", "check_orthogonality", "gateaux.check_orthogonality"),
)

# Span names whose self time is reported.
SELF_TIME_SPANS = tuple(name for _, _, name in TARGETS)

# Counts reported besides self times, in report order.
COUNTS = (
    "learners.forest.nodes",
    "learners.predict.rows",
    "learners.predict.distinct_rows",
    "learners.fit_lasso.calls",
    "learners.fit_lasso.iters",
    "learners.fit_logistic.calls",
    "learners.fit_logistic.iters",
    "estimators.single_resample_pass.calls",
    "dataio.csv.rows",
    "gateaux.check_orthogonality.calls",
    "gateaux.correction_evals",
    "score.correction_values.elements",
)

def _forest_nodes(tracer, args, out):
    tracer.counts["learners.forest.nodes"] += sum(len(tree.feature) for tree in out.trees)


def _lasso(tracer, args, out):
    tracer.counts["learners.fit_lasso.calls"] += 1
    tracer.counts["learners.fit_lasso.iters"] += int(out.n_iter)


def _logistic(tracer, args, out):
    tracer.counts["learners.fit_logistic.calls"] += 1
    tracer.counts["learners.fit_logistic.iters"] += int(out.n_iter)


def _prediction(kind):
    def count(tracer, args, out):
        fits, X = args[0], args[1]
        n = int(X.shape[0])
        tracer.counts["learners.predict.rows"] += n
        # One distinct prediction is one (fitted bundle, model kind, row set).
        key = (tracer.serial(fits), kind, hashlib.blake2b(X.tobytes(), digest_size=16).digest())
        if key not in tracer.predicted:
            tracer.predicted.add(key)
            tracer.counts["learners.predict.distinct_rows"] += n

    return count


def _csv_rows_loaded(tracer, args, out):
    tracer.counts["dataio.csv.rows"] += out.n


def _csv_rows_saved(tracer, args, out):
    tracer.counts["dataio.csv.rows"] += args[0].n


def _resample(tracer, args, out):
    tracer.counts["estimators.single_resample_pass.calls"] += 1


def _correction(tracer, args, out):
    tracer.counts["score.correction_values.elements"] += int(out.size)
    if tracer.open_spans["gateaux.check_orthogonality"]:
        tracer.counts["gateaux.correction_evals"] += 1


def _orthogonality(tracer, args, out):
    tracer.counts["gateaux.check_orthogonality.calls"] += 1


COUNTERS = {
    "learners.fit_forest_regressor": _forest_nodes,
    "learners.fit_forest_classifier": _forest_nodes,
    "learners.fit_lasso": _lasso,
    "learners.fit_logistic": _logistic,
    "learners.outcome_matrix": _prediction("outcome"),
    "learners.propensity_matrix": _prediction("propensity"),
    "dataio.load_csv_dataset": _csv_rows_loaded,
    "dataio.save_csv_dataset": _csv_rows_saved,
    "estimators.single_resample_pass": _resample,
    "score.correction_values": _correction,
    "score.dml_correction_values": _correction,
    "gateaux.check_orthogonality": _orthogonality,
}


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _bindings(original) -> list:
    """Every (owner, attribute) in loaded orthoate modules bound to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "orthoate" or mod_name.startswith("orthoate.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
    return found


class Tracer:
    """Records spans and counts for calls into orthoate's public functions."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run id]
        self.counts: defaultdict = defaultdict(int)
        self.open_spans: defaultdict = defaultdict(int)
        self.predicted: set = set()
        self._stack: list = []
        self._serials: dict = {}
        self._alive: list = []
        self._run_id = None
        self._run_span_range = (0, 0)

    def serial(self, obj) -> int:
        # Objects are kept alive for the run so an id is never reused.
        key = id(obj)
        if key not in self._serials:
            self._serials[key] = len(self._serials)
            self._alive.append(obj)
        return self._serials[key]

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack, open_spans = self.spans, self._stack, self.open_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self._run_id])
            stack.append(idx)
            open_spans[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                open_spans[name] -= 1
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(self, args, out)
            return out

        return traced

    @contextmanager
    def traced(self, run_id):
        """Rebind every target for the duration of the block, then restore."""
        self._run_id = run_id
        self.counts.clear()
        self.predicted.clear()
        self._serials.clear()
        self._alive.clear()
        first_span = len(self.spans)
        restore = []
        try:
            for module_name, attr, name in TARGETS:
                owner, leaf = _resolve(module_name, attr)
                original = vars(owner)[leaf]
                wrapper = self._wrap(original, name)
                places = [(owner, leaf)] if isinstance(owner, type) else _bindings(original)
                for place, place_attr in places:
                    restore.append((place, place_attr, original))
                    setattr(place, place_attr, wrapper)
            yield
        finally:
            for place, place_attr, original in reversed(restore):
                setattr(place, place_attr, original)
            self._alive.clear()
            self._run_span_range = (first_span, len(self.spans))

    def layer_metrics(self) -> dict:
        """Self times and counts of the last traced block, keyed by metric name."""
        lo, hi = self._run_span_range
        run = self.spans[lo:hi]
        child_time = [0.0] * len(run)
        for name, start, end, parent, _ in run:
            if parent >= lo:
                child_time[parent - lo] += end - start
        self_s = dict.fromkeys(SELF_TIME_SPANS, 0.0)
        for (name, start, end, _, _), children in zip(run, child_time):
            if name in self_s:
                self_s[name] += (end - start) - children
        out = {f"{name}.self_s": value for name, value in self_s.items()}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        return out


def median_layer_metrics(per_run: list) -> dict:
    """Median self times over traced runs; counts are taken from the first run."""
    merged = {}
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        merged[key] = statistics.median(values) if key.endswith(".self_s") else values[0]
    return merged
