"""Learned surrogate cost model for multi-fidelity DSE.

The explorer's full candidate evaluation (schedule repair + compile +
analytical estimation) costs seconds; ranking a generation only needs
*relative* quality. :class:`SurrogateModel` is a numpy ridge regressor
over the hand-built ADG graph features of
:func:`repro.adg.features.graph_feature_vector` that predicts, per
candidate:

* **schedulability** — the probability the kernel set maps at all
  (linear-probability fit on realized 0/1 outcomes, clamped);
* **log-objective** — ``log(perf^2/mm^2)`` (fit on successful
  evaluations only);
* **per-kernel log-cycles** — one output column per kernel observed in
  the training history.

Training is *online and deterministic*: the explorer appends every
realized (fully evaluated) candidate to the model's buffer in
candidate-index order, and the model refits on the whole buffer each
time the sample count crosses a multiple of ``recalibrate_every``.
Model state is therefore a pure function of the ordered evaluation
history — ``workers=N`` reproduces ``workers=1``, and checkpointing the
buffer bit-exactly (it pickles along with the explorer state) resumes
to the identical trajectory.

Every refit measures **calibration error** on the predictions made
since the previous refit (predictions are recorded at scoring time and
resolved when the realized outcome arrives), so drift is visible in
telemetry rather than silently compounding:

* ``objective_mae`` — mean ``|predicted - realized|`` log-objective;
* ``schedulable_brier`` — mean squared error of the schedulability
  probability;
* ``cycles_log_mae`` — mean per-kernel log-cycle error.
"""

import math
from dataclasses import dataclass, field

import numpy as _np

__all__ = ["SurrogatePrediction", "SurrogateModel"]

#: Floor for the schedulability factor in the ranking score: a candidate
#: predicted unmappable is heavily penalized, never erased (log(1e-3)).
_MIN_SCHED_PROB = 1e-3

#: Ridge regularization strength (features are max-abs normalized).
_RIDGE_LAMBDA = 1e-3


@dataclass
class SurrogatePrediction:
    """One candidate's surrogate estimate."""

    schedulable: float = 1.0        # clamped to [_MIN_SCHED_PROB, 1]
    log_objective: float = 0.0
    cycles: dict = field(default_factory=dict)  # kernel -> cycles
    trained: bool = False           # False until the first refit

    @property
    def score(self):
        """The ranking score: expected log-objective, i.e. predicted
        log-objective discounted by the mapping probability."""
        return self.log_objective + math.log(self.schedulable)


class SurrogateModel:
    """Online ridge regressor over ADG graph features.

    Parameters
    ----------
    recalibrate_every:
        Refit (and report calibration error) each time the training
        buffer grows past a multiple of this count. Also the minimum
        sample count before the model ranks at all — an untrained
        model predicts a neutral score for every candidate, which
        makes the wide-generation ranking degrade to index order.
    """

    def __init__(self, recalibrate_every=16):
        self.recalibrate_every = max(1, int(recalibrate_every))
        #: Ordered realized-evaluation history, the model's whole truth:
        #: ``(features, ok, log_objective|None, {kernel: log_cycles})``.
        self.buffer = []
        #: Buffer length at the last refit (0 = never fitted).
        self.fitted_count = 0
        self.refits = 0
        #: Predictions awaiting their realized outcome, resolved at
        #: :meth:`observe` time: ``(pred, ok, log_obj|None, cycles)``.
        self._pending = []
        #: One calibration record per refit (also surfaced in
        #: telemetry): the drift check the refit policy exists for.
        self.calibration_log = []
        self._weights = None        # (n_features+1, n_targets)
        self._scale = None          # per-column max-abs normalizer
        self._kernel_names = []     # cycle-column order

    # -- prediction ----------------------------------------------------
    @property
    def trained(self):
        return self._weights is not None

    def predict(self, features):
        """Return a :class:`SurrogatePrediction` for one feature vector.

        Untrained models return a neutral prediction (score 0 for every
        candidate), so ranking degrades to stable index order until
        ``recalibrate_every`` realized evaluations exist.
        """
        if not self.trained:
            return SurrogatePrediction(trained=False)
        row = _np.ones(len(features) + 1)
        row[1:] = _np.asarray(features, dtype=float) / self._scale
        raw = row @ self._weights
        schedulable = min(1.0, max(_MIN_SCHED_PROB, float(raw[0])))
        log_objective = float(raw[1])
        cycles = {
            name: math.exp(float(raw[2 + slot]))
            for slot, name in enumerate(self._kernel_names)
        }
        return SurrogatePrediction(
            schedulable=schedulable, log_objective=log_objective,
            cycles=cycles, trained=True,
        )

    @staticmethod
    def rank(predictions):
        """Candidate indices best-first; ties keep the lowest index, so
        an untrained model yields the identity permutation."""
        return sorted(
            range(len(predictions)),
            key=lambda index: (-predictions[index].score, index),
        )

    # -- training ------------------------------------------------------
    def observe(self, features, ok, objective, cycles=None,
                prediction=None):
        """Append one realized evaluation to the training buffer.

        ``objective`` is the realized DSE score (may be ``-inf`` for
        failed/over-budget candidates); ``cycles`` maps kernel name to
        realized cycle count. ``prediction`` — the estimate this model
        produced for the candidate at scoring time, if any — is held
        back for the next refit's calibration-error report.
        """
        finite = ok and objective not in (None, float("-inf")) \
            and objective > 0
        log_objective = math.log(objective) if finite else None
        log_cycles = {
            name: math.log(value)
            for name, value in (cycles or {}).items() if value > 0
        } if finite else {}
        self.buffer.append(
            (list(features), bool(ok), log_objective, log_cycles)
        )
        if prediction is not None and prediction.trained:
            self._pending.append(
                (prediction, bool(ok), log_objective, log_cycles)
            )

    def maybe_refit(self):
        """Refit when the buffer crossed a ``recalibrate_every``
        boundary since the last fit; returns the new calibration record
        (or None when no refit happened)."""
        due = (len(self.buffer) // self.recalibrate_every) \
            * self.recalibrate_every
        if due <= self.fitted_count or due == 0:
            return None
        calibration = self._calibration_error()
        self._fit(self.buffer)
        self.fitted_count = len(self.buffer)
        self.refits += 1
        record = {
            "refit": self.refits,
            "samples": self.fitted_count,
            "kernels": list(self._kernel_names),
            **calibration,
        }
        self.calibration_log.append(record)
        return record

    def _calibration_error(self):
        """Aggregate the held-back predictions into error statistics,
        then clear them (each refit reports its own window)."""
        pending, self._pending = self._pending, []
        objective_errors = []
        sched_errors = []
        cycle_errors = []
        for prediction, ok, log_objective, log_cycles in pending:
            sched_errors.append(
                (prediction.schedulable - (1.0 if ok else 0.0)) ** 2
            )
            if log_objective is not None:
                objective_errors.append(
                    abs(prediction.log_objective - log_objective)
                )
            for name, realized in log_cycles.items():
                predicted = prediction.cycles.get(name)
                if predicted is not None and predicted > 0:
                    cycle_errors.append(
                        abs(math.log(predicted) - realized)
                    )

        def mean(values):
            return sum(values) / len(values) if values else None

        return {
            "window": len(pending),
            "objective_mae": mean(objective_errors),
            "schedulable_brier": mean(sched_errors),
            "cycles_log_mae": mean(cycle_errors),
        }

    def _fit(self, samples):
        """Ridge-fit all targets on ``samples`` (deterministic: a pure
        function of the sample list)."""
        kernel_names = sorted({
            name for _, _, _, log_cycles in samples
            for name in log_cycles
        })
        n_features = len(samples[0][0])
        x = _np.ones((len(samples), n_features + 1))
        for row, (features, _, _, _) in enumerate(samples):
            x[row, 1:] = features
        scale = _np.maximum(1.0, _np.abs(x[:, 1:]).max(axis=0))
        x[:, 1:] /= scale

        ok_rows = [row for row, (_, _, log_objective, _)
                   in enumerate(samples) if log_objective is not None]
        targets = _np.zeros((len(samples), 2 + len(kernel_names)))
        for row, (_, ok, log_objective, log_cycles) in enumerate(samples):
            targets[row, 0] = 1.0 if ok else 0.0
            if log_objective is not None:
                targets[row, 1] = log_objective
            for slot, name in enumerate(kernel_names):
                targets[row, 2 + slot] = log_cycles.get(name, 0.0)

        weights = _np.zeros((n_features + 1, 2 + len(kernel_names)))
        weights[:, 0] = self._solve(x, targets[:, 0])
        if ok_rows:
            x_ok = x[ok_rows]
            for column in range(1, 2 + len(kernel_names)):
                weights[:, column] = self._solve(
                    x_ok, targets[ok_rows, column]
                )
        self._weights = weights
        self._scale = scale
        self._kernel_names = kernel_names

    @staticmethod
    def _solve(x, y):
        """Ridge normal equations; deterministic for fixed inputs."""
        gram = x.T @ x + _RIDGE_LAMBDA * _np.eye(x.shape[1])
        return _np.linalg.solve(gram, x.T @ y)

    # -- reporting -----------------------------------------------------
    def stats(self):
        """A plain-dict snapshot for run summaries."""
        return {
            "samples": len(self.buffer),
            "fitted_count": self.fitted_count,
            "refits": self.refits,
            "recalibrate_every": self.recalibrate_every,
            "trained": self.trained,
            "last_calibration": (
                dict(self.calibration_log[-1])
                if self.calibration_log else None
            ),
        }
