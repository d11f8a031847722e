"""Multi-fidelity DSE: surrogate determinism, fidelity plumbing, and
the fuzzer's batched-engine check.

The multi-fidelity funnel must not weaken any determinism contract the
explorer already pins: workers=N reproduces workers=1 *with the
surrogate training online*, checkpoint/resume restores the training
buffer bit-exactly, and fidelity="full" bypasses the funnel entirely.
"""

import json
import multiprocessing
import pickle
from types import SimpleNamespace

import pytest

from repro.adg import topologies
from repro.adg.features import GRAPH_FEATURE_NAMES, graph_feature_vector
from repro.cli import main as cli_main
from repro.dse import DSE_FIDELITIES, CompositionExplorer, DesignSpaceExplorer
from repro.errors import DseError
from repro.estimation.surrogate import SurrogateModel
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SEED = 11


def _make_explorer(seed=SEED, **kwargs):
    kwargs.setdefault("sched_iters", 30)
    return DesignSpaceExplorer(
        [make_kernel("mm", 0.05)],
        topologies.dse_initial(),
        rng=DeterministicRng(seed),
        **kwargs,
    )


def _trajectory(result):
    return [
        (
            entry.iteration,
            entry.candidate,
            entry.accepted,
            round(entry.area_mm2, 9),
            round(entry.power_mw, 9),
            entry.objective if entry.objective == float("-inf")
            else round(entry.objective, 9),
            tuple(entry.mutations),
        )
        for entry in result.history
    ]


def _surrogate_state(explorer):
    """Canonical surrogate snapshot (buffer + fitted weights).

    JSON for the python-object half (pickle bytes vary with string
    interning across process boundaries even for equal values) and raw
    array bytes for the weights — together this is the model's entire
    behavior-determining state, bit-exact.
    """
    model = explorer.surrogate
    return (
        json.dumps(
            [model.buffer, model.fitted_count, model.refits,
             model.calibration_log, model._kernel_names],
            sort_keys=True,
        ),
        None if model._weights is None else model._weights.tobytes(),
        None if model._scale is None else model._scale.tobytes(),
    )


# ---------------------------------------------------------------------------
# Feature vector
# ---------------------------------------------------------------------------

class TestGraphFeatures:
    def test_fixed_length_and_names_align(self):
        vector = graph_feature_vector(topologies.dse_initial())
        assert len(vector) == len(GRAPH_FEATURE_NAMES)
        assert all(isinstance(value, float) for value in vector)

    def test_pure_function_of_graph(self):
        adg = topologies.dse_initial()
        assert graph_feature_vector(adg) == graph_feature_vector(adg)
        assert (graph_feature_vector(adg)
                == graph_feature_vector(adg.clone()))

    def test_sensitive_to_structure(self):
        adg = topologies.dse_initial()
        mutated = adg.clone()
        mutated.remove(mutated.pes()[0].name)
        assert graph_feature_vector(mutated) != graph_feature_vector(adg)


# ---------------------------------------------------------------------------
# Surrogate model unit behavior
# ---------------------------------------------------------------------------

class TestSurrogateModel:
    def _features(self, bump=0.0):
        vector = graph_feature_vector(topologies.dse_initial())
        vector[0] += bump
        return vector

    def test_untrained_ranks_by_index(self):
        model = SurrogateModel()
        predictions = [model.predict(self._features(i)) for i in range(6)]
        assert SurrogateModel.rank(predictions) == list(range(6))
        assert all(p.score == 0.0 for p in predictions)

    def test_refit_at_boundary_and_calibration_record(self):
        model = SurrogateModel(recalibrate_every=4)
        for sample in range(4):
            features = self._features(sample)
            model.observe(features, True, 2.0 + sample,
                          cycles={"mm": 100 + sample},
                          prediction=model.predict(features))
            assert model.maybe_refit() is None or sample == 3
        assert model.trained
        assert model.refits == 1
        # Second window: predictions are now trained, so calibration
        # errors resolve against them at the next refit.
        for sample in range(4):
            features = self._features(10 + sample)
            model.observe(features, sample % 2 == 0, 3.0 + sample,
                          cycles={"mm": 90 + sample},
                          prediction=model.predict(features))
        record = model.maybe_refit()
        assert record["refit"] == 2
        assert record["window"] == 4
        assert record["objective_mae"] >= 0.0
        assert 0.0 <= record["schedulable_brier"] <= 1.0
        assert record == model.calibration_log[-1]

    def test_training_is_pure_function_of_history(self):
        def build():
            model = SurrogateModel(recalibrate_every=3)
            for sample in range(7):
                model.observe(
                    self._features(sample), sample % 3 != 0,
                    1.0 + sample, cycles={"mm": 50 + sample},
                )
                model.maybe_refit()
            return model

        one, two = build(), build()
        assert one._weights.tobytes() == two._weights.tobytes()
        assert one.buffer == two.buffer
        assert one.calibration_log == two.calibration_log

    def test_pickle_round_trip_bit_exact(self):
        model = SurrogateModel(recalibrate_every=2)
        for sample in range(5):
            model.observe(self._features(sample), True, 1.5 + sample,
                          cycles={"mm": 70 + sample},
                          prediction=model.predict(self._features(sample)))
            model.maybe_refit()
        clone = pickle.loads(pickle.dumps(model))
        assert clone.buffer == model.buffer
        assert clone._weights.tobytes() == model._weights.tobytes()
        features = self._features(99)
        assert clone.predict(features).score == \
            model.predict(features).score

    def test_failed_candidates_train_schedulability_only(self):
        model = SurrogateModel(recalibrate_every=2)
        model.observe(self._features(0), False, float("-inf"))
        model.observe(self._features(1), True, 2.0, cycles={"mm": 10})
        model.maybe_refit()
        assert model.trained
        _, ok_flags, log_objectives, _ = zip(*model.buffer)
        assert ok_flags == (False, True)
        assert log_objectives[0] is None


# ---------------------------------------------------------------------------
# Fidelity selection and validation
# ---------------------------------------------------------------------------

class TestFidelityValidation:
    def test_unknown_fidelity_rejected(self):
        with pytest.raises(DseError, match="unknown DSE fidelity"):
            _make_explorer(fidelity="turbo")

    @pytest.mark.parametrize("explorer_cls,knob,value", [
        pytest.param(explorer_cls, knob, value, id=prefix + f"{knob}-{value}")
        for explorer_cls, prefix in ((DesignSpaceExplorer, ""),
                                     (CompositionExplorer, "compose-"))
        for knob, value in (("surrogate_top", 0), ("surrogate_top", -3),
                            ("surrogate_widen", 0), ("recalibrate_every", 0))
    ])
    def test_bad_knobs_rejected(self, explorer_cls, knob, value):
        with pytest.raises(DseError, match=knob):
            if explorer_cls is DesignSpaceExplorer:
                _make_explorer(**{knob: value})
            else:
                CompositionExplorer(
                    {"mm": SimpleNamespace(cycles=1000.0)},
                    **{knob: value},
                )

    def test_cli_compose_rejects_zero_recalibrate_every(self, capsys):
        code = cli_main([
            "compose", "--workloads", "mm,pool", "--recalibrate-every", "0",
        ])
        assert code == 2
        assert "recalibrate_every" in capsys.readouterr().err

    def test_full_fidelity_has_no_surrogate(self):
        explorer = _make_explorer(fidelity="full")
        assert explorer.surrogate is None
        assert "full" in DSE_FIDELITIES and "multi" in DSE_FIDELITIES


# ---------------------------------------------------------------------------
# The funnel itself
# ---------------------------------------------------------------------------

class TestMultiFidelityFunnel:
    @pytest.fixture(scope="class")
    def multi(self):
        telemetry = Telemetry()
        explorer = _make_explorer(
            telemetry=telemetry, fidelity="multi", recalibrate_every=4,
        )
        result = explorer.run(max_iters=4, workers=1, batch=3)
        return explorer, result, telemetry

    @pytest.fixture(scope="class")
    def full(self):
        telemetry = Telemetry()
        explorer = _make_explorer(telemetry=telemetry, fidelity="full")
        result = explorer.run(max_iters=4, workers=1, batch=3)
        return explorer, result, telemetry

    def test_considers_wider_generations(self, multi, full):
        _, result, telemetry = multi
        considered = telemetry.counters["candidates_considered"]
        evaluated = telemetry.counters["candidates_evaluated"]
        assert considered > 3 * evaluated
        assert result.telemetry["considered_per_sec"] > \
            result.telemetry["candidates_per_sec"]

    def test_full_fidelity_considers_what_it_evaluates(self, full):
        _, _, telemetry = full
        assert telemetry.counters["candidates_considered"] == \
            telemetry.counters["candidates_evaluated"]
        assert "surrogate_scored" not in telemetry.counters

    def test_surrogate_trains_and_reports_calibration(self, multi):
        explorer, _, telemetry = multi
        assert explorer.surrogate.refits >= 1
        assert telemetry.counters["surrogate_refits"] >= 1
        record = explorer.surrogate.calibration_log[-1]
        assert {"refit", "samples", "window",
                "objective_mae", "schedulable_brier"} <= set(record)

    def test_finalists_counted(self, multi):
        _, _, telemetry = multi
        assert telemetry.counters["fidelity_finalists"] == \
            telemetry.counters["candidates_evaluated"]

    def test_history_indices_contiguous(self, multi):
        _, result, _ = multi
        by_iteration = {}
        for entry in result.history:
            by_iteration.setdefault(entry.iteration, []).append(
                entry.candidate
            )
        for iteration, indices in by_iteration.items():
            assert indices == list(range(len(indices))), iteration

    def test_summary_shape(self, multi):
        _, result, _ = multi
        summary = result.telemetry
        assert summary["fidelity"] == "multi"
        assert summary["generation_width"] == summary["finalists"] * 8
        assert summary["surrogate"]["refits"] >= 1
        assert summary["surrogate"]["last_calibration"] is not None


# ---------------------------------------------------------------------------
# Determinism: workers and checkpoint/resume with training online
# ---------------------------------------------------------------------------

class TestSurrogateDeterminism:
    def _run(self, workers, checkpoint=None, resume=False, max_iters=4):
        explorer = _make_explorer(fidelity="multi", recalibrate_every=4)
        result = explorer.run(
            max_iters=max_iters, workers=workers, batch=3,
            checkpoint_path=checkpoint, resume=resume,
        )
        return explorer, result

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_workers_do_not_perturb_surrogate_trajectory(self):
        serial_explorer, serial = self._run(workers=1)
        pooled_explorer, pooled = self._run(workers=3)
        assert _trajectory(serial) == _trajectory(pooled)
        assert serial.best_objective == pooled.best_objective
        assert _surrogate_state(serial_explorer) == \
            _surrogate_state(pooled_explorer)

    def test_resume_restores_training_buffer_bit_exactly(self, tmp_path):
        full_explorer, full = self._run(workers=1)

        path = str(tmp_path / "ck.json")
        self._run(workers=1, checkpoint=path, max_iters=2)
        resumed_explorer, resumed = self._run(
            workers=1, checkpoint=path, resume=True,
        )
        assert _trajectory(resumed) == _trajectory(full)
        assert resumed.best_objective == full.best_objective
        assert _surrogate_state(resumed_explorer) == \
            _surrogate_state(full_explorer)

    def test_resume_refuses_fidelity_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        self._run(workers=1, checkpoint=path, max_iters=2)
        other = _make_explorer(fidelity="full")
        with pytest.raises(DseError, match="fidelity"):
            other.run(max_iters=4, checkpoint_path=path, resume=True)

    def test_resume_refuses_knob_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        self._run(workers=1, checkpoint=path, max_iters=2)
        other = _make_explorer(fidelity="multi", recalibrate_every=5)
        with pytest.raises(DseError, match="recalibrate_every"):
            other.run(max_iters=4, checkpoint_path=path, resume=True)


# ---------------------------------------------------------------------------
# Server job plumbing: knobs flow through options into the job key
# ---------------------------------------------------------------------------

class TestServerFidelityKnobs:
    def _spec(self, **options):
        from repro.server.jobs import JobSpec

        return JobSpec(
            kind="dse", workload="mm", preset="dse_initial",
            scale=0.05, seed=7, sched_iters=20,
            options={"iters": 2, **options},
        )

    def test_job_key_separates_fidelities(self):
        from repro.server.jobs import job_key

        keys = {
            job_key(self._spec()),
            job_key(self._spec(fidelity="full")),
            job_key(self._spec(fidelity="multi")),
            job_key(self._spec(fidelity="multi", surrogate_widen=4)),
            job_key(self._spec(fidelity="multi", recalibrate_every=8)),
            job_key(self._spec(fidelity="multi", surrogate_top=2)),
        }
        assert len(keys) == 6

    def test_dse_job_reports_fidelity(self):
        from repro.server.jobs import execute_job

        outcome = execute_job(
            self._spec(fidelity="multi", surrogate_widen=2,
                       recalibrate_every=4).to_dict()
        )
        assert outcome["status"] == "ok"
        assert outcome["summary"]["fidelity"] == "multi"
        artifact = pickle.loads(outcome["payload"])
        assert artifact["candidates_considered"] >= \
            artifact["candidates_evaluated"]
        assert artifact["surrogate"]["recalibrate_every"] == 4

    def test_dse_job_ignores_env_fidelity(self, monkeypatch):
        from repro.server.jobs import execute_job

        # Served jobs must be pure in the spec: a typo'd env var on the
        # server host cannot change (or break) a job's result.
        monkeypatch.setenv("REPRO_DSE_FIDELITY", "bogus")
        outcome = execute_job(self._spec(fidelity="full").to_dict())
        assert outcome["status"] == "ok"
        assert outcome["summary"]["fidelity"] == "full"
        assert pickle.loads(outcome["payload"])["surrogate"] is None


# ---------------------------------------------------------------------------
# Fuzzer: the batched-engine check is load-bearing
# ---------------------------------------------------------------------------

class TestFuzzBatchedCampaign:
    def test_batched_campaign_detects_injected_divergence(self):
        from repro.verify import fuzz as fuzz_module

        original = fuzz_module._diff_engines

        def sabotage(result, engine, stepped, other):
            original(result, engine, stepped, other)
            if engine == "batched":
                result.record("engine-divergence", "injected", injected=1)

        # A divergence surfaced only by the batched comparison still
        # fails the case: the check runs on every scheduled case.
        fuzz_module._diff_engines, saved = sabotage, original
        try:
            summary = fuzz_module.run_fuzz(cases=3, seed=2026, shrink=False)
        finally:
            fuzz_module._diff_engines = saved
        assert not summary.ok
        assert summary.passed == 0
        assert len(summary.failures) == summary.cases - summary.skipped
        assert all(
            any(d["kind"] == "engine-divergence"
                for d in result.divergences)
            for _, result in summary.failures
        )

    def test_refit_events_land_in_run_log(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        telemetry = Telemetry(jsonl_path=path)
        explorer = _make_explorer(
            telemetry=telemetry, fidelity="multi", recalibrate_every=4,
        )
        explorer.run(max_iters=3, workers=1, batch=3)
        telemetry.close()
        records = [json.loads(line) for line in open(path)]
        refits = [r for r in records if r["type"] == "surrogate_refit"]
        assert refits
        for event in refits:
            assert event["samples"] >= 4
            assert "objective_mae" in event
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["surrogate"]["refits"] == len(refits)
