"""Parallel batched DSE: serial/parallel equivalence and resilience.

The explorer's contract is that ``workers`` only changes wall-clock,
never the trajectory: every candidate draws from a key-derived child
seed (``rng.spawn(iteration, idx)``), and acceptance ranks the batch in
candidate-index order. These tests pin that property, plus the
requirement that one failing candidate never aborts its generation.
"""

import multiprocessing

import pytest

from repro.adg import topologies
from repro.dse import DesignSpaceExplorer
from repro.dse import explorer as explorer_module
from repro.errors import CompilationError
from repro.utils import pool as pool_module
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _make_explorer(seed=11, **kwargs):
    kwargs.setdefault("sched_iters", 30)
    return DesignSpaceExplorer(
        [make_kernel("mm", 0.05)],
        topologies.dse_initial(),
        rng=DeterministicRng(seed),
        **kwargs,
    )


def _trajectory(result):
    """The observable trajectory: per-candidate history + acceptance."""
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


class TestParallelSerialEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return _make_explorer().run(max_iters=3, workers=1, batch=3)

    @pytest.fixture(scope="class")
    def parallel(self):
        return _make_explorer().run(max_iters=3, workers=4, batch=3)

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_identical_histories(self, serial, parallel):
        assert _trajectory(serial) == _trajectory(parallel)

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_identical_accepted_history(self, serial, parallel):
        accepted_serial = [e for e in serial.history if e.accepted]
        accepted_parallel = [e for e in parallel.history if e.accepted]
        assert [(e.iteration, e.candidate) for e in accepted_serial] == [
            (e.iteration, e.candidate) for e in accepted_parallel
        ]

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_identical_best_objective(self, serial, parallel):
        assert serial.best_objective == parallel.best_objective

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_identical_best_design(self, serial, parallel):
        from repro.adg import adg_to_dict

        assert adg_to_dict(serial.best_adg) == adg_to_dict(
            parallel.best_adg
        )

    def test_batch_emits_candidate_indices(self, serial):
        generations = {}
        for entry in serial.history:
            if entry.iteration >= 2:
                generations.setdefault(entry.iteration, []).append(
                    entry.candidate
                )
        assert generations
        for indices in generations.values():
            assert indices == list(range(len(indices)))

    def test_at_most_one_acceptance_per_generation(self, serial):
        for iteration in {e.iteration for e in serial.history}:
            accepted = [
                e for e in serial.history
                if e.iteration == iteration and e.accepted
            ]
            assert len(accepted) <= 1

    def test_throughput_reported(self, serial):
        assert serial.telemetry["candidates_per_sec"] > 0
        assert serial.telemetry["wall_seconds"] > 0
        assert serial.telemetry["counters"]["candidates_evaluated"] >= 3


class TestFailureResilience:
    def test_one_failed_candidate_does_not_abort_generation(
        self, monkeypatch
    ):
        """Inject a CompilationError into the first warm-started compile
        (= candidate 0 of the first mutation generation): the remaining
        candidates must still be evaluated and the run must complete."""
        real_compile = explorer_module.compile_kernel
        warm_calls = {"n": 0}

        def flaky_compile(kernel, adg, **kwargs):
            if kwargs.get("initial_schedules") is not None:
                warm_calls["n"] += 1
                if warm_calls["n"] == 1:
                    raise CompilationError("injected failure")
            return real_compile(kernel, adg, **kwargs)

        monkeypatch.setattr(
            explorer_module, "compile_kernel", flaky_compile
        )
        explorer = _make_explorer(seed=3)
        result = explorer.run(max_iters=1, workers=1, batch=3)
        failed = [
            e for e in result.history
            if e.objective == float("-inf")
        ]
        assert failed
        assert explorer.telemetry.counters.get("candidates_failed", 0) >= 1
        # The generation evaluated the full batch despite the failure.
        first_mutation_gen = [
            e for e in result.history if e.iteration == 2
        ]
        assert len(first_mutation_gen) == 3

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_all_candidates_failing_in_pool_completes(self, monkeypatch):
        """Fork-inherited patch: every candidate compile raises inside
        the workers; the run still finishes with the initial design."""

        def always_fail(kernel, adg, **kwargs):
            if kwargs.get("initial_schedules") is not None:
                raise CompilationError("injected failure")
            return compile_for_real(kernel, adg, **kwargs)

        compile_for_real = explorer_module.compile_kernel
        monkeypatch.setattr(
            explorer_module, "compile_kernel", always_fail
        )
        explorer = _make_explorer(seed=5)
        result = explorer.run(max_iters=1, workers=2, batch=2)
        assert all(
            not e.accepted for e in result.history if e.iteration >= 1
        )
        assert result.best_objective == result.history[0].objective

    def test_serial_fallback_when_fork_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            pool_module.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        explorer = _make_explorer()
        assert pool_module.create(4, explorer.telemetry.incr) is None
        assert explorer.telemetry.counters["pool_unavailable"] == 1

    def test_workers_one_makes_no_pool(self, monkeypatch):
        created = []
        monkeypatch.setattr(
            pool_module, "create",
            lambda workers, incr=None: created.append(workers),
        )
        _make_explorer().run(max_iters=1, workers=1, batch=2)
        assert created == []


class TestTelemetryIntegration:
    def test_jsonl_run_log_round_trips(self, tmp_path):
        import json

        path = tmp_path / "dse.jsonl"
        telemetry = Telemetry(jsonl_path=str(path))
        explorer = _make_explorer(telemetry=telemetry)
        explorer.run(max_iters=1, workers=1, batch=2)
        telemetry.close()
        records = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert records[0]["type"] == "initial"
        assert records[-1]["type"] == "summary"
        generations = [r for r in records if r["type"] == "generation"]
        assert generations
        for record in generations:
            assert record["candidates"] >= 1
            assert len(record["objectives"]) == record["candidates"]

    def test_stage_timings_cover_pipeline(self):
        explorer = _make_explorer()
        explorer.run(max_iters=1, workers=1, batch=2)
        timings = explorer.telemetry.timings
        assert "initial_compile" in timings
        assert "mutate" in timings
        assert "evaluate" in timings
        assert "candidate/estimate" in timings
        assert "candidate/compile" in timings

    def test_repair_vs_remap_counters(self):
        explorer = _make_explorer()
        explorer.run(max_iters=1, workers=1, batch=2)
        counters = explorer.telemetry.counters
        # Warm-started candidates count as repairs, not full remaps.
        assert counters.get("schedule_repairs", 0) >= 1
