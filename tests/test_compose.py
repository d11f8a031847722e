"""Tests for composition exploration (dse/compose.py + warm-starts).

The composition explorer inherits the DSE determinism contract:
``workers`` only changes wall-clock, never the trajectory, and a
checkpoint/resume round-trip reproduces the uninterrupted run exactly.
These tests pin that, plus the partition mutation algebra, the
cross-fabric warm-start translation, and the batched finalist
measurement path.
"""

import multiprocessing
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.adg.merge import merge_all
from repro.compiler.pipeline import compile_kernel
from repro.dse import (
    CompositionExplorer,
    FinalistCase,
    canonical_partition,
    mutate_partition,
    partition_strategy,
    simulate_finalists,
    specialize_kernels,
)
from repro.errors import DseError
from repro.scheduler import translate_warm_schedules
from repro.server.jobs import (
    CACHEABLE_KINDS,
    JOB_KINDS,
    JobSpec,
    job_key,
)
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel
from tests import pool_fakes

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

KERNELS = ("mm", "pool")
SCALE = 0.05


class TestPartitionAlgebra:
    def test_canonical_partition_sorts(self):
        assert canonical_partition([["b", "a"], ["c"]]) == (
            ("a", "b"), ("c",)
        )
        assert canonical_partition([["c"], ["a", "b"]]) == (
            ("a", "b"), ("c",)
        )

    def test_strategy_classification(self):
        assert partition_strategy((("a", "b", "c"),)) == "merged"
        assert partition_strategy((("a",), ("b",))) == "per_kernel"
        assert partition_strategy((("a", "b"), ("c",))) == "partitioned"

    def test_mutation_is_deterministic(self):
        start = canonical_partition([["a", "b"], ["c"]])
        first = mutate_partition(start, DeterministicRng(("m", 3)))
        second = mutate_partition(start, DeterministicRng(("m", 3)))
        assert first == second

    def test_mutation_preserves_kernel_set(self):
        start = canonical_partition([["a", "b"], ["c", "d"]])
        kernels = {"a", "b", "c", "d"}
        for idx in range(40):
            mutated, description = mutate_partition(
                start, DeterministicRng(("mut", idx))
            )
            members = [k for cluster in mutated for k in cluster]
            assert sorted(members) == sorted(kernels)
            assert len(members) == len(set(members))
            assert mutated == canonical_partition(mutated)
            assert description.split(":")[0] in {
                "merge", "split", "move", "noop"
            }

    def test_mutation_reaches_all_strategies(self):
        start = canonical_partition([["a", "b"], ["c"]])
        seen = set()
        for idx in range(60):
            mutated, _ = mutate_partition(
                start, DeterministicRng(("cover", idx))
            )
            seen.add(partition_strategy(mutated))
        assert {"merged", "per_kernel", "partitioned"} <= seen

    def test_singleton_partition_is_stable(self):
        start = canonical_partition([["only"]])
        mutated, description = mutate_partition(
            start, DeterministicRng("solo")
        )
        assert mutated == start
        assert description == "noop"


@pytest.fixture(scope="module")
def specialized():
    kernels = [make_kernel(name, SCALE) for name in KERNELS]
    return specialize_kernels(
        kernels, DeterministicRng("compose-test"), sched_iters=60
    )


def _budget(specialized, fraction=1.2):
    return fraction * sum(spec.area for spec in specialized.values())


def _make_explorer(specialized, seed=7, **kwargs):
    kwargs.setdefault("sched_iters", 30)
    kwargs.setdefault("area_budget_mm2", _budget(specialized))
    return CompositionExplorer(
        specialized, rng=DeterministicRng(seed), **kwargs
    )


def _trajectory(result):
    return [
        (
            entry.iteration,
            entry.candidate,
            tuple(entry.partition),
            entry.accepted,
            entry.objective if entry.objective == float("-inf")
            else round(entry.objective, 9),
            tuple(entry.mutations),
        )
        for entry in result.history
    ]


class TestSpecialization:
    def test_specialized_baseline_fields(self, specialized):
        assert set(specialized) == set(KERNELS)
        for spec in specialized.values():
            assert spec.cycles > 0
            assert spec.area > 0
            assert spec.schedules

    def test_warm_start_translates_onto_merged_fabric(self, specialized):
        fabrics = [specialized[name].adg for name in sorted(KERNELS)]
        merged, maps = merge_all(fabrics)
        node_maps = dict(zip(sorted(KERNELS), maps))
        for name in KERNELS:
            ported, stripped = translate_warm_schedules(
                {name: specialized[name].schedules}, merged,
                node_maps[name],
            )
            assert stripped >= 0
            assert ported.get(name), (
                f"{name}: warm start lost every placement"
            )
            for schedule in ported[name].values():
                for hw_name in schedule.placement.values():
                    assert hw_name in merged


class TestExplorerDeterminism:
    def test_seeds_cover_merged_and_per_kernel(self, specialized):
        result = _make_explorer(specialized).run(max_iters=0)
        assert {"merged", "per_kernel"} <= set(result.strategy_best)
        assert result.best_objective > float("-inf")
        assert set(result.kernel_cycles) == set(KERNELS)

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_workers_do_not_change_the_trajectory(self, specialized):
        serial = _make_explorer(specialized).run(max_iters=2, workers=1)
        parallel = _make_explorer(specialized).run(
            max_iters=2, workers=4
        )
        assert _trajectory(serial) == _trajectory(parallel)
        assert serial.best_objective == parallel.best_objective
        assert serial.best_partition == parallel.best_partition

    def test_broken_pool_falls_back_and_matches_serial(
        self, specialized, monkeypatch
    ):
        serial = _make_explorer(specialized, surrogate_top=2).run(
            max_iters=2, workers=1
        )
        pools = pool_fakes.install(
            monkeypatch, lambda: BrokenProcessPool("worker died")
        )
        explorer = _make_explorer(specialized, surrogate_top=2)
        resilient = explorer.run(max_iters=2, workers=2)
        counters = explorer.telemetry.counters
        assert counters["worker_errors"] > 0
        assert counters["compose_worker_retries"] > 0
        assert counters["compose_pool_rebuilds"] > 0
        assert all(pool.shut_down for pool in pools[:-1])
        assert _trajectory(resilient) == _trajectory(serial)
        assert resilient.best_partition == serial.best_partition

    def test_infeasible_budget_is_honest(self, specialized):
        explorer = _make_explorer(specialized, area_budget_mm2=1e-6)
        with pytest.raises(DseError, match="budget"):
            explorer.run(max_iters=1)

    def test_checkpoint_resume_reproduces_trajectory(
        self, specialized, tmp_path
    ):
        path = str(tmp_path / "compose.ckpt")
        _make_explorer(specialized).run(
            max_iters=1, checkpoint_path=path
        )
        resumed = _make_explorer(specialized).run(
            max_iters=3, checkpoint_path=path, resume=True
        )
        straight = _make_explorer(specialized).run(max_iters=3)
        assert _trajectory(resumed) == _trajectory(straight)
        assert resumed.best_objective == straight.best_objective
        assert resumed.best_partition == straight.best_partition

    def test_checkpoint_seed_mismatch_rejected(
        self, specialized, tmp_path
    ):
        path = str(tmp_path / "compose.ckpt")
        _make_explorer(specialized, seed=7).run(
            max_iters=1, checkpoint_path=path
        )
        other = _make_explorer(specialized, seed=8)
        with pytest.raises(DseError, match="seed"):
            other.run(max_iters=2, checkpoint_path=path, resume=True)


class TestFinalistMeasurement:
    def test_shared_fabric_batches_into_one_group(self, specialized):
        fabrics = [specialized[name].adg for name in sorted(KERNELS)]
        merged, maps = merge_all(fabrics)
        node_maps = dict(zip(sorted(KERNELS), maps))
        cases = []
        for name in sorted(KERNELS):
            spec = specialized[name]
            warm, _ = translate_warm_schedules(
                {name: spec.schedules}, merged, node_maps[name]
            )
            compiled = compile_kernel(
                spec.kernel, merged,
                rng=DeterministicRng(("finalist", name)),
                max_iters=40, initial_schedules=warm.get(name),
            )
            assert compiled.ok
            cases.append(FinalistCase(
                label=name, adg=merged, compiled=compiled,
                kernel=spec.kernel,
            ))
        measurement = simulate_finalists(cases, assert_parity=True)
        assert measurement.groups == 1
        assert measurement.lanes == len(KERNELS)
        assert not measurement.errors
        cycles = measurement.cycles()
        assert set(cycles) == set(KERNELS)
        assert all(value > 0 for value in cycles.values())

    def test_distinct_fabrics_stay_in_distinct_groups(self, specialized):
        cases = []
        for name in sorted(KERNELS):
            spec = specialized[name]
            compiled = compile_kernel(
                spec.kernel, spec.adg,
                rng=DeterministicRng(("own", name)),
                max_iters=20, initial_schedules=spec.schedules,
            )
            assert compiled.ok
            cases.append(FinalistCase(
                label=name, adg=spec.adg, compiled=compiled,
                kernel=spec.kernel,
            ))
        measurement = simulate_finalists(cases)
        assert measurement.groups == len(KERNELS)
        assert measurement.lanes == len(KERNELS)


class TestComposeJobPlumbing:
    def test_compose_is_a_cacheable_job_kind(self):
        assert "compose" in JOB_KINDS
        assert "compose" in CACHEABLE_KINDS

    def test_job_key_covers_compose_knobs(self):
        base = dict(kind="compose", workload="mm,pool", scale=SCALE,
                    seed=0, sched_iters=30)
        plain = JobSpec(**base)
        tweaked = JobSpec(**base, options={"budget_fractions": "0.5"})
        assert job_key(plain) != job_key(tweaked)
        assert job_key(JobSpec(**base)) == job_key(plain)
