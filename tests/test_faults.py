"""Hardware fault models, degradation engine, and campaigns."""

import json
import multiprocessing

import pytest

from repro.adg.serialize import adg_to_dict
from repro.adg.topologies import softbrain
from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    FaultCase,
    FaultSpec,
    apply_faults,
    degrade,
    draw_faults,
    generate_case,
    load_repro,
    prepare_baseline,
    replay_repro,
    run_campaign,
    run_case,
    shrink_case,
    write_repro,
)
import sys

# The package re-exports the degrade() function under the same name as
# its submodule; fetch the module itself for monkeypatching.
degrade_mod = sys.modules["repro.faults.degrade"]
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry

SCHED_ITERS = 60
_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def mm_baseline():
    return prepare_baseline("mm", sched_iters=SCHED_ITERS, seed=2026)


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------

class TestFaultModels:
    def test_draw_is_deterministic(self):
        draws = [
            draw_faults(softbrain(), DeterministicRng((9, "case", 4)), 5)
            for _ in range(2)
        ]
        assert [f.to_dict() for f in draws[0]] == \
               [f.to_dict() for f in draws[1]]

    def test_replay_onto_fresh_adg_is_inverse(self):
        base = softbrain()
        faults = draw_faults(base, DeterministicRng(3), 6)
        assert faults
        records = [f.to_dict() for f in faults]
        # JSON round-trip then replay onto an untouched preset.
        replayed = [
            FaultSpec.from_dict(json.loads(json.dumps(r)))
            for r in records
        ]
        mutated = apply_faults(base.clone(), faults)
        fresh = apply_faults(softbrain(), replayed)
        assert adg_to_dict(mutated) == adg_to_dict(fresh)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_kind_draws_and_applies(self, kind):
        adg = softbrain()
        faults = draw_faults(
            adg, DeterministicRng((1, kind)), 2, kinds=[kind]
        )
        assert faults, f"no {kind} fault drawable on softbrain"
        assert all(f.kind == kind for f in faults)
        apply_faults(adg.clone(), faults)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="meteor_strike", target="pe_0_0")
        with pytest.raises(FaultError):
            draw_faults(softbrain(), DeterministicRng(0), 1,
                        kinds=["meteor_strike"])

    def test_apply_to_missing_target_raises(self):
        adg = softbrain()
        adg.remove("pe_0_0")
        with pytest.raises(FaultError):
            FaultSpec(kind="dead_pe", target="pe_0_0").apply(adg)
        with pytest.raises(FaultError):
            FaultSpec(
                kind="dead_link",
                link={"src": "pe_0_0", "dst": "sw_0_0", "ordinal": 0},
            ).apply(adg)

    def test_stuck_switch_removes_all_outputs(self):
        adg = softbrain()
        switch = next(s.name for s in adg.switches()
                      if adg.out_links(s.name))
        FaultSpec(kind="stuck_switch", target=switch).apply(adg)
        assert adg.out_links(switch) == []
        assert adg.has_node(switch)  # it still sinks traffic


# ---------------------------------------------------------------------------
# Cases + degradation engine
# ---------------------------------------------------------------------------

class TestDegrade:
    def test_case_generation_pure_in_seed_index(self):
        cases = [
            generate_case(2026, 7, workloads=("mm", "md"), max_faults=3)
            for _ in range(2)
        ]
        assert cases[0].to_dict() == cases[1].to_dict()
        roundtrip = FaultCase.from_dict(
            json.loads(json.dumps(cases[0].to_dict()))
        )
        assert roundtrip.to_dict() == cases[0].to_dict()

    def test_dead_pe_recovers(self, mm_baseline):
        placed = set(mm_baseline.compiled.schedule.placement.values())
        victim = sorted(
            p.name for p in mm_baseline.adg.pes() if p.name in placed
        )[0]
        telemetry = Telemetry()
        outcome = degrade(
            mm_baseline, [FaultSpec(kind="dead_pe", target=victim)],
            rng=DeterministicRng(1), sched_iters=SCHED_ITERS,
            telemetry=telemetry,
        )
        assert outcome.status in ("recovered", "degraded")
        assert outcome.stripped_entries > 0
        assert outcome.cycles > 0
        assert telemetry.counters["fault_repair_iterations"] == \
            outcome.repair_iterations

    def test_unmappable_when_no_pe_left(self, mm_baseline):
        pes = sorted(p.name for p in mm_baseline.adg.pes())
        faults = [FaultSpec(kind="dead_pe", target=name)
                  for name in pes[:-1]]
        outcome = degrade(
            mm_baseline, faults, rng=DeterministicRng(2),
            sched_iters=20,
        )
        # One surviving PE cannot host the whole kernel; this must be an
        # honest failure, never a miscompile.
        assert outcome.status == "unmappable"

    def test_remap_mode_skips_repair(self, mm_baseline):
        telemetry = Telemetry()
        outcome = degrade(
            mm_baseline, [], rng=DeterministicRng(3),
            sched_iters=SCHED_ITERS, telemetry=telemetry, mode="remap",
        )
        assert outcome.status in ("recovered", "degraded")
        assert outcome.remap_used
        assert outcome.repair_iterations == 0
        assert telemetry.counters["fault_full_remaps"] == 1


# ---------------------------------------------------------------------------
# Injected repair bug -> shrunk, replayable repro file
# ---------------------------------------------------------------------------

def _corrupting_repair(schedule, adg, rng=None, max_iters=200,
                       patience=25, telemetry=None):
    """A deliberately buggy repair: schedules fine, then drops a route
    while still reporting the cost as legal."""
    from repro.scheduler.repair import repair_schedule as real_repair

    repaired, cost = real_repair(
        schedule, adg, rng=rng, max_iters=max_iters,
        patience=patience, telemetry=telemetry,
    )
    if cost.is_legal and repaired.routes:
        edge = sorted(repaired.routes, key=repr)[0]
        del repaired.routes[edge]
    return repaired, cost


class TestInjectedRepairBug:
    def test_bug_yields_shrunk_replayable_repro(
        self, mm_baseline, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            degrade_mod, "repair_schedule", _corrupting_repair
        )
        case = generate_case(99, 0, workloads=("mm",), max_faults=3)
        assert len(case.faults) >= 1
        outcome = run_case(case, baseline=mm_baseline,
                           sched_iters=SCHED_ITERS)
        assert outcome.status == "miscompiled"
        assert "lint" in outcome.detail

        shrunk, shrunk_outcome = shrink_case(
            case, baseline=mm_baseline, sched_iters=SCHED_ITERS
        )
        assert shrunk_outcome.status == "miscompiled"
        assert len(shrunk.faults) <= len(case.faults)
        # The injected bug corrupts every repair, so shrinking must
        # reach a single-fault reproducer.
        assert len(shrunk.faults) == 1

        path = tmp_path / "repro.json"
        write_repro(path, shrunk, shrunk_outcome)
        loaded = load_repro(path)
        assert loaded.to_dict() == shrunk.to_dict()
        replayed = replay_repro(path, sched_iters=SCHED_ITERS)
        assert replayed.status == "miscompiled"

        # With the bug removed the same repro is healthy again.
        monkeypatch.undo()
        assert replay_repro(path, sched_iters=SCHED_ITERS).status \
            in ("recovered", "degraded")

    def test_repro_version_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "spec": {}}))
        with pytest.raises(ValueError):
            load_repro(path)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

class TestCampaign:
    def test_small_campaign_clean_and_curves(self, tmp_path):
        telemetry = Telemetry(
            jsonl_path=str(tmp_path / "faults.jsonl")
        )
        with telemetry:
            summary = run_campaign(
                workloads=("mm",), cases=4, seed=5,
                sched_iters=SCHED_ITERS,
                telemetry=telemetry, out_dir=str(tmp_path),
            )
        assert summary.cases == 4
        assert summary.ok
        assert sum(summary.counts.values()) == 4
        rows = summary.curve_rows()
        assert rows and all(0.0 <= row["perf_retained"] for row in rows)
        kinds = [
            json.loads(line).get("kind")
            for line in (tmp_path / "faults.jsonl").read_text()
                                                   .splitlines()
        ]
        assert "degradation-curve" in kinds
        assert "fault-campaign-summary" in kinds
        assert telemetry.counters["fault_cases"] == 4

    def test_campaign_deterministic(self):
        def outcomes():
            summary = run_campaign(
                workloads=("mm",), cases=3, seed=17,
                sched_iters=SCHED_ITERS,
            )
            return [
                (case.name, outcome.status, outcome.cycles)
                for case, outcome in summary.results
            ]

        assert outcomes() == outcomes()

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    @pytest.mark.parametrize("sim_engine", [None, "batched"])
    def test_workers_do_not_change_the_campaign(self, sim_engine):
        def campaign(workers):
            telemetry = Telemetry()
            summary = run_campaign(
                workloads=("md",), cases=4, seed=31, sched_iters=8,
                workers=workers, sim_engine=sim_engine,
                telemetry=telemetry,
            )
            assert "fault_worker_errors" not in telemetry.counters
            return summary.to_dict(), [
                (case.to_dict(), outcome.to_dict())
                for case, outcome in summary.results
            ]

        assert campaign(2) == campaign(1)

    def test_campaign_writes_repro_on_miscompile(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            degrade_mod, "repair_schedule", _corrupting_repair
        )
        summary = run_campaign(
            workloads=("mm",), cases=2, seed=23,
            sched_iters=SCHED_ITERS, out_dir=str(tmp_path),
        )
        assert not summary.ok
        assert summary.counts.get("miscompiled", 0) > 0
        assert summary.repro_paths
        for path in summary.repro_paths:
            assert load_repro(path).seed == 23
