"""Tests for the differential fuzzer (repro.verify.fuzz)."""

import json

import pytest

import repro.ir.interp as interp_mod
from repro.errors import CompilationError
from repro.isa.opcodes import semantics as real_semantics
from repro.verify import fuzz as fuzz_mod
from repro.verify.fuzz import (
    FuzzCase,
    build_memory,
    generate_case,
    load_repro,
    reference_output,
    replay_repro,
    run_case,
    run_fuzz,
    shrink_case,
    write_repro,
)


def test_case_generation_is_deterministic():
    first = generate_case(7, 3)
    second = generate_case(7, 3)
    assert first == second
    assert generate_case(7, 4) != first


def test_spec_json_roundtrip():
    case = generate_case(11, 0)
    record = json.loads(json.dumps(case.to_dict()))
    assert FuzzCase.from_dict(record) == case


def test_known_case_runs_clean():
    """A hand-written spec: out[i] = copy(in0[i])."""
    case = FuzzCase(
        seed=1, index=0, trip=3, num_inputs=1,
        ops=[["copy", [0]]], reduce_op="", mutations=0,
    )
    assert reference_output(case, build_memory(case)) \
        == build_memory(case)["in0"]
    result = run_case(case)
    assert result.status == "ok", result.divergences


def test_reduction_case_runs_clean():
    case = FuzzCase(
        seed=2, index=0, trip=4, num_inputs=2,
        ops=[["add", [0, 1]]], reduce_op="acc", mutations=0,
    )
    memory = build_memory(case)
    expected = [sum(memory["in0"]) + sum(memory["in1"])]
    assert reference_output(case, memory) == expected
    result = run_case(case)
    assert result.status == "ok", result.divergences


def test_small_campaign_is_clean():
    summary = run_fuzz(cases=6, seed=2026, shrink=False, out_dir=None)
    assert summary.ok, summary.describe()
    assert summary.passed + summary.skipped == 6


def test_unschedulable_counts_as_skip(monkeypatch):
    def refuse(*args, **kwargs):
        raise CompilationError("forced")

    monkeypatch.setattr(fuzz_mod, "compile_kernel", refuse)
    summary = run_fuzz(cases=3, seed=5, shrink=False)
    assert summary.ok
    assert summary.skipped == 3


class TestFaultInjection:
    """Break one layer; the fuzzer must find, shrink, and serialize it."""

    @pytest.fixture()
    def broken_interpreter(self, monkeypatch):
        def broken(op, bits=64):
            name = op if isinstance(op, str) else op.name
            if name == "add":
                return real_semantics("sub", bits)
            return real_semantics(op, bits)

        monkeypatch.setattr(interp_mod, "semantics", broken)

    def test_divergence_found_shrunk_and_replayable(
        self, broken_interpreter, tmp_path, monkeypatch
    ):
        case = FuzzCase(
            seed=3, index=0, trip=8, num_inputs=2,
            ops=[["mul", [0, 1]], ["add", [2, 0]], ["copy", [3]]],
            reduce_op="", mutations=0,
        )
        result = run_case(case)
        assert result.failed
        kinds = {d["kind"] for d in result.divergences}
        assert "interp-mismatch" in kinds

        shrunk, shrunk_result = shrink_case(case)
        assert shrunk_result.failed
        # Strictly simpler: the copy suffix and half the trips go away.
        assert shrunk.trip < case.trip or len(shrunk.ops) < len(case.ops)

        path = tmp_path / "repro.json"
        write_repro(str(path), shrunk, shrunk_result)
        record = json.loads(path.read_text())
        assert record["spec"] == shrunk.to_dict()
        assert record["divergences"]
        assert load_repro(str(path)) == shrunk

        # Still failing on replay while the fault is in place...
        assert replay_repro(str(path)).failed
        # ...and clean once the fault is removed.
        monkeypatch.setattr(interp_mod, "semantics", real_semantics)
        assert replay_repro(str(path)).status == "ok"

    def test_campaign_writes_repro_files(
        self, broken_interpreter, tmp_path
    ):
        summary = run_fuzz(
            cases=8, seed=2026, shrink=True, out_dir=str(tmp_path)
        )
        assert not summary.ok
        assert summary.repro_paths
        for path in summary.repro_paths:
            record = json.loads(open(path).read())
            assert record["version"] == fuzz_mod.REPRO_VERSION
            assert record["status"] == "divergent"


def test_lint_divergence_detected(monkeypatch):
    """A linter error on the compiled schedule fails the case."""
    real_lint = fuzz_mod.lint_schedule

    def sabotaged(schedule, adg=None, **kwargs):
        key = next(iter(schedule._pe_load), None)
        if key is not None:
            schedule._pe_load[key] += 1  # simulate counter drift
        return real_lint(schedule, adg, **kwargs)

    monkeypatch.setattr(fuzz_mod, "lint_schedule", sabotaged)
    result = run_case(generate_case(2026, 0))
    assert result.failed
    assert result.divergences[0]["kind"] == "lint"


def test_repro_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 999, "spec": {}}))
    with pytest.raises(ValueError):
        load_repro(str(path))
