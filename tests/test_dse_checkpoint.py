"""DSE checkpoint/resume: killed runs continue to the same trajectory.

The explorer's rng never consumes state between generations (children
are spawned by ``(iteration, candidate)`` key), so a run restored from
a checkpoint replays the exact remaining trajectory. These tests pin
that equality in-process and through a real ``kill -9`` of the CLI.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.adg import topologies
from repro.dse.explorer import CHECKPOINT_VERSION, DesignSpaceExplorer
from repro.errors import DseError
from repro.utils import atomic, checkpoint
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel

SEED = 11
DSE_ITERS = 5
SCHED_ITERS = 15


def _make_explorer(seed=SEED, kernels=("mm",), **kwargs):
    kwargs.setdefault("sched_iters", SCHED_ITERS)
    return DesignSpaceExplorer(
        [make_kernel(name, 0.05) for name in kernels],
        topologies.dse_initial(),
        rng=DeterministicRng(seed),
        initial_sched_iters=SCHED_ITERS * 3,
        **kwargs,
    )


@pytest.fixture(scope="module")
def written_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ck") / "ck.json")
    _make_explorer().run(max_iters=1, checkpoint_path=path)
    return path


def _trajectory(result):
    return [
        (h.iteration, h.candidate, h.objective, h.accepted)
        for h in result.history
    ]


class TestCheckpointResume:
    def test_resumed_equals_uninterrupted(self, tmp_path):
        full = _make_explorer().run(max_iters=DSE_ITERS)

        path = str(tmp_path / "ck.json")
        _make_explorer().run(max_iters=2, checkpoint_path=path)
        assert os.path.exists(path)
        resumed = _make_explorer().run(
            max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
        )

        assert resumed.best_objective == full.best_objective
        assert _trajectory(resumed) == _trajectory(full)
        assert resumed.final_area == full.final_area

    def test_checkpoint_file_shape(self, tmp_path):
        path = str(tmp_path / "ck.json")
        _make_explorer().run(
            max_iters=2, checkpoint_path=path, checkpoint_every=1,
        )
        with open(path) as handle:
            record = json.load(handle)
        assert record["version"] == CHECKPOINT_VERSION
        assert record["seed"] == repr(DeterministicRng(SEED).seed)
        assert record["iteration"] >= 1
        assert record["history"]
        assert record["baseline_cycles"]
        assert record["state_blob"]
        # No stale temp file survives the atomic rename.
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_resume_with_missing_checkpoint_starts_fresh(
        self, tmp_path
    ):
        path = str(tmp_path / "never-written.json")
        result = _make_explorer().run(
            max_iters=2, checkpoint_path=path, resume=True,
        )
        assert result.best_adg is not None
        assert os.path.exists(path)  # final checkpoint written anyway

    def test_resume_with_wrong_seed_refuses(self, tmp_path):
        path = str(tmp_path / "ck.json")
        _make_explorer(seed=SEED).run(max_iters=2, checkpoint_path=path)
        with pytest.raises(DseError):
            _make_explorer(seed=SEED + 1).run(
                max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
            )

    @pytest.mark.parametrize("field, changed", [
        ("sched_iters", {"sched_iters": SCHED_ITERS + 1}),
        ("use_repair", {"use_repair": False}),
        ("area_budget_mm2", {"area_budget_mm2": 11.0}),
        ("power_budget_mw", {"power_budget_mw": 2100.0}),
        ("kernels", {"kernels": ("mm", "md")}),
    ])
    def test_resume_with_changed_setting_refuses(
        self, written_checkpoint, field, changed
    ):
        with pytest.raises(DseError, match=f"with {field}="):
            _make_explorer(**changed).run(
                max_iters=DSE_ITERS, checkpoint_path=written_checkpoint,
                resume=True,
            )

    def test_old_version_refused(self, written_checkpoint, tmp_path):
        with open(written_checkpoint) as handle:
            record = json.load(handle)
        record["version"] = CHECKPOINT_VERSION - 1
        path = str(tmp_path / "old.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        with pytest.raises(DseError, match="version"):
            _make_explorer().run(
                max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
            )

    def test_failed_write_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "ck.json")
        checkpoint.write(path, {"version": 1, "iteration": 1}, [1])
        # Unpicklable state: the write fails before touching the file.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            checkpoint.write(
                path, {"version": 1, "iteration": 2}, lambda: None
            )

        # A failure after the tempfile exists must remove it too.
        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.write(path, {"version": 1, "iteration": 3}, [3])
        monkeypatch.undo()

        record = checkpoint.read(path, 1, {"iteration": 1})
        assert record["state"] == [1]
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_resume_of_finished_run_is_idempotent(self, tmp_path):
        path = str(tmp_path / "ck.json")
        first = _make_explorer().run(
            max_iters=DSE_ITERS, checkpoint_path=path,
        )
        again = _make_explorer().run(
            max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
        )
        assert again.best_objective == first.best_objective
        assert _trajectory(again) == _trajectory(first)


class TestKillNineResume:
    def test_kill_9_mid_run_resumes_to_same_objective(self, tmp_path):
        """SIGKILL the CLI mid-exploration; the resumed run must land on
        the uninterrupted trajectory's final objective."""
        path = str(tmp_path / "ck.json")
        cli = [
            sys.executable, "-m", "repro", "dse",
            "--workloads", "mm", "--initial", "dse_initial",
            "--iters", str(DSE_ITERS), "--scale", "0.05",
            "--sched-iters", str(SCHED_ITERS), "--seed", str(SEED),
            "--checkpoint", path,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        # The uninterrupted reference, constructed exactly as cmd_dse
        # constructs its explorer (default initial budget).
        expected_cli = DesignSpaceExplorer(
            [make_kernel("mm", 0.05)],
            topologies.dse_initial(),
            rng=DeterministicRng(SEED),
            sched_iters=SCHED_ITERS,
        ).run(max_iters=DSE_ITERS)

        proc = subprocess.Popen(
            cli, env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill as soon as the first checkpoint lands (mid-run); if the
        # run finishes first the test still exercises resume-at-end.
        deadline = time.time() + 120
        while time.time() < deadline:
            if os.path.exists(path) or proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            assert proc.returncode != 0
        assert os.path.exists(path), "no checkpoint before the kill"

        resume = subprocess.run(
            cli + ["--resume"], env=env,
            cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stdout.decode()

        with open(path) as handle:
            final = json.load(handle)
        assert final["best_objective"] == pytest.approx(
            expected_cli.best_objective, rel=0, abs=0,
        )
        assert len(final["history"]) == len(expected_cli.history)
