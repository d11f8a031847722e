"""Composition sweep: merged/partitioned vs per-kernel accelerators.

Runs the ``figcompose`` harness (conv+pool+classifier under three shared
area budgets) twice — serial and with four evaluation workers — and pins
the PR's two claims:

* **area efficiency** — a shared composition (merged or partitioned)
  meets or beats the per-kernel deployment on perf^2/mm^2 at >= 2 of
  the 3 budgets (``summary["shared_wins"]``);
* **determinism** — ``workers=4`` reproduces the ``workers=1`` rows,
  per-budget scores, and strategy scoreboard bit-for-bit.

The parallel run's JSONL log is read back and checked too.
"""

import json

from conftest import run_once

from repro.harness import figcompose
from repro.harness.report import format_table

WORKLOADS = ("conv", "pool", "classifier")
SCALE = 0.05
ITERS = 2
SCHED_ITERS = 30
SEED = 0


def test_composition_wins_and_is_deterministic(benchmark, tmp_path):
    out = str(tmp_path / "compose.jsonl")
    kwargs = dict(
        workloads=WORKLOADS, scale=SCALE, compose_iters=ITERS,
        sched_iters=SCHED_ITERS, seed=SEED,
    )

    def measure():
        serial_rows, serial = figcompose.run(workers=1, **kwargs)
        parallel_rows, parallel = figcompose.run(
            workers=4, telemetry_out=out, **kwargs
        )
        return serial_rows, serial, parallel_rows, parallel

    serial_rows, serial, parallel_rows, parallel = run_once(
        benchmark, measure
    )

    print()
    print(format_table(
        serial_rows,
        title="Composition objective (perf^2/mm^2) by budget/strategy",
    ))
    print(f"shared_wins: {serial['shared_wins']} of "
          f"{len(serial['budgets'])} budgets  "
          f"(specialized footprint "
          f"{serial['specialized_area_mm2']:.3f} mm^2)")

    # The headline pin: sharing fabric beats per-kernel deployment on
    # area efficiency at >= 2 of the 3 budgets.
    assert len(serial["budgets"]) == 3
    assert serial["shared_wins"] >= 2, serial["per_budget"]
    assert serial["feasible_budgets"] >= 2
    assert {"merged", "per_kernel"} <= set(serial["strategy_best"])

    # Determinism: workers only change wall-clock, never the result.
    assert parallel_rows == serial_rows
    assert parallel["per_budget"] == serial["per_budget"]
    assert parallel["strategy_best"] == serial["strategy_best"]
    assert parallel["shared_wins"] == serial["shared_wins"]

    # The parallel run's JSONL log tells the whole story: one
    # specialization per kernel, per-budget generations, one
    # figcompose summary at the end.
    with open(out, "a") as handle:
        handle.write(json.dumps({
            "type": "compose_perf",
            "workloads": list(WORKLOADS),
            "scale": SCALE,
            "iters": ITERS,
            "shared_wins": serial["shared_wins"],
            "strategy_best": serial["strategy_best"],
        }) + "\n")
    with open(out) as handle:
        records = [json.loads(line) for line in handle]
    specializations = [
        r for r in records if r.get("type") == "specialize"
    ]
    assert len(specializations) == len(WORKLOADS)
    generations = [
        r for r in records if r.get("type") == "compose_generation"
    ]
    assert generations
    for record in generations:
        assert len(record["objectives"]) == record["candidates"]
    summaries = [
        r for r in records if r.get("type") == "figcompose_summary"
    ]
    assert summaries and summaries[-1]["shared_wins"] >= 2
    assert records[-1]["type"] == "compose_perf"
