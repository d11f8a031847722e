"""Golden trajectory pin for the DSE and composition explorers.

Runs both explorers at fixed seeds, in both fidelities, and hashes what
each search produced: every history entry (floats as ``repr``), the best
objective and the best design (the winning ADG's structural fingerprint,
or the winning partition), the surrogate's whole training state (buffer,
refit count, calibration log, weight bytes) and the funnel's counters.

A change to how the search is written must leave this digest unchanged:
it pins that a refactored explorer is the *same* search. Regenerate it
only for a change that is meant to alter trajectories, by running this
file as a script (``PYTHONPATH=src python tests/test_dse_trajectory.py``)
on the commit whose behaviour is the new reference.
"""

import hashlib
import json
from dataclasses import asdict

from repro.adg import topologies
from repro.dse import (
    CompositionExplorer,
    DesignSpaceExplorer,
    partition_strategy,
    specialize_kernels,
)
from repro.harness.compile_cache import adg_fingerprint
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

SCALE = 0.05
SEED = 11
FIDELITIES = ("multi", "full")
COMPOSE_KERNELS = ("mm", "pool", "md")

#: Counter families the generation funnel owns.
FUNNEL_COUNTERS = ("candidates_", "fidelity_", "compose_", "surrogate_")

EXPECTED_DIGEST = (
    "127439b614d6287cebb77f408b38c05adfa441f8860fda3a06ad7b0494162e2c"
)


def _surrogate_facts(model):
    if model is None:
        return None
    return (
        json.dumps(
            [model.buffer, model.fitted_count, model.refits,
             model.calibration_log, model._kernel_names],
            sort_keys=True,
        ),
        None if model._weights is None else model._weights.tobytes().hex(),
        None if model._scale is None else model._scale.tobytes().hex(),
    )


def _facts(explorer, result, best, telemetry):
    return (
        [repr(asdict(entry)) for entry in result.history],
        repr(result.best_objective),
        best,
        _surrogate_facts(explorer.surrogate),
        sorted(
            (name, value) for name, value in telemetry.counters.items()
            if name.startswith(FUNNEL_COUNTERS)
        ),
    )


def dse_case(fidelity):
    """mm on ``dse_initial``: four generations of three candidates."""
    telemetry = Telemetry()
    explorer = DesignSpaceExplorer(
        [make_kernel("mm", SCALE)], topologies.dse_initial(),
        rng=DeterministicRng(SEED), sched_iters=30, telemetry=telemetry,
        fidelity=fidelity, recalibrate_every=4,
    )
    result = explorer.run(max_iters=4, workers=1, batch=3)
    return _facts(explorer, result, adg_fingerprint(result.best_adg),
                  telemetry)


def compose_specialized():
    kernels = [make_kernel(name, SCALE) for name in COMPOSE_KERNELS]
    return specialize_kernels(kernels, DeterministicRng(SEED),
                              sched_iters=60)


def compose_case(specialized, fidelity):
    """mm+pool+md under a budget of their summed specialized area."""
    telemetry = Telemetry()
    explorer = CompositionExplorer(
        specialized, rng=DeterministicRng(SEED),
        area_budget_mm2=sum(spec.area for spec in specialized.values()),
        sched_iters=30, telemetry=telemetry, fidelity=fidelity,
        surrogate_top=2, surrogate_widen=3, recalibrate_every=4,
    )
    result = explorer.run(max_iters=4)
    return _facts(explorer, result, repr(result.best_partition),
                  telemetry), result


def trajectory_cases():
    """``[(name, facts)]`` for every pinned run, plus the compose
    results (the test checks they cover what the pin claims)."""
    cases = [(f"dse-{fidelity}", dse_case(fidelity))
             for fidelity in FIDELITIES]
    specialized = compose_specialized()
    compose_results = []
    for fidelity in FIDELITIES:
        facts, result = compose_case(specialized, fidelity)
        cases.append((f"compose-{fidelity}", facts))
        compose_results.append(result)
    return cases, compose_results


def trajectory_digest(cases):
    digest = hashlib.sha256()
    for name, facts in cases:
        digest.update(repr((name, facts)).encode())
    return digest.hexdigest()


def test_trajectories_match_golden_digest():
    cases, compose_results = trajectory_cases()
    # The pin must cover the funnel's interesting paths: surrogate refits
    # under multi fidelity, and all three composition strategies.
    facts = dict(cases)
    assert json.loads(facts["dse-multi"][3][0])[2] >= 1
    assert json.loads(facts["compose-multi"][3][0])[2] >= 1
    strategies = {
        partition_strategy(entry.partition)
        for result in compose_results for entry in result.history
    }
    assert strategies == {"merged", "partitioned", "per_kernel"}
    assert trajectory_digest(cases) == EXPECTED_DIGEST


if __name__ == "__main__":
    print(trajectory_digest(trajectory_cases()[0]))
