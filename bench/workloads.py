"""The benchmark's five workloads and their correctness gates.

A workload is set up from the seed, then measured in *rounds*: a round
is a fixed unit of work made of timed operations, and every output is
checked against a reference that does not come from the code under
test. A failed check counts the operation as failed; it never stops
the run.

============== ================================ ==========================
workload       operation (one timed call)       round
============== ================================ ==========================
compile-fig10  ``compile_kernel`` of a kernel   the five Fig. 10 kernels
sim-paper      ``simulate`` of a kernel         the five kernels, compiled
dse-fig14      a ``DesignSpaceExplorer`` run    one operation
faults-100     ``run_campaign`` of one kernel   md and join
serve-replay   50 ``run`` requests, warm        one operation
============== ================================ ==========================

Round ``i`` of seed ``s`` draws its inputs from ``(s, i)`` alone, so a
traced round can repeat an untraced one exactly. The program's
functions are looked up through their modules at call time
(``compiler.compile_kernel``, not a name bound at import) so the
timing wrappers of :mod:`bench.trace` see every call.
"""

import copy
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

from repro import compiler, dse, faults
from repro import sim as simulator
from repro.adg import topologies
from repro.errors import CompilationError, DseError, ServerError
from repro.server import JobSpec, ServerClient, artifact_digest
from repro.server import parse_address
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

from bench import metrics, trace

SRC = os.path.join(metrics.ROOT, "src")
#: Scratch space for server stores and span logs (ignored by git).
WORK_DIR = os.path.join(metrics.ROOT, "bench", ".work")

#: The Fig. 10 Softbrain kernels: dense (mm, pb_2mm), stencil, DSP
#: (fft) and irregular (histogram) — five different DFG shapes.
FIG10_KERNELS = ("mm", "pb_2mm", "stencil2d", "fft", "histogram")


class BenchError(Exception):
    """Set-up could not produce the inputs a workload measures."""


class Ops:
    """Timed operations of one run and the failures their checks found.

    ``attempted`` counts operations; ``failed`` counts operations with
    at least one failed check, so ``failed <= attempted``.

    Each timed call is kept as its ``perf_counter`` interval; ``host``,
    a :class:`calibrate.HostSpeed`, turns intervals into seconds at the
    reference speed once it is stopped.
    """

    def __init__(self, host):
        self.host = host
        #: ``(kind, traced, start, end)`` per call.
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        #: The :class:`trace.Tracer` during traced rounds, else None.
        self.tracer = None
        #: Index of the round being run (an attribute of its op spans).
        self.round = None

    @contextmanager
    def op(self, kind, attempts=1):
        """Time one call that performs ``attempts`` operations. A round
        makes one call of each ``kind`` (e.g. the kernel it compiles)."""
        self.attempted += attempts
        traced = self.tracer is not None
        span = None
        if traced:
            span = self.tracer.open(trace.ROOT,
                                    {"round": self.round, "kind": kind})
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
            self.samples.append((kind, traced, start, end))

    def round_seconds(self, traced=False, wall=False):
        """The mean time of a round: the sum over operation kinds of
        each kind's mean call time, at the reference speed unless
        ``wall``. Once the host's speed is taken out, a mean of the
        calls varied less from run to run than their median in 13 of 16
        comparisons over six or ten runs."""
        times = {}
        for kind, was_traced, start, end in self.samples:
            if was_traced == traced:
                times.setdefault(kind, []).append(
                    end - start if wall else self.host.normalise(start, end)
                )
        return sum(statistics.fmean(group) for group in times.values())

    def fail(self, reason, count=1):
        """Record ``count`` failed operations."""
        self.failed += count
        self.reasons.append(reason)

    def check(self, ok, reason):
        """Count one failed operation unless ``ok``; returns ``ok``."""
        if not ok:
            self.fail(reason)
        return bool(ok)

    def verify(self, ok, reason):
        """An untimed operation that is only a check."""
        self.attempted += 1
        return self.check(ok, reason)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def outputs_match(memory, golden):
    """The simulated memory equals the golden one, array by array.
    Kernels use integer-valued floats, so reduction order cannot move
    a value (the tolerance only absorbs int/float representation)."""
    if memory.keys() != golden.keys():
        return False
    return all(
        len(memory[name]) == len(golden[name])
        and all(math.isclose(float(a), float(b), rel_tol=1e-9,
                             abs_tol=1e-9)
                for a, b in zip(memory[name], golden[name]))
        for name in golden
    )


def _bound_memories(kernel, compiled):
    """``(input memory, golden memory)`` for one compiled kernel: the
    golden one comes from the kernel's pure-Python reference."""
    memory = kernel.make_memory()
    compiled.scope.bind_constants(memory)
    golden = copy.deepcopy(memory)
    kernel.reference(golden)
    return memory, golden


class Workload:
    """Interface of one workload (see the module table)."""

    name = ""
    #: Rounds a run makes however long they take.
    MIN_ROUNDS = 3
    #: Set-ups a run makes; ``setup_s`` is their median.
    SETUP_REPEATS = 5

    def setup(self, seed):
        raise NotImplementedError

    def run_round(self, state, index, ops, telemetry=None):
        """Run round ``index``; returns ``{metric: value}`` for the
        :data:`metrics.ROUND_EXTRAS` it reports. ``telemetry`` is given
        only in traced rounds."""
        raise NotImplementedError

    def finish(self, state, ops):
        """Checks that need the whole run; returns
        :data:`metrics.RUN_EXTRAS` values."""
        return {}

    def teardown(self, state):
        pass


class CompileFig10(Workload):
    """Each round compiles the five kernels with fresh scheduler seeds;
    each result is then simulated once and checked. Scheduling is most
    of the time here and simulation none of the timed part."""

    name = "compile-fig10"
    SCALE = 0.1
    MAX_ITERS = 30
    VARIANTS = 1

    def _compile(self, adg, kernel, seed, telemetry=None):
        return compiler.compile_kernel(
            kernel, adg, rng=DeterministicRng(seed),
            max_iters=self.MAX_ITERS, max_scheduled_variants=self.VARIANTS,
            telemetry=telemetry,
        )

    def setup(self, seed):
        adg = topologies.PRESETS["softbrain"]()
        kernels = [make_kernel(name, self.SCALE) for name in FIG10_KERNELS]
        # Warm-up, so lazy first-use work is not charged to round 0; the
        # same for every seed, so set-up time does not vary with it.
        self._compile(adg, kernels[0], ("bench-setup",))
        return {"seed": seed, "adg": adg, "kernels": kernels}

    def run_round(self, state, index, ops, telemetry=None):
        adg = state["adg"]
        cycles = 0
        for kernel in state["kernels"]:
            seed = ("bench", state["seed"], index, kernel.name)
            try:
                with ops.op(kernel.name):
                    result = self._compile(adg, kernel, seed, telemetry)
            except CompilationError as exc:
                ops.fail(f"{kernel.name}: {exc}")
                continue
            if not ops.check(result.ok, f"{kernel.name}: no legal mapping"):
                continue
            memory, golden = _bound_memories(kernel, result)
            sim = simulator.simulate(adg, result, memory)
            ops.check(outputs_match(memory, golden),
                      f"{kernel.name}: output differs from the reference")
            cycles += sim.cycles
        return {"sim.cycles": cycles}


class SimPaper(Workload):
    """Set-up compiles the same five kernels at three times the size;
    each round simulates every one on the default engine. In traced
    rounds each kernel is replayed again on ``stepped``, which must give
    a bit-identical ``SimResult``."""

    name = "sim-paper"
    SCALE = 0.3
    MAX_ITERS = 10
    VARIANTS = 1
    SETUP_REPEATS = 3

    def setup(self, seed):
        adg = topologies.PRESETS["softbrain"]()
        cases = []
        for name in FIG10_KERNELS:
            kernel = make_kernel(name, self.SCALE)
            compiled = compiler.compile_kernel(
                kernel, adg, rng=DeterministicRng(("bench", seed, name)),
                max_iters=self.MAX_ITERS,
                max_scheduled_variants=self.VARIANTS,
            )
            if not compiled.ok:
                raise BenchError(f"{name}: no legal mapping at set-up")
            cases.append((kernel, compiled) + _bound_memories(kernel,
                                                              compiled))
        return {"adg": adg, "cases": cases}

    def run_round(self, state, index, ops, telemetry=None):
        adg = state["adg"]
        extras = {"sim.cycles": 0, "sim.stepped_replay_s": 0.0}
        for kernel, compiled, memory, golden in state["cases"]:
            work = copy.deepcopy(memory)
            with ops.op(kernel.name):
                result = simulator.simulate(adg, compiled, work,
                                            telemetry=telemetry)
            ok = ops.check(outputs_match(work, golden),
                           f"{kernel.name}: output differs from the "
                           "reference")
            extras["sim.cycles"] += result.cycles
            if telemetry is None or not ok:
                continue
            meter = Telemetry()
            stepped = simulator.simulate(adg, compiled,
                                         copy.deepcopy(memory),
                                         engine="stepped", telemetry=meter)
            extras["sim.stepped_replay_s"] += meter.total_seconds(
                "sim/replay"
            )
            if stepped != result:
                # The operation passed its reference check above, so
                # this is its first failure.
                ops.fail(f"{kernel.name}: stepped SimResult differs")
        return extras


class DseFig14(Workload):
    """One short multi-fidelity exploration of the fig14 MachSuite set
    per round: initial compile, the trim step and one surrogate-ranked
    generation whose finalists are compiled by schedule repair. The
    winning design's kernels are simulated and checked."""

    name = "dse-fig14"
    KERNELS = ("mm", "md", "ellpack")
    SCALE = 0.05
    SCHED_ITERS = 5
    INITIAL_SCHED_ITERS = 20
    GENERATIONS = 1

    def setup(self, seed):
        kernels = [make_kernel(name, self.SCALE) for name in self.KERNELS]
        # Warm-up, so lazy first-use work is not charged to round 0; the
        # same for every seed, so set-up time does not vary with it.
        compiler.compile_kernel(
            kernels[0], topologies.dse_initial(),
            rng=DeterministicRng(("bench-setup",)),
            max_iters=self.SCHED_ITERS,
        )
        return {"seed": seed, "kernels": kernels}

    def run_round(self, state, index, ops, telemetry=None):
        explorer = dse.DesignSpaceExplorer(
            state["kernels"], topologies.dse_initial(),
            rng=DeterministicRng(("bench", state["seed"], index)),
            sched_iters=self.SCHED_ITERS,
            initial_sched_iters=self.INITIAL_SCHED_ITERS,
            fidelity="multi", workers=1, telemetry=telemetry,
        )
        try:
            with ops.op("explore"):
                result = explorer.run(max_iters=self.GENERATIONS)
        except DseError as exc:
            ops.fail(f"DseError: {exc}")
            return {}
        counters = result.telemetry["counters"]
        errors = (counters.get("worker_errors", 0)
                  + counters.get("dse_worker_timeouts", 0))
        wrong = [
            kernel.name for kernel in state["kernels"]
            if not self._computes(result.best_adg, kernel,
                                  result.kernel_results.get(kernel.name))
        ]
        ops.check(not errors and not wrong,
                  f"worker errors {errors}, wrong outputs {wrong}")
        return {"dse.objective_x": result.objective_improvement()}

    @staticmethod
    def _computes(adg, kernel, compiled):
        if compiled is None or not compiled.ok:
            return False
        memory, golden = _bound_memories(kernel, compiled)
        simulator.simulate(adg, compiled, memory)
        return outputs_match(memory, golden)


class Faults100(Workload):
    """One fault campaign per kernel per round: the baseline, then every
    case repaired and simulated as lanes of one batched simulation in a
    fork pool of two workers. The campaign itself checks every case's
    output against the kernel reference; a ``miscompiled`` case is a
    failure.

    Each campaign covers one kernel, so a round's work does not depend
    on how many cases the draw gives each kernel. mm is left out: its
    baseline schedule comes out one of two ways depending on the seed,
    and one of them makes its cases half again as slow to repair and
    simulate, which a run of a dozen rounds cannot average away.
    """

    name = "faults-100"
    KERNELS = ("md", "join")
    CASES = 12
    SCHED_ITERS = 8
    WORKERS = 2
    MIN_ROUNDS = 6

    def setup(self, seed):
        # Warm-up: one campaign baseline, so lazy first-use work is not
        # charged to round 0; the same for every seed.
        faults.prepare_baseline(self.KERNELS[0],
                                sched_iters=self.SCHED_ITERS, seed=0)
        return {"seed": seed}

    def run_round(self, state, index, ops, telemetry=None):
        # The campaign counts worker errors in its telemetry, and makes
        # an enabled one itself when given none.
        telemetry = telemetry if telemetry is not None else Telemetry()
        points = []
        for kernel in self.KERNELS:
            errors = telemetry.counters.get("fault_worker_errors", 0)
            with ops.op(kernel, attempts=self.CASES):
                summary = faults.run_campaign(
                    workloads=(kernel,), cases=self.CASES,
                    seed=state["seed"] * 1000 + index,
                    sim_engine="batched", workers=self.WORKERS,
                    shrink=True, sched_iters=self.SCHED_ITERS,
                    telemetry=telemetry,
                )
            bad = (summary.counts.get("miscompiled", 0)
                   + telemetry.counters.get("fault_worker_errors", 0)
                   - errors)
            if bad or summary.cases != self.CASES:
                ops.fail(f"{kernel} campaign {summary.counts}, "
                         f"{summary.cases}/{self.CASES} cases",
                         count=min(max(bad, 1), self.CASES))
            points += summary.curves.get(kernel, [])
        retained = sum(p["perf_retained"] * p["cases"] for p in points)
        return {"faults.perf_retained":
                retained / max(1, sum(p["cases"] for p in points))}


class ServeReplay(Workload):
    """Set-up starts ``repro serve`` on an empty store and fills it with
    the unique requests (the cold pass: real compiles, publishes and
    journal writes). Each round is one closed-loop warm replay that only
    reads the store, skewed toward a few hot keys; the replay is timed
    as one call, and each request in it on its own."""

    name = "serve-replay"
    SCALE = 0.05
    SCHED_ITERS = 10
    ATTEMPTS = 3
    REQUESTS = 50
    # The server keeps its last 1024 job records, artifacts included, so
    # its memory grows with every request until 1024 have completed:
    # 21 rounds always get there, which keeps peak_rss_mb comparable.
    MIN_ROUNDS = 21
    SETUP_REPEATS = 3
    PINGS = 50

    def _specs(self, seed):
        return [
            JobSpec(kind=kind, workload=workload, preset="softbrain",
                    scale=self.SCALE, seed=seed,
                    sched_iters=self.SCHED_ITERS, attempts=self.ATTEMPTS)
            for kind in ("compile", "simulate")
            for workload in ("mm", "conv")
        ]

    def setup(self, seed):
        os.makedirs(WORK_DIR, exist_ok=True)
        state = {"seed": seed, "specs": self._specs(seed),
                 "work": tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR),
                 "proc": None, "client": None}
        try:
            state["proc"], address = _start_server(state["work"])
            state["client"] = ServerClient(*address)
            state["latencies"] = []
            state["digests"] = []
            state["cold"] = {"compile": [], "simulate": []}
            for spec in state["specs"]:
                start = time.perf_counter()
                record = state["client"].run(spec)
                state["cold"][spec.kind].append(time.perf_counter() - start)
                if not record.get("ok") or record.get("cached"):
                    raise BenchError(f"cold request failed: {record}")
                state["digests"].append(record["digest"])
            state["stats"] = state["client"].stats()["counters"]
        except BaseException:
            self.teardown(state)
            raise
        return state

    def run_round(self, state, index, ops, telemetry=None):
        specs = state["specs"]
        # Weight 1/(rank+1)^2: the top two keys take most of the traffic.
        weights = [1.0 / (rank + 1) ** 2 for rank in range(len(specs))]
        picks = random.Random(f"{state['seed']}/{index}").choices(
            range(len(specs)), weights=weights, k=self.REQUESTS,
        )
        with ops.op("replay", attempts=self.REQUESTS):
            for pick in picks:
                start = time.perf_counter()
                try:
                    record = state["client"].run(specs[pick])
                except ServerError as exc:
                    ops.fail(f"request {pick}: {exc}")
                    continue
                state["latencies"].append(time.perf_counter() - start)
                ops.check(record.get("ok") and record.get("digest")
                          == state["digests"][pick],
                          f"request {pick}: not ok or unstable digest")
        return {}

    def finish(self, state, ops):
        client = state["client"]
        pings = []
        for _ in range(self.PINGS):
            start = time.perf_counter()
            client.ping()
            pings.append(time.perf_counter() - start)
        counters = client.stats()["counters"]
        before = state["stats"]

        def delta(name):
            return counters.get(name, 0) - before.get(name, 0)

        # Served == direct: the hottest request's artifact matches an
        # in-process compile of the same spec, made after the timed
        # rounds so it cannot warm anything they use.
        hottest = state["specs"][0]
        direct = compiler.compile_kernel(
            make_kernel(hottest.workload, hottest.scale),
            topologies.PRESETS[hottest.preset](),
            rng=DeterministicRng(hottest.seed),
            max_iters=hottest.sched_iters, attempts=hottest.attempts,
        )
        ops.verify(artifact_digest(direct) == state["digests"][0],
                   "served artifact differs from a direct compile")
        cold = state["cold"]
        return {
            "server.cold_compile_s": sum(cold["compile"])
            / len(cold["compile"]),
            "server.cold_simulate_s": sum(cold["simulate"])
            / len(cold["simulate"]),
            "server.hit_frac": delta("server_cache_hits")
            / max(1, delta("server_submits")),
            "server.ping_p50_ms": 1e3 * statistics.median(pings),
            "server.warm_p95_ms": 1e3 * statistics.quantiles(
                state["latencies"], n=20, method="inclusive")[18],
        }

    def teardown(self, state):
        client, proc = state.get("client"), state.get("proc")
        try:
            if client is not None:
                try:
                    client.shutdown()
                except ServerError:
                    pass
            if proc is not None:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            shutil.rmtree(state["work"], ignore_errors=True)


def _start_server(work):
    """Start ``repro serve`` on an empty store under ``work``; returns
    ``(process, address)`` once it listens."""
    log_path = os.path.join(work, "server.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", os.path.join(work, "store"), "--workers", "1"],
            env={**os.environ, "PYTHONPATH": SRC}, cwd=metrics.ROOT,
            stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        with open(log_path) as log:
            for line in log:
                if line.startswith("serving on "):
                    return proc, parse_address(line.split()[2])
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    proc.kill()
    proc.wait()
    with open(log_path) as log:
        raise BenchError(f"server did not start: {log.read()[-2000:]}")


WORKLOADS = {
    workload.name: workload
    for workload in (CompileFig10, SimPaper, DseFig14, Faults100,
                     ServeReplay)
}
