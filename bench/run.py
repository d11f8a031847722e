"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload compile-fig10 --seed 1 --seconds 12 --trace 0

Sets the workload up its ``SETUP_REPEATS`` times (reporting the median
as ``setup_s``), then measures rounds until ``--seconds`` have passed and
at least the workload's ``MIN_ROUNDS`` rounds ran. Every set-up and
operation is reported at the reference speed of the host-speed meter
(:mod:`bench.calibrate`); the run, every process it starts and the
meter are pinned to one CPU.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each round twice, untraced and with the layer
wrappers of :mod:`bench.trace` installed (alternating which goes
first), and reports the per-layer metrics. The last line of standard
output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check failed. ``--out FILE`` appends a
fuller record (host, versions, samples, raw wall times) for
``bench/compare.py``.

The process re-executes itself once under a pinned environment (hash
seed, BLAS threads, no ``REPRO_*`` overrides) so every run sees the
program's defaults.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if not __package__:
    sys.path.insert(0, ROOT)

from bench import calibrate  # noqa: E402  (imports nothing of the program)

PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1"}
UNSET_ENV = ("REPRO_SIM_ENGINE", "REPRO_STORE", "REPRO_DSE_FIDELITY")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append a JSON record of the run to FILE")
    parser.add_argument("--spans-out", default=None,
                        help="span log of a traced run (JSONL); default "
                        "bench/.work/spans-<workload>.jsonl")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment(argv):
    """Re-execute this script under the pinned environment, once."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) \
            and not any(k in os.environ for k in UNSET_ENV):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    sys.stdout.flush()
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__), *argv], env)


def peak_rss_mb():
    """The larger of this process's peak RSS and its largest waited-for
    descendant's (server, pool workers); ``ru_maxrss`` is in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pin_to_one_cpu():
    """Run this process, and every process it starts, on one CPU;
    returns the CPUs it was allowed before.

    The host's two vCPUs change speed independently (their speeds,
    sampled in turn, correlate at 0.18) and slow each other when both
    are busy, so the host-speed meter only describes work done on the
    CPU it runs on. Pool workers and the server then share that CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    return cpus


def host_info(cpus):
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": len(cpus), "pinned_cpu": cpus[0],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def set_up(workload, seed):
    """Set the workload up ``SETUP_REPEATS`` times, keeping the last
    state; returns ``(state, [(start, end)] per set-up)``."""
    intervals = []
    for repeat in range(workload.SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed)
        intervals.append((start, time.perf_counter()))
        if repeat < workload.SETUP_REPEATS - 1:
            workload.teardown(state)
    return state, intervals


def end_to_end(setup_seconds, ops, rounds, rss_mb):
    """``(values, sample counts)`` of the end-to-end metrics;
    ``setup_seconds`` holds one reference time per set-up."""
    values = {"setup_s": statistics.median(setup_seconds),
              "round_s": ops.round_seconds(), "peak_rss_mb": rss_mb}
    samples = {"setup_s": len(setup_seconds), "round_s": rounds,
               "peak_rss_mb": 1}
    return values, samples


def measure(workload, state, ops, seconds):
    """Untraced rounds; returns how many ran."""
    start = time.perf_counter()
    index = 0
    while index < workload.MIN_ROUNDS \
            or time.perf_counter() - start < seconds:
        workload.run_round(state, index, ops)
        index += 1
    return index


def measure_traced(workload, state, ops, seconds, tracer):
    """Paired rounds, untraced and traced on the same inputs. Returns
    one ``(Telemetry, round extras)`` per traced round."""
    from bench import trace
    from repro.utils.telemetry import Telemetry

    records = []
    start = time.perf_counter()
    index = 0
    while index < workload.MIN_ROUNDS \
            or time.perf_counter() - start < seconds:
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                workload.run_round(state, index, ops)
                continue
            telemetry = Telemetry()
            patches = trace.install(tracer)
            ops.tracer, ops.round = tracer, index
            try:
                values = workload.run_round(state, index, ops, telemetry)
            finally:
                ops.tracer = None
                trace.uninstall(patches)
            records.append((telemetry, values))
        index += 1
    return records


def layer_report(workload, ops, records, run_extras, tracer, spans_out):
    """Per-layer metric values of a traced run; prints the span table."""
    from bench import metrics, trace

    spans = trace.op_spans(tracer.spans())
    table = trace.layer_times(spans)
    wall = sum(span.seconds for span in spans if span.name == trace.ROOT)
    overhead = ops.round_seconds(traced=True) / ops.round_seconds() - 1.0
    coverage = trace.coverage(spans)
    print(trace.format_table(table, wall))
    print(f"traced wall {wall:.3f} s over {len(records)} rounds; "
          f"spans below the entry points cover {100 * coverage:.1f}%; "
          f"tracing overhead {100 * overhead:+.1f}%")
    if coverage < 0.9:
        print("warning: spans below the entry points cover less than 90% "
              "of the traced operation time", file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(spans_out)), exist_ok=True)
    trace.write_jsonl(spans, spans_out)
    return metrics.layer_values(
        table, metrics.Totals(records),
        metrics.Totals(records[:workload.MIN_ROUNDS]), run_extras,
        overhead, coverage,
    )


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program source under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    pin_environment(argv)
    # A terminated run still tears down: the server, the pool and the
    # host-speed meter are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    cpus = pin_to_one_cpu()
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"bench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from bench import metrics, trace, workloads

    spec = metrics.load_benchmark()
    unit_of = metrics.units(spec)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    host = calibrate.HostSpeed()
    try:
        state, setup_intervals = set_up(workload, args.seed)
        ops = workloads.Ops(host)
        tracer = trace.Tracer(workload=args.workload)
        try:
            if args.trace:
                records = measure_traced(workload, state, ops,
                                         args.seconds, tracer)
            else:
                rounds = measure(workload, state, ops, args.seconds)
            run_extras = workload.finish(state, ops)
        finally:
            workload.teardown(state)
    finally:
        host.stop()
    setup_seconds = [host.normalise(*interval)
                     for interval in setup_intervals]
    setup_wall = [end - start for start, end in setup_intervals]

    if args.trace:
        spans_out = args.spans_out or os.path.join(
            workloads.WORK_DIR, f"spans-{args.workload}.jsonl"
        )
        values = layer_report(workload, ops, records, run_extras, tracer,
                              spans_out)
        samples = {name: len(records) for name in values}
    else:
        values, samples = end_to_end(setup_seconds, ops, rounds,
                                     peak_rss_mb())
    declared = [entry["name"] for entry in
                spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(declared):
        raise RuntimeError(
            f"emitted metrics {sorted(values)} differ from "
            f"BENCHMARK.json {sorted(declared)}"
        )
    for name in declared:
        print(f"{args.workload} {name} = {values[name]:.6g} "
              f"{unit_of[name]} (n={samples[name]})")
    print(f"{args.workload} operations: {ops.attempted} attempted, "
          f"{ops.failed} failed (fail_frac {ops.fail_frac:.3g})")
    for reason in ops.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit_of[name]}
                    for name in declared},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "samples": samples, "host": host_info(cpus),
                  "wall": {"setup_s": statistics.median(setup_wall),
                           "round_s": ops.round_seconds(wall=True)},
                  **result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
