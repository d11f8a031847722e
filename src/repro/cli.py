"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro workloads
    python -m repro run mm --target softbrain --scale 0.1
    python -m repro compile kernel.c --bind n=16 --array a=256 --array c=256
    python -m repro dse --workloads mm,md,join --iters 10 --out design.json
    python -m repro compose --workloads conv,pool,classifier --budget 1.5
    python -m repro hwgen design.json --verilog design.v --paths 3
    python -m repro report fig13
    python -m repro verify mm --target softbrain
    python -m repro fuzz --cases 50 --seed 2026 --out fuzz-repros
    python -m repro faults --cases 25 --seed 2026 --out fault-repros
    python -m repro serve --store /var/tmp/repro-store --port 8753
    python -m repro submit compile mm --server 127.0.0.1:8753
    python -m repro chaos --requests 200 --seed 2026 --fault-rate 0.25
    python -m repro store fsck --store /var/tmp/repro-store --gc

Every subcommand is a thin shell over the library; scripts wanting more
control should import :mod:`repro` directly.
"""

import argparse
import copy
import json
import os
import sys

from repro.adg import load_adg, save_adg, topologies, validate_adg
from repro.compiler import compile_kernel
from repro.errors import DsagenError
from repro.sim import SIM_ENGINES, simulate
from repro.utils.rng import DeterministicRng


def _parse_bindings(pairs):
    result = {}
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"expected NAME=VALUE, got {pair!r}")
        result[name] = int(value)
    return result


def _target_adg(name):
    if name.endswith(".json"):
        return load_adg(name)
    try:
        return topologies.PRESETS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown target {name!r}; presets: "
            f"{', '.join(sorted(topologies.PRESETS))} or a .json file"
        )


def _print_rejected(result):
    for params, reason in result.rejected:
        print(f"  {params.describe()}: {reason}")


def _run_compiled(adg, workload, result, do_simulate):
    print(f"variant: {result.params.describe()}  "
          f"estimated cycles: {result.perf.cycles:.0f}")
    if result.rejected:
        print("rejected variants:")
        _print_rejected(result)
    print(f"schedule: {result.schedule.summary()}")
    if not do_simulate:
        return
    memory = workload.make_memory()
    result.scope.bind_constants(memory)
    reference = copy.deepcopy(memory)
    sim = simulate(adg, result, memory)
    workload.reference(reference)
    import math

    correct = all(
        all(math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
            for a, b in zip(memory[array], reference[array]))
        for array in memory
    )
    print(f"simulated cycles: {sim.cycles}  correct: {correct}")


def cmd_workloads(args):
    from repro.workloads import workload_names
    from repro.workloads.spec import PAPER_SIZES, WORKLOAD_DOMAINS

    domain_of = {}
    for domain, names in WORKLOAD_DOMAINS.items():
        for name in names:
            domain_of[name] = domain
    for name in workload_names():
        print(f"{name:12s} {domain_of.get(name, '-'):10s} "
              f"{PAPER_SIZES.get(name, {})}")
    return 0


def cmd_run(args):
    from repro.workloads import kernel as make_kernel

    adg = _target_adg(args.target)
    workload = make_kernel(args.workload, args.scale)
    print(f"compiling {args.workload!r} for {adg.name!r} ...")
    result = compile_kernel(
        workload, adg,
        rng=DeterministicRng(args.seed), max_iters=args.sched_iters,
    )
    if not result.ok:
        print("no legal mapping; rejected variants:")
        _print_rejected(result)
        return 1
    _run_compiled(adg, workload, result, not args.no_simulate)
    return 0


def cmd_compile(args):
    from repro.frontend import compile_c
    from repro.ir.printer import describe_scope

    with open(args.source) as handle:
        source = handle.read()
    arrays = _parse_bindings(args.array)
    bindings = _parse_bindings(args.bind)
    workload = compile_c(
        source, bindings=bindings, arrays=arrays,
        function=args.function,
    )
    adg = _target_adg(args.target)
    result = compile_kernel(
        workload, adg,
        rng=DeterministicRng(args.seed), max_iters=args.sched_iters,
    )
    if not result.ok:
        print("no legal mapping; rejected variants:")
        _print_rejected(result)
        return 1
    print(describe_scope(result.scope))
    _run_compiled(adg, workload, result, not args.no_simulate)
    if args.dot:
        from repro.ir.printer import dfg_to_dot

        with open(args.dot, "w") as handle:
            for region in result.scope.regions:
                handle.write(dfg_to_dot(region.dfg, region.name))
        print(f"wrote {args.dot}")
    return 0


def cmd_dse(args):
    from repro.dse import DesignSpaceExplorer
    from repro.harness.report import print_telemetry_summary
    from repro.utils.telemetry import Telemetry
    from repro.workloads import kernel as make_kernel

    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    kernels = [make_kernel(name, args.scale) for name in names]
    initial = _target_adg(args.initial)
    try:
        telemetry = Telemetry(jsonl_path=args.telemetry_out)
    except OSError as exc:
        raise SystemExit(f"cannot open --telemetry-out: {exc}")
    with telemetry:
        explorer = DesignSpaceExplorer(
            kernels, initial,
            rng=DeterministicRng(args.seed),
            sched_iters=args.sched_iters,
            area_budget_mm2=args.area_budget,
            workers=args.workers,
            batch=args.batch,
            telemetry=telemetry,
            verify_schedules=args.verify,
            eval_timeout=args.eval_timeout,
            fidelity=args.fidelity,
            surrogate_top=args.surrogate_top,
            surrogate_widen=args.surrogate_widen,
            recalibrate_every=args.recalibrate_every,
        )
        result = explorer.run(
            max_iters=args.iters,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
    for entry in result.history:
        if entry.accepted:
            print(f"iter {entry.iteration:3d}: area {entry.area_mm2:.3f} "
                  f"obj {entry.objective:.3f} "
                  f"[{entry.mutations[0] if entry.mutations else ''}]")
    print(f"area saving {result.area_saving()*100:.0f}%  "
          f"objective x{result.objective_improvement():.2f}")
    print_telemetry_summary(result.telemetry)
    if args.telemetry_out:
        print(f"wrote {args.telemetry_out}")
    if args.out:
        save_adg(result.best_adg, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_compose(args):
    from repro.dse import run_compose
    from repro.harness.report import print_telemetry_summary
    from repro.utils.telemetry import Telemetry
    from repro.workloads import kernel as make_kernel

    if args.replay:
        try:
            with open(args.replay) as handle:
                spec = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read --replay spec: {exc}")
        for name, value in spec.items():
            if hasattr(args, name):
                setattr(args, name, value)
    spec = {
        "workloads": args.workloads,
        "scale": args.scale,
        "seed": args.seed,
        "budget": args.budget,
        "budget_fractions": args.budget_fractions,
        "iters": args.iters,
        "width": args.width,
        "sched_iters": args.sched_iters,
        "specialize_sched_iters": args.specialize_sched_iters,
        "fidelity": args.fidelity,
        "surrogate_top": args.surrogate_top,
        "surrogate_widen": args.surrogate_widen,
        "recalibrate_every": args.recalibrate_every,
    }
    if args.spec_out:
        # A replayable run spec: the nightly sweep archives this next
        # to the telemetry so any failure reproduces with
        # `repro compose --replay <file>`.
        with open(args.spec_out, "w") as handle:
            json.dump(spec, handle, indent=2, sort_keys=True)
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    kernels = [make_kernel(name, args.scale) for name in names]
    fractions = tuple(
        float(f) for f in args.budget_fractions.split(",") if f.strip()
    )
    try:
        telemetry = Telemetry(jsonl_path=args.telemetry_out)
    except OSError as exc:
        raise SystemExit(f"cannot open --telemetry-out: {exc}")
    with telemetry:
        out = run_compose(
            kernels,
            rng=DeterministicRng(args.seed),
            budgets=args.budget or None,
            budget_fractions=fractions,
            sched_iters=args.sched_iters,
            specialize_sched_iters=args.specialize_sched_iters,
            max_iters=args.iters,
            width=args.width,
            workers=args.workers,
            telemetry=telemetry,
            fidelity=args.fidelity,
            surrogate_top=args.surrogate_top,
            surrogate_widen=args.surrogate_widen,
            recalibrate_every=args.recalibrate_every,
            eval_timeout=args.eval_timeout,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
    total = out["specialized_area_mm2"]
    print(f"specialized footprint {total:.3f} mm^2 "
          f"({len(names)} kernels)")
    for budget in out["budgets"]:
        outcome = out["results"][budget]
        if outcome is None:
            print(f"budget {budget:7.3f} mm^2: infeasible")
            continue
        partition = "|".join(
            "+".join(cluster) for cluster in outcome.best_partition
        )
        print(f"budget {budget:7.3f} mm^2: {outcome.best_strategy:11s} "
              f"obj {outcome.best_objective:.3f}  [{partition}]")
    scoreboard = "  ".join(
        f"{name}={score:.3f}"
        for name, score in sorted(out["strategy_best"].items())
    )
    print(f"strategy best: {scoreboard}")
    if args.out:
        record = {
            "spec": spec,
            "specialized_area_mm2": total,
            "budgets": [
                {
                    "area_budget_mm2": budget,
                    "feasible": out["results"][budget] is not None,
                    **({
                        "best_strategy":
                            out["results"][budget].best_strategy,
                        "best_partition": [
                            list(c) for c in
                            out["results"][budget].best_partition
                        ],
                        "best_objective":
                            out["results"][budget].best_objective,
                        "strategy_best": dict(
                            out["results"][budget].strategy_best
                        ),
                    } if out["results"][budget] is not None else {}),
                }
                for budget in out["budgets"]
            ],
            "strategy_best": out["strategy_best"],
        }
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    summary = {}
    for budget in out["budgets"]:
        outcome = out["results"][budget]
        if outcome is not None and outcome.telemetry:
            summary = outcome.telemetry
    if summary:
        print_telemetry_summary(summary)
    if args.telemetry_out:
        print(f"wrote {args.telemetry_out}")
    return 0


def cmd_verify(args):
    from repro.verify import verify_compiled
    from repro.workloads import kernel as make_kernel

    adg = _target_adg(args.target)
    workload = make_kernel(args.workload, args.scale)
    print(f"compiling {args.workload!r} for {adg.name!r} ...")
    result = compile_kernel(
        workload, adg,
        rng=DeterministicRng(args.seed), max_iters=args.sched_iters,
    )
    if not result.ok:
        print("no legal mapping; nothing to verify")
        return 1
    report = verify_compiled(adg, result)
    print(report.describe(limit=args.limit))
    return 0 if report.ok else 1


def cmd_fuzz(args):
    from repro.verify import replay_repro, run_fuzz

    if args.replay:
        result = replay_repro(args.replay)
        print(f"replayed {args.replay}: {result.status}")
        for divergence in result.divergences:
            print(f"  {divergence['kind']}: {divergence['detail']}")
        return 0 if not result.failed else 1

    summary = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        shrink=args.shrink,
        out_dir=args.out,
        preset=args.preset,
        max_mutations=args.max_mutations,
        progress=print,
    )
    print(summary.describe())
    for path in summary.repro_paths:
        print(f"wrote {path}")
    return 0 if summary.ok else 1


def cmd_faults(args):
    from repro.faults import replay_repro, run_campaign
    from repro.utils.telemetry import Telemetry

    if args.replay:
        outcome = replay_repro(args.replay,
                               sched_iters=args.sched_iters)
        print(f"replayed {args.replay}: {outcome.describe()}")
        return 0 if outcome.status != "miscompiled" else 1

    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    try:
        telemetry = Telemetry(jsonl_path=args.telemetry_out)
    except OSError as exc:
        raise SystemExit(f"cannot open --telemetry-out: {exc}")

    def progress(index, case, outcome):
        print(f"[{index + 1}/{args.cases}] {case.name} "
              f"{case.workload}: {outcome.describe()}")

    with telemetry:
        summary = run_campaign(
            workloads=names,
            cases=args.cases,
            seed=args.seed,
            preset=args.preset,
            scale=args.scale,
            max_faults=args.max_faults,
            sched_iters=args.sched_iters,
            workers=args.workers,
            telemetry=telemetry,
            out_dir=args.out,
            shrink=args.shrink,
            progress=progress,
            sim_engine=args.sim_engine,
        )
    from repro.harness.report import print_table

    print_table(summary.curve_rows(), title="degradation curve")
    print(json.dumps(
        {"seed": summary.seed, "cases": summary.cases,
         "counts": dict(sorted(summary.counts.items()))},
        indent=2,
    ))
    for path in summary.repro_paths:
        print(f"wrote {path}")
    if args.telemetry_out:
        print(f"wrote {args.telemetry_out}")
    return 0 if summary.ok else 1


def cmd_serve(args):
    import asyncio

    from repro.server import ArtifactStore, serve
    from repro.utils.telemetry import Telemetry

    try:
        telemetry = Telemetry(jsonl_path=args.telemetry_out)
    except OSError as exc:
        raise SystemExit(f"cannot open --telemetry-out: {exc}")
    store = ArtifactStore(
        args.store, max_entries=args.max_entries,
        max_bytes=args.max_bytes, telemetry=telemetry,
    )

    def ready(address):
        host, port = address
        print(f"serving on {host}:{port} store={args.store}",
              flush=True)

    with telemetry:
        try:
            asyncio.run(serve(
                store, host=args.host, port=args.port,
                workers=args.workers, eval_timeout=args.eval_timeout,
                tenant_quota=args.tenant_quota, telemetry=telemetry,
                journal=not args.no_journal,
                journal_fsync=not args.no_journal_fsync,
                max_queue_depth=args.max_queue_depth,
                ready=ready,
            ))
        except KeyboardInterrupt:
            pass
    return 0


def cmd_chaos(args):
    import tempfile

    from repro.server.chaos import (
        ChaosSpec,
        run_chaos,
        run_chaos_with_baseline,
    )
    from repro.utils.telemetry import Telemetry

    if args.replay:
        with open(args.replay) as handle:
            spec = ChaosSpec.from_dict(json.load(handle))
        print(f"replaying chaos spec from {args.replay} "
              f"(seed={spec.seed})")
    else:
        spec = ChaosSpec(
            seed=args.seed, requests=args.requests,
            fault_rate=args.fault_rate, server_kills=args.kills,
            workloads=args.workloads, scale=args.scale,
            sched_iters=args.sched_iters,
            unique_seeds=args.unique_seeds,
        )
    if args.spec_out:
        with open(args.spec_out, "w") as handle:
            json.dump(spec.to_dict(), handle, indent=2)
        print(f"wrote {args.spec_out}")
    workdir = args.store or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        telemetry = Telemetry(jsonl_path=args.telemetry_out)
    except OSError as exc:
        raise SystemExit(f"cannot open --telemetry-out: {exc}")

    def progress(done, total):
        if done % 25 == 0 or done == total:
            print(f"  chaos: {done}/{total} requests", flush=True)

    with telemetry:
        if args.no_baseline:
            report = run_chaos(
                spec, os.path.join(workdir, "chaos"),
                telemetry=telemetry, progress=progress,
            )
            out = dict(report)
        else:
            result = run_chaos_with_baseline(
                spec, workdir, telemetry=telemetry, progress=progress,
            )
            out = dict(result["chaos"])
            out["digest_match"] = result["digest_match"]
            out["baseline_ok"] = result["baseline"]["ok"]
            out["ok"] = result["ok"]
    out.pop("digests", None)   # bulky; the stores hold the truth
    print(json.dumps(out, indent=2, default=str))
    if args.telemetry_out:
        print(f"wrote {args.telemetry_out}")
    return 0 if out["ok"] else 1


def cmd_store(args):
    from repro.server.journal import (
        JobJournal,
        read_journal,
        recover_state,
        verify_journal,
    )
    from repro.server.server import JOURNAL_BASENAME
    from repro.server.store import ArtifactStore

    if not os.path.isdir(args.store):
        raise SystemExit(f"no store directory at {args.store!r}")
    store = ArtifactStore(args.store)
    dropped = store.fsck()
    stats = store.stats()
    store.close()
    journal_path = os.path.join(args.store, JOURNAL_BASENAME)
    journal_summary = None
    compacted = None
    if os.path.exists(journal_path):
        journal_summary = verify_journal(journal_path)
        if args.gc:
            records, _ = read_journal(journal_path, repair=True)
            keep = recover_state(records)["pending"]
            with JobJournal(journal_path) as journal:
                journal.compact(keep)
            compacted = {"kept_records": len(keep),
                         "dropped_records": len(records) - len(keep)}
    # A torn journal tail is a normal crash artifact (repaired on the
    # next server start); duplicates and damaged objects are not.
    ok = not dropped and not (
        journal_summary
        and journal_summary["duplicate_computed_finishes"]
    )
    print(json.dumps({
        "ok": ok,
        "store": stats,
        "dropped_objects": dropped,
        "journal": journal_summary,
        "journal_compacted": compacted,
    }, indent=2))
    return 0 if ok else 1


def cmd_submit(args):
    import pickle

    from repro.server import (
        JobSpec,
        ServerClient,
        decode_artifact,
        parse_address,
    )

    host, port = parse_address(args.server)
    adg = None
    if args.adg:
        with open(args.adg) as handle:
            adg = json.load(handle)
    try:
        options = json.loads(args.options) if args.options else {}
        spec = JobSpec(
            kind=args.kind, workload=args.workload,
            preset=args.preset, adg=adg, scale=args.scale,
            seed=args.seed, sched_iters=args.sched_iters,
            sim_engine=args.sim_engine, options=options,
            tenant=args.tenant, priority=args.priority,
        )
    except (ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bad job spec: {exc}")
    with ServerClient(host, port) as client:
        if args.no_wait:
            response = client.submit(spec)
            print(json.dumps(response, indent=2, default=str))
            return 0 if response.get("ok") else 1
        record = client.run(spec)
    printable = {k: v for k, v in record.items()
                 if k != "artifact_b64"}
    print(json.dumps(printable, indent=2, default=str))
    if args.out and record.get("artifact_b64"):
        with open(args.out, "wb") as handle:
            pickle.dump(decode_artifact(record), handle)
        print(f"wrote {args.out}")
    return 0 if record.get("ok") else 1


def cmd_hwgen(args):
    from repro.hwgen import emit_verilog, generate_config_paths
    from repro.hwgen.config_path import longest_path_length

    adg = _target_adg(args.design)
    validate_adg(adg, strict=False)
    paths = generate_config_paths(adg, args.paths)
    print(f"{len(paths)} configuration paths, longest "
          f"{longest_path_length(paths)} hops")
    if args.verilog:
        with open(args.verilog, "w") as handle:
            handle.write(emit_verilog(adg))
        print(f"wrote {args.verilog}")
    if args.dot:
        from repro.ir.printer import adg_to_dot

        with open(args.dot, "w") as handle:
            handle.write(adg_to_dot(adg))
        print(f"wrote {args.dot}")
    if args.json_out:
        save_adg(adg, args.json_out)
        print(f"wrote {args.json_out}")
    return 0


def cmd_report(args):
    import inspect

    from repro import harness
    from repro.harness.report import print_table

    drivers = {
        "table1": harness.table1.run,
        "fig10": harness.fig10.run,
        "fig11": harness.fig11.run,
        "fig12": harness.fig12.run,
        "fig13": harness.fig13.run,
        "fig14": harness.fig14.run,
        "fig11ft": harness.fig11.run_fault_tolerance,
        "figcompose": harness.figcompose.run,
        "model": harness.model_validation.run,
    }
    if args.figure not in drivers:
        raise SystemExit(
            f"unknown figure {args.figure!r}; one of "
            f"{', '.join(sorted(drivers))}"
        )
    driver = drivers[args.figure]
    # Pass the run log only to harnesses that take one.
    accepted = inspect.signature(driver).parameters
    kwargs = {}
    if args.telemetry_out and "telemetry_out" in accepted:
        kwargs["telemetry_out"] = args.telemetry_out
    outcome = driver(**kwargs)
    rows, summary = outcome[0], outcome[-1]
    print_table(rows, title=args.figure)
    print(json.dumps(summary, indent=2, default=str))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSAGEN reproduction: programmable spatial "
                    "accelerator synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list built-in workloads")

    run_parser = sub.add_parser("run", help="compile+simulate a workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--target", default="softbrain")
    run_parser.add_argument("--scale", type=float, default=0.1)
    run_parser.add_argument("--sched-iters", type=int, default=150)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-simulate", action="store_true")

    compile_parser = sub.add_parser(
        "compile", help="compile an annotated C file"
    )
    compile_parser.add_argument("source")
    compile_parser.add_argument("--target", default="softbrain")
    compile_parser.add_argument("--bind", action="append",
                                metavar="NAME=VALUE")
    compile_parser.add_argument("--array", action="append",
                                metavar="NAME=SIZE")
    compile_parser.add_argument("--function", default=None)
    compile_parser.add_argument("--sched-iters", type=int, default=150)
    compile_parser.add_argument("--seed", type=int, default=0)
    compile_parser.add_argument("--no-simulate", action="store_true")
    compile_parser.add_argument("--dot", default=None,
                                help="write region DFGs as DOT")

    dse_parser = sub.add_parser("dse", help="explore the design space")
    dse_parser.add_argument("--workloads", required=True,
                            help="comma-separated workload names")
    dse_parser.add_argument("--initial", default="dse_initial")
    dse_parser.add_argument("--iters", type=int, default=10)
    dse_parser.add_argument("--scale", type=float, default=0.05)
    dse_parser.add_argument("--sched-iters", type=int, default=60)
    dse_parser.add_argument("--area-budget", type=float, default=10.0)
    dse_parser.add_argument("--seed", type=int, default=0)
    dse_parser.add_argument("--workers", type=int, default=1,
                            help="candidate-evaluation processes "
                                 "(1 = serial; same seed, same result)")
    dse_parser.add_argument("--batch", type=int, default=None,
                            help="candidates per generation "
                                 "(default: --workers)")
    dse_parser.add_argument("--fidelity", default=None,
                            help="generation pipeline: 'multi' "
                                 "(surrogate-ranked wide generation, "
                                 "full compile on finalists) or 'full' "
                                 "(default: multi)")
    dse_parser.add_argument("--surrogate-top", type=int, default=None,
                            help="finalists fully evaluated per "
                                 "generation (default: --batch)")
    dse_parser.add_argument("--surrogate-widen", type=int, default=8,
                            help="generation width multiplier scored "
                                 "by the surrogate before ranking")
    dse_parser.add_argument("--recalibrate-every", type=int, default=16,
                            help="realized evaluations between "
                                 "surrogate refits (calibration error "
                                 "reported each refit)")
    dse_parser.add_argument("--telemetry-out", default=None,
                            help="write a JSONL run log here")
    dse_parser.add_argument("--out", default=None,
                            help="write the best design as JSON")
    dse_parser.add_argument("--verify", action="store_true",
                            help="debug mode: lint every repaired and "
                                 "final schedule (repro.verify)")
    dse_parser.add_argument("--eval-timeout", type=float, default=None,
                            help="per-candidate evaluation timeout in "
                                 "seconds (pooled runs; default off)")
    dse_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                            help="write a resumable JSON checkpoint here")
    dse_parser.add_argument("--checkpoint-every", type=int, default=1,
                            help="generations between checkpoint writes")
    dse_parser.add_argument("--resume", action="store_true",
                            help="continue from --checkpoint if it exists")

    compose_parser = sub.add_parser(
        "compose",
        help="merged & multi-accelerator synthesis under a shared "
             "area budget",
    )
    compose_parser.add_argument("--workloads",
                                default="conv,pool,classifier",
                                help="comma-separated kernels of the "
                                     "multi-kernel application")
    compose_parser.add_argument("--budget", type=float,
                                action="append", default=None,
                                metavar="MM2",
                                help="shared area budget in mm^2 "
                                     "(repeatable; default: "
                                     "--budget-fractions of the "
                                     "specialized footprint)")
    compose_parser.add_argument("--budget-fractions",
                                default="0.6,0.8,1.0",
                                help="budgets as fractions of the "
                                     "summed specialized area")
    compose_parser.add_argument("--iters", type=int, default=4,
                                help="composition generations per "
                                     "budget")
    compose_parser.add_argument("--width", type=int, default=None,
                                help="partition mutations considered "
                                     "per generation")
    compose_parser.add_argument("--scale", type=float, default=0.05)
    compose_parser.add_argument("--sched-iters", type=int, default=40)
    compose_parser.add_argument("--specialize-sched-iters", type=int,
                                default=None,
                                help="scheduler budget for the "
                                     "per-kernel specialization pass "
                                     "(default: 5x --sched-iters)")
    compose_parser.add_argument("--seed", type=int, default=0)
    compose_parser.add_argument("--workers", type=int, default=1,
                                help="composition-evaluation processes "
                                     "(1 = serial; same seed, same "
                                     "result)")
    compose_parser.add_argument("--fidelity", default=None,
                                help="'multi' (surrogate-ranked "
                                     "compositions) or 'full'")
    compose_parser.add_argument("--surrogate-top", type=int,
                                default=None,
                                help="compositions fully evaluated "
                                     "per generation")
    compose_parser.add_argument("--surrogate-widen", type=int,
                                default=4)
    compose_parser.add_argument("--recalibrate-every", type=int,
                                default=16)
    compose_parser.add_argument("--eval-timeout", type=float,
                                default=None)
    compose_parser.add_argument("--telemetry-out", default=None,
                                help="write a JSONL run log here")
    compose_parser.add_argument("--out", default=None,
                                help="write the sweep summary as JSON")
    compose_parser.add_argument("--spec-out", default=None,
                                metavar="FILE",
                                help="write a replayable run spec "
                                     "(JSON) here")
    compose_parser.add_argument("--replay", default=None,
                                metavar="FILE",
                                help="re-run the spec written by "
                                     "--spec-out")
    compose_parser.add_argument("--checkpoint", default=None,
                                metavar="PATH",
                                help="per-budget resumable checkpoint "
                                     "prefix")
    compose_parser.add_argument("--resume", action="store_true",
                                help="continue from --checkpoint "
                                     "files if they exist")

    verify_parser = sub.add_parser(
        "verify", help="compile a workload and run every verifier"
    )
    verify_parser.add_argument("workload")
    verify_parser.add_argument("--target", default="softbrain")
    verify_parser.add_argument("--scale", type=float, default=0.1)
    verify_parser.add_argument("--sched-iters", type=int, default=150)
    verify_parser.add_argument("--seed", type=int, default=0)
    verify_parser.add_argument("--limit", type=int, default=25,
                               help="max diagnostics to print")

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzzing across interp/sim/config"
    )
    fuzz_parser.add_argument("--cases", type=int, default=25)
    fuzz_parser.add_argument("--seed", type=int, default=2026)
    fuzz_parser.add_argument("--shrink", default=True,
                             action=argparse.BooleanOptionalAction,
                             help="minimize failing cases before "
                                  "writing repros")
    fuzz_parser.add_argument("--out", default=None,
                             help="directory for shrunk JSON repro files")
    fuzz_parser.add_argument("--preset", default="softbrain",
                             choices=sorted(topologies.PRESETS))
    fuzz_parser.add_argument("--max-mutations", type=int, default=2,
                             help="ADG mutations per case (0 disables)")
    fuzz_parser.add_argument("--replay", default=None, metavar="FILE",
                             help="re-run one serialized repro file "
                                  "instead of fuzzing")

    faults_parser = sub.add_parser(
        "faults", help="fault-injection campaign: inject hardware "
                       "faults, repair, verify, and re-simulate"
    )
    faults_parser.add_argument("--cases", type=int, default=25)
    faults_parser.add_argument("--seed", type=int, default=2026)
    faults_parser.add_argument("--workloads", default="mm,md,join",
                               help="comma-separated workload names")
    faults_parser.add_argument("--preset", default="softbrain",
                               choices=sorted(topologies.PRESETS))
    faults_parser.add_argument("--scale", type=float, default=0.05)
    faults_parser.add_argument("--max-faults", type=int, default=3,
                               help="max simultaneous faults per case")
    faults_parser.add_argument("--sched-iters", type=int, default=120)
    faults_parser.add_argument("--workers", type=int, default=1,
                               help="case-evaluation processes")
    faults_parser.add_argument("--sim-engine", default=None,
                               choices=[*SIM_ENGINES, "batched"],
                               help="simulator replay loop; 'batched' "
                                    "simulates all cases of a workload "
                                    "as one columnar batch")
    faults_parser.add_argument("--shrink", default=True,
                               action=argparse.BooleanOptionalAction,
                               help="minimize miscompiled cases before "
                                    "writing repros")
    faults_parser.add_argument("--out", default=None,
                               help="directory for miscompile repro "
                                    "files")
    faults_parser.add_argument("--telemetry-out",
                               default="faults-telemetry.jsonl",
                               help="degradation-curve JSONL log "
                                    "(default: faults-telemetry.jsonl)")
    faults_parser.add_argument("--replay", default=None, metavar="FILE",
                               help="re-run one serialized fault repro "
                                    "instead of a campaign")

    serve_parser = sub.add_parser(
        "serve", help="run the compile-as-a-service job server"
    )
    serve_parser.add_argument("--store", default="repro-store",
                              help="artifact-store directory "
                                   "(default: repro-store)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8753,
                              help="TCP port (0 = ephemeral; the "
                                   "bound port is printed)")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="worker-pool shards (0 = one "
                                   "serial in-process thread)")
    serve_parser.add_argument("--eval-timeout", type=float,
                              default=None,
                              help="per-job timeout in seconds "
                                   "(timeouts retry once serially)")
    serve_parser.add_argument("--tenant-quota", type=int, default=8,
                              help="max queued+running jobs per "
                                   "tenant (cache hits are free)")
    serve_parser.add_argument("--max-entries", type=int, default=None,
                              help="store entry cap (LRU eviction)")
    serve_parser.add_argument("--max-bytes", type=int, default=None,
                              help="store payload-byte cap "
                                   "(LRU eviction)")
    serve_parser.add_argument("--max-queue-depth", type=int,
                              default=None,
                              help="bound the pending queue; beyond "
                                   "it submits are shed with an "
                                   "'overloaded' envelope")
    serve_parser.add_argument("--no-journal", action="store_true",
                              help="disable the durable job journal "
                                   "(acked jobs die with the process)")
    serve_parser.add_argument("--no-journal-fsync",
                              action="store_true",
                              help="journal without per-record fsync "
                                   "(faster, weaker durability)")
    serve_parser.add_argument("--telemetry-out", default=None,
                              help="write a JSONL job log here")

    chaos_parser = sub.add_parser(
        "chaos", help="run a deterministic chaos campaign against a "
                      "real server subprocess"
    )
    chaos_parser.add_argument("--seed", type=int, default=2026)
    chaos_parser.add_argument("--requests", type=int, default=200)
    chaos_parser.add_argument("--fault-rate", type=float, default=0.25,
                              help="per-op transport-fault probability")
    chaos_parser.add_argument("--kills", type=int, default=0,
                              help="deterministic kill -9 + restart "
                                   "count mid-campaign")
    chaos_parser.add_argument("--workloads", default="mm,conv",
                              help="comma-separated kernel pool")
    chaos_parser.add_argument("--scale", type=float, default=0.05)
    chaos_parser.add_argument("--sched-iters", type=int, default=60)
    chaos_parser.add_argument("--unique-seeds", type=int, default=2,
                              help="distinct job seeds per workload")
    chaos_parser.add_argument("--store", default=None, metavar="DIR",
                              help="campaign workdir (baseline/ and "
                                   "chaos/ stores inside; default: "
                                   "a fresh temp dir)")
    chaos_parser.add_argument("--no-baseline", action="store_true",
                              help="skip the fault-free digest-parity "
                                   "run")
    chaos_parser.add_argument("--replay", default=None, metavar="FILE",
                              help="re-run a serialized ChaosSpec "
                                   "instead of building one from flags")
    chaos_parser.add_argument("--spec-out", default=None,
                              metavar="FILE",
                              help="write the replayable ChaosSpec "
                                   "JSON here")
    chaos_parser.add_argument("--telemetry-out", default=None,
                              help="write per-request chaos telemetry "
                                   "(JSONL) here")

    store_parser = sub.add_parser(
        "store", help="operate on an artifact store on disk"
    )
    store_parser.add_argument("action", choices=["fsck"],
                              help="fsck: deep-verify every object + "
                                   "audit the job journal")
    store_parser.add_argument("--store", default="repro-store",
                              help="store directory "
                                   "(default: repro-store)")
    store_parser.add_argument("--gc", action="store_true",
                              help="also compact the journal down to "
                                   "still-pending jobs")

    submit_parser = sub.add_parser(
        "submit", help="submit one job to a running server"
    )
    submit_parser.add_argument("kind",
                               choices=["compile", "simulate", "faults",
                                        "dse", "compose", "noop"])
    submit_parser.add_argument("workload", nargs="?", default="mm",
                               help="workload name (comma-separated "
                                    "for faults/dse)")
    submit_parser.add_argument("--server", default="127.0.0.1:8753",
                               metavar="HOST:PORT")
    submit_parser.add_argument("--preset", default="softbrain",
                               choices=sorted(topologies.PRESETS))
    submit_parser.add_argument("--adg", default=None, metavar="FILE",
                               help="inline ADG JSON (overrides "
                                    "--preset)")
    submit_parser.add_argument("--scale", type=float, default=0.05)
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument("--sched-iters", type=int, default=60)
    submit_parser.add_argument("--sim-engine", default=None,
                               choices=[*SIM_ENGINES, "batched"],
                               help="replay loop of simulate and "
                                    "faults jobs; 'batched' applies to "
                                    "faults only")
    submit_parser.add_argument("--options", default=None,
                               metavar="JSON",
                               help="kind-specific options, e.g. "
                                    "'{\"cases\": 5}'")
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument("--priority", type=int, default=10,
                               help="lower runs sooner")
    submit_parser.add_argument("--no-wait", action="store_true",
                               help="enqueue and print the job id "
                                    "instead of waiting")
    submit_parser.add_argument("--out", default=None,
                               help="write the unpickled artifact "
                                    "here (pickle)")

    hwgen_parser = sub.add_parser(
        "hwgen", help="generate hardware artifacts for a design"
    )
    hwgen_parser.add_argument("design",
                              help="preset name or design JSON")
    hwgen_parser.add_argument("--paths", type=int, default=3)
    hwgen_parser.add_argument("--verilog", default=None)
    hwgen_parser.add_argument("--dot", default=None)
    hwgen_parser.add_argument("--json-out", default=None)

    report_parser = sub.add_parser(
        "report", help="regenerate a paper table/figure"
    )
    report_parser.add_argument("figure")
    report_parser.add_argument("--telemetry-out", default=None,
                               help="write the harness run log "
                                    "(JSONL) here")

    return parser


_COMMANDS = {
    "workloads": cmd_workloads,
    "run": cmd_run,
    "compile": cmd_compile,
    "dse": cmd_dse,
    "compose": cmd_compose,
    "verify": cmd_verify,
    "fuzz": cmd_fuzz,
    "faults": cmd_faults,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "chaos": cmd_chaos,
    "store": cmd_store,
    "hwgen": cmd_hwgen,
    "report": cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DsagenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
