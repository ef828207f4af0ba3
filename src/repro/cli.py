"""Command-line interface.

Entry point ``repro`` (or ``python -m repro.cli``).  Subcommands expose
the library's main artefacts without writing code:

* ``repro protocols`` — list every implemented protocol.
* ``repro demo`` — a quick end-to-end run with verdicts.
* ``repro feasibility`` — the main theorem's feasibility frontier.
* ``repro lower-bound crash|byzantine|mwmr`` — execute an impossibility
  construction and print the violating history and block diagram.
* ``repro compare`` — latency/round comparison across protocols.
* ``repro sweep`` — batched protocol x scenario x seed sweeps, optionally
  fanned across worker processes (``--parallel N``).
* ``repro check`` — re-judge a serialized history (``repro demo
  --dump-history out.json`` produces one): every applicable checker runs
  and prints its per-property verdict, making golden corpora shareable
  and re-checkable standalone.
* ``repro explore`` — bounded model checking over message schedules,
  crash points, quorum choices and Byzantine content choices (``--b``,
  ``--byzantine``, ``--strategies``): exhaustive up to a depth (with
  partial-order reduction) or seeded random walks beyond it; violating
  schedules are shrunk and saved as replayable counterexamples
  (``repro explore --replay file.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.analysis.metrics import latency_by_kind
from repro.analysis.tables import render_table
from repro.bounds import (
    run_byzantine_lower_bound,
    run_crash_lower_bound,
    verify_byzantine_chain,
    verify_crash_chain,
)
from repro.bounds.diagrams import render_block_diagram, render_threshold_frontier
from repro.bounds.feasibility import max_readers
from repro.bounds.mwmr_construction import run_mwmr_impossibility
from repro.errors import ConfigurationError, ReproError, ScheduleError
from repro.registers.base import ClusterConfig
from repro.registers.registry import PROTOCOLS
from repro.sim.batch import BatchRunner, build_matrix, seed_matrix
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    UniformLatency,
)
from repro.workloads.generators import ClosedLoopWorkload
from repro.workloads.runner import run_workload
from repro.workloads.scenarios import SCENARIOS

#: Latency model factories selectable from the command line.
LATENCIES = {
    "constant": lambda: ConstantLatency(1.0),
    "uniform": lambda: UniformLatency(0.5, 1.5),
    "exponential": lambda: ExponentialLatency(mean=1.0),
    "lognormal": lambda: LogNormalLatency(median=1.0, sigma=0.5),
}


def add_cluster_args(
    parser: argparse.ArgumentParser,
    *,
    servers: Optional[int] = 8,
    t: Optional[int] = 1,
    readers: Optional[int] = 3,
    writers: Optional[int] = None,
    b: Optional[int] = None,
    seed: Optional[int] = 0,
    protocol: Optional[str] = None,
    any_protocol: bool = False,
    protocol_aliases: tuple = (),
    protocol_help: Optional[str] = None,
    readers_aliases: tuple = (),
) -> None:
    """Declare the shared cluster flags on one subcommand parser.

    Every subcommand that parameterises a cluster uses this one builder,
    so ``--protocol/--servers/--readers/--t/--b/--seed`` spell, validate
    and default consistently everywhere.  Passing ``None`` for a value
    omits that flag (e.g. ``compare`` takes ``--protocols`` instead of a
    single ``--protocol``); the non-``None`` value is the subcommand's
    default.  ``any_protocol`` lifts the registry ``choices`` restriction
    for surfaces that accept ablation targets (``explore``).
    """
    if protocol is not None or any_protocol:
        kwargs = dict(
            dest="protocol",
            default=protocol,
            help=protocol_help or "protocol name (see `repro protocols`)",
        )
        if not any_protocol:
            kwargs["choices"] = sorted(PROTOCOLS)
        parser.add_argument("--protocol", *protocol_aliases, **kwargs)
    if servers is not None:
        parser.add_argument(
            "--servers", type=int, default=servers, help="server count S"
        )
    if t is not None:
        parser.add_argument(
            "--t", type=int, default=t, help="tolerated faulty servers t"
        )
    if readers is not None:
        parser.add_argument(
            "--readers",
            *readers_aliases,
            dest="readers",
            type=int,
            default=readers,
            help="reader (virtual client) count R",
        )
    if writers is not None:
        parser.add_argument(
            "--writers", type=int, default=writers, help="writer count W"
        )
    if b is not None:
        parser.add_argument(
            "--b", type=int, default=b, help="Byzantine server count b (<= t)"
        )
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed, help="root seed")


def config_from_args(args: argparse.Namespace) -> ClusterConfig:
    """Build the :class:`ClusterConfig` from flags declared by
    :func:`add_cluster_args` (missing optional flags default sanely)."""
    return ClusterConfig(
        S=args.servers,
        t=args.t,
        R=args.readers,
        W=getattr(args, "writers", 1),
        b=getattr(args, "b", 0),
    )


def _cmd_protocols(args: argparse.Namespace) -> int:
    rows = [
        (
            spec.name,
            spec.paper_source,
            spec.read_rounds,
            spec.write_rounds,
            "yes" if spec.atomic else "no",
            "yes" if spec.fast_reads and spec.fast_writes else "no",
        )
        for spec in PROTOCOLS.values()
    ]
    print(
        render_table(
            ["protocol", "paper source", "read RTT", "write RTT", "atomic", "fast"],
            rows,
            title="Implemented register protocols",
        )
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    result = run_workload(
        protocol=args.protocol,
        config=config,
        workload=ClosedLoopWorkload(reads_per_reader=5, writes_per_writer=5),
        seed=args.seed,
        latency=UniformLatency(0.5, 1.5),
    )
    if args.dump_history:
        # First: an unwritable path fails before anything is printed.
        with open(args.dump_history, "w", encoding="utf-8") as handle:
            handle.write(result.history.to_json())
            handle.write("\n")
        print(f"history written to {args.dump_history}", file=sys.stderr)
    print(result.history.describe())
    print()
    print(result.check_atomic().describe())
    print(result.check_fast().describe())
    for kind, summary in latency_by_kind(result.history).items():
        print(f"{kind:5s} latency: {summary.describe()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.spec.histories import History
    from repro.spec.online import check_history

    # Exit 1 means a violation; a file that cannot be judged at all
    # (unreadable, not a history, or past the search budget) raises,
    # which main() turns into exit 2.
    with open(args.history, "r", encoding="utf-8") as handle:
        history = History.from_json(handle.read())
    report = check_history(history)
    single_writer = report["single_writer"]
    print(
        f"{args.history}: {len(history)} operations "
        f"({len(history.writes)} writes, {len(history.reads)} reads, "
        f"{len(history.incomplete_operations)} incomplete), "
        f"{'single' if single_writer else 'multi'}-writer"
    )
    for verdict in report["verdicts"].values():
        print(verdict.describe())
    if single_writer:
        agreement = (
            "agrees" if report["cross_check_ok"] else "DISAGREES (checker bug!)"
        )
        print(f"cross-check (general linearization search): {agreement}")
        print(f"new/old inversions: {report['inversions']}")
    print(
        "fastness: skipped (requires a message trace; histories carry "
        "operations only)"
    )
    return 0 if report["ok"] else 1


def _cmd_feasibility(args: argparse.Namespace) -> int:
    print(render_threshold_frontier(S_max=args.max_servers, t=args.t, b=args.b))
    readers = max_readers(args.max_servers, args.t, args.b)
    shown = "unbounded" if math.isinf(readers) else int(readers)
    print(
        f"\nmax fast readers at S={args.max_servers}, t={args.t}, b={args.b}: {shown}"
    )
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    if args.model == "crash":
        result = run_crash_lower_bound(S=args.servers, t=args.t, R=args.readers)
    elif args.model == "byzantine":
        result = run_byzantine_lower_bound(
            S=args.servers, t=args.t, b=args.b, R=args.readers
        )
    else:
        chain = run_mwmr_impossibility(S=args.servers)
        print(chain.describe())
        return 0 if chain.violated else 1
    print(result.describe())
    print()
    print(render_block_diagram(result))
    print()
    print(result.history.describe())
    return 0 if result.violated else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text, all_ok = generate_report()
    print(text)
    return 0 if all_ok else 1


def _cmd_chain(args: argparse.Namespace) -> int:
    if args.model == "crash":
        report = verify_crash_chain(S=args.servers, t=args.t, R=args.readers)
    else:
        report = verify_byzantine_chain(
            S=args.servers, t=args.t, b=args.b, R=args.readers
        )
    print(report.describe())
    return 0 if report.all_hold else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for name in args.protocols:
        spec = PROTOCOLS[name]
        if spec.multi_writer:
            continue
        config = config_from_args(args)
        problem = spec.requirement(config)
        if problem is not None:
            rows.append((name, "-", "-", f"infeasible: {problem}"))
            continue
        result = run_workload(
            protocol=name,
            config=config,
            workload=ClosedLoopWorkload(
                reads_per_reader=args.ops, writes_per_writer=args.ops
            ),
            seed=args.seed,
            latency=UniformLatency(0.5, 1.5),
        )
        summaries = latency_by_kind(result.history)
        rows.append(
            (
                name,
                f"{summaries['read'].mean:.3f}",
                f"{summaries['write'].mean:.3f}",
                result.check_atomic().describe(),
            )
        )
    print(
        render_table(
            ["protocol", "mean read", "mean write", "verdict"],
            rows,
            title=f"S={args.servers}, t={args.t}, R={args.readers}",
        )
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import hashlib
    import os

    from repro.analysis.report import render_explore_stats
    from repro.explore import (
        Counterexample,
        ExploreScenario,
        explore,
        get_target,
        random_walks,
        replay_counterexample,
    )

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            counterexample = Counterexample.from_json(handle.read())
        print(counterexample.describe())
        print()
        try:
            report = replay_counterexample(counterexample)
        except ScheduleError as exc:
            print(
                f"explore: schedule no longer replays: {exc}", file=sys.stderr
            )
            return 1
        for key, value in sorted(report.items()):
            print(f"{key}: {value}")
        return 0 if all(report.values()) else 1

    if args.protocol is None:
        raise ConfigurationError("--protocol is required (unless --replay)")
    target = get_target(args.protocol)
    scenario = ExploreScenario(
        target=target.name,
        config=config_from_args(args),
        writes_per_writer=args.writes,
        reads_per_reader=args.reads,
        crash_budget=args.crashes,
        byzantine_budget=args.byzantine,
        strategies=tuple(args.strategies or ()),
    )
    # Bounds that would search nothing raise ScheduleError (exit 2).
    if args.mode == "exhaustive":
        result = explore(
            scenario,
            depth=args.depth,
            reduce=not args.no_reduce,
            max_transitions=args.max_transitions,
            max_counterexamples=args.max_counterexamples,
            shrink=not args.no_shrink,
            memoize=not args.no_memo,
        )
    else:
        result = random_walks(
            scenario,
            depth=args.depth,
            walks=args.walks,
            seed=args.seed,
            max_counterexamples=args.max_counterexamples,
            shrink=not args.no_shrink,
            policy=args.policy,
        )
    if args.format == "json":
        payload = {
            "scenario": scenario.to_dict(),
            "mode": result.mode,
            "depth": result.depth,
            "complete": result.complete,
            "stats": result.stats.to_dict(),
            "counterexamples": [ce.to_dict() for ce in result.counterexamples],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_explore_stats(result))
        for counterexample in result.counterexamples:
            print()
            print(counterexample.describe())
    if args.save and result.counterexamples:
        os.makedirs(args.save, exist_ok=True)
        for counterexample in result.counterexamples:
            text = counterexample.to_json()
            digest = hashlib.sha256(text.encode("utf8")).hexdigest()[:10]
            name = f"{target.name.replace('@', '--')}-{digest}.json"
            path = os.path.join(args.save, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"counterexample written to {path}", file=sys.stderr)
    if result.found_violation:
        return 1
    if not result.complete:
        print(
            f"explore: no violation in the {result.stats.schedules} schedules "
            f"covered, but the search stopped at --max-transitions "
            f"{args.max_transitions}: not a clean verdict",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    specs = build_matrix(
        protocols=args.protocols,
        scenarios=args.scenarios,
        config=config,
        seeds=seed_matrix(args.seed, args.seeds),
        latency=LATENCIES[args.latency](),
        max_events=args.max_events,
        check=not args.no_check,
    )
    if not specs:
        print(
            "no feasible (protocol, config) combinations in this sweep",
            file=sys.stderr,
        )
        return 2
    if args.vector:
        from repro.analysis.report import render_vector_stats
        from repro.sim.vector import FALLBACK_NOTICE, run_vector_sweep

        sweep = run_vector_sweep(
            specs, parallel=args.parallel, oracle_samples=args.oracle_samples
        )
        result = sweep.batch
        # The vector engine's diagnostics are stderr-only: stdout must
        # be byte-identical to what the scalar sweep prints.
        print(render_vector_stats(sweep), file=sys.stderr)
        if sweep.fallback_runs:
            print(
                f"{sweep.fallback_runs} run(s) {FALLBACK_NOTICE} "
                "(reasons above)",
                file=sys.stderr,
            )
    else:
        runner = BatchRunner(specs, parallel=args.parallel)
        result = runner.run()
    # Progress/timing go to stderr: stdout must be byte-identical
    # between serial and parallel runs of the same matrix.
    rate = len(specs) / result.elapsed if result.elapsed > 0 else 0.0
    print(
        f"ran {len(specs)} simulations on {result.parallel} worker(s) "
        f"in {result.elapsed:.2f}s ({rate:.1f} runs/s)",
        file=sys.stderr,
    )
    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render())
    return 0 if result.all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.server import NetServer, start_servers

    config = config_from_args(args)

    async def run() -> None:
        if args.index is not None:
            server = NetServer(
                args.protocol,
                config,
                args.index,
                host=args.host,
                port=args.base_port,
                seed=args.seed,
                enforce=not args.no_enforce,
                accountable=args.accountable,
            )
            await server.start()
            servers = [server]
        else:
            servers = await start_servers(
                args.protocol,
                config,
                host=args.host,
                base_port=args.base_port,
                seed=args.seed,
                enforce=not args.no_enforce,
                accountable=args.accountable,
            )
        for server in servers:
            print(f"{server.pid} listening on {server.host}:{server.port}")
        sys.stdout.flush()
        print("serving until interrupted (Ctrl-C)", file=sys.stderr)
        await asyncio.Event().wait()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_addresses(text: str) -> List:
    """``"h1:7001,h2:7002"`` -> ``[("h1", 7001), ("h2", 7002)]``."""
    addresses = []
    for part in text.split(","):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit():
            raise argparse.ArgumentTypeError(
                f"bad address {part!r}; expected host:port[,host:port...]"
            )
        addresses.append((host, int(port)))
    return addresses


def _parse_chaos(text: str, servers: int, t: int):
    """``--chaos`` argument: a plan file, ``seed:N`` or ``seed:N:beyond[:k]``.

    ``seed:N`` derives the canned ≤ t plan (mild drops/delays/dups/
    reorders plus one kill when t ≥ 1); ``seed:N:beyond`` fails
    ``t+1`` servers outright (``:beyond:k`` for ``t+k``) — the graceful-
    degradation experiment.  Anything else is read as a serialized
    ``FaultPlan`` JSON file.
    """
    from repro.net.chaos import FaultPlan

    if text.startswith("seed:"):
        parts = text.split(":")
        try:
            plan_seed = int(parts[1])
        except (IndexError, ValueError):
            raise ConfigurationError(
                f"bad --chaos spec {text!r}; expected seed:<int>[:beyond[:k]]"
            ) from None
        beyond = 0
        if len(parts) > 2:
            if parts[2] != "beyond":
                raise ConfigurationError(
                    f"bad --chaos spec {text!r}; expected seed:<int>[:beyond[:k]]"
                )
            beyond = int(parts[3]) if len(parts) > 3 else 1
        return FaultPlan.generate(plan_seed, servers, t, beyond=beyond)
    with open(text, "r", encoding="utf-8") as handle:
        return FaultPlan.from_json(handle.read())


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.net.chaos import build_run_record, plan_summary
    from repro.net.harness import ChaosEventDriver, ServerCluster
    from repro.net.loadgen import LoadSpec, run_load, sim_rounds_check
    from repro.analysis.report import render_load_report

    ops = args.ops
    if ops is None and args.duration is None:
        ops = 10  # default stop rule: a short fixed-ops run
    cluster = None
    driver = None
    plan = None
    if args.chaos:
        # Before anything is spawned: a bad plan costs no processes.
        servers = len(args.connect) if args.connect else args.servers
        plan = _parse_chaos(args.chaos, servers, args.t)
        print(f"chaos plan: {plan_summary(plan, servers)}", file=sys.stderr)
    try:
        if args.connect:
            addresses = args.connect
        else:
            spawn_config = ClusterConfig(
                S=args.servers, t=args.t, R=args.readers, b=args.b
            )
            print(
                f"spawning {args.servers} {args.protocol} server processes "
                f"on {args.host}...",
                file=sys.stderr,
            )
            cluster = ServerCluster.spawn(
                args.protocol,
                spawn_config,
                host=args.host,
                base_port=args.base_port,
                seed=args.seed,
                enforce=False,
                accountable=args.audit,
            )
            addresses = cluster.addresses
        if args.audit and args.connect:
            print(
                "note: --audit with --connect collects statements only if "
                "the remote servers run with `serve --accountable` and the "
                "same --seed",
                file=sys.stderr,
            )
        spec = LoadSpec(
            protocol=args.protocol,
            addresses=tuple(addresses),
            t=args.t,
            b=args.b,
            readers=args.readers,
            ops_per_client=ops,
            duration=args.duration,
            write_interval=args.write_interval,
            shards=args.workers,
            seed=args.seed,
            timeout=args.timeout,
            ramp=args.ramp,
            chaos=plan,
            audit=args.audit,
        )
        problem = PROTOCOLS[args.protocol].requirement(spec.config)
        if problem is not None:
            print(
                f"note: config is outside the protocol's fast-feasible "
                f"region ({problem}); running anyway",
                file=sys.stderr,
            )
        if plan is not None and plan.events:
            if cluster is not None:
                driver = ChaosEventDriver(cluster, plan)
                driver.start()
            else:
                print(
                    "note: --connect mode cannot execute the plan's "
                    "kill/restart events (no spawned cluster); frame "
                    "faults still apply",
                    file=sys.stderr,
                )
        report = run_load(spec)
        if args.sim_check:
            report.sim_check = sim_rounds_check(spec, report)
    finally:
        if driver is not None:
            driver.stop()
        if cluster is not None:
            cluster.stop()
    print(render_load_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}", file=sys.stderr)
    if plan is not None and args.chaos_out:
        record = build_run_record(
            plan,
            report.chaos_shards,
            t=spec.t,
            b=spec.b,
            servers=spec.config.S,
            events=driver.executed if driver is not None else [],
            summary={
                "ops_complete": report.ops_complete,
                "ops_incomplete": report.ops_incomplete,
                "throughput_ops_s": report.throughput,
                "fast_read_fraction": report.fast_read_fraction,
                "verdicts": report.verdicts,
                "degradation": report.degradation,
                "accountability": report.accountability,
            },
        )
        with open(args.chaos_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"chaos run record written to {args.chaos_out} "
            "(verify with `repro chaos-replay`)",
            file=sys.stderr,
        )
    ok = report.ok and (
        report.sim_check is None or report.sim_check["agree"]
    )
    if plan is not None and plan.beyond_budget(spec.t, spec.config.S, spec.b):
        # Beyond the declared budget the service cannot promise liveness
        # (past t) or safety (past b); a graceful run is one where every
        # op completed or timed out cleanly and the degradation report is
        # in hand.  Exit code 4 marks exactly that outcome (0/1 stay
        # within-budget semantics).
        print(
            f"chaos: plan exceeds t={spec.t} or b={spec.b} on purpose — "
            "degraded gracefully "
            f"({report.ops_incomplete} ops timed out cleanly)",
            file=sys.stderr,
        )
        return 4
    if plan is not None and report.ops_incomplete > 0:
        # Within budget every op must complete: a hung or timed-out op
        # under ≤ t failures is a resilience bug, not chaos working.
        print(
            f"chaos: {report.ops_incomplete} ops failed to complete under a "
            f"within-budget plan",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    """Verify accountability certificates inside a saved artifact.

    Accepts any artifact family that can carry fraud proofs: a bare
    ``repro-fraud-proof/v2`` file, a v3 counterexample, a load report,
    or a chaos run record from an audited run.  Exit codes: 0 every
    certificate verified (at least one present), 1 a certificate is
    tampered, malformed or v1, 3 the artifact holds no extractable proof
    (clean run or detectability gap), 2 unreadable/unknown (a bare v1).
    """
    from repro.accountability import (
        FRAUD_PROOF_FORMAT,
        FraudProof,
        verify_fraud_proof,
    )
    from repro.explore import Counterexample

    with open(args.artifact, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    fmt = data.get("format") if isinstance(data, dict) else None
    proof_dicts: List = []
    if fmt == FRAUD_PROOF_FORMAT:
        proof_dicts = [data]
    elif fmt in Counterexample.FORMATS:
        accountability = data.get("accountability")
        if accountability is None:
            print(
                f"audit: {fmt} artifact carries no accountability section "
                "(pre-v3 schema or un-audited run)"
            )
            return 3
        if accountability.get("proof") is None:
            print(
                "audit: detectability gap — the violation contradicts "
                "nothing the corrupted server signed; no certificate "
                "extractable"
            )
            return 3
        proof_dicts = [accountability["proof"]]
    elif fmt == "repro-load-report/v1" or fmt == "repro-chaos-run/v1":
        source = data if fmt == "repro-load-report/v1" else data.get("summary", {})
        accountability = (source or {}).get("accountability")
        if not accountability:
            print(f"audit: {fmt} artifact was not run with --audit")
            return 3
        print(
            f"statements: {accountability.get('statements', 0)} "
            f"(rejected {accountability.get('rejected', 0)})"
        )
        proof_dicts = list(accountability.get("accusations", []))
        if not proof_dicts:
            print("audit: zero accusations — no proof extractable")
            return 3
    else:
        print(
            f"audit: unrecognized artifact format {fmt!r}; expected a fraud "
            "proof, counterexample, load report or chaos run record",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for proof_dict in proof_dicts:
        try:
            proof = FraudProof.from_dict(proof_dict)
            ok = verify_fraud_proof(proof_dict)
        except ReproError as exc:
            print(f"MALFORMED certificate: {exc}")
            failures += 1
            continue
        status = "VERIFIED" if ok else "TAMPERED"
        print(f"{status}: {proof.describe()}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.net.chaos import verify_run_record

    with open(args.record, "r", encoding="utf-8") as handle:
        outcome = verify_run_record(json.load(handle))
    for index, shard in sorted(
        outcome["shards"].items(), key=lambda kv: int(kv[0])
    ):
        status = "match" if shard["match"] else "MISMATCH"
        print(
            f"shard {index}: recorded={shard['recorded']} "
            f"replayed={shard['replayed']} {status}"
        )
    if not outcome["shards"]:
        print("no recorded shards in this run record")
    print(
        "replay: "
        + (
            "byte-identical fault trace"
            if outcome["ok"]
            else "TRACE MISMATCH (plan, seed or counters corrupted)"
        )
    )
    return 0 if outcome["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'How Fast can a Distributed Atomic Read be?' "
        "(PODC 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("protocols", help="list implemented protocols").set_defaults(
        fn=_cmd_protocols
    )

    demo = sub.add_parser("demo", help="run a small end-to-end demo")
    add_cluster_args(demo, protocol="fast-crash")
    demo.add_argument(
        "--dump-history",
        metavar="FILE",
        default=None,
        help="write the run's history as JSON (re-check with `repro check`)",
    )
    demo.set_defaults(fn=_cmd_demo)

    chk = sub.add_parser(
        "check",
        help="run every applicable checker on a serialized history",
    )
    chk.add_argument("history", help="history JSON file (see demo --dump-history)")
    chk.set_defaults(fn=_cmd_check)

    feas = sub.add_parser("feasibility", help="print the feasibility frontier")
    feas.add_argument("--max-servers", type=int, default=16)
    feas.add_argument("--t", type=int, default=1)
    feas.add_argument("--b", type=int, default=0)
    feas.set_defaults(fn=_cmd_feasibility)

    lb = sub.add_parser("lower-bound", help="execute an impossibility construction")
    lb.add_argument("model", choices=["crash", "byzantine", "mwmr"])
    add_cluster_args(lb, servers=4, readers=2, b=1, seed=None)
    lb.set_defaults(fn=_cmd_lower_bound)

    sub.add_parser(
        "report", help="run a compact version of every experiment (E1-E13 but E9)"
    ).set_defaults(fn=_cmd_report)

    chain = sub.add_parser(
        "chain",
        help="execute an impossibility proof's indistinguishability chain",
    )
    chain.add_argument("model", choices=["crash", "byzantine"])
    add_cluster_args(chain, servers=4, readers=2, b=1, seed=None)
    chain.set_defaults(fn=_cmd_chain)

    cmp_ = sub.add_parser("compare", help="compare protocols on one workload")
    add_cluster_args(cmp_, servers=9)
    cmp_.add_argument("--ops", type=int, default=10)
    cmp_.add_argument(
        "--protocols",
        nargs="+",
        default=["fast-crash", "abd", "maxmin", "regular-fast"],
        choices=sorted(PROTOCOLS),
    )
    cmp_.set_defaults(fn=_cmd_compare)

    xpl = sub.add_parser(
        "explore",
        help="bounded model checking over message schedules, crash points "
        "and quorum choices (see also: explore --replay FILE)",
    )
    add_cluster_args(
        xpl,
        servers=4,
        readers=1,
        writers=1,
        b=0,
        seed=None,  # explore's --seed is random-mode specific (below)
        any_protocol=True,
        protocol_aliases=("--target",),
        protocol_help="explore target: any registry protocol or an ablation "
        "such as fast-crash@eager-reader or fast-byzantine@gullible-reader "
        "(underscores normalise to hyphens)",
    )
    xpl.add_argument(
        "--mode", default="exhaustive", choices=["exhaustive", "random"]
    )
    xpl.add_argument("--depth", type=int, default=8, help="max actions per schedule")
    xpl.add_argument("--writes", type=int, default=1, help="writes per writer")
    xpl.add_argument("--reads", type=int, default=1, help="reads per reader")
    xpl.add_argument(
        "--crashes", type=int, default=0, help="server-crash budget (<= t)"
    )
    xpl.add_argument(
        "--byzantine",
        type=int,
        default=0,
        help="server-corruption budget (<= b): servers the adversary may "
        "turn Byzantine, unlocking lie:<strategy> content choice points",
    )
    xpl.add_argument(
        "--strategies",
        nargs="+",
        default=None,
        metavar="NAME",
        help="equivocation menu for corrupted servers (default: the full "
        "bounded menu; see repro.adversary.STRATEGIES)",
    )
    xpl.add_argument("--walks", type=int, default=1000, help="random mode: walk count")
    xpl.add_argument("--seed", type=int, default=0, help="random mode: root seed")
    xpl.add_argument(
        "--policy",
        default="mixed",
        choices=["mixed", "uniform", "quorum"],
        help="random mode: walk policy (uniform action picks, "
        "construction-shaped quorum walks, or alternate between them)",
    )
    xpl.add_argument(
        "--no-memo",
        action="store_true",
        help="exhaustive mode: disable fingerprint memoization (the plain "
        "sleep-set search the memo's soundness is tested against)",
    )
    xpl.add_argument(
        "--no-reduce",
        action="store_true",
        help="disable the sleep-set partial-order reduction",
    )
    xpl.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep counterexample schedules as found (skip minimisation)",
    )
    xpl.add_argument(
        "--max-transitions",
        type=int,
        default=2_000_000,
        help="exhaustive mode: transition budget; a search it cuts short "
        "without a violation exits 3",
    )
    xpl.add_argument("--max-counterexamples", type=int, default=1)
    xpl.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write each counterexample as replayable JSON into DIR",
    )
    xpl.add_argument("--format", default="text", choices=["text", "json"])
    xpl.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="re-run a saved counterexample and verify it byte-for-byte",
    )
    xpl.set_defaults(fn=_cmd_explore)

    swp = sub.add_parser(
        "sweep",
        help="run a protocol x scenario x seed matrix, optionally in parallel",
    )
    swp.add_argument(
        "--protocols",
        nargs="+",
        default=["fast-crash", "abd"],
        choices=sorted(PROTOCOLS),
    )
    swp.add_argument(
        "--scenarios",
        nargs="+",
        default=["smoke", "write-storm", "reader-churn"],
        choices=sorted(SCENARIOS),
    )
    add_cluster_args(swp, writers=1)
    swp.add_argument("--seeds", type=int, default=4, help="seeds per combination")
    swp.add_argument(
        "--parallel", type=int, default=1, help="worker processes (1 = serial)"
    )
    swp.add_argument(
        "--latency", default="constant", choices=sorted(LATENCIES)
    )
    swp.add_argument("--format", default="table", choices=["table", "json"])
    swp.add_argument(
        "--no-check",
        action="store_true",
        help="skip atomicity checking (pure throughput sweeps)",
    )
    swp.add_argument("--max-events", type=int, default=2_000_000)
    swp.add_argument(
        "--vector",
        action="store_true",
        help="run supported (protocol, scenario) groups through the "
        "struct-of-arrays lockstep kernel, sampling runs back through "
        "the scalar engine as a bit-exactness oracle; unsupported "
        "combinations fall back to the scalar engine per run",
    )
    swp.add_argument(
        "--oracle-samples",
        type=int,
        default=2,
        help="scalar replays per lockstep batch under --vector "
        "(0 disables the oracle; default 2)",
    )
    swp.set_defaults(fn=_cmd_sweep)

    srv = sub.add_parser(
        "serve",
        help="run register servers over real TCP sockets (asyncio runtime)",
    )
    add_cluster_args(srv, servers=5, t=0, readers=1, b=0, protocol="fast-crash")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--base-port",
        type=int,
        default=7400,
        help="server s<i> listens on base-port + i - 1 (0 = ephemeral)",
    )
    srv.add_argument(
        "--index",
        type=int,
        default=None,
        help="serve only server s<index> (default: all S in this process; "
        "on multiple hosts run one `serve --index i` each)",
    )
    srv.add_argument(
        "--no-enforce",
        action="store_true",
        help="skip the protocol feasibility check (load tests exceed the "
        "fast protocols' reader thresholds on purpose)",
    )
    srv.add_argument(
        "--accountable",
        action="store_true",
        help="sign every reply and attach the statement to its frame, so "
        "auditing clients can hold this server accountable",
    )
    srv.set_defaults(fn=_cmd_serve)

    load = sub.add_parser(
        "load",
        help="drive virtual clients against a networked cluster and "
        "report latency/fastness/verdicts",
    )
    add_cluster_args(
        load,
        servers=5,
        t=0,
        readers=1000,
        b=0,
        protocol="regular-fast",
        readers_aliases=("--clients",),
    )
    load.add_argument(
        "--connect",
        type=_parse_addresses,
        default=None,
        metavar="HOST:PORT,...",
        help="use an already-running cluster (s1..sS in order); default is "
        "to spawn --servers local server processes for the run",
    )
    load.add_argument("--host", default="127.0.0.1", help="spawn-mode bind host")
    load.add_argument(
        "--base-port", type=int, default=0, help="spawn-mode base port (0 = ephemeral)"
    )
    load.add_argument(
        "--ops", type=int, default=None, help="reads per virtual client"
    )
    load.add_argument(
        "--duration",
        type=float,
        default=None,
        help="run for this many seconds instead of (or on top of) --ops",
    )
    load.add_argument(
        "--workers",
        type=int,
        default=4,
        help="OS processes to shard the virtual clients across",
    )
    load.add_argument(
        "--write-interval",
        type=float,
        default=0.25,
        help="seconds between writes of the writer",
    )
    load.add_argument(
        "--timeout", type=float, default=30.0, help="per-operation timeout"
    )
    load.add_argument(
        "--ramp",
        type=float,
        default=None,
        help="seconds over which client starts are spread (default: auto, "
        "~2000 client starts/s)",
    )
    load.add_argument(
        "--sim-check",
        action="store_true",
        help="cross-check measured round counts against a simulated run "
        "of the same protocol at the same (S, t)",
    )
    load.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the full report as JSON (BENCH_net.json)",
    )
    load.add_argument(
        "--chaos",
        metavar="PLAN|seed:N[:beyond[:k]]",
        default=None,
        help="inject wire-level faults: a FaultPlan JSON file, seed:N for "
        "the canned within-budget plan, or seed:N:beyond to fail t+1 "
        "servers (graceful-degradation mode, exit code 4)",
    )
    load.add_argument(
        "--chaos-out",
        metavar="FILE",
        default=None,
        help="write the serialized plan + per-shard fault-trace digests "
        "(replay-verify with `repro chaos-replay`)",
    )
    load.add_argument(
        "--audit",
        action="store_true",
        help="turn on the accountability overlay: spawned servers sign "
        "every reply, shards collect verified statements, and the merged "
        "transcript is audited for equivocation (with --connect the "
        "servers must have been started with `serve --accountable`)",
    )
    load.set_defaults(fn=_cmd_load)

    aud = sub.add_parser(
        "audit",
        help="verify the accountability certificates inside a saved "
        "artifact (repro-fraud-proof/v2, counterexample, load report or "
        "chaos run record)",
    )
    aud.add_argument(
        "artifact",
        help="JSON artifact to audit; exit 0 = every certificate verified, "
        "1 = tampered, malformed or v1, 3 = no proof extractable, 2 = unknown "
        "artifact (a bare v1 proof too)",
    )
    aud.set_defaults(fn=_cmd_audit)

    replay = sub.add_parser(
        "chaos-replay",
        help="re-derive a chaos run's injected-fault trace from its saved "
        "plan and verify it byte-identical",
    )
    replay.add_argument("record", help="run record written by load --chaos-out")
    replay.set_defaults(fn=_cmd_chaos_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The one failure path: bad parameters, an unreadable or misshapen
    # file, an unknown name (the registries' KeyError) are one line on
    # stderr and exit 2 (so is an explore bound that searches nothing).
    # Handlers keep only the exits that mean something else (1 violation
    # / mismatch, 3 nothing to prove or an exhaustive search truncated by
    # its transition budget, 4 degraded beyond budget).
    try:
        return args.fn(args)
    except (
        ReproError, OSError, UnicodeDecodeError, json.JSONDecodeError,
        RecursionError, KeyError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"{args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
