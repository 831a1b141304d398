"""Command-line interface: generate streams, replay them, run experiments.

Subcommands::

    graphtides generate --model social --rounds 10000 -o stream.csv
    graphtides generate --rounds 10000 -o a.csv b.csv   # disjoint streams
    graphtides inspect stream.csv
    graphtides replay stream.csv --rate 20000 --transport pipe
    graphtides replay a.csv b.csv --rate 40000 --transport tcp  # 2 workers
    graphtides experiment fig3a|fig3b|fig3c|fig3d [--scale 0.05]
    graphtides trace result.jsonl -o trace.json [--validate]
    graphtides fuzz run --seed 42 --budget 50 [--corpus corpus]
    graphtides fuzz minimize repro.csv -o minimal.csv
    graphtides fuzz replay --corpus corpus
    graphtides perf record results/*.json
    graphtides perf diff [--db perf/perfdb.jsonl]
    graphtides perf log
"""

from __future__ import annotations

import argparse
import sys

from repro.core.models import (
    BlockchainRules,
    DdosTrafficRules,
    SocialNetworkRules,
    UniformRules,
    WeaverTable3Rules,
)
from repro.core.stream import GraphStream
from repro.graph.builders import build_graph

__all__ = ["main", "build_parser"]

_MODELS = {
    "uniform": UniformRules,
    "social": SocialNetworkRules,
    "ddos": DdosTrafficRules,
    "blockchain": BlockchainRules,
    "weaver-table3": WeaverTable3Rules,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the ``graphtides`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="graphtides",
        description="GraphTides: evaluate stream-based graph processing platforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph stream file")
    gen.add_argument("--model", choices=sorted(_MODELS), default="uniform")
    gen.add_argument("--rounds", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--format", choices=("csv", "binary"), default="csv",
        help="output stream format: CSV lines or the length-prefixed "
        "GTB1 binary frame format",
    )
    gen.add_argument(
        "-o", "--output", required=True, nargs="+", metavar="PATH",
        help="output stream file(s); N paths write N disjoint streams "
        "(vertex ids 10M apart, seeds SEED + i * 7919), one event source "
        "each, for an N-worker replay; the first is the stream one path "
        "writes",
    )

    ins = sub.add_parser("inspect", help="print stream statistics")
    ins.add_argument("stream")

    rep = sub.add_parser("replay", help="replay stream files (live, wall clock)")
    rep.add_argument(
        "stream", nargs="+",
        help="stream file(s); N files start N worker processes, one per "
        "file, each at rate/N (section 3.2: a stream has one event "
        "source, so input scales out over disjoint streams, e.g. from "
        "'generate -o A B'); with --transport stdout all workers share "
        "one pipe, so prefer tcp or shm for exact downstream counting",
    )
    rep.add_argument(
        "--rate", type=float, default=10_000.0,
        help="aggregate target rate (events/s) over all workers",
    )
    rep.add_argument(
        "--transport",
        choices=("stdout", "pipe", "tcp", "shm"),
        default="stdout",
        help="stdout/pipe write the wire to standard output; tcp "
        "connects to --host/--port; shm attaches to shared-memory ring "
        "segment(s) named by --shm-name (created by the receiving "
        "side, e.g. a ShmReceiver)",
    )
    rep.add_argument("--host", default="127.0.0.1")
    rep.add_argument("--port", type=int, default=9999)
    rep.add_argument(
        "--shm-name", default=None,
        help="shm ring segment name(s) to attach, comma-separated, one "
        "per worker (required with --transport shm)",
    )
    rep.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="token-bucket burst size: events emitted per wakeup and "
        "transport call; a stored binary frame with more records is "
        "re-framed (1 = per-event pacing; larger values such as 256 "
        "raise the saturation rate)",
    )
    rep.add_argument(
        "--format", choices=("auto", "csv", "binary"), default="auto",
        help="wire format: auto keeps each source's format; csv or "
        "binary transcodes a source of the other format between the "
        "replayer's pacing waits",
    )
    retry = rep.add_argument_group(
        "resilient delivery",
        "retry/backoff, circuit breaking and checkpoint resume "
        "(repro.core.resilience)",
    )
    retry.add_argument(
        "--retry-attempts", type=int, default=1,
        help="delivery attempts per batch (1 = no retries)",
    )
    retry.add_argument(
        "--retry-base-delay", type=float, default=0.01,
        help="first backoff delay in seconds (doubles per retry, jittered)",
    )
    retry.add_argument(
        "--retry-deadline", type=float, default=None,
        help="overall per-batch delivery deadline in seconds",
    )
    retry.add_argument(
        "--breaker-threshold", type=int, default=0,
        help="consecutive failures that open the circuit breaker "
        "(0 = no breaker)",
    )
    retry.add_argument(
        "--breaker-recovery", type=float, default=1.0,
        help="seconds the breaker stays open before probing again",
    )
    retry.add_argument(
        "--max-resumes", type=int, default=0,
        help="checkpoint resumes after a delivery failure "
        "(resumes from the last marker boundary)",
    )
    chaos = rep.add_argument_group(
        "chaos injection",
        "seeded runtime faults injected into the delivery path "
        "(deterministic per --chaos-seed)",
    )
    chaos.add_argument(
        "--chaos-send-failure", type=float, default=0.0,
        help="probability a send operation fails before delivering",
    )
    chaos.add_argument(
        "--chaos-reset", type=float, default=0.0,
        help="probability of a connection reset after an unacknowledged send",
    )
    chaos.add_argument(
        "--chaos-partial", type=float, default=0.0,
        help="probability a batch is only partially delivered",
    )
    chaos.add_argument(
        "--chaos-latency", type=float, default=0.0,
        help="probability of injected latency on a send",
    )
    chaos.add_argument(
        "--chaos-latency-seconds", type=float, default=0.005,
        help="injected latency duration in seconds",
    )
    chaos.add_argument("--chaos-seed", type=int, default=0)
    tracing = rep.add_argument_group(
        "tracing",
        "end-to-end event tracing on the unified trace clock "
        "(repro.core.tracing)",
    )
    tracing.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of the replay to PATH",
    )
    tracing.add_argument(
        "--trace-sample", type=int, default=1024, metavar="N",
        help="record spans for 1-in-N events (counters stay exact; "
        "the Dapper-style default keeps overhead low at saturation)",
    )

    exp = sub.add_parser("experiment", help="run one of the paper's experiments")
    exp.add_argument(
        "figure", choices=("fig3a", "fig3b", "fig3c", "fig3d", "robustness")
    )
    exp.add_argument(
        "--scale", type=float, default=0.05,
        help="fraction of the paper-scale configuration (1.0 = full)",
    )
    exp.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="robustness only: after the rate sweep, replay the fuzz "
        "regression corpus under DIR and fail on any verdict mismatch",
    )

    run = sub.add_parser(
        "run", help="evaluate a built-in platform against a stream file"
    )
    run.add_argument("stream")
    run.add_argument(
        "--platform",
        choices=("inmem", "weaver", "weaver-batched", "chronograph",
                 "kineograph", "graphtau"),
        default="inmem",
    )
    run.add_argument("--rate", type=float, default=2_000.0)
    run.add_argument("--level", type=int, choices=(0, 1, 2), default=0)
    run.add_argument(
        "--bundle", default=None,
        help="package the run as a Popper-style bundle in this directory",
    )
    run.add_argument("--experiment-id", default="run-001")
    run.add_argument(
        "--fault-schedule", default=None,
        help="JSON runtime fault schedule (from 'graphtides faults "
        "--crash ... --schedule-out'): timed platform crash/recovery",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="trace the run and write Chrome trace_event JSON to PATH",
    )
    run.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="record spans for 1-in-N events (simulated runs default "
        "to tracing every event)",
    )

    cnv = sub.add_parser(
        "convert",
        help="convert an edge-list file into a graph stream, or "
        "transcode a stream file between CSV and binary (--to)",
    )
    cnv.add_argument(
        "edgelist",
        metavar="input",
        help="edge-list file (src dst [weight] per line); with --to, a "
        "stream file in either format (autodetected)",
    )
    cnv.add_argument("-o", "--output", required=True)
    cnv.add_argument(
        "--shuffle-seed", type=int, default=None,
        help="randomise edge arrival order with this seed "
        "(edge-list mode only)",
    )
    cnv.add_argument(
        "--to", choices=("csv", "binary"), default=None,
        help="stream transcode mode: treat INPUT as a stream file and "
        "rewrite it in this format (streaming, constant memory)",
    )

    shp = sub.add_parser(
        "shape", help="insert rate-control events into a stream"
    )
    shp.add_argument("stream")
    shp.add_argument("-o", "--output", required=True)
    shp.add_argument("--burst", nargs=3, type=float, metavar=("START", "LEN", "FACTOR"),
                     help="burst: FACTORx speed for LEN events from event START")
    shp.add_argument("--wave", nargs=3, type=float, metavar=("PERIOD", "HIGH", "LOW"),
                     help="square wave: alternate HIGH/LOW factors every PERIOD events")
    shp.add_argument("--ramp", nargs=3, type=float, metavar=("STEPS", "FROM", "TO"),
                     help="stepwise ramp from factor FROM to TO over STEPS phases")
    shp.add_argument("--pause", nargs=2, type=float, metavar=("AFTER", "SECONDS"),
                     help="pause for SECONDS after AFTER events")

    flt = sub.add_parser(
        "faults",
        help="derive a faulty stream (drop/duplicate/reorder) and/or "
        "emit a runtime crash schedule",
    )
    flt.add_argument("stream")
    flt.add_argument("-o", "--output", required=True)
    flt.add_argument("--drop", type=float, default=0.0)
    flt.add_argument("--duplicate", type=float, default=0.0)
    flt.add_argument("--shuffle-window", type=int, default=0)
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument(
        "--crash", action="append", default=[], metavar="PROCESS:AT:DURATION",
        help="runtime fault: crash processes matching PROCESS at AT "
        "simulated seconds for DURATION seconds (repeatable)",
    )
    flt.add_argument(
        "--schedule-out", default=None,
        help="write the --crash entries as a JSON FaultSchedule for "
        "'graphtides run --fault-schedule'",
    )

    plo = sub.add_parser(
        "plot", help="ASCII-plot a metric from a result log (JSONL)"
    )
    plo.add_argument("resultlog", help="result.jsonl file (e.g. from a bundle)")
    plo.add_argument("--metric", default=None, help="metric to plot")
    plo.add_argument("--source", default=None)
    plo.add_argument("--width", type=int, default=70)
    plo.add_argument("--height", type=int, default=12)
    plo.add_argument(
        "--list", action="store_true",
        help="list available metric/source pairs instead of plotting",
    )

    ste = sub.add_parser(
        "suite", help="run the benchmark suite over the built-in platforms"
    )
    ste.add_argument(
        "--platforms",
        default="inmem,weaver,weaver-batched,kineograph",
        help="comma-separated platform names (inmem, weaver, "
        "weaver-batched, chronograph, kineograph, graphtau)",
    )
    ste.add_argument(
        "--workloads", default="uniform-small,social-growth",
        help="comma-separated workload names (see repro.suite.STANDARD_WORKLOADS)",
    )
    ste.add_argument("--repetitions", type=int, default=3)

    chk = sub.add_parser(
        "check",
        help="run the determinism/concurrency/schema static checks",
    )
    chk.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    chk.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    chk.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="report format: text (default), json, or github "
        "(::error/::warning annotations for CI)",
    )

    fuz = sub.add_parser(
        "fuzz",
        help="adversarial workload fuzzing: seeded mutation, pipeline "
        "oracles, ddmin minimization, regression corpus (repro.fuzz)",
    )
    fuzsub = fuz.add_subparsers(dest="fuzz_command", required=True)
    fzr = fuzsub.add_parser(
        "run",
        help="run the seeded fuzz loop (deterministic per --seed)",
    )
    fzr.add_argument("--seed", type=int, default=42)
    fzr.add_argument(
        "--budget", type=int, default=50,
        help="number of mutated candidates to evaluate",
    )
    fzr.add_argument(
        "--deadline", type=float, default=20.0,
        help="per-candidate watchdog deadline in seconds",
    )
    fzr.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="archive each minimized finding as a corpus entry under DIR",
    )
    fzr.add_argument(
        "--no-minimize", action="store_true",
        help="keep findings at full size (skip ddmin)",
    )
    fzr.add_argument(
        "--minimizer-tests", type=int, default=120,
        help="ddmin evaluation budget per finding",
    )
    fzm = fuzsub.add_parser(
        "minimize", help="ddmin-shrink a reproducer stream file"
    )
    fzm.add_argument("workload", help="stream file (format autodetected)")
    fzm.add_argument("-o", "--output", required=True)
    fzm.add_argument(
        "--max-tests", type=int, default=400,
        help="ddmin evaluation budget",
    )
    fzm.add_argument("--deadline", type=float, default=20.0)
    fzm.add_argument("--seed", type=int, default=42)
    fzp = fuzsub.add_parser(
        "replay",
        help="re-evaluate every corpus entry under its recorded config "
        "and compare verdicts (nonzero exit on mismatch)",
    )
    fzp.add_argument("--corpus", default="corpus", metavar="DIR")
    fzp.add_argument(
        "--name", default=None,
        help="only replay entries whose name contains this substring",
    )

    prf = sub.add_parser(
        "perf",
        help="per-commit perf database: record e2e benchmark results, "
        "diff the newest commit's runs against the previous commit's, "
        "list the history (repro.perfdb)",
    )
    prfsub = prf.add_subparsers(dest="perf_command", required=True)
    prr = prfsub.add_parser(
        "record",
        help="ingest e2e result documents into the perf database",
    )
    prr.add_argument(
        "snapshot", nargs="+",
        help="result JSON file(s) written by "
        "'python -m benchmarks.e2e run --out DIR'",
    )
    prr.add_argument(
        "--db", default=None, metavar="PATH",
        help="perf database JSONL file (default: perf/perfdb.jsonl)",
    )
    prr.add_argument(
        "--allow-smoke", action="store_true",
        help="permit runs shorter than BENCHMARK.json's run_seconds; the "
        "stored record stays smoke-tagged and is never used as a baseline",
    )
    prd = prfsub.add_parser(
        "diff",
        help="compare the newest commit's runs per benchmark with the "
        "previous commit's by the e2e compare rule; exit 1 on a regression",
    )
    prd.add_argument("--db", default=None, metavar="PATH")
    prd.add_argument(
        "--benchmark", default=None,
        help="only diff this benchmark (default: every benchmark in "
        "the database)",
    )
    prd.add_argument(
        "--include-smoke", action="store_true",
        help="let smoke records act as diff endpoints (same-machine "
        "A/B smoke comparisons, e.g. in CI)",
    )
    prl = prfsub.add_parser(
        "log", help="list the recorded perf history, newest last"
    )
    prl.add_argument("--db", default=None, metavar="PATH")
    prl.add_argument("--benchmark", default=None)

    trc = sub.add_parser(
        "trace",
        help="convert a result log (JSONL) to Chrome trace JSON, or "
        "validate an exported trace",
    )
    trc.add_argument(
        "input",
        help="result.jsonl with span records (convert mode) or a "
        "Chrome trace JSON file (--validate)",
    )
    trc.add_argument(
        "-o", "--output", default=None,
        help="output Chrome trace path (convert mode)",
    )
    trc.add_argument(
        "--validate", action="store_true",
        help="check that INPUT is well-formed Chrome trace_event JSON "
        "instead of converting",
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.multistream import disjoint_streams

    streams = disjoint_streams(
        _MODELS[args.model], len(args.output), rounds=args.rounds, seed=args.seed
    )
    for path, stream in zip(args.output, streams):
        stream.write(path, format=args.format)
        stats = stream.statistics()
        print(
            f"wrote {stats.total_events} events to {path} "
            f"({stats.topology_events} topology, {stats.state_events} state)"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    stream = GraphStream.read(args.stream)
    stats = stream.statistics()
    graph, report = build_graph(stream, strict=False)
    print(f"events:          {stats.total_events}")
    print(f"  graph events:  {stats.graph_events}")
    print(f"  markers:       {stats.marker_events}")
    print(f"  control:       {stats.control_events}")
    print(f"event mix:       {stats.event_mix:.3f} (topology fraction)")
    print(f"direction ratio: {stats.direction_ratio:.3f} (add fraction)")
    print(f"final graph:     {graph.vertex_count} vertices, {graph.edge_count} edges")
    if report.failed:
        print(f"warning: {len(report.failed)} events violated preconditions")
    return 0


def _replay_transport_spec(args: argparse.Namespace):
    """The picklable base-transport spec(s) the replay flags describe.

    For ``--transport shm`` with multiple sources this returns one
    :class:`ShmSpec` per worker (rings are strictly single-producer),
    so the result may be a tuple; :class:`ShardedReplayer` accepts
    either.
    """
    from repro.core.connectors import PipeSpec, ShmSpec, TcpSpec

    if args.transport in ("stdout", "pipe"):
        return PipeSpec(target="-")
    if args.transport == "tcp":
        return TcpSpec(host=args.host, port=args.port)
    if not args.shm_name:
        raise SystemExit("--transport shm requires --shm-name")
    names = [name.strip() for name in args.shm_name.split(",") if name.strip()]
    workers = len(args.stream)
    if len(names) != workers:
        raise SystemExit(
            f"--shm-name lists {len(names)} segment(s) for {workers} "
            "worker(s); each worker needs its own ring"
        )
    specs = tuple(ShmSpec(name=name) for name in names)
    return specs[0] if workers == 1 else specs


def _replay_chain_configs(args: argparse.Namespace):
    """Picklable resilience configs (chaos, retry) from the replay flags."""
    from repro.core.resilience import ChaosConfig, RetryPolicy

    chaos = ChaosConfig(
        send_failure_probability=args.chaos_send_failure,
        reset_probability=args.chaos_reset,
        partial_batch_probability=args.chaos_partial,
        latency_probability=args.chaos_latency,
        latency_seconds=args.chaos_latency_seconds,
        seed=args.chaos_seed,
    )
    chaos_config = None if chaos.is_noop else chaos
    retry_policy = None
    if args.retry_attempts > 1 or args.breaker_threshold > 0:
        retry_policy = RetryPolicy(
            max_attempts=max(1, args.retry_attempts),
            base_delay=args.retry_base_delay,
            deadline=args.retry_deadline,
            seed=args.chaos_seed,
        )
    return chaos_config, retry_policy


def _print_trace_summary(tracer, path: str) -> None:
    accounting = tracer.accounting()
    print(
        f"trace: {len(tracer.spans)} spans -> {path} "
        f"(sampling 1/{tracer.sample_every}; "
        f"emitted {accounting['emitted']}, "
        f"ingested {accounting['ingested']}, "
        f"in flight {accounting['in_flight']}, "
        f"accounting {'closed' if accounting['closed'] else 'OPEN'})",
        file=sys.stderr,
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.sharding import ShardedReplayer

    tracer = None
    if args.trace_out:
        from repro.core.tracing import Tracer, reset_shared_clock

        # Fresh shared clock: the trace epoch starts at replay setup,
        # and every live component stamping through shared_clock()
        # (probes, receivers, workers given its origin) shares it.
        tracer = Tracer(
            clock=reset_shared_clock(),
            sample_every=args.trace_sample,
            metadata={
                "mode": "live",
                "stream": args.stream,
                "transport": args.transport,
                "workers": len(args.stream),
            },
        )
    chaos_config, retry_policy = _replay_chain_configs(args)
    report = ShardedReplayer(
        args.stream,
        _replay_transport_spec(args),
        rate=args.rate,
        stream_format=args.format,
        batch_size=args.batch_size,
        chaos_config=chaos_config,
        retry_policy=retry_policy,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery=args.breaker_recovery,
        max_resumes=args.max_resumes,
        tracer=tracer,
    ).run()
    if report.workers > 1:
        print(
            f"workers: {report.workers} sources: "
            + ", ".join(
                f"#{index} {shard.events_emitted} events @ {shard.mean_rate:.0f}/s"
                for index, shard in enumerate(report.shards)
            ),
            file=sys.stderr,
        )
    _print_replay_summary(report)
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)
        _print_trace_summary(tracer, args.trace_out)
    return 0


def _print_replay_summary(report) -> None:
    """The replay summary + fault-summary lines.

    With more than one worker the fault line carries the per-worker
    breakdown (``#i injected/retries/redeliveries``) after the totals.
    """
    print(
        f"replayed {report.events_emitted} events in {report.duration:.2f}s "
        f"({report.mean_rate:.0f} events/s, "
        f"window p5/median/p95 {report.p5_rate:.0f}/{report.median_rate:.0f}/"
        f"{report.p95_rate:.0f}, "
        f"pacing margin {report.pacing_margin_s * 1e3:.3f} ms)",
        file=sys.stderr,
    )
    if (
        report.chaos_faults or report.retries or report.redeliveries
        or report.breaker_openings or report.resumes
    ):
        shards = report.shards
        per_worker = ""
        if len(shards) > 1:
            per_worker = "; per worker " + ", ".join(
                f"#{index} {shard.chaos_faults}i/{shard.retries}r/"
                f"{shard.redeliveries}d"
                for index, shard in enumerate(shards)
            )
        print(
            f"faults: {report.chaos_faults} injected, {report.retries} retries, "
            f"{report.redeliveries} redeliveries, "
            f"{report.breaker_openings} breaker openings, "
            f"{report.resumes} resumes "
            f"(from {report.checkpoints} checkpoints)"
            f"{per_worker}",
            file=sys.stderr,
        )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ChronographExperimentConfig,
        ReplayerExperimentConfig,
        RobustnessExperimentConfig,
        WeaverExperimentConfig,
        run_chronograph,
        run_replayer_throughput,
        run_robustness,
        run_weaver_cpu,
        run_weaver_throughput,
    )

    scale = args.scale
    if args.figure == "robustness":
        config = RobustnessExperimentConfig().scaled(scale)
        rows = run_robustness(config)
        print(
            "target    p5/median/max rate      achieved  "
            "faults retries redeliv breaker resumes lost"
        )
        for row in rows:
            print(
                f"{row.target_rate:>6} "
                f"{row.p5_rate:>8.0f}/{row.median_rate:>7.0f}/"
                f"{row.max_rate:>7.0f} "
                f"{row.achieved_fraction:>9.1%} "
                f"{row.chaos_faults:>6} {row.retries:>7} "
                f"{row.redeliveries:>7} {row.breaker_openings:>7} "
                f"{row.resumes:>7} {row.events_lost:>4}"
            )
        if args.corpus:
            return _print_corpus_replay(args.corpus, name_filter=None)
        return 0
    if args.corpus:
        print("--corpus only applies to the robustness experiment",
              file=sys.stderr)
        return 2
    if args.figure == "fig3a":
        config = ReplayerExperimentConfig().scaled(scale)
        rows = run_replayer_throughput(config)
        print("transport  target      median        p5         max")
        for row in rows:
            print(
                f"{row.transport:<9} {row.target_rate:>8} "
                f"{row.median_rate:>10.0f} {row.p5_rate:>10.0f} "
                f"{row.max_rate:>10.0f}"
            )
        return 0
    if args.figure == "fig3b":
        config = WeaverExperimentConfig().scaled(scale)
        results = run_weaver_throughput(config)
        print("rate      batch   mean-throughput   kept-pace")
        for result in results:
            print(
                f"{result.streaming_rate:>7}   {result.batch_size:>3}   "
                f"{result.mean_throughput:>14.0f}   {result.kept_pace}"
            )
        return 0
    if args.figure == "fig3c":
        config = WeaverExperimentConfig().scaled(scale)
        result = run_weaver_cpu(config)
        print(f"timestamper mean CPU: {result.timestamper_mean:6.1f}%")
        print(f"shard mean CPU:       {result.shard_mean:6.1f}%")
        print(f"timestamper dominates: {result.timestamper_dominates}")
        return 0
    config = ChronographExperimentConfig().scaled(scale)
    result = run_chronograph(config)
    print(f"duration:        {result.duration:.1f}s")
    print(f"stream ended at: {result.stream_end_time:.1f}s")
    print(f"backlog drain:   {result.backlog_seconds:.1f}s after stream end")
    errors = result.rank_error.values
    print(f"rank error:      {errors[0]:.3f} (start) -> {errors[-1]:.4f} (end)")
    return 0


def _platform_registry() -> dict:
    from repro.platforms import (
        ChronoLikePlatform,
        InMemoryPlatform,
        KineoLikePlatform,
        TauLikePlatform,
        WeaverLikePlatform,
    )

    return {
        "inmem": InMemoryPlatform,
        "weaver": lambda: WeaverLikePlatform(batch_size=1),
        "weaver-batched": lambda: WeaverLikePlatform(batch_size=10),
        "chronograph": ChronoLikePlatform,
        "kineograph": KineoLikePlatform,
        "graphtau": TauLikePlatform,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.harness import HarnessConfig, TestHarness
    from repro.core.report import run_report

    stream = GraphStream.read(args.stream)
    platform = _platform_registry()[args.platform]()
    fault_schedule = None
    if args.fault_schedule:
        import json

        from repro.platforms.base import FaultSchedule

        with open(args.fault_schedule, encoding="utf-8") as handle:
            fault_schedule = FaultSchedule.from_json_dict(json.load(handle))
    config = HarnessConfig(
        rate=args.rate,
        level=args.level,
        fault_schedule=fault_schedule,
        trace=bool(args.trace_out),
        trace_sample_every=args.trace_sample,
    )
    result = TestHarness(platform, stream, config).run()
    print(run_report(result, title=f"{args.platform} vs {args.stream}"))
    if args.trace_out and result.tracer is not None:
        result.tracer.write_chrome_trace(args.trace_out)
        _print_trace_summary(result.tracer, args.trace_out)

    if args.bundle:
        from repro.core.popper import package_run

        bundle = package_run(
            args.bundle,
            args.experiment_id,
            stream,
            config,
            result,
            description=(
                f"platform={args.platform} rate={args.rate} level={args.level}"
            ),
        )
        print(f"\nbundle written to {bundle}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.to is not None:
        from repro.core import binfmt

        events = binfmt.convert_stream(args.edgelist, args.output, args.to)
        print(
            f"converted {args.edgelist} -> {args.output}: "
            f"{events} events ({args.to})"
        )
        return 0

    from repro.gen.importer import edge_list_to_stream

    stream = edge_list_to_stream(args.edgelist, shuffle_seed=args.shuffle_seed)
    stream.write(args.output)
    stats = stream.statistics()
    print(
        f"converted {args.edgelist} -> {args.output}: "
        f"{stats.graph_events} events "
        f"({stats.vertex_events} vertex, {stats.edge_events} edge)"
    )
    return 0


def _cmd_shape(args: argparse.Namespace) -> int:
    from repro.core.shaping import with_burst, with_pause, with_ramp, with_wave

    stream = GraphStream.read(args.stream)
    if args.burst:
        start, length, factor = args.burst
        stream = with_burst(stream, int(start), int(length), factor)
    if args.wave:
        period, high, low = args.wave
        stream = with_wave(stream, int(period), high, low)
    if args.ramp:
        steps, start_factor, end_factor = args.ramp
        stream = with_ramp(stream, int(steps), start_factor, end_factor)
    if args.pause:
        after, seconds = args.pause
        stream = with_pause(stream, int(after), seconds)
    stream.write(args.output)
    controls = stream.statistics().control_events
    print(f"wrote {args.output} with {controls} control events")
    return 0


def _parse_crash_spec(spec: str):
    from repro.platforms.base import ProcessFault

    parts = spec.rsplit(":", 2)
    if len(parts) != 3:
        raise ValueError(
            f"--crash expects PROCESS:AT:DURATION, got {spec!r}"
        )
    process, at, duration = parts
    return ProcessFault(process=process, at=float(at), duration=float(duration))


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.core.faults import FaultPlan, apply_fault_plan
    from repro.platforms.base import FaultSchedule

    if args.schedule_out:
        try:
            faults = [_parse_crash_spec(spec) for spec in args.crash]
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not faults:
            print("--schedule-out requires at least one --crash", file=sys.stderr)
            return 2
        schedule = FaultSchedule(faults=faults)
        with open(args.schedule_out, "w", encoding="utf-8") as handle:
            json.dump(schedule.to_json_dict(), handle, indent=2)
            handle.write("\n")
        print(
            f"wrote {args.schedule_out}: {len(faults)} runtime fault(s)",
            file=sys.stderr,
        )
    elif args.crash:
        print("--crash requires --schedule-out", file=sys.stderr)
        return 2

    stream = GraphStream.read(args.stream)
    plan = FaultPlan(
        drop_probability=args.drop,
        duplicate_probability=args.duplicate,
        shuffle_window=args.shuffle_window,
        seed=args.seed,
    )
    faulty = apply_fault_plan(stream, plan)
    faulty.write(args.output)
    before = sum(1 for __ in stream.graph_events())
    after = sum(1 for __ in faulty.graph_events())
    print(
        f"wrote {args.output}: {before} -> {after} graph events "
        f"(drop={args.drop} duplicate={args.duplicate} "
        f"shuffle_window={args.shuffle_window})"
    )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.core.report import ascii_plot
    from repro.core.resultlog import ResultLog

    log = ResultLog.read(args.resultlog)
    if args.list:
        print("metric / sources:")
        for metric in log.metrics():
            sources = log.filter(metric=metric).sources()
            print(f"  {metric:<24} {', '.join(sources)}")
        return 0
    if args.metric is None:
        print("either --metric or --list is required")
        return 2
    series = log.series(args.metric, source=args.source)
    label = args.metric + (f" @ {args.source}" if args.source else "")
    print(ascii_plot(series, width=args.width, height=args.height, label=label))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.suite import STANDARD_WORKLOADS, BenchmarkSuite

    platform_registry = _platform_registry()
    chosen_platforms = {}
    for name in args.platforms.split(","):
        name = name.strip()
        if name not in platform_registry:
            print(f"unknown platform {name!r}; choose from "
                  f"{sorted(platform_registry)}")
            return 2
        chosen_platforms[name] = platform_registry[name]

    workloads = []
    for name in args.workloads.split(","):
        name = name.strip()
        if name not in STANDARD_WORKLOADS:
            print(f"unknown workload {name!r}; choose from "
                  f"{sorted(STANDARD_WORKLOADS)}")
            return 2
        workloads.append(STANDARD_WORKLOADS[name])

    suite = BenchmarkSuite(
        chosen_platforms, workloads=workloads, repetitions=args.repetitions
    )
    report = suite.run()
    print(report.render())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.reporting import run_and_report

    return run_and_report(
        args.paths, list_rules=args.list_rules, format=args.format
    )


def _print_corpus_replay(corpus_dir: str, name_filter: str | None) -> int:
    """Replay the fuzz regression corpus; nonzero exit on mismatch."""
    from repro.experiments.robustness import replay_corpus

    rows = replay_corpus(corpus_dir)
    if name_filter is not None:
        rows = [row for row in rows if name_filter in row.name]
    if not rows:
        print(f"no corpus entries under {corpus_dir}", file=sys.stderr)
        return 1
    mismatches = 0
    for row in rows:
        status = "ok" if row.matches else "MISMATCH"
        line = f"{row.found_as}/{row.name}: {row.expected_signature}"
        if not row.matches:
            line += f" -> {row.actual_signature}"
            mismatches += 1
        print(f"{line} [{status}]")
    print(f"corpus: {len(rows)} entries, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_fuzz_run,
        "minimize": _cmd_fuzz_minimize,
        "replay": _cmd_fuzz_replay,
    }
    return handlers[args.fuzz_command](args)


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz import EvaluatorConfig, FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        evaluator=EvaluatorConfig(seed=args.seed, deadline=args.deadline),
        minimize=not args.no_minimize,
        minimizer_tests=args.minimizer_tests,
        corpus_dir=args.corpus,
    )
    report = run_fuzz(config)
    for line in report.summary_lines():
        print(line)
    if args.corpus and report.findings:
        print(
            f"archived {len(report.findings)} finding(s) under {args.corpus}/"
        )
    return 0


def _cmd_fuzz_minimize(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        EvaluatorConfig,
        evaluate,
        minimize_workload,
    )
    from repro.fuzz.workload import Workload

    workload = Workload.from_file(args.workload)
    config = EvaluatorConfig(seed=args.seed, deadline=args.deadline)
    verdict = evaluate(workload, config)
    if not verdict.is_finding:
        print(
            f"{args.workload}: verdict {verdict.signature} is not a "
            f"finding; nothing to minimize",
            file=sys.stderr,
        )
        return 1
    minimized = minimize_workload(
        workload, verdict, config, max_tests=args.max_tests
    )
    minimized.write(args.output)
    print(
        f"minimized {len(workload.data)} -> {len(minimized.data)} bytes "
        f"({verdict.signature}) -> {args.output}"
    )
    return 0


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    return _print_corpus_replay(args.corpus, name_filter=args.name)


def _perf_db(args: argparse.Namespace):
    from repro.perfdb import DEFAULT_DB_PATH, PerfDatabase

    return PerfDatabase(args.db if args.db else DEFAULT_DB_PATH)


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.errors import PerfDbError

    handlers = {
        "record": _cmd_perf_record,
        "diff": _cmd_perf_diff,
        "log": _cmd_perf_log,
    }
    try:
        return handlers[args.perf_command](args)
    except PerfDbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_perf_record(args: argparse.Namespace) -> int:
    from repro.perfdb import load_snapshot, record_from_snapshot

    db = _perf_db(args)
    # Refuse the whole batch before appending any of it.
    records = [
        record_from_snapshot(
            load_snapshot(path), source=path, allow_smoke=args.allow_smoke
        )
        for path in args.snapshot
    ]
    for record in records:
        db.append(record)
        dirty = "+dirty" if record.git_dirty else ""
        smoke = " [smoke]" if record.smoke else ""
        print(
            f"recorded {record.benchmark} @ {record.short_commit}{dirty} "
            f"({len(record.metrics)} metrics) -> {db.path}{smoke}"
        )
    return 0


def _cmd_perf_diff(args: argparse.Namespace) -> int:
    from repro.perfdb import diff_all, diff_benchmark

    db = _perf_db(args)
    if args.benchmark is not None:
        reports = [diff_benchmark(db, args.benchmark, args.include_smoke)]
    else:
        reports = diff_all(db, args.include_smoke)
    regressed = False
    for report in reports:
        for line in report.render_lines():
            print(line)
        regressed = regressed or report.has_regression
    return 1 if regressed else 0


def _cmd_perf_log(args: argparse.Namespace) -> int:
    db = _perf_db(args)
    records = db.records(benchmark=args.benchmark)
    if not records:
        where = f" for benchmark {args.benchmark!r}" if args.benchmark else ""
        print(f"no perf records in {db.path}{where}", file=sys.stderr)
        return 1
    for record in records:
        dirty = "+dirty" if record.git_dirty else ""
        smoke = " [smoke]" if record.smoke else ""
        medians = "  ".join(
            f"{name}={series.median:,.0f}" if series.median >= 1000
            else f"{name}={series.median:.4g}"
            for name, series in record.metrics.items()
        )
        print(
            f"{record.recorded_at_utc[:19]}  {record.benchmark:<16} "
            f"{record.short_commit}{dirty}{smoke}"
            f"  machine={record.machine_id[:8]}  {medians}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core.resultlog import ResultLog
    from repro.core.tracing import records_to_chrome_trace, validate_chrome_trace

    if args.validate:
        with open(args.input, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                print(f"{args.input}: not valid JSON: {exc}", file=sys.stderr)
                return 1
        problems = validate_chrome_trace(payload)
        if problems:
            for problem in problems:
                print(f"{args.input}: {problem}", file=sys.stderr)
            print(f"{args.input}: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        events = payload.get("traceEvents", [])
        print(f"{args.input}: well-formed Chrome trace ({len(events)} events)")
        return 0

    if not args.output:
        print("convert mode requires -o/--output", file=sys.stderr)
        return 2
    log = ResultLog.read(args.input)
    spans = log.spans()
    payload = records_to_chrome_trace(log, metadata={"source": args.input})
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {args.output}: {len(payload['traceEvents'])} trace events "
        f"from {len(spans)} span records"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "inspect": _cmd_inspect,
        "replay": _cmd_replay,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "suite": _cmd_suite,
        "plot": _cmd_plot,
        "convert": _cmd_convert,
        "shape": _cmd_shape,
        "faults": _cmd_faults,
        "check": _cmd_check,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
        "perf": _cmd_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
