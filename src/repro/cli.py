"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``          simulate one scheme on one benchmark and print statistics
``sweep``        run an arbitrary simulation grid, parallel and cached
``serve``        multi-tenant sweep service: head node or remote worker
``thermal``      solve a placement's thermal profile
``experiments``  run one (or all) of the table/figure reproductions
``describe``     print a chip configuration's placed topology

All simulation commands go through the :mod:`repro.api` facade
(``run``/``sweep``/``submit``); ``sweep --server URL`` routes the same
grid through a running ``repro serve`` instance instead of local worker
processes, and its exit code on service failures is the
:class:`~repro.serve.client.ServeError` subclass's ``exit_code``
(BSD ``sysexits``: 69 unreachable, 75 busy, 76 protocol skew, ...).
``serve --role worker --head URL`` turns the process into a remote
worker that leases cells from a head instead of listening itself.

Examples::

    python -m repro run --scheme CMP-DNUCA-3D --benchmark swim
    python -m repro run --scheme CMP-DNUCA-2D --benchmark art --json
    python -m repro sweep --schemes CMP-DNUCA-2D CMP-DNUCA-3D \\
        --benchmarks art swim --jobs 4
    python -m repro serve --port 8731 --workers 4
    python -m repro serve --port 8731 --workers 0   # head-only
    python -m repro serve --role worker --head http://127.0.0.1:8731 \\
        --workers 2
    python -m repro sweep --server http://127.0.0.1:8731 \\
        --schemes CMP-DNUCA-3D --benchmarks art swim
    python -m repro thermal --layers 2 --placement stacked
    python -m repro experiments fig13 --jobs 4
    python -m repro describe --layers 4 --pillars 8
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api
from repro.core.chip import ChipConfig
from repro.core.placement import PlacementPolicy, build_topology
from repro.core.schemes import Scheme
from repro.power.report import energy_report
from repro.thermal import simulate_thermal
from repro.workloads.benchmarks import BENCHMARK_NAMES
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.registry import EXPERIMENT_NAMES, run_experiment
from repro.experiments.spec import SimSpec, run_spec
from repro.api import simulate
from repro.faults.spec import (
    DEFAULT_WATCHDOG_WINDOW,
    FaultSpec,
    parse_fault_arg,
)
from repro.sim.trace import TraceSpec, write_trace

_PLACEMENTS = {policy.value: policy for policy in PlacementPolicy}


def _scheme(name: str) -> Scheme:
    for scheme in Scheme:
        if scheme.value.lower() == name.lower():
            return scheme
    raise argparse.ArgumentTypeError(
        f"unknown scheme {name!r}; choose from "
        f"{[s.value for s in Scheme]}"
    )


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    """Profiling flags for the simulation-heavy commands."""
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 25 functions "
             "by cumulative time to stderr",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="also dump the raw pstats data to FILE "
             "(for snakeviz / pstats post-processing)",
    )


def _add_orchestrator_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that drives the sweep orchestrator."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = run in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default .repro_cache/ or REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock timeout in seconds (parallel runs only)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-executions after a worker crash or timeout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network-in-Memory 3D CMP simulation (ISCA 2006 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scheme on a benchmark")
    run.set_defaults(parser=run)
    run.add_argument("--scheme", type=_scheme, default=Scheme.CMP_DNUCA_3D)
    run.add_argument(
        "--benchmark", choices=BENCHMARK_NAMES, default="swim"
    )
    run.add_argument("--refs", type=int, default=30_000,
                     help="references per CPU")
    run.add_argument("--warmup", type=float, default=0.6,
                     help="warm-up fraction of total events")
    run.add_argument("--layers", type=int, default=2)
    run.add_argument("--pillars", type=int, default=8)
    run.add_argument("--cache-mb", type=int, default=16)
    run.add_argument("--seed", type=int, default=2006)
    run.add_argument("--energy", action="store_true",
                     help="print the energy breakdown too")
    run.add_argument("--json", action="store_true",
                     help="emit the spec and statistics as JSON")
    run.add_argument(
        "--mode", choices=("model", "cycle"), default=None,
        help="timing fidelity (default: model; --trace implies cycle "
             "unless --mode is given explicitly)",
    )
    run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record structured events and export them to FILE",
    )
    run.add_argument(
        "--trace-format", choices=TraceSpec.FORMATS, default="chrome",
        help="chrome (chrome://tracing / perfetto JSON) or jsonl",
    )
    run.add_argument(
        "--trace-limit", type=int, default=1_000_000,
        help="ring-buffer capacity in events; oldest events are "
             "dropped past this",
    )
    run.add_argument(
        "--trace-filter", default=None, metavar="GLOB",
        help="record only tracks matching this component glob "
             "(e.g. 'router.*', 'pillar.3.3')",
    )
    run.add_argument(
        "--fault", action="append", default=None,
        metavar="KIND:TARGET[@ONSET][+DURATION]",
        help="inject an explicit fault (repeatable); e.g. 'pillar:3,3', "
             "'link:2,1,0,east@1000', 'router_port:1,1,0,north@500+2000', "
             "'bank:4,7'",
    )
    run.add_argument("--dead-pillars", type=int, default=0,
                     help="additionally kill this many random pillars")
    run.add_argument("--dead-links", type=int, default=0,
                     help="additionally kill this many random mesh links "
                          "(cycle mode only)")
    run.add_argument("--dead-banks", type=int, default=0,
                     help="additionally kill this many random L2 banks")
    run.add_argument("--fault-onset", type=int, default=0,
                     help="onset cycle for the random faults")
    run.add_argument(
        "--watchdog-window", type=int, default=DEFAULT_WATCHDOG_WINDOW,
        help="liveness watchdog window in cycles (0 disables; only "
             "meaningful with faults in cycle mode)",
    )
    _add_profile_args(run)

    sweep = sub.add_parser(
        "sweep",
        help="run a (scheme x benchmark x topology) grid, parallel + cached",
    )
    sweep.set_defaults(parser=sweep)
    sweep.add_argument(
        "--schemes", type=_scheme, nargs="+",
        default=list(Scheme),
        help="schemes to sweep (default: all four)",
    )
    sweep.add_argument(
        "--benchmarks", nargs="+", choices=BENCHMARK_NAMES,
        default=list(BENCHMARK_NAMES),
        help="benchmarks to sweep (default: the full suite)",
    )
    sweep.add_argument("--cache-mb", type=int, nargs="+", default=[16])
    sweep.add_argument("--layers", type=int, nargs="+", default=[2])
    sweep.add_argument("--pillars", type=int, nargs="+", default=[8])
    sweep.add_argument(
        "--dead-pillars", type=int, nargs="+", default=[0],
        help="degradation axis: random dead pillars per cell "
             "(0 = fault-free)",
    )
    sweep.add_argument(
        "--refs", type=int, default=None,
        help="references per CPU (default: the ambient REPRO_SCALE)",
    )
    sweep.add_argument("--seed", type=int, default=None,
                       help="workload base seed (default: the scale's)")
    sweep.add_argument(
        "--mode", choices=("model", "cycle"), default="model",
        help="timing fidelity for every cell (default: model)",
    )
    sweep.add_argument("--json", action="store_true",
                       help="emit the full sweep summary as JSON")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
    sweep.add_argument(
        "--server", default=None, metavar="URL",
        help="submit the grid to a running `repro serve` instance "
             "(e.g. http://127.0.0.1:8731) instead of local workers; "
             "orchestrator flags are then server-side concerns",
    )
    sweep.add_argument(
        "--tenant", default="cli",
        help="tenant name for --server submissions (fair-queued "
             "against other tenants)",
    )
    sweep.add_argument(
        "--outage-grace", type=float, default=0.0, metavar="SECONDS",
        help="with --server: keep retrying through a head outage "
             "(e.g. a restart) for this long before giving up "
             "(default 0: fail fast)",
    )
    _add_orchestrator_args(sweep)
    _add_profile_args(sweep)

    serve = sub.add_parser(
        "serve",
        help="serve sweep submissions over HTTP (multi-tenant, deduped), "
             "or attach to a head as a remote worker",
    )
    serve.add_argument(
        "--role", choices=("head", "worker"), default="head",
        help="head: listen for submissions and grant leases; "
             "worker: pull cells from --head and push results back",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731,
                       help="listen port (0 picks a free port; head only)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent cell executions on this node "
             "(head: 0 = head-only, cells wait for remote workers)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=1024,
        help="distinct queued+running cells before submissions are "
             "rejected with 429 + Retry-After (head only)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="run cells in server threads instead of worker processes "
             "(debug/tests; per-cell timeout does not apply)",
    )
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the local result cache")
    serve.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default .repro_cache/ or REPRO_CACHE_DIR)",
    )
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock timeout in seconds")
    serve.add_argument("--retries", type=int, default=1,
                       help="re-executions after a worker crash or timeout")
    serve.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="head: remote lease TTL before the reaper requeues its "
             "cells (default 15)",
    )
    serve.add_argument(
        "--worker-retries", type=int, default=1,
        help="head: times a cell is re-leased after its worker is lost "
             "before it fails as worker_lost",
    )
    serve.add_argument(
        "--no-journal", action="store_true",
        help="head: disable the durable journal (jobs, queues, and "
             "leases then do not survive a head restart)",
    )
    serve.add_argument(
        "--head", default=None, metavar="URL",
        help="worker: head node to lease cells from "
             "(e.g. http://127.0.0.1:8731)",
    )
    serve.add_argument(
        "--worker-id", default=None,
        help="worker: stable name reported to the head "
             "(default hostname-<random>)",
    )
    serve.add_argument(
        "--lease-cells", type=int, default=4,
        help="worker: cells requested per lease batch",
    )
    serve.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="worker: sleep between lease requests when the head is idle",
    )
    serve.add_argument(
        "--head-outage-grace", type=float, default=60.0, metavar="SECONDS",
        help="worker: ride out an unreachable head (backoff with "
             "jitter, results buffered locally) for this long before "
             "exiting (default 60)",
    )
    serve.add_argument(
        "--drain-on-idle", type=float, default=None, metavar="SECONDS",
        help="worker: exit gracefully after the head has had no work "
             "for this long (default: run until stopped)",
    )

    thermal = sub.add_parser("thermal", help="thermal profile of a placement")
    thermal.add_argument("--layers", type=int, default=2)
    thermal.add_argument("--pillars", type=int, default=8)
    thermal.add_argument(
        "--placement", choices=sorted(_PLACEMENTS), default=None
    )
    thermal.add_argument("--k", type=int, default=1)

    experiments = sub.add_parser(
        "experiments", help="run table/figure reproductions"
    )
    experiments.add_argument(
        "name", nargs="?", default="all",
        choices=(*EXPERIMENT_NAMES, "all"),
    )
    _add_orchestrator_args(experiments)

    describe = sub.add_parser("describe", help="print a placed topology")
    describe.add_argument("--layers", type=int, default=2)
    describe.add_argument("--pillars", type=int, default=8)
    describe.add_argument("--cache-mb", type=int, default=16)
    return parser


def _usage_checked(args: argparse.Namespace, build):
    """``build(args)``, with a ``ValueError`` reported as a usage error.

    ``build`` only translates arguments into specs, so argparse prints
    one ``error:`` line and exits 2 before any system is built; an error
    raised while simulating still propagates.
    """
    try:
        return build(args)
    except ValueError as exc:
        args.parser.error(str(exc))


def _run_spec(args: argparse.Namespace) -> SimSpec:
    """The cell ``repro run`` denotes; ``ValueError`` names a bad argument."""
    scale = ExperimentScale(
        name="cli",
        refs_per_cpu=args.refs,
        warmup_fraction=args.warmup,
        seed=args.seed,
    )
    # Tracing is most useful on the cycle-accurate fabric (that is where
    # the router/pillar hop events live), so --trace implies cycle mode
    # unless the user pinned --mode themselves.
    mode = args.mode or ("cycle" if args.trace else "model")
    trace_spec = None
    if args.trace:
        trace_spec = TraceSpec(
            format=args.trace_format,
            limit=args.trace_limit,
            component_filter=args.trace_filter,
        )
    fault_spec = None
    if (
        args.fault
        or args.dead_pillars
        or args.dead_links
        or args.dead_banks
    ):
        fault_spec = FaultSpec(
            events=tuple(
                parse_fault_arg(text) for text in (args.fault or ())
            ),
            dead_pillars=args.dead_pillars,
            dead_links=args.dead_links,
            dead_banks=args.dead_banks,
            onset=args.fault_onset,
            watchdog_window=args.watchdog_window,
        )
    return SimSpec.make(
        args.scheme,
        args.benchmark,
        scale=scale,
        layers=args.layers,
        pillars=args.pillars,
        cache_mb=args.cache_mb,
        mode=mode,
        trace=trace_spec,
        faults=fault_spec,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _usage_checked(args, _run_spec)
    system, stats = simulate(spec)
    if args.trace:
        written, dropped = write_trace(
            system.tracer, args.trace, args.trace_format
        )
        note = f" ({dropped:,} dropped)" if dropped else ""
        print(
            f"trace: {written:,} events{note} -> {args.trace}",
            file=sys.stderr,
        )
    if args.json:
        payload = {"spec": spec.to_dict(), "stats": stats.to_dict()}
        print(json.dumps(payload, indent=1))
        return 0
    print(f"scheme:            {args.scheme.value}")
    print(f"benchmark:         {args.benchmark}")
    print(f"L2 accesses:       {stats.l2_accesses:,}")
    print(f"L2 hit rate:       {stats.l2_hit_rate:.1%}")
    print(f"avg L2 hit lat:    {stats.avg_l2_hit_latency:.1f} cycles")
    print(f"avg L2 miss lat:   {stats.avg_l2_miss_latency:.1f} cycles")
    print(f"migrations:        {stats.migrations:,}")
    print(f"IPC (aggregate):   {stats.ipc:.3f}")
    print(f"L1 miss rate:      {stats.l1_miss_rate:.1%}")
    harness = system.fault_harness
    if harness is not None and harness.state is not None:
        degradation = harness.state.summary()
        print(f"faults injected:   {stats.faults_injected}")
        print(f"packets lost:      {degradation['packets_lost']:,} "
              f"({degradation['unreachable']:,} unreachable)")
    if args.energy:
        print()
        print(energy_report(system, stats))
    return 0


def _sweep_specs(args: argparse.Namespace) -> list[SimSpec]:
    """The grid ``repro sweep`` denotes; ``ValueError`` names a bad argument."""
    scale = current_scale()
    if args.refs is not None:
        scale = ExperimentScale(
            name=f"cli-{args.refs}", refs_per_cpu=args.refs,
            warmup_fraction=scale.warmup_fraction, seed=scale.seed,
        )
    overrides = {} if args.seed is None else {"seed": args.seed}
    return [
        SimSpec.make(
            scheme, benchmark, scale=scale,
            cache_mb=cache_mb, layers=layers, pillars=pillars,
            mode=args.mode,
            faults=(
                FaultSpec(dead_pillars=dead_pillars)
                if dead_pillars else None
            ),
            **overrides,
        )
        for scheme in args.schemes
        for benchmark in args.benchmarks
        for cache_mb in args.cache_mb
        for layers in args.layers
        for pillars in args.pillars
        for dead_pillars in args.dead_pillars
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    specs = _usage_checked(args, _sweep_specs)
    progress = None
    if not args.quiet and not args.json:
        def progress(message: str) -> None:
            print(f"  {message}", file=sys.stderr)
    if args.server:
        from repro.serve.client import ServeError

        try:
            summary = api.sweep(
                specs,
                server=args.server,
                tenant=args.tenant,
                outage_grace_s=args.outage_grace,
                progress=progress,
            )
        except ServeError as exc:
            print(f"repro sweep: {exc}", file=sys.stderr)
            return exc.exit_code
    else:
        summary = api.sweep(
            specs,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
            progress=progress,
        )
    if args.json:
        print(json.dumps(summary.to_dict(), indent=1))
        return 1 if summary.failures else 0

    from repro.experiments.runner import format_table

    rows = [
        [
            spec.scheme.value,
            spec.benchmark,
            f"{spec.cache_mb}",
            f"{spec.layers}",
            f"{spec.pillars}",
            (f"{spec.faults.dead_pillars}" if spec.faults is not None
             else "0"),
            f"{stats.avg_l2_hit_latency:.1f}",
            f"{stats.l2_hit_rate:.1%}",
            f"{stats.ipc:.3f}",
            f"{stats.migrations}",
        ]
        for spec, stats in summary.results.items()
    ]
    print(
        format_table(
            ["scheme", "benchmark", "MB", "layers", "pillars", "dead",
             "hit lat", "hit rate", "IPC", "migr"],
            rows,
            title="Sweep results",
        )
    )
    for failure in summary.failures:
        print(
            f"FAILED {failure.spec.label()}: {failure.kind} "
            f"after {failure.attempts} attempt(s): {failure.message}"
        )
    print(summary.describe())
    return 1 if summary.failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.role == "worker":
        return _cmd_serve_worker(args)

    import asyncio

    from repro.serve.scheduler import DEFAULT_LEASE_TTL_S, JobStore
    from repro.serve.server import serve_forever

    if args.head:
        print(
            "repro serve: --head is only meaningful with --role worker",
            file=sys.stderr,
        )
        return 64  # EX_USAGE
    store = JobStore(
        workers=args.workers,
        max_pending=args.max_pending,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        runner=run_spec if args.inline else None,
        lease_ttl_s=(
            args.lease_ttl if args.lease_ttl else DEFAULT_LEASE_TTL_S
        ),
        worker_retries=args.worker_retries,
        journal=not args.no_journal,
    )

    def ready(port: int) -> None:
        journal = store.journal_path or "disabled"
        print(
            f"repro serve listening on http://{args.host}:{port} "
            f"({store.workers} local worker(s), "
            f"max_pending={store.max_pending}, "
            f"executor={store.executor_kind}, "
            f"lease_ttl={store.lease_ttl_s:.0f}s, "
            f"journal={journal})",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(
            serve_forever(store, host=args.host, port=args.port, ready=ready)
        )
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError
    from repro.serve.worker import run_worker

    if not args.head:
        print(
            "repro serve: --role worker requires --head URL",
            file=sys.stderr,
        )
        return 64  # EX_USAGE

    def log(message: str) -> None:
        print(f"repro worker: {message}", file=sys.stderr, flush=True)

    try:
        counters = run_worker(
            args.head,
            worker_id=args.worker_id,
            jobs=max(1, args.workers),
            lease_cells=args.lease_cells,
            poll_s=args.poll,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
            head_outage_grace=args.head_outage_grace,
            drain_on_idle=args.drain_on_idle,
            log=log,
        )
    except ServeError as exc:
        log(str(exc))
        return exc.exit_code
    log(
        f"stopped after {counters['leases']} lease(s): "
        f"{counters['cells_done']} done, "
        f"{counters['cells_failed']} failed, "
        f"{counters['cells_simulated']} simulated, "
        f"{counters['cells_local_cache'] + counters['cells_head_cache']} "
        f"from cache, {counters['cells_released']} released"
    )
    return 0


def _cmd_thermal(args: argparse.Namespace) -> int:
    if args.layers == 1:
        config = ChipConfig(num_layers=1, num_pillars=0)
        default_placement = PlacementPolicy.CENTER_2D
    else:
        config = ChipConfig(num_layers=args.layers, num_pillars=args.pillars)
        default_placement = PlacementPolicy.MAXIMAL_OFFSET
    placement = (
        _PLACEMENTS[args.placement] if args.placement else default_placement
    )
    profile = simulate_thermal(
        config=config, placement=placement, k=args.k,
        label=f"{args.layers}L/{placement.value}",
    )
    print(profile)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    names = EXPERIMENT_NAMES if args.name == "all" else (args.name,)
    for name in names:
        text, summary = run_experiment(
            name,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
        )
        print(text)
        if summary.total:
            print(f"[{name}: {summary.describe()}]")
        print()
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    if args.layers == 1:
        config = ChipConfig(
            num_layers=1, num_pillars=0, cache_mb=args.cache_mb
        )
    else:
        config = ChipConfig(
            num_layers=args.layers,
            num_pillars=args.pillars,
            cache_mb=args.cache_mb,
        )
    print(build_topology(config).describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "thermal": _cmd_thermal,
        "experiments": _cmd_experiments,
        "describe": _cmd_describe,
    }
    handler = handlers[args.command]
    if not getattr(args, "profile", False) and not getattr(
        args, "profile_out", None
    ):
        return handler(args)

    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return handler(args)
    finally:
        profiler.disable()
        # Report on stderr so `--json` output on stdout stays parseable.
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"profile written to {args.profile_out}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
