"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — serve a JSON service spec through the :class:`~repro.service.Engine`;
* ``serve`` — run the long-lived serving daemon (:mod:`repro.server`)
  for a spec: one warm executor + cache behind a socket;
* ``request`` — send one scenario to a running daemon (whole-result or
  ``--stream``), or probe it (``--ping`` / ``--stats`` / ``--shutdown``);
* ``sweep`` — run a declarative experiment sweep and emit its paper-style
  JSON + markdown report (``repro.experiments``);
* ``cache`` — inspect or maintain an on-disk artifact store
  (``stats`` / ``gc`` / ``clear``); ``run``/``serve``/``sweep`` attach
  one via ``--store-dir`` so warm state survives restarts;
* ``components`` — list every registered detector/classifier/source/policy;
* ``experiments`` — list every reproducible paper artifact and its bench;
* ``costs`` — evaluate the Table 1 cost model for one configuration;
* ``compare`` — run both pipelines on a synthetic scene and print the
  reduction report;
* ``circuit`` — solve the analog averaging circuit's DC point;
* ``lint`` — check the repo's determinism/concurrency/spec invariants
  with the AST linter (``repro.lint``); exit code 1 on findings.
"""

from __future__ import annotations

import argparse
import sys


def _open_store(store_dir, faults=None):
    """Build the optional on-disk store behind ``--store-dir`` (or None),
    armed with the process's one fault injector (``--fault-plan``)."""
    if store_dir is None:
        return None
    from .store import ArtifactStore

    return ArtifactStore(store_dir, faults=faults)


def _cmd_run(args: argparse.Namespace) -> int:
    from .faults import FaultPlanError, as_injector
    from .service import Engine, EngineCache, SpecError

    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        faults = as_injector(args.fault_plan)
        engine = Engine.from_spec(args.spec, faults=faults)
        store = _open_store(args.store_dir, faults)
    except (SpecError, FaultPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if store is not None:
        # The engine is freshly built (nothing cached yet), so swapping in
        # a store-backed cache is safe.
        engine.cache = EngineCache(store=store)
    engine.profile = args.profile
    if not engine.scenarios:
        print(
            f"error: {args.spec}: spec has no scenarios to run "
            "(add a top-level \"scenarios\" list)",
            file=sys.stderr,
        )
        return 2
    try:
        batch = engine.run_batch(workers=args.workers, executor=args.executor)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in batch:
        print(result.report())
        print()
    print(batch.report())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .faults import as_injector
    from .server import ReproServer
    from .service import SpecError

    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        faults = as_injector(args.fault_plan)
        server = ReproServer(
            args.spec,
            host=args.host,
            port=args.port,
            queue_size=args.queue_size,
            workers=args.workers,
            executor=args.executor,
            request_timeout_s=args.timeout,
            store=_open_store(args.store_dir, faults),
            faults=faults,
        )
        server.start()
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.address
    if args.store_dir is not None:
        print(f"store: {args.store_dir}", flush=True)
    # CI and scripts poll for this exact line as the readiness signal.
    print(f"serving {host}:{port} ({server.executor.name} executor x "
          f"{server.workers} worker(s), queue {args.queue_size})", flush=True)

    interrupted = threading.Event()

    def _on_signal(_signum, _frame):
        interrupted.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _on_signal)
    # Wake periodically so a signal can break the wait; a client-sent
    # shutdown frame ends the wait by itself.
    while not server.wait(timeout=0.2):
        if interrupted.is_set():
            print("draining...", flush=True)
            server.shutdown(drain=True)
            break
    print("stopped", flush=True)
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    import json

    from .server import ProtocolError, ServerClient, ServerError
    from .service import ScenarioSpec, SpecError

    probes = sum(bool(flag) for flag in (args.ping, args.stats, args.shutdown))
    if probes > 1:
        print("error: --ping/--stats/--shutdown are mutually exclusive",
              file=sys.stderr)
        return 2
    if probes == 0 and args.scenario is None:
        print("error: a scenario file is required unless probing with "
              "--ping/--stats/--shutdown", file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}", file=sys.stderr)
        return 2
    try:
        with ServerClient(args.host, args.port, max_retries=args.retries) as client:
            if args.ping:
                print(f"pong (repro {client.ping()})")
                return 0
            if args.stats:
                stats = client.stats()
                print(f"requests served: {stats.requests_served}")
                print(f"queue depth    : {stats.queue_depth}")
                print(f"draining       : {stats.draining}")
                for tier, counters in stats.cache.items():
                    parts = []
                    if "hits" in counters:
                        parts.append(f"{counters['hits']} hit(s) / "
                                     f"{counters.get('misses', 0)} miss(es)")
                    if counters.get("disk_hits") or counters.get("disk_misses"):
                        parts.append(f"disk {counters['disk_hits']} hit(s) / "
                                     f"{counters['disk_misses']} miss(es)")
                    if "writes" in counters:
                        parts.append(f"{counters['writes']} write(s)")
                    if "evictions" in counters:
                        parts.append(f"{counters['evictions']} evicted")
                    if "errors" in counters:
                        parts.append(f"{counters['errors']} error(s)")
                    if "entries" in counters:
                        entries = counters["entries"]
                        parts.append(
                            f"{entries} entr{'y' if entries == 1 else 'ies'}, "
                            f"{counters.get('bytes', 0) / 1024:.1f} kB")
                    print(f"cache[{tier}]: " + ", ".join(parts))
                for group, counters in stats.resilience.items():
                    rows = ", ".join(
                        f"{counter}={value}"
                        for counter, value in sorted(counters.items())
                    )
                    print(f"resilience[{group}]: {rows or 'none'}")
                return 0
            if args.shutdown:
                print(client.shutdown(drain=not args.no_drain))
                return 0
            try:
                with open(args.scenario, encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: {args.scenario}: {exc}", file=sys.stderr)
                return 2
            # Accept a bare scenario object or a service spec file (take
            # the --index'th entry of its "scenarios" list).
            if isinstance(data, dict) and "scenarios" in data:
                scenarios = data["scenarios"]
                if not isinstance(scenarios, list) or not scenarios:
                    print(f"error: {args.scenario}: \"scenarios\" must be a "
                          "non-empty list", file=sys.stderr)
                    return 2
                if not 0 <= args.index < len(scenarios):
                    print(f"error: --index {args.index} out of range "
                          f"(spec has {len(scenarios)} scenario(s))",
                          file=sys.stderr)
                    return 2
                data = scenarios[args.index]
            try:
                scenario = ScenarioSpec.from_dict(data)
            except SpecError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.stream:
                def on_stats(stats):
                    print(f"frame {stats.frame_index}: "
                          f"{'stage1' if stats.ran_stage1 else 'reuse'}"
                          f"{f' ({stats.reason})' if stats.reason else ''}, "
                          f"{stats.n_rois} ROI(s), "
                          f"{stats.total_bytes} B, "
                          f"{stats.energy_j * 1e6:.2f} uJ", flush=True)

                result = client.run_streaming(
                    scenario, on_stats=on_stats, timeout_s=args.timeout
                )
            else:
                result = client.run(scenario, timeout_s=args.timeout)
    except ProtocolError as exc:
        # Raised client-side: the request is invalid before it is sent (a
        # keep_outcomes scenario, an out-of-range --timeout) or a reply
        # frame is malformed.
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ServerError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ConnectionError) as exc:
        print(f"error: cannot reach daemon at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(result.report())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import SweepRunner, build_report, load_sweep, write_report
    from .service import SpecError

    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        # load_sweep folds unreadable files into SpecError itself
        spec = load_sweep(args.sweep)
        if args.tiny:
            spec = spec.tiny()
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = SweepRunner(
        spec,
        executor=args.executor,
        workers=args.workers,
        profile=args.profile,
        store=_open_store(args.store_dir),
    )
    try:
        result = runner.run()
        report = build_report(result)
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.markdown)
    print()
    print(result.describe())
    if result.profile is not None:
        print("  phase breakdown (all cells):")
        print(result.profile.report())
    try:
        json_path, md_path = write_report(report, args.out)
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"  wrote {json_path} and {md_path}")
    failed = report.failed_trends
    if failed:
        for trend in failed:
            print(f"error: trend check failed: {trend.name}: {trend.detail}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .store import ArtifactStore

    try:
        store = ArtifactStore(args.store_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "stats":
        print(store.snapshot().describe())
        return 0
    if args.action == "gc":
        if args.max_bytes < 0:
            print(f"error: --max-bytes must be >= 0, got {args.max_bytes}",
                  file=sys.stderr)
            return 2
        removed, freed = store.gc(args.max_bytes)
        print(f"gc: removed {removed} object(s), freed {freed / 1024:.1f} kB "
              f"(budget {args.max_bytes} B)")
        return 0
    # clear
    removed, freed = store.clear()
    print(f"clear: removed {removed} object(s), freed {freed / 1024:.1f} kB")
    return 0


def _cmd_components(_args: argparse.Namespace) -> int:
    from .service import list_components

    for kind, names in list_components().items():
        print(f"{kind}:")
        for name in names:
            print(f"  {name}")
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from .bench import EXPERIMENTS

    for exp in EXPERIMENTS.values():
        print(f"{exp.exp_id:<8} {exp.paper_ref:<8} {exp.bench}")
        print(f"         {exp.description}")
    return 0


def _cmd_costs(args: argparse.Namespace) -> int:
    from .core import format_bytes, hirise_costs

    rois = [(args.roi, args.roi)] * args.n_rois
    breakdown = hirise_costs(
        args.width, args.height, args.k, rois, grayscale=args.gray
    )
    conv = breakdown.conventional
    print(f"pixel array {args.width}x{args.height}, k={args.k}, "
          f"{args.n_rois} ROIs of {args.roi}x{args.roi}, "
          f"stage-1 {'gray' if args.gray else 'RGB'}")
    print(f"  baseline transfer : {format_bytes(conv.data_transfer_bytes)}")
    print(f"  HiRISE transfer   : {format_bytes(breakdown.hirise_transfer_bits / 8)} "
          f"({breakdown.transfer_reduction:.1f}x less)")
    print(f"  baseline memory   : {format_bytes(conv.memory_bytes)}")
    print(f"  HiRISE peak memory: {format_bytes(breakdown.hirise_peak_memory_bits / 8)} "
          f"({breakdown.memory_reduction:.1f}x less)")
    print(f"  ADC conversions   : {conv.adc_conversions:,} -> "
          f"{breakdown.hirise_conversions:,} ({breakdown.conversion_reduction:.1f}x less)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core import (
        ConventionalPipeline,
        HiRISEConfig,
        HiRISEPipeline,
        ROI,
        comparison_report,
    )
    from .datasets import crowdhuman_like

    config = HiRISEConfig(
        pool_k=args.k,
        grayscale_stage1=args.gray,
        score_threshold=args.score_threshold,
    )
    scene = crowdhuman_like(1, resolution=(args.width, args.height), seed=args.seed)[0]
    rois = [
        ROI(int(b.x), int(b.y), max(int(b.w), 2), max(int(b.h), 2), 0.9, "head")
        for b in scene.boxes_for("head")
    ]
    hirise = HiRISEPipeline(config=config).run(scene.image, rois=rois)
    baseline = ConventionalPipeline().run(scene.image, rois=rois)
    print(comparison_report(hirise, baseline))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run

    return run(
        paths=args.paths, fmt=args.format, rules=args.rule, out=args.out
    )


def _cmd_circuit(args: argparse.Namespace) -> int:
    from .analog import AVG_NODE, DC, MNASolver, build_pooling_circuit

    circuit = build_pooling_circuit([DC(args.level)] * args.inputs)
    solution = MNASolver(circuit).dc()
    print(f"{args.inputs} inputs at {args.level} V -> shared node "
          f"{solution[AVG_NODE]:+.4f} V")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="HiRISE (DAC 2024) reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="serve a JSON service spec via the Engine")
    run.add_argument("spec", help="path to a service spec (see examples/specs/)")
    run.add_argument(
        "--workers", type=int, default=None,
        help="pool size for the batch (default: the spec's workers)",
    )
    run.add_argument(
        # Mirrors repro.service.EXECUTOR_NAMES (not imported here: parser
        # construction must stay cheap for non-service commands); the
        # executor tests assert the two stay in sync.
        "--executor", choices=["serial", "thread", "process"], default=None,
        help="batch executor (default: the spec's executor; process = "
        "spawn-safe multi-core pool for CPU-bound fleets)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="collect a per-phase wall-clock breakdown for every request "
        "(expose / stage1.read / detect / condition / stage2.read / "
        "stage2.classify); profiled requests always recompute",
    )
    run.add_argument(
        "--store-dir", default=None,
        help="attach a persistent on-disk cache tier rooted here: previous "
        "runs' clips and results are reused, this run's are persisted",
    )
    run.add_argument(
        "--fault-plan", default=None,
        help="arm a deterministic fault-injection plan (path to a JSON "
        "FaultPlan; chaos testing — see repro.faults)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the serving daemon: one warm executor + cache behind a socket",
    )
    serve.add_argument("spec", help="path to a service spec (see examples/specs/)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free port, printed on startup)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=16,
        help="admission bound: requests waiting beyond this are rejected "
        "with a typed queue-full error (default 16)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="serving concurrency (default: the spec's workers)",
    )
    serve.add_argument(
        # Mirrors repro.service.EXECUTOR_NAMES, like `run` (the executor
        # tests assert the two stay in sync).
        "--executor", choices=["serial", "thread", "process"], default=None,
        help="warm executor for non-streaming requests "
        "(default: the spec's executor)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--store-dir", default=None,
        help="attach a persistent on-disk cache tier rooted here: a "
        "restarted daemon serves what a previous one computed as pure "
        "cache hits, bit-identical",
    )
    serve.add_argument(
        "--fault-plan", default=None,
        help="arm a deterministic fault-injection plan (path to a JSON "
        "FaultPlan) on the daemon's reply/stream/worker/store sites; injected "
        "fault counters show up under `repro request --stats`",
    )

    request = sub.add_parser(
        "request", help="send one scenario to a running daemon, or probe it"
    )
    request.add_argument(
        "scenario", nargs="?", default=None,
        help="path to a scenario JSON (or a service spec file; --index "
        "selects from its \"scenarios\" list)",
    )
    request.add_argument("--host", default="127.0.0.1", help="daemon address")
    request.add_argument("--port", type=int, required=True, help="daemon port")
    request.add_argument(
        "--index", type=int, default=0,
        help="scenario index when the file is a service spec (default 0)",
    )
    request.add_argument(
        "--stream", action="store_true",
        help="stream per-frame ledger rows as they land instead of one "
        "whole-result reply",
    )
    request.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (default: the daemon's)",
    )
    request.add_argument(
        "--ping", action="store_true", help="liveness probe (no scenario)"
    )
    request.add_argument(
        "--stats", action="store_true",
        help="print the daemon's queue/cache counters (no scenario)",
    )
    request.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to stop, draining in-flight work (no scenario)",
    )
    request.add_argument(
        "--no-drain", action="store_true",
        help="with --shutdown: cancel queued requests instead of draining",
    )
    request.add_argument(
        "--retries", type=int, default=0,
        help="transparently retry backpressure rejections and dropped "
        "connections up to N times with capped exponential backoff "
        "(default 0 = fail fast)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative experiment sweep and emit its report "
        "(see examples/sweeps/)",
    )
    sweep.add_argument("sweep", help="path to a sweep spec (see examples/sweeps/)")
    sweep.add_argument(
        "--tiny", action="store_true",
        help="smoke-test mode: capped clip length/resolution, one replicate "
        "(still deterministic)",
    )
    sweep.add_argument(
        # Mirrors repro.service.EXECUTOR_NAMES, like `run` (the executor
        # tests assert the two stay in sync).
        "--executor", choices=["serial", "thread", "process"], default=None,
        help="batch executor for the sweep (default: the sweep's executor)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="pool size (default: the sweep's workers)",
    )
    sweep.add_argument(
        "--out", default="sweep_reports",
        help="directory for the <name>.json / <name>.md artifacts "
        "(default: sweep_reports)",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="collect a per-phase wall-clock breakdown across every cell "
        "(profiled cells always recompute; never part of the artifacts)",
    )
    sweep.add_argument(
        "--store-dir", default=None,
        help="attach a persistent on-disk cache tier rooted here: a "
        "re-run sweep resumes from what previous runs computed",
    )

    cache = sub.add_parser(
        "cache", help="inspect or maintain an on-disk artifact store"
    )
    cache_sub = cache.add_subparsers(dest="action", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print the store's entry counts, byte sizes, and counters"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used objects down to a byte budget"
    )
    cache_gc.add_argument(
        "--max-bytes", type=int, required=True,
        help="byte budget to collect down to (0 = remove everything)",
    )
    cache_clear = cache_sub.add_parser(
        "clear", help="remove every stored object"
    )
    for sub_cache in (cache_stats, cache_gc, cache_clear):
        sub_cache.add_argument(
            "--store-dir", required=True,
            help="store root (the directory passed to run/serve/sweep)",
        )

    sub.add_parser(
        "components", help="list registered detectors/classifiers/sources/policies"
    )

    sub.add_parser("experiments", help="list reproducible paper artifacts")

    costs = sub.add_parser("costs", help="evaluate the Table 1 cost model")
    costs.add_argument("--width", type=int, default=2560)
    costs.add_argument("--height", type=int, default=1920)
    costs.add_argument("--k", type=int, default=8)
    costs.add_argument("--roi", type=int, default=112, help="ROI side in px")
    costs.add_argument("--n-rois", type=int, default=16)
    costs.add_argument("--gray", action="store_true", help="grayscale stage 1")

    compare = sub.add_parser("compare", help="run both pipelines on a scene")
    compare.add_argument("--width", type=int, default=1280)
    compare.add_argument("--height", type=int, default=960)
    compare.add_argument("--k", type=int, default=4)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--gray", action="store_true", help="grayscale stage 1")
    compare.add_argument(
        "--score-threshold", type=float, default=0.0,
        help="minimum stage-1 confidence for an ROI to be read out",
    )

    circuit = sub.add_parser("circuit", help="DC-solve the averaging circuit")
    circuit.add_argument("--inputs", type=int, default=12)
    circuit.add_argument("--level", type=float, default=0.5)

    lint = sub.add_parser(
        "lint", help="check the repo's determinism/concurrency invariants"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src benchmarks tools)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is sorted and byte-stable)",
    )
    lint.add_argument(
        "--rule", action="append", metavar="RULE_ID",
        help="run only this rule id (repeatable)",
    )
    lint.add_argument(
        "--out", metavar="FILE",
        help="also write the JSON report to FILE (for CI artifacts)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "sweep": _cmd_sweep,
        "cache": _cmd_cache,
        "components": _cmd_components,
        "experiments": _cmd_experiments,
        "costs": _cmd_costs,
        "compare": _cmd_compare,
        "circuit": _cmd_circuit,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
