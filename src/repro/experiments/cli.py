"""Command-line entry point: ``repro-experiments <command> [options]``.

Commands map one-to-one to the paper's artefacts:

* ``table2`` — average dfb + wins over the evaluation grid;
* ``table3 --factor {5,10}`` — the contention-prone columns;
* ``figure2`` — dfb-vs-wmin series (ASCII chart + numbers);
* ``figure1`` — the NP-completeness gadget and certificate round trip;
* ``counterexample`` — the Section 4 MCT-vs-optimal worked example;
* ``demo`` — a single simulation with a readable event trace.

All campaign commands accept ``--scenarios`` and ``--trials`` to scale
between quick smoke runs and the paper's full protocol (247 × 10), plus
``--backend``/``--jobs`` to run the sweep on a parallel execution backend
(DESIGN.md §4; statistics are bit-identical across backends — including
``--backend distributed``, the loopback coordinator/worker service) and
``--checkpoint PATH`` to journal completed work units and resume an
interrupted campaign.

Three commands operate the distributed campaign service (DESIGN.md §13):

* ``coordinator`` — run a study's campaign as a coordinator that serves
  units to workers over TCP, journalling to per-shard checkpoints;
* ``worker`` — connect to a coordinator and execute units until done;
* ``campaign-status`` — live progress view over a checkpoint directory
  (units done/pending/in-flight, per-worker throughput, ETA).
"""

from __future__ import annotations

import argparse
import ipaddress
import sys
import time
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type=``: a positive integer (bad values exit with 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _replan_policy(text: str) -> str:
    """argparse ``type=``: a replan-policy spec (DESIGN.md §10)."""
    from ..sim.relevance import parse_replan_policy

    try:
        parse_replan_policy(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Scheduling Parallel "
            "Iterative Applications on Volatile Resources' (IPDPS 2011)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_args(p: argparse.ArgumentParser):
        from .backends import available_backends

        p.add_argument(
            "--backend",
            choices=available_backends(),
            default="serial",
            help="execution backend (results are backend-independent)",
        )
        p.add_argument(
            "--jobs",
            type=_positive_int,
            default=None,
            help="parallel workers (default: CPU count; ignored by serial)",
        )
        p.add_argument(
            "--replan-policy",
            type=_replan_policy,
            default="event",
            metavar="POLICY",
            help=(
                "replan-trigger policy (DESIGN.md §10): 'event' (the "
                "paper's semantics, default), 'every-slot', or a relaxed "
                "policy — 'sticky', 'debounce:k', 'relevant-up'.  Relaxed "
                "policies change the results; validate with the "
                "replan-study command"
            ),
        )

    def add_campaign_args(p: argparse.ArgumentParser, scenarios_default: int):
        p.add_argument(
            "--scenarios",
            type=_positive_int,
            default=scenarios_default,
            help=f"scenarios per cell (default {scenarios_default}; paper: 247)",
        )
        p.add_argument(
            "--trials",
            type=_positive_int,
            default=2,
            help="trials per scenario (paper: 10)",
        )
        p.add_argument("--seed", type=int, default=12061, help="campaign seed")
        p.add_argument(
            "--progress", action="store_true", help="print instance progress"
        )
        add_backend_args(p)
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help=(
                "journal completed (scenario, trial) units here and resume "
                "from it on restart"
            ),
        )

    t2 = sub.add_parser("table2", help="Table 2: dfb + wins, all 17 heuristics")
    add_campaign_args(t2, 1)
    t2.add_argument(
        "--wmin",
        type=int,
        nargs="*",
        default=None,
        help="restrict wmin values (default: 1..10)",
    )

    t3 = sub.add_parser("table3", help="Table 3: contention-prone columns")
    add_campaign_args(t3, 10)
    t3.add_argument(
        "--factor",
        type=int,
        choices=(5, 10),
        required=True,
        help="communication scaling factor (paper columns: 5 and 10)",
    )

    f2 = sub.add_parser("figure2", help="Figure 2: dfb vs wmin")
    add_campaign_args(f2, 1)

    sub.add_parser("figure1", help="Figure 1: NP-completeness gadget")
    sub.add_parser("counterexample", help="Section 4 worked example")

    t2v = sub.add_parser(
        "theorem2", help="validate Lemma 1 / Theorem 2 vs Monte Carlo"
    )
    t2v.add_argument("--chains", type=int, default=10)
    t2v.add_argument("--samples", type=int, default=20_000)

    dl = sub.add_parser(
        "deadline", help="Section 3.4 objective: iterations within N slots"
    )
    dl.add_argument(
        "--slots", type=_positive_int, default=2000, help="the deadline N"
    )
    dl.add_argument("--scenarios", type=_positive_int, default=4)
    dl.add_argument("--trials", type=_positive_int, default=2)
    dl.add_argument(
        "--proactive", action="store_true",
        help="enable the proactive-termination extension",
    )
    add_backend_args(dl)

    mm = sub.add_parser(
        "mismatch", help="Markov beliefs vs Weibull ground truth (§8 future work)"
    )
    mm.add_argument("--trials", type=_positive_int, default=3)
    mm.add_argument("--hosts", type=_positive_int, default=12)
    add_backend_args(mm)

    ab = sub.add_parser("ablation", help="design-choice ablations (DESIGN.md §5)")
    ab.add_argument(
        "name",
        choices=("replication", "replanning", "ud-exact", "contention",
                 "proactive"),
    )
    ab.add_argument("--scenarios", type=_positive_int, default=3)
    ab.add_argument("--trials", type=_positive_int, default=2)
    add_backend_args(ab)

    rp = sub.add_parser(
        "replan-study",
        help="relaxed replan-policy validation vs the paper's shape targets",
    )
    rp.add_argument(
        "--scenarios", type=_positive_int, default=2, help="scenarios/cell"
    )
    rp.add_argument(
        "--trials", type=_positive_int, default=2, help="trials/scenario"
    )
    rp.add_argument("--seed", type=int, default=12061)
    rp.add_argument(
        "--policies",
        type=_replan_policy,
        nargs="*",
        default=None,
        metavar="POLICY",
        help=(
            "policy specs, baseline first (default: event relevant-up "
            "debounce:5 sticky every-slot)"
        ),
    )
    rp.add_argument(
        "--heuristics", nargs="*", default=None, help="heuristics to rank"
    )
    rp.add_argument(
        "--wmin", type=int, nargs="*", default=None,
        help="wmin axis of the Figure 2 shape check (default: 1 5 10)",
    )

    co = sub.add_parser(
        "coordinator",
        help="serve a study's campaign to distributed workers (DESIGN.md §13)",
    )
    co.add_argument(
        "--study",
        choices=("table2", "table3", "figure2"),
        default="table2",
        help="which campaign to coordinate",
    )
    co.add_argument(
        "--factor",
        type=int,
        choices=(5, 10),
        default=5,
        help="table3 communication factor (ignored by other studies)",
    )
    co.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "listen address (port 0 picks a free port, printed on start); "
            "must be loopback unless --trust-network is given"
        ),
    )
    co.add_argument(
        "--trust-network",
        action="store_true",
        help=(
            "allow a non-loopback --bind: the wire protocol unpickles "
            "what peers send, so everyone who can reach the port can run "
            "code as this user"
        ),
    )
    co.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "shard-journal directory: results persist as they arrive and "
            "a restarted coordinator resumes without re-executing them"
        ),
    )
    co.add_argument(
        "--shards", type=int, default=4, help="shard-journal count"
    )
    co.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="units per assignment (default: guided self-scheduling)",
    )
    co.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help="seconds before an unrenewed assignment is re-issued",
    )
    co.add_argument(
        "--local-workers",
        type=int,
        default=0,
        help="also run this many in-process workers (0: external only)",
    )
    co.add_argument(
        "--scenarios", type=_positive_int, default=1, help="scenarios/cell"
    )
    co.add_argument(
        "--trials", type=_positive_int, default=2, help="trials/scenario"
    )
    co.add_argument("--seed", type=int, default=12061)
    co.add_argument(
        "--wmin", type=int, nargs="*", default=None,
        help="restrict wmin values (table2/figure2)",
    )
    co.add_argument("--progress", action="store_true")

    wk = sub.add_parser(
        "worker", help="execute campaign units for a coordinator"
    )
    wk.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address",
    )
    wk.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker threads in this process",
    )
    wk.add_argument(
        "--worker-id",
        default=None,
        help="wire identity prefix (default: pid-derived)",
    )
    wk.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connection",
    )

    st = sub.add_parser(
        "campaign-status",
        help="progress view over a campaign checkpoint directory",
    )
    st.add_argument("checkpoint_dir", help="directory holding shard journals")
    st.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    demo = sub.add_parser("demo", help="one simulation with an event trace")
    demo.add_argument("--heuristic", default="emct*", help="heuristic name")
    demo.add_argument("--seed", type=int, default=7, help="demo seed")
    demo.add_argument("--tasks", type=int, default=8, help="tasks per iteration")
    demo.add_argument("--iterations", type=int, default=3, help="iterations")
    return parser


def _progress_printer(enabled: bool):
    if not enabled:
        return None
    start = time.time()

    def callback(done: int, key):
        if done % 25 == 0:
            rate = done / max(time.time() - start, 1e-9)
            print(f"  … {done} instances ({rate:.1f}/s), last {key}", file=sys.stderr)

    return callback


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "table2":
        from .table2 import render_table2, run_table2

        kwargs = {}
        if args.wmin:
            kwargs["wmin_values"] = tuple(args.wmin)
        result = run_table2(
            scenarios_per_cell=args.scenarios,
            trials=args.trials,
            seed=args.seed,
            progress=_progress_printer(args.progress),
            backend=args.backend,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            replan_policy=args.replan_policy,
            **kwargs,
        )
        print(render_table2(result))
    elif args.command == "table3":
        from .table3 import render_table3, run_table3

        result = run_table3(
            args.factor,
            scenarios=args.scenarios,
            trials=args.trials,
            seed=args.seed,
            progress=_progress_printer(args.progress),
            backend=args.backend,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            replan_policy=args.replan_policy,
        )
        print(render_table3(result))
    elif args.command == "figure2":
        from .figure2 import render_figure2, run_figure2

        result = run_figure2(
            scenarios_per_cell=args.scenarios,
            trials=args.trials,
            seed=args.seed,
            progress=_progress_printer(args.progress),
            backend=args.backend,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            replan_policy=args.replan_policy,
        )
        print(render_figure2(result))
    elif args.command == "figure1":
        from .offline_study import figure1_study

        study = figure1_study()
        print(study.gadget)
        print()
        print(f"satisfying assignment: {study.satisfying_assignment}")
        print(
            f"certificate schedule: {study.schedule_makespan} slots "
            f"(horizon {study.horizon})"
        )
        print(f"recovered assignment satisfies: {study.recovered_satisfies}")
    elif args.command == "counterexample":
        from .offline_study import counterexample_study

        analysis = counterexample_study()
        print(f"optimal makespan:       {analysis.optimal_makespan} (paper: 9)")
        print(f"online MCT makespan:    {analysis.mct_online_makespan}")
        print(
            "MCT first-task choice:  "
            f"P{analysis.mct_first_choice_processor + 1} (paper: P1)"
        )
    elif args.command == "theorem2":
        from .theorem2_study import render_theorem2_study, run_theorem2_study

        result = run_theorem2_study(chains=args.chains, samples=args.samples)
        print(render_theorem2_study(result))
    elif args.command == "deadline":
        from .deadline_study import render_deadline_study, run_deadline_study

        result = run_deadline_study(
            deadline_slots=args.slots,
            scenario_count=args.scenarios,
            trials=args.trials,
            proactive=args.proactive,
            backend=args.backend,
            jobs=args.jobs,
            replan_policy=args.replan_policy,
        )
        print(render_deadline_study(result))
    elif args.command == "mismatch":
        from .mismatch_study import render_mismatch_study, run_mismatch_study

        result = run_mismatch_study(
            p=args.hosts,
            trials=args.trials,
            backend=args.backend,
            jobs=args.jobs,
            replan_policy=args.replan_policy,
        )
        print(render_mismatch_study(result))
    elif args.command == "ablation":
        from .ablation import render_ablation, run_ablation

        result = run_ablation(
            args.name,
            scenarios=args.scenarios,
            trials=args.trials,
            backend=args.backend,
            jobs=args.jobs,
            replan_policy=args.replan_policy,
        )
        print(render_ablation(result))
    elif args.command == "replan-study":
        from .replan_study import render_replan_study, run_replan_study

        kwargs = {}
        if args.policies:
            kwargs["policies"] = tuple(args.policies)
        if args.heuristics:
            kwargs["heuristics"] = tuple(args.heuristics)
        if args.wmin:
            kwargs["wmin_values"] = tuple(args.wmin)
        result = run_replan_study(
            scenarios=args.scenarios,
            trials=args.trials,
            seed=args.seed,
            **kwargs,
        )
        print(render_replan_study(result))
    elif args.command == "coordinator":
        return _run_coordinator(args)
    elif args.command == "worker":
        return _run_worker(args)
    elif args.command == "campaign-status":
        from .distributed import campaign_status, render_campaign_status

        summary = campaign_status(args.checkpoint_dir)
        if args.json:
            import json

            print(json.dumps(summary, indent=1))
        else:
            print(render_campaign_status(summary))
    elif args.command == "demo":
        _run_demo(args)
    return 0


def _parse_address(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _coordinator_address(args):
    """The coordinator's ``(host, port)``, refusing an untrusted exposure.

    The wire protocol unpickles every frame it receives, so a listener
    reachable from other machines lets any of them run code in the
    coordinator.  Only loopback binds (``localhost`` or a loopback IP
    literal) are allowed without ``--trust-network``; host names are not
    resolved, so anything else counts as non-loopback.
    """
    host, port = _parse_address(args.bind)
    try:
        loopback = host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:
        loopback = False
    if not loopback and not args.trust_network:
        raise SystemExit(
            f"refusing to bind the coordinator to non-loopback address "
            f"{host!r}: workers' messages are unpickled, so anyone who "
            "can reach the port can execute code as this user. Bind to "
            "127.0.0.1, or pass --trust-network if every machine that "
            "can reach it is trusted."
        )
    return host, port


def _run_coordinator(args) -> int:
    from .distributed import DistributedBackend, LocalCluster

    host, port = _coordinator_address(args)
    clusters = []

    def announce(address):
        print(
            f"coordinator listening on {address[0]}:{address[1]} — start "
            f"workers with: repro-experiments worker --connect "
            f"{address[0]}:{address[1]}",
            file=sys.stderr,
        )
        if args.local_workers:
            clusters.append(
                LocalCluster(address, args.local_workers).start()
            )

    backend = DistributedBackend(
        external=True,
        host=host,
        port=port,
        chunk_size=args.chunk_size,
        lease_timeout=args.lease_timeout,
        checkpoint_dir=args.checkpoint_dir,
        shards=args.shards,
        on_listening=announce,
    )
    common = dict(
        trials=args.trials,
        seed=args.seed,
        backend=backend,
        progress=_progress_printer(args.progress),
    )
    if args.study == "table2":
        from .table2 import render_table2, run_table2

        kwargs = {"wmin_values": tuple(args.wmin)} if args.wmin else {}
        result = run_table2(
            scenarios_per_cell=args.scenarios, **common, **kwargs
        )
        print(render_table2(result))
    elif args.study == "table3":
        from .table3 import render_table3, run_table3

        result = run_table3(args.factor, scenarios=args.scenarios, **common)
        print(render_table3(result))
    else:
        from .figure2 import render_figure2, run_figure2

        result = run_figure2(scenarios_per_cell=args.scenarios, **common)
        print(render_figure2(result))
    stats = backend.last_stats
    if stats is not None:
        print(
            f"campaign complete: {stats.units_executed} executed, "
            f"{stats.units_restored} restored, {stats.reissues} re-issued, "
            f"{stats.duplicates_dropped} duplicates dropped",
            file=sys.stderr,
        )
    for cluster in clusters:
        cluster.join(timeout=5.0)
    return 0


def _run_worker(args) -> int:
    from .distributed import CampaignWorker, LocalCluster

    address = _parse_address(args.connect)
    prefix = args.worker_id

    def factory(addr, slot):
        worker_id = f"{prefix}-{slot}" if prefix else None
        return CampaignWorker(
            addr,
            worker_id=worker_id,
            connect_timeout=args.connect_timeout,
        )

    cluster = LocalCluster(address, args.jobs, worker_factory=factory)
    cluster.start()
    cluster.join(timeout=None)
    for failure in cluster.failures:
        print(f"worker failed: {failure!r}", file=sys.stderr)
    done = cluster.units_done()
    print(f"worker done: {done} units executed", file=sys.stderr)
    return 1 if cluster.failures else 0


def _run_demo(args) -> None:
    from ..analysis.gantt import render_gantt
    from ..core.heuristics.registry import make_scheduler
    from ..core.markov import paper_random_model
    from ..rng import RngFactory
    from ..sim.events import EventLog
    from ..sim.master import MasterSimulator, SimulatorOptions
    from ..sim.platform import Platform, Processor
    from ..sim.timeline import TimelineRecorder
    from ..workload.application import IterativeApplication

    factory = RngFactory(args.seed)
    processors = [
        Processor.from_markov(
            q,
            int(factory.generator("speed", q).integers(1, 10, endpoint=True)),
            paper_random_model(factory.generator("chain", q)),
            factory.generator("avail", q),
        )
        for q in range(8)
    ]
    app = IterativeApplication(
        tasks_per_iteration=args.tasks,
        iterations=args.iterations,
        t_prog=5,
        t_data=1,
    )
    log = EventLog(enabled=True)
    platform = Platform(processors, ncom=3)
    timeline = TimelineRecorder(len(platform))
    sim = MasterSimulator(
        platform,
        app,
        make_scheduler(args.heuristic, platform=platform),
        options=SimulatorOptions(audit=True),
        rng=factory.generator("sched"),
        log=log,
        timeline=timeline,
    )
    report = sim.run(max_slots=100_000)
    print(log.render())
    print()
    print("schedule (first 100 slots):")
    print(render_gantt(timeline, width=100))
    print()
    print(report.summary())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
