"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — enumerate the registered experiments (``--json`` for tools);
* ``run <experiment-id> [--scale smoke|paper]`` — run one experiment and
  print its paper-style report;
* ``compare <workload> [--requests N] [--abtb N]`` — quick base-vs-
  enhanced comparison of one workload;
* ``profile <workload>`` — enhanced-config run with the hot-trampoline
  profiler: top-N call-site table plus a Chrome/Perfetto trace;
* ``chaos`` — seeded fault-injection campaign audited by the stale-target
  correctness oracle (exit 0 iff the campaign verdict is OK);
* ``campaign`` — hardened (workload × ABTB) sweep: every pair is a
  lease from one queue, and a failed attempt is requeued with backoff
  until its failure budget is spent, then quarantined; integrity-checked
  checkpoint/resume; with ``--jobs N`` the leases run on N worker
  processes (heartbeats, hang detection, dead workers replaced).  The
  command exits 0 when complete, 3 when complete-but-degraded
  (quarantined pairs, partial manifest), 1 on an error;
* ``sweep run|resume|report`` — declarative design-space exploration
  (see ``docs/EXPERIMENTS.md``): expand a JSON axis matrix over
  workloads × ABTB geometry × Bloom × front-end predictors, execute it
  sharded with checkpoint resume and shared trace/machine caches, and
  emit Pareto-frontier / sensitivity / best-point artifacts plus a
  self-contained HTML report under ``<out>/analysis/``;
* ``difftest`` — differential correctness matrix: the batched backend
  must match the reference interpreter counter-for-counter on every
  selected workload profile, base and enhanced (exit 0 iff clean);
* ``incidents`` — validate and summarise a JSONL incident log produced
  by ``campaign --incidents-out`` (exit 0 iff schema-valid and every
  ``--require`` kind is present);
* ``dash --from DIR`` — render the zero-dependency campaign dashboard
  from exported artifacts (``metrics.jsonl``, ``incidents.jsonl``,
  ``events.jsonl``, ``profile.json``, ``trace.json``).

SIGTERM is graceful: ``campaign`` and ``sweep`` flush their checkpoint
and exit 130.

``run``, ``compare``, ``profile``, ``chaos`` and ``campaign`` all accept
the observability flags ``--trace-out``, ``--metrics-out`` and
``--sample-every`` (see ``docs/OBSERVABILITY.md``).  ``run`` records
per-experiment spans and shape-check counters; the simulator-level
commands additionally capture linker/engine/chaos instants, perf-counter
time series, and reconstructed request spans on the simulated clock.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro import __version__, quick_comparison
from repro.errors import ReproError
from repro.experiments import PAPER, SMOKE, all_experiments, get, run_campaign
from repro.obs import Observability
from repro.workloads import ALL_WORKLOADS


def _report_exports(obs: Observability | None) -> None:
    """Print where observability artefacts landed (stderr, so stdout
    stays parseable)."""
    if obs is None:
        return
    for path in obs.export():
        print(f"observability: wrote {path}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    experiments = all_experiments()
    if args.json:
        payload = {
            eid: {"paper_ref": exp.paper_ref, "description": exp.description}
            for eid, exp in sorted(experiments.items())
        }
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(eid) for eid in experiments)
    for eid, exp in sorted(experiments.items()):
        print(f"{eid:<{width}}  {exp.paper_ref:<18}  {exp.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scale = PAPER if args.scale == "paper" else SMOKE
    ids = sorted(all_experiments()) if args.experiment == "all" else [args.experiment]
    obs = Observability.from_flags(args)
    ok = True
    for eid in ids:
        if obs is not None and obs.tracer is not None:
            with obs.tracer.span(f"experiment {eid}", category="experiment"):
                report = get(eid).run(scale)
        else:
            report = get(eid).run(scale)
        print(report.render())
        print()
        held = report.all_shapes_hold
        if obs is not None and obs.metrics is not None:
            key = "experiments.shapes_held" if held else "experiments.shapes_failed"
            obs.metrics.counter(key).inc()
        ok = ok and held
    _report_exports(obs)
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    obs = Observability.from_flags(args)
    result = quick_comparison(args.workload, args.requests, args.abtb, obs=obs)
    base, enh = result["base"], result["enhanced"]
    print(f"workload  : {args.workload}")
    print(f"requests  : {args.requests}   ABTB entries: {args.abtb}")
    print(f"skip rate : {result['skip_rate']:.1%}")
    print(f"speedup   : {result['speedup']:.4f}x")
    print(f"{'counter (PKI)':<24}{'base':>10}{'enhanced':>10}")
    for metric, value in base.table4_row().items():
        print(f"{metric:<24}{value:>10.3f}{enh.table4_row()[metric]:>10.3f}")
    _report_exports(obs)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core import MechanismConfig, TrampolineSkipMechanism
    from repro.experiments.runner import retire
    from repro.uarch import CPU
    from repro.workloads import Workload

    trace_out = args.trace_out or f"{args.workload}.profile.trace.json"
    obs = Observability(
        trace_out=trace_out,
        metrics_out=args.metrics_out,
        sample_every=args.sample_every,
        profile=True,
    )
    cfg = ALL_WORKLOADS[args.workload].config()
    workload = Workload(cfg)
    obs.attach_workload(workload)
    mechanism = TrampolineSkipMechanism(MechanismConfig(abtb_entries=args.abtb))
    cpu = CPU(mechanism=mechanism, hooks=obs.hooks())
    retire(
        cpu, workload.trace_chunks(args.requests),
        sampler=obs.sampler(cpu, args.workload),
    )
    obs.finish_run(cpu, args.workload)
    counters = cpu.finalize()

    print(f"workload  : {args.workload}   requests: {args.requests}   "
          f"ABTB entries: {args.abtb}")
    print()
    print(obs.profiler.table(top=args.top).render())
    print()
    for line in obs.profiler.summary_lines(counters):
        print(line)
    if args.profile_out:
        obs.profiler.write_json(args.profile_out, top=max(args.top, 20))
        print(f"observability: wrote {args.profile_out}", file=sys.stderr)
    _report_exports(obs)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import CampaignConfig, run_fault_campaign

    cfg = CampaignConfig(
        seed=args.seed,
        min_faults=args.min_faults,
        rate=args.rate,
        requests=args.requests,
        use_bloom=not args.no_bloom,
        software_invalidate=not args.no_bloom,
        workloads=tuple(args.workloads),
        abtb_entries=args.abtb,
    )
    obs = Observability.from_flags(args)
    report = run_fault_campaign(cfg, obs=obs)
    print(report.render())
    _report_exports(obs)
    return 0 if report.ok else 1


def _parse_fault_spec(spec: str | None) -> tuple[str, int]:
    """``MATCH[:N]`` → (match, attempts); N defaults to 1."""
    if not spec:
        return "", 0
    match, sep, count = spec.rpartition(":")
    if sep and count.isdigit():
        return match, int(count)
    return spec, 1


def _install_sigterm_handler() -> None:
    """Make SIGTERM behave like Ctrl-C so one KeyboardInterrupt path
    covers both: flush checkpoints, record the shutdown incident, exit
    130 — never die mid-write.  No-op outside the main thread (tests)."""

    def raise_interrupt(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, raise_interrupt)
    except ValueError:  # not the main thread
        pass


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.resilience import FaultPlan, IncidentRecorder, LeasePolicy

    scale = PAPER if args.scale == "paper" else SMOKE
    obs = Observability.from_flags(args)

    want_recorder = bool(args.incidents_out or args.manifest)
    recorder = None
    if want_recorder:
        recorder = obs.incident_recorder() if obs is not None else IncidentRecorder()

    kill_match, kill_attempts = _parse_fault_spec(args.chaos_kill)
    hang_match, hang_attempts = _parse_fault_spec(args.chaos_hang)
    fault_plan = None
    if kill_match or hang_match:
        fault_plan = FaultPlan(
            kill_match=kill_match,
            kill_attempts=kill_attempts,
            hang_match=hang_match,
            hang_attempts=hang_attempts,
        )
    lease_policy = LeasePolicy(
        shard_deadline_s=args.shard_deadline,
        max_shard_failures=args.max_shard_failures,
    )

    _install_sigterm_handler()
    try:
        result = run_campaign(
            args.workloads,
            scale,
            abtb_sizes=tuple(args.abtb),
            checkpoint_path=args.checkpoint,
            obs=obs,
            jobs=args.jobs,
            machine_cache_dir=args.machine_cache,
            trace_cache_dir=args.trace_cache,
            recorder=recorder,
            lease_policy=lease_policy,
            fault_plan=fault_plan,
            manifest_path=args.manifest,
        )
    except KeyboardInterrupt:
        # run_campaign has already flushed the checkpoint and recorded
        # the shutdown incident; finish the exports it can't know about.
        if recorder is not None and args.incidents_out:
            recorder.write_jsonl(args.incidents_out)
        _report_exports(obs)
        print(
            "campaign: interrupted — checkpoint flushed, resume to continue",
            file=sys.stderr,
        )
        return 130
    print(result.render())
    if recorder is not None and args.incidents_out:
        recorder.write_jsonl(args.incidents_out)
        print(
            f"incidents: wrote {args.incidents_out} ({len(recorder)} record(s))",
            file=sys.stderr,
        )
    if args.manifest:
        print(f"manifest: wrote {args.manifest}", file=sys.stderr)
    _report_exports(obs)
    return 3 if result.degraded else 0  # 3: completed, quarantined pairs missing


def _cmd_incidents(args: argparse.Namespace) -> int:
    from repro.resilience import validate_incident_log
    from repro.resilience.incidents import load_incident_log

    problems = validate_incident_log(args.path)
    if problems:
        for problem in problems:
            print(f"{args.path}: {problem}", file=sys.stderr)
        print(f"incidents: INVALID ({len(problems)} problem(s))")
        return 1
    incidents = load_incident_log(args.path)
    counts: dict[str, int] = {}
    for incident in incidents:
        counts[incident.kind] = counts.get(incident.kind, 0) + 1
    if args.json:
        print(json.dumps({"total": len(incidents), "counts": counts}, indent=2, sort_keys=True))
    else:
        print(f"incidents: {len(incidents)} record(s), schema valid")
        for kind, count in sorted(counts.items()):
            print(f"  {kind:<28} {count}")
        if args.verbose:
            for incident in incidents:
                print(f"  [{incident.severity}] {incident.kind}: {incident.message}")
    missing = [kind for kind in args.require if kind not in counts]
    if missing:
        print(f"incidents: required kind(s) missing: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import load_snapshot_from_dir, write_dashboard

    try:
        snapshot = load_snapshot_from_dir(args.artifacts)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = write_dashboard(snapshot, args.out)
    print(
        f"dash: wrote {out} — {len(snapshot['series'])} series, "
        f"{len(snapshot['events'])} event(s), "
        f"{len(snapshot['incidents'])} incident(s)"
        + (", trampoline profile" if snapshot["profile"] else "")
    )
    return 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    from repro.difftest import run_matrix

    reports = run_matrix(
        workloads=args.workloads,
        abtb_sizes=tuple(args.abtb),
        requests=args.requests,
        seed=args.seed,
        batch_events=args.batch_events,
    )
    ok = True
    for report in reports:
        print(report.render())
        ok = ok and report.ok
    diverged = sum(not r.ok for r in reports)
    print(
        f"difftest: {len(reports) - diverged}/{len(reports)} profile(s) identical"
        + (f", {diverged} DIVERGED" if diverged else "")
    )
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepSpec, report_sweep, run_sweep

    if args.action == "report":
        result = report_sweep(args.out)
        print(result.render())
        return 0

    spec = None
    if args.action == "run":
        spec = SweepSpec.load(args.spec)
    _install_sigterm_handler()
    try:
        result = run_sweep(spec, args.out, jobs=args.jobs)
    except KeyboardInterrupt:
        print(
            "sweep: interrupted — checkpoint flushed, "
            "'repro sweep resume' to continue",
            file=sys.stderr,
        )
        return 130
    print(result.render())
    return 3 if result.campaign.degraded else 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.uarch.machine import MachineState

    if args.action == "save":
        from repro.core import MechanismConfig, TrampolineSkipMechanism
        from repro.experiments.runner import retire
        from repro.trace.store import stream_segments
        from repro.uarch import CPU
        from repro.workloads import Workload

        cfg = ALL_WORKLOADS[args.workload].config()
        workload = Workload(cfg)
        mechanism = None
        if args.enhanced:
            mechanism = TrampolineSkipMechanism(MechanismConfig(abtb_entries=args.abtb))
        cpu = CPU(mechanism=mechanism)
        startup, warmup, _measured = stream_segments(workload, args.requests, 0)
        position = retire(cpu, startup) + retire(cpu, warmup)
        cpu.finalize()
        state = MachineState.capture(
            cpu,
            trace_position=position,
            meta={
                "workload": args.workload,
                "warmup_requests": args.requests,
                "label": "enhanced" if args.enhanced else "base",
            },
        )
        state.save(args.out)
        print(f"checkpoint: wrote {args.out} "
              f"({cpu.counters.instructions} instructions simulated)")
        return 0

    state = MachineState.load(args.path)
    if args.action == "verify":
        state.validate_roundtrip()  # raises ReproError on divergence
        print(f"checkpoint: {args.path} OK "
              f"(version {state.version}, round-trip validated)")
        return 0

    # info
    counters = state.cpu["components"].get("counters", {})
    print(f"path           : {args.path}")
    print(f"version        : {state.version}")
    print(f"trace position : {state.trace_position}")
    print(f"mechanism      : "
          f"{'none' if state.mechanism_config is None else state.mechanism_config}")
    print(f"components     : {', '.join(sorted(state.cpu['components']))}")
    print(f"instructions   : {counters.get('instructions', '?')}")
    print(f"cycles         : {counters.get('cycles', '?')}")
    for key, value in sorted(state.meta.items()):
        print(f"meta.{key:<10}: {value}")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser, sample_default: int = 0) -> None:
    """The shared observability flag group (off by default: all three
    unset keeps the simulator on its null-sink fast path)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write metric series (JSON lines, or Prometheus text if PATH ends in .prom)",
    )
    group.add_argument(
        "--sample-every",
        type=int,
        default=sample_default,
        metavar="N",
        help="snapshot perf-counter deltas every N instructions (0 disables sampling)"
        + (f" [default: {sample_default}]" if sample_default else ""),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Architectural Support for Dynamic Linking' (ASPLOS 2015)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list registered experiments")
    list_p.add_argument("--json", action="store_true", help="machine-readable output")
    list_p.set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list'), or 'all'")
    run.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    _add_obs_flags(run)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="base vs enhanced on one workload")
    compare.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    compare.add_argument("--requests", type=int, default=80)
    compare.add_argument("--abtb", type=int, default=256)
    _add_obs_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    profile = sub.add_parser(
        "profile",
        help="hot-trampoline profile of one workload (enhanced config)",
    )
    profile.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    profile.add_argument("--requests", type=int, default=80)
    profile.add_argument("--abtb", type=int, default=256)
    profile.add_argument("--top", type=int, default=10, help="call sites to show")
    profile.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the top-site profile as JSON (feeds 'dash --from')",
    )
    _add_obs_flags(profile, sample_default=2000)
    profile.set_defaults(func=_cmd_profile)

    chaos = sub.add_parser("chaos", help="fault-injection campaign with correctness oracle")
    chaos.add_argument("--seed", type=int, default=2025)
    chaos.add_argument("--min-faults", type=int, default=1000, help="keep running rounds until this many faults landed")
    chaos.add_argument("--rate", type=float, default=0.01, help="per-event injection probability")
    chaos.add_argument("--requests", type=int, default=24, help="requests per instrumented run")
    chaos.add_argument("--abtb", type=int, default=64)
    chaos.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(ALL_WORKLOADS),
        default=["memcached", "apache"],
    )
    chaos.add_argument(
        "--no-bloom",
        action="store_true",
        help="disable the Bloom filter AND the software invalidation contract: "
        "the campaign then passes only if the §3.4 hazard fires and is detected",
    )
    _add_obs_flags(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    campaign = sub.add_parser("campaign", help="hardened (workload x ABTB) sweep")
    campaign.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(ALL_WORKLOADS),
        default=sorted(ALL_WORKLOADS),
    )
    campaign.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    campaign.add_argument("--abtb", type=int, nargs="+", default=[256])
    campaign.add_argument("--checkpoint", default=None, help="JSON checkpoint path (resume skips completed pairs)")
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard pairs over N worker processes leasing from one queue; dead or "
        "hung workers are replaced (results are byte-identical to serial)",
    )
    campaign.add_argument(
        "--machine-cache",
        default=None,
        metavar="DIR",
        help="directory of warm-machine checkpoints; repeat runs (and the shared "
        "base machine of an ABTB sweep) restore warm-up instead of re-simulating",
    )
    campaign.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="content-addressed trace store: each workload's trace is generated "
        "and serialised once, then loaded as structured-array batches by every "
        "pair, shard and repeat run",
    )
    resilience = campaign.add_argument_group("resilience")
    resilience.add_argument(
        "--shard-deadline", type=float, default=120.0, metavar="SECONDS",
        help="with --jobs: heartbeat silence after which a worker's lease "
        "expires and the worker is killed [default: 120]",
    )
    resilience.add_argument(
        "--max-shard-failures", type=int, default=3, metavar="N",
        help="failed attempts (a raise, a dead or hung worker) before a pair "
        "is quarantined (exit 3 = completed degraded) [default: 3]",
    )
    resilience.add_argument(
        "--incidents-out", default=None, metavar="PATH",
        help="write the campaign's incident log as JSON lines (see 'incidents')",
    )
    resilience.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write an integrity-checked end-of-campaign manifest "
        "(partial results, quarantined shards, incident counts)",
    )
    resilience.add_argument(
        "--chaos-kill", default=None, metavar="MATCH[:N]",
        help="fault injection (tests/CI, needs --jobs): SIGKILL the worker of "
        "shards whose key contains MATCH on their first N attempts [default N: 1]",
    )
    resilience.add_argument(
        "--chaos-hang", default=None, metavar="MATCH[:N]",
        help="fault injection: wedge the worker of matching shards "
        "(no heartbeats) on their first N attempts",
    )
    _add_obs_flags(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    difftest = sub.add_parser(
        "difftest",
        help="prove the batched backend matches the reference counter-for-counter",
    )
    difftest.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(ALL_WORKLOADS),
        default=sorted(ALL_WORKLOADS),
    )
    difftest.add_argument(
        "--abtb", type=int, nargs="+", default=[64, 256],
        help="enhanced-machine ABTB sizes (base is always included)",
    )
    difftest.add_argument("--requests", type=int, default=12, help="requests per profile")
    difftest.add_argument("--seed", type=int, default=None, help="workload seed override")
    difftest.add_argument(
        "--batch-events", type=int, default=4096,
        help="batch size of the fast backend under test",
    )
    difftest.set_defaults(func=_cmd_difftest)

    sweep = sub.add_parser(
        "sweep",
        help="declarative design-space sweep: expand an axis matrix, run it "
        "sharded with checkpoint resume, emit Pareto/sensitivity analysis",
    )
    sweep_sub = sweep.add_subparsers(dest="action", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="execute a sweep spec into an output directory"
    )
    sweep_run.add_argument(
        "--spec", required=True, metavar="PATH",
        help="JSON sweep spec (axes over workloads / ABTB / Bloom / BTB / gshare)",
    )
    sweep_run.add_argument(
        "--out", required=True, metavar="DIR",
        help="sweep output directory (spec, checkpoint, caches, analysis/)",
    )
    sweep_run.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep_run.set_defaults(func=_cmd_sweep)
    sweep_resume = sweep_sub.add_parser(
        "resume",
        help="resume a sweep from its directory (completed points are skipped)",
    )
    sweep_resume.add_argument("--out", required=True, metavar="DIR")
    sweep_resume.add_argument("--jobs", type=int, default=1)
    sweep_resume.set_defaults(func=_cmd_sweep)
    sweep_report = sweep_sub.add_parser(
        "report",
        help="recompute analysis/ from the checkpoint without executing",
    )
    sweep_report.add_argument("--out", required=True, metavar="DIR")
    sweep_report.set_defaults(func=_cmd_sweep)

    incidents = sub.add_parser(
        "incidents", help="validate and summarise a JSONL incident log"
    )
    incidents.add_argument("path", help="incident log written by campaign --incidents-out")
    incidents.add_argument("--json", action="store_true", help="machine-readable output")
    incidents.add_argument(
        "--verbose", action="store_true", help="print every incident message"
    )
    incidents.add_argument(
        "--require", action="append", default=[], metavar="KIND",
        help="exit 1 unless at least one incident of KIND is present (repeatable)",
    )
    incidents.set_defaults(func=_cmd_incidents)

    dash = sub.add_parser(
        "dash",
        help="render the campaign dashboard offline from exported artifacts",
    )
    dash.add_argument(
        "--from", dest="artifacts", required=True, metavar="DIR",
        help="artifact directory (metrics.jsonl / incidents.jsonl / "
        "events.jsonl / profile.json / trace.json, all optional)",
    )
    dash.add_argument(
        "--out", default="dashboard.html", metavar="PATH",
        help="output HTML path [default: dashboard.html]",
    )
    dash.set_defaults(func=_cmd_dash)

    checkpoint = sub.add_parser(
        "checkpoint", help="save / inspect / verify machine-state checkpoints"
    )
    ckpt_sub = checkpoint.add_subparsers(dest="action", required=True)
    ckpt_save = ckpt_sub.add_parser(
        "save", help="simulate startup + warm-up and save the machine state"
    )
    ckpt_save.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    ckpt_save.add_argument("--out", required=True, help="output checkpoint path")
    ckpt_save.add_argument("--requests", type=int, default=10, help="warm-up requests")
    ckpt_save.add_argument("--abtb", type=int, default=256)
    ckpt_save.add_argument(
        "--enhanced", action="store_true",
        help="equip the CPU with the trampoline-skip mechanism",
    )
    ckpt_save.set_defaults(func=_cmd_checkpoint)
    ckpt_info = ckpt_sub.add_parser("info", help="describe a saved checkpoint")
    ckpt_info.add_argument("path")
    ckpt_info.set_defaults(func=_cmd_checkpoint)
    ckpt_verify = ckpt_sub.add_parser(
        "verify", help="round-trip-validate a saved checkpoint (exit 1 on divergence)"
    )
    ckpt_verify.add_argument("path")
    ckpt_verify.set_defaults(func=_cmd_checkpoint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Model errors (:class:`ReproError`) surface as a one-line message and
    exit code 1 rather than a traceback; genuine bugs still raise.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # SIGINT/SIGTERM outside a command's own graceful path: the
        # conventional 128+SIGINT code, with no traceback spew.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
