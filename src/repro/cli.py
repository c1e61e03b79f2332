"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands mirror the system's lifecycle:

* ``collect``   — run scripted collection drives and save the data.
* ``train``     — train an ensemble and save it with the model store.
* ``evaluate``  — evaluate a saved ensemble on fresh synthetic data.
* ``reproduce`` — run a paper table/figure experiment and print the
  paper-vs-measured report.
* ``chaos``     — run the scripted fault-injection drive and print the
  fault-tolerance report; ``--serving`` runs the serving-tier scenario
  (shard kills, executor hangs, sink blackhole, journal disk full)
  against the shard supervisor, and ``--edge`` runs the edge-fleet
  scenario (uplink blackhole, corrupt OTA artifact, mid-download kill,
  sabotaged canary) against on-device agents.  All modes exit non-zero
  when a chaos invariant is violated, so CI can gate on them.
* ``edge``      — run the edge agent fleet; ``--drive`` replays a clean
  (fault-free) drive through on-device inference, the upload spool and
  the full OTA lifecycle, and prints the fleet report.
* ``serve``     — run the micro-batched inference server; ``--replay``
  pushes N concurrent scripted drives through it and prints a
  throughput/latency report plus the metrics snapshot and a sample
  request trace (``--metrics-out`` saves the snapshot as JSON);
  ``--scenario spec.json`` replays a declarative scenario instead of
  the default sweep.
* ``scenario``  — validate/summarize a scenario spec, bootstrap one
  with ``--init``, or preview its training windows with ``--training``.
* ``stats``     — render a saved metrics snapshot (human table or
  Prometheus text format) without the process that produced it;
  ``--fleet`` merges several per-shard/per-agent snapshots into one
  fleet-wide view (counters and histograms add, gauges take the max).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_collect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import DriveScript, run_collection_drive
    from repro.streaming.persistence import save_tsdb

    script = DriveScript.standard(segment_seconds=args.segment_seconds)
    print(f"Running {args.drives} scripted drive(s) "
          f"({script.duration:.0f} s each)...")
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    total_readings = 0
    for index in range(args.drives):
        result = run_collection_drive(
            script, driver_id=index,
            rng=np.random.default_rng(args.seed + index))
        path = str(output / f"drive_{index:02d}.npz")
        save_tsdb(result.tsdb, path)
        total_readings += result.controller.readings_received
        print(f"  drive {index}: "
              f"{result.controller.readings_received} readings, "
              f"{result.controller.frames_received} frames -> {path}")
    print(f"Collected {total_readings} readings total.")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import CnnConfig, DarNetEnsemble, RnnConfig, save_ensemble
    from repro.datasets import generate_driving_dataset

    rng = np.random.default_rng(args.seed)
    print(f"Generating {args.samples} paired samples...")
    dataset = generate_driving_dataset(args.samples, rng=rng)
    train, evaluation = dataset.train_eval_split(rng=rng)
    ensemble = DarNetEnsemble(
        args.architecture, cnn_config=CnnConfig(epochs=args.epochs),
        rnn_config=RnnConfig(epochs=2 * args.epochs), rng=rng)
    print(f"Training {args.architecture}...")
    ensemble.fit(train, verbose=args.verbose)
    result = ensemble.evaluate(evaluation)
    print(f"Top-1 on held-out data: {result.top1 * 100:.2f}%")
    save_ensemble(ensemble, args.output)
    print(f"Saved to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core import load_ensemble
    from repro.datasets import behavior_names, generate_driving_dataset
    from repro.nn.metrics import format_confusion

    print(f"Loading ensemble from {args.model}...")
    ensemble = load_ensemble(args.model)
    rng = np.random.default_rng(args.seed)
    dataset = generate_driving_dataset(args.samples, rng=rng)
    result = ensemble.evaluate(dataset)
    print(f"Architecture: {result.architecture}")
    print(f"Top-1: {result.top1 * 100:.2f}%")
    if result.imu_top1 is not None:
        print(f"IMU-only Top-1: {result.imu_top1 * 100:.2f}%")
    print(format_confusion(result.confusion, behavior_names()))
    return 0


_EXPERIMENTS = ("table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5")


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro import experiments as exp

    scale = exp.get_scale(args.scale)
    name = args.experiment
    print(f"Reproducing {name} at scale {scale.name!r}...")
    if name == "table1":
        print(exp.format_table1(exp.run_table1(scale, seed=args.seed)))
    elif name == "table2":
        print(exp.format_table2(exp.run_table2(scale, seed=args.seed)))
    elif name == "fig5":
        print(exp.format_fig5(exp.run_table2(scale, seed=args.seed)))
    elif name == "table3":
        print(exp.format_table3(exp.run_table3(scale, seed=args.seed)))
    elif name == "fig2":
        result = exp.run_fig2(seed=args.seed)
        print(f"readings={result.readings_received} "
              f"frames={result.frames_received} "
              f"clock_err={result.worst_clock_error * 1e3:.1f}ms "
              f"delivery={result.delivery_ratio:.3f}")
    elif name == "fig3":
        result = exp.run_fig3()
        for level, factor in result.reduction.items():
            print(f"{level}: {result.bytes_per_frame[level]} bytes "
                  f"({factor:.1f}x reduction)")
    elif name == "fig4":
        result = exp.run_fig4(seed=args.seed)
        for level, frame in result.frames.items():
            print(f"--- {level} ({result.edges[level]}px) ---")
            print(exp.ascii_frame(frame))
    return 0


def _load_or_train_model(args: argparse.Namespace):
    """A saved ensemble from ``--model``, or a tiny throwaway one."""
    if getattr(args, "model", None):
        from repro.core import load_ensemble

        print(f"Loading ensemble from {args.model}...")
        return load_ensemble(args.model)
    from repro.core import CnnConfig, DarNetEnsemble, RnnConfig
    from repro.datasets import generate_driving_dataset

    rng = np.random.default_rng(args.seed)
    print(f"No --model given; training a small throwaway ensemble "
          f"({args.train_samples} samples, {args.train_epochs} "
          f"epoch(s))...")
    dataset = generate_driving_dataset(args.train_samples, rng=rng)
    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=args.train_epochs),
        rnn_config=RnnConfig(epochs=2 * args.train_epochs), rng=rng)
    ensemble.fit(dataset)
    return ensemble


def _load_scenario(args: argparse.Namespace):
    """The ``--scenario`` spec file, parsed and validated (or ``None``)."""
    path = getattr(args, "scenario", None)
    if not path:
        return None
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.load(path)
    print(f"Loaded scenario {spec.name!r}: {spec.drivers} drivers, "
          f"{spec.duration:.0f} s at {1 / spec.grid_period:.0f} Hz, "
          f"{len(spec.timelines)} timeline(s), "
          f"{'extended' if spec.is_extended else 'paper'} label space")
    return spec


def _model_for_scenario(args: argparse.Namespace, spec):
    """A model fit for ``spec``'s label space.

    Extended scenarios (DROWSY / CAMERA_COVERED scheduled) need extended
    heads; without ``--model`` one is trained on the scenario's own
    training windows — the first consumer of the compiled spec.
    """
    if getattr(args, "model", None) or spec is None or not spec.is_extended:
        return _load_or_train_model(args)
    from repro.scenarios import scenario_training_set, train_extended_ensemble

    print(f"No --model given; training extended heads on scenario "
          f"{spec.name!r}'s own windows ({args.train_epochs} epoch(s))...")
    rng = np.random.default_rng(args.seed)
    dataset = scenario_training_set(spec)
    from repro.core import CnnConfig, RnnConfig

    return train_extended_ensemble(
        dataset,
        cnn_config=CnnConfig(epochs=args.train_epochs),
        rnn_config=RnnConfig(epochs=2 * args.train_epochs),
        rng=rng)


def _cmd_serving_chaos(args: argparse.Namespace) -> int:
    from repro.serving import run_serving_chaos

    scenario = _load_scenario(args)
    ensemble = _model_for_scenario(args, scenario)
    drivers = scenario.drivers if scenario is not None else args.drivers
    duration = scenario.duration if scenario is not None else args.duration
    seed = scenario.seed if scenario is not None else args.seed
    print(f"Running serving chaos: {drivers} drivers on "
          f"{args.shards} shards, {duration:.0f} s drive "
          f"(seed {seed})...")
    report = run_serving_chaos(
        ensemble, shards=args.shards, drivers=args.drivers,
        duration=args.duration, seed=args.seed, workers=args.workers,
        scenario=scenario)
    print()
    print(report.format_report())
    if args.metrics_out:
        from repro.obs import bundle, save_snapshot

        save_snapshot(bundle(report.metrics, []), args.metrics_out)
        print(f"\nSnapshot saved to {args.metrics_out} "
              f"(inspect with `repro stats {args.metrics_out}`)")
    if report.violations:
        print(f"\nCHAOS FAILED: {len(report.violations)} invariant "
              f"violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_edge_chaos(args: argparse.Namespace) -> int:
    from repro.edge import run_edge_chaos

    ensemble = _load_or_train_model(args)
    print(f"Running edge chaos: {args.agents} agents, "
          f"{args.duration:.0f} s drive (seed {args.seed})...")
    report = run_edge_chaos(
        ensemble, agents=args.agents, duration=args.duration,
        seed=args.seed)
    print()
    print(report.format_report())
    if args.metrics_out:
        from repro.obs import bundle, save_snapshot

        save_snapshot(bundle(report.metrics, []), args.metrics_out)
        print(f"\nSnapshot saved to {args.metrics_out} "
              f"(inspect with `repro stats {args.metrics_out}`)")
    if report.violations:
        print(f"\nCHAOS FAILED: {len(report.violations)} invariant "
              f"violation(s)", file=sys.stderr)
        for violation in report.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_edge(args: argparse.Namespace) -> int:
    from repro.edge import run_edge_chaos
    from repro.streaming.faults import FaultSchedule

    if not args.drive:
        print("repro edge currently supports --drive mode only; pass "
              "--drive to replay a clean fleet drive through on-device "
              "inference, the upload spool and the OTA lifecycle.")
        return 2
    ensemble = _load_or_train_model(args)
    print(f"Driving {args.agents} edge agents for {args.duration:.0f} s "
          f"(no injected faults, seed {args.seed})...")
    report = run_edge_chaos(
        ensemble, agents=args.agents, duration=args.duration,
        seed=args.seed, schedule=FaultSchedule([]))
    print()
    print(report.format_report())
    return 1 if report.violations else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.serving:
        return _cmd_serving_chaos(args)
    if args.edge:
        return _cmd_edge_chaos(args)
    from repro.streaming import run_chaos_drive

    print(f"Running the scripted chaos drive ({args.duration:.0f} s, "
          f"seed {args.seed})...")
    report = run_chaos_drive(duration=args.duration, seed=args.seed)
    print("\n== Transport ==")
    print(f"IMU tuples: {report.imu_arrived}/{report.imu_taken} delivered "
          f"({report.imu_delivery_ratio * 100:.2f}%)")
    phone, dashcam = report.phone_sender_stats, report.dashcam_sender_stats
    print(f"phone sender: {phone.sent} sent, {phone.retransmissions} "
          f"retransmitted, {phone.shed_data} shed, {phone.abandoned} "
          f"abandoned")
    print(f"dashcam sender: {dashcam.sent} sent, {dashcam.retransmissions} "
          f"retransmitted, {dashcam.shed_frames} frames shed")
    print("\n== Health ==")
    for agent_id, state in report.agent_states.items():
        print(f"{agent_id}: {state.value} at end of drive")
    print(f"quarantined at some point: "
          f"{report.health['ever_quarantined'] or 'none'}")
    print(f"fault counts: {report.health['fault_counts']}")
    print(f"readings quarantined: {report.readings_quarantined}")
    print("\n== Placement ==")
    for when, location in report.breaker_transitions:
        print(f"t={when:6.2f}s  -> {location.value}")
    print(f"final placement: {report.breaker_location}")
    print("\n== Privacy ==")
    print(f"escalations: {report.privacy_escalations}, "
          f"relaxations: {report.privacy_relaxations}, "
          f"final level: {report.final_privacy_level or 'undistorted'}")
    if report.first_escalation_at is not None:
        print(f"first escalation at t={report.first_escalation_at:.2f}s")
    print("\n== Verdict windows ==")
    for window in report.windows:
        flag = (f"DEGRADED (missing {', '.join(window.missing)})"
                if window.degraded else "full fidelity")
        print(f"[{window.start:5.1f}, {window.end:5.1f})  "
              f"imu={window.imu_readings:4d}  frames={window.frames:2d}  "
              f"{flag}")
    print(f"\n{report.degraded_windows}/{len(report.windows)} windows "
          f"degraded; every window still receives a verdict.")
    if report.violations:
        print(f"\nCHAOS FAILED: {len(report.violations)} invariant "
              f"violation(s)", file=sys.stderr)
        for violation in report.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import replay_concurrent_drives

    if not args.replay:
        print("repro serve currently supports --replay mode only; "
              "pass --replay to run N concurrent scripted drives "
              "through the inference server.")
        return 2
    scenario = _load_scenario(args)
    ensemble = _model_for_scenario(args, scenario)
    drivers = scenario.drivers if scenario is not None else args.drivers
    duration = scenario.duration if scenario is not None else args.duration
    print(f"Replaying {drivers} concurrent scripted drives "
          f"({duration:.0f} s, micro-batch {args.max_batch or 'auto'}, "
          f"deadline {args.deadline_ms:.0f} ms, {args.workers} worker(s), "
          f"backend {args.backend}, "
          f"{args.kill_camera} camera(s) killed mid-replay)...")
    from repro.nn.runtime import profiled_layers

    with profiled_layers(args.profile_layers):
        report = replay_concurrent_drives(
            ensemble, drivers=args.drivers, duration=args.duration,
            max_batch=args.max_batch, max_delay=args.deadline_ms / 1e3,
            kill_camera=args.kill_camera, seed=args.seed,
            workers=args.workers, backend=args.backend,
            scenario=scenario)
    print()
    print(report.format_report())
    from repro.obs import bundle, render_text, render_traces, save_snapshot

    document = bundle(report.metrics, report.traces)
    print("\n== Metrics snapshot ==")
    print(render_text(document))
    print("\n== Sample trace ==")
    print(render_traces(document, limit=1))
    if args.metrics_out:
        save_snapshot(document, args.metrics_out)
        print(f"\nSnapshot saved to {args.metrics_out} "
              f"(inspect with `repro stats {args.metrics_out}`)")
    complete = all(count == report.instants
                   for count in report.verdicts_per_session.values())
    print(f"\nOne verdict per grid instant per driver: "
          f"{'yes' if complete else 'NO'}")
    return 0 if complete else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import (
        load_snapshot,
        render_prometheus,
        render_text,
        render_traces,
    )

    if len(args.snapshot) > 1 and not args.fleet:
        print("multiple snapshots given; pass --fleet to merge them "
              "into one fleet-wide view", file=sys.stderr)
        return 2
    if args.fleet:
        from repro.obs import bundle
        from repro.obs.metrics import MetricsRegistry

        fleet = MetricsRegistry()
        traces: list[dict] = []
        for path in args.snapshot:
            member = load_snapshot(path)
            fleet.merge(member)
            traces.extend(member.get("traces", []))
        document = bundle(fleet.snapshot(), traces)
        print(f"Fleet view over {len(args.snapshot)} snapshot(s): "
              f"counters/histograms summed, gauges maxed.\n")
    else:
        document = load_snapshot(args.snapshot[0])
    if args.format == "prometheus":
        print(render_prometheus(document), end="")
    else:
        print(render_text(document, zeros=args.zeros))
        if args.traces:
            print()
            print(render_traces(document, limit=args.traces))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioSpec, compile_scenario

    if args.init:
        spec = ScenarioSpec.paper_sweep(drivers=args.drivers,
                                        duration=args.duration,
                                        seed=args.seed)
        spec.save(args.spec)
        print(f"Wrote the default paper-sweep spec to {args.spec}; edit "
              "timelines/environment and feed it to `repro serve --replay "
              "--scenario` or `repro chaos --serving --scenario`.")
        return 0
    spec = ScenarioSpec.load(args.spec)
    compiled = compile_scenario(spec)
    behaviors = sorted(spec.behaviors(), key=int)
    env = spec.environment
    print(f"Scenario {spec.name!r} — {spec.drivers} drivers, "
          f"{spec.duration:.0f} s at {1 / spec.grid_period:.0f} Hz "
          f"({len(compiled.instants)} grid instants, seed {spec.seed})")
    print(f"  label space: "
          f"{'extended (8-class)' if spec.is_extended else 'paper (6-class)'}")
    print(f"  behaviours:  "
          + ", ".join(behavior.name for behavior in behaviors))
    for index, timeline in enumerate(spec.timelines):
        count = sum(1 for a in compiled.assignment if a == index)
        print(f"  timeline     {timeline.name!r}: "
              f"{len(timeline.segments)} segment(s), weight "
              f"{timeline.weight:g} -> {count} driver(s)")
    print(f"  environment: {len(env.lighting)} lighting phase(s), "
          f"{len(env.camera_faults)} camera fault(s), "
          f"{len(env.imu_noise)} noise regime(s), road "
          f"{env.road.name!r} (vibration x{env.road.vibration:g}), "
          f"GPS {'on' if env.gps is not None else 'off'}")
    if args.training:
        from repro.datasets import summarize
        from repro.scenarios import scenario_training_set

        dataset = scenario_training_set(compiled)
        print(f"\nTraining windows ({len(dataset)} samples, "
              f"{dataset.num_classes}-class):")
        print(summarize(dataset))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.nn.compile.backends import DEFAULT_BACKEND, backend_names

    parser = argparse.ArgumentParser(
        prog="repro", description="DarNet reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="run collection drives")
    collect.add_argument("--drives", type=int, default=1)
    collect.add_argument("--segment-seconds", type=float, default=10.0)
    collect.add_argument("--output", default="collected")
    collect.add_argument("--seed", type=int, default=0)
    collect.set_defaults(func=_cmd_collect)

    train = sub.add_parser("train", help="train and save an ensemble")
    train.add_argument("--architecture", default="cnn+rnn",
                       choices=["cnn+rnn", "cnn+svm", "cnn"])
    train.add_argument("--samples", type=int, default=600)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--output", default="darnet_model")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--verbose", action="store_true")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved ensemble")
    evaluate.add_argument("--model", default="darnet_model")
    evaluate.add_argument("--samples", type=int, default=200)
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.set_defaults(func=_cmd_evaluate)

    reproduce = sub.add_parser("reproduce",
                               help="re-run a paper table/figure")
    reproduce.add_argument("experiment", choices=_EXPERIMENTS)
    reproduce.add_argument("--scale", default="smoke",
                           choices=["smoke", "default", "full"])
    reproduce.add_argument("--seed", type=int, default=0)
    reproduce.set_defaults(func=_cmd_reproduce)

    chaos = sub.add_parser("chaos",
                           help="run the scripted fault-injection drive; "
                                "exits non-zero on invariant violations")
    chaos.add_argument("--duration", type=float, default=30.0)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--serving", action="store_true",
                       help="run serving-tier chaos (shard kills, "
                            "executor hangs, sink blackhole, full disk) "
                            "against the shard supervisor instead of the "
                            "streaming stack")
    chaos.add_argument("--edge", action="store_true",
                       help="run edge-fleet chaos (uplink blackhole, "
                            "corrupt OTA artifact, mid-download kill, "
                            "sabotaged canary) against on-device agents")
    chaos.add_argument("--shards", type=int, default=3,
                       help="serving mode: shards in the supervised fleet")
    chaos.add_argument("--workers", type=int, default=0,
                       help="persistent executor workers per shard server "
                            "(with --serving; adds a worker_kill fault "
                            "when > 0)")
    chaos.add_argument("--drivers", type=int, default=6,
                       help="serving mode: concurrent driver sessions")
    chaos.add_argument("--agents", type=int, default=3,
                       help="edge mode: agents in the fleet")
    chaos.add_argument("--model", default=None,
                       help="serving/edge mode: saved ensemble directory "
                            "(trains a tiny throwaway model when omitted)")
    chaos.add_argument("--train-samples", type=int, default=120)
    chaos.add_argument("--train-epochs", type=int, default=1)
    chaos.add_argument("--metrics-out", default=None,
                       help="serving/edge mode: write the metrics "
                            "snapshot to this JSON file")
    chaos.add_argument("--scenario", default=None, metavar="SPEC",
                       help="serving mode: declarative scenario spec "
                            "(JSON) shaping the fleet traffic; its "
                            "camera faults join the fault schedule as "
                            "scenario-native chaos")
    chaos.set_defaults(func=_cmd_chaos)

    edge = sub.add_parser(
        "edge", help="run the edge agent fleet (on-device inference, "
                     "spooled uploads, OTA rollout)")
    edge.add_argument("--drive", action="store_true",
                      help="replay a clean fleet drive and print the "
                           "fleet report")
    edge.add_argument("--agents", type=int, default=3)
    edge.add_argument("--duration", type=float, default=24.0)
    edge.add_argument("--model", default=None,
                      help="saved ensemble directory (trains a tiny "
                           "throwaway model when omitted)")
    edge.add_argument("--train-samples", type=int, default=120)
    edge.add_argument("--train-epochs", type=int, default=1)
    edge.add_argument("--seed", type=int, default=0)
    edge.set_defaults(func=_cmd_edge)

    serve = sub.add_parser(
        "serve", help="run the micro-batched inference server")
    serve.add_argument("--replay", action="store_true",
                       help="replay concurrent scripted drives and print "
                            "a throughput/latency report")
    serve.add_argument("--drivers", type=int, default=8)
    serve.add_argument("--duration", type=float, default=20.0)
    serve.add_argument("--model", default=None,
                       help="saved ensemble directory (trains a tiny "
                            "throwaway model when omitted)")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="micro-batch size (default: one batch per "
                            "grid instant; 1 disables batching)")
    serve.add_argument("--deadline-ms", type=float, default=25.0,
                       help="micro-batch flush deadline in milliseconds")
    serve.add_argument("--kill-camera", type=int, default=2,
                       help="drivers whose camera stream dies mid-replay")
    serve.add_argument("--workers", type=int, default=0,
                       help="persistent worker processes executing flushed "
                            "batches over shared-memory rings (0 runs "
                            "in-process; any N delivers the identical "
                            "verdict sequence)")
    serve.add_argument("--backend", default=DEFAULT_BACKEND,
                       choices=backend_names(),
                       help="inference backend: numpy-compiled (fused "
                            "execution plans, the default), "
                            "numpy-compiled-int8 (quantized weights, "
                            "lossy), or reference (the plain layer "
                            "forward, the parity oracle)")
    serve.add_argument("--train-samples", type=int, default=120)
    serve.add_argument("--train-epochs", type=int, default=1)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--metrics-out", default=None,
                       help="write the metrics+trace snapshot to this "
                            "JSON file")
    serve.add_argument("--profile-layers", type=int, default=0,
                       metavar="N",
                       help="time individual layers on every Nth forward "
                            "pass (0 disables sampling)")
    serve.add_argument("--scenario", default=None, metavar="SPEC",
                       help="replay a declarative scenario spec (JSON) "
                            "instead of the default behaviour sweep; the "
                            "spec is authoritative for drivers, duration "
                            "and seed, and extended-class scenarios get "
                            "extended heads trained from the spec's own "
                            "training windows when --model is omitted")
    serve.set_defaults(func=_cmd_serve)

    scenario = sub.add_parser(
        "scenario", help="validate, summarize or bootstrap a scenario "
                         "spec (the declarative synthetic world shared "
                         "by training, replay and chaos)")
    scenario.add_argument("spec", help="scenario spec JSON file")
    scenario.add_argument("--init", action="store_true",
                          help="write the default paper-sweep spec to "
                               "SPEC instead of reading it")
    scenario.add_argument("--training", action="store_true",
                          help="generate the spec's training windows and "
                               "print the class table")
    scenario.add_argument("--drivers", type=int, default=8,
                          help="fleet size for --init")
    scenario.add_argument("--duration", type=float, default=20.0,
                          help="drive length for --init")
    scenario.add_argument("--seed", type=int, default=0,
                          help="seed for --init")
    scenario.set_defaults(func=_cmd_scenario)

    stats = sub.add_parser(
        "stats", help="render a saved metrics snapshot")
    stats.add_argument("snapshot", nargs="+",
                       help="JSON file(s) written by "
                            "`repro serve --metrics-out` (several with "
                            "--fleet)")
    stats.add_argument("--fleet", action="store_true",
                       help="merge all given snapshots into one "
                            "fleet-wide view (counters and histograms "
                            "add, gauges take the max)")
    stats.add_argument("--format", default="text",
                       choices=["text", "prometheus"])
    stats.add_argument("--traces", type=int, default=1,
                       help="completed traces to render (text format)")
    stats.add_argument("--zeros", action="store_true",
                       help="include instruments that never recorded")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
