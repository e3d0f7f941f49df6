#!/usr/bin/env python3
"""Seeded benchmark for floodmit's solve, sweep and closure ranking.

    python3 bench/run.py --workload solve-tight --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --smoke               # tiny towns, self-checks, seconds
    python3 bench/run.py --record-reference    # rewrite bench/reference.json

One process, one caller, one operation at a time (closed loop).  A run
writes the workload's towns as network files, times ``instance_from_file``
on them several times (``setup_s``), then repeats passes over the
workload's operations until ``--seconds`` have passed and reports medians.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics plus the tracing overhead.  Times are reported in reference
seconds, which take out the shared machine's changing speed (speed.py).
Every answer is checked; the last line of output is one JSON object, and
the exit code is 1 if any operation failed.  Results, spans and inputs go
to bench/results/.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from speed import REFERENCE_KERNEL_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ingest.busy_s": "s", "ingest.arcs_per_s": "1/s",
    "prune.busy_s": "s", "prune.arcs_removed": "count", "prune.lift_s": "s",
    "reductions.busy_s": "s", "reductions.masked_pairs": "count",
    "heuristic.busy_s": "s", "heuristic.warm_start_share": "ratio",
    "heuristic.excess": "ratio",
    "solver.busy_s": "s", "solver.nodes": "count",
    "solver.incumbent_updates": "count", "solver.ms_per_node": "ms",
    "solver.busy_s.g14": "s", "solver.busy_s.g18": "s",
    "solver.busy_s.g20": "s", "solver.no_plan_s": "s",
    "pipeline.calls": "count", "pipeline.self_s": "s",
    "analysis.rebuild_s": "s",
    "net.sp_calls": "count", "net.sp_s": "s", "net.labels_per_s": "1/s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
#: what ROADMAP and the README call one pass of each kind of workload
PASS_NAMES = {"solve": "solve_s", "sweep": "sweep_s", "ewtt": "ewtt_s"}
MIN_PASSES = 2
SETUP_REPEATS = 5
SETUP_MIN_S = 0.25


def _set_up(wl, workload, paths, spans: list[tuple[float, float]],
            seconds: float):
    """Time ``instance_from_file`` on every input, several times; keep the last."""
    reps, spent = 0, 0.0
    while reps < SETUP_REPEATS or spent < min(SETUP_MIN_S, seconds):
        start = time.perf_counter()
        instances = wl.load_instances(workload, paths)
        spans.append((start, time.perf_counter()))
        reps, spent = reps + 1, spent + spans[-1][1] - start
    return instances


def measure(workload, seed: int, seconds: float, trace: bool,
            reference: dict[str, Any]) -> dict[str, Any]:
    """One benchmark run; returns everything the result file records."""
    import workloads as wl
    from tracer import Tracer, layer_metrics

    inputs = RESULTS / "inputs" / f"{workload.name}-seed{seed}"
    paths, labels = wl.write_inputs(workload, seed, inputs)
    ref = reference.get(workload.name)
    tracer = Tracer() if trace else None
    speed = Speedometer()
    setup_spans: list[tuple[float, float]] = []
    passes: list = []                    # (traced, Pass), in the order run
    with speed.running():
        start = time.perf_counter()
        # closed loop: no pass starts that would end past the deadline,
        # judged by the median pass so far; set-up is re-timed before every
        # pass so its samples spread over the run like the passes do
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(
                    p.wall_s for _, p in passes) <= seconds):
            instances = _set_up(wl, workload, paths, setup_spans, seconds)
            gc.collect()
            if tracer is not None and len(passes) % 2:
                with tracer.installed():
                    passes.append((True, wl.run_pass(workload, instances, ref,
                                                     labels, tracer)))
            else:
                passes.append((False, wl.run_pass(workload, instances, ref,
                                                  labels)))
    arcs_loaded = sum(len(i.network.arcs) for i in instances.values())
    plain = [p for is_traced, p in passes if not is_traced]
    traced = [p for is_traced, p in passes if is_traced]

    ops = [op for _, p in passes for op in p.ops]
    failures = [f"pass {i + 1} {op.label}: {op.failure}"
                for i, (_, p) in enumerate(passes) for op in p.ops if op.failure]
    setup_times = [speed.seconds(a, b) for a, b in setup_spans]
    pass_times = [speed.seconds(p.start, p.end) for p in plain]
    traced_times = [speed.seconds(p.start, p.end) for p in traced]
    pass_s = statistics.median(pass_times)
    setup_s = statistics.median(setup_times)
    if tracer is None:
        metrics = {"pass_s": pass_s, "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        # passes alternate untraced, traced: pair each traced pass with the
        # untraced one just before it
        overhead_s = statistics.median(t - p for p, t in zip(pass_times, traced_times))
        # one speed factor per traced pass, so a parent span's self time is
        # its net time minus its children's on the same scale
        factors = [speed.factor(p.start, p.end) for p in traced]

        def span_s(span: dict[str, Any]) -> float:
            return speed.net(span["start"], span["end"]) * factors[span["pass"] - 1]

        metrics = layer_metrics(tracer, span_s, setup_s, arcs_loaded,
                                overhead_s, pass_s)
        units = PER_LAYER
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "checked_against_reference": ref is not None,
        "env": {"python": sys.version.split()[0], "cpu_count": os.cpu_count(),
                "affinity": sorted(os.sched_getaffinity(0)),
                "time_limit_s": wl.TIME_LIMIT_S},
        "kernel_ms": speed.kernel_ms(), "kernel_samples": len(speed.starts),
        "setup_times": setup_times,
        "setup_wall_times": [b - a for a, b in setup_spans],
        "pass_times": pass_times,
        "pass_wall_times": [p.wall_s for p in plain],
        "traced_pass_times": traced_times,
        "answers": plain[0].answers,
        "attempted": len(ops), "failed": len(failures), "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "spans": tracer.spans if tracer is not None else [],
    }


def result_line(result: dict[str, Any]) -> str:
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


def report(result: dict[str, Any], kind: str) -> None:
    """Human-readable lines, then the JSON result line, printed last."""
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  "
          f"reference {'checked' if result['checked_against_reference'] else 'none'}")
    print(f"env python {env['python']}  cpu_count {env['cpu_count']}  "
          f"affinity {env['affinity']}  time_limit_s {env['time_limit_s']:g}")
    for key, answer in result["answers"].items():
        for item in answer if key == "rows" else [answer]:
            print(f"answer {key}: {json.dumps(item)}")
    times = " ".join(f"{t:.4f}" for t in result["pass_times"])
    print(f"{PASS_NAMES[kind]} per pass: {times}  (median is pass_s)")
    times = " ".join(f"{t:.4f}" for t in result["pass_wall_times"])
    print(f"{PASS_NAMES[kind]} per pass, wall clock: {times}")
    print(f"speed kernel median {result['kernel_ms']:.4f} ms over "
          f"{result['kernel_samples']} samples (reference "
          f"{1000 * REFERENCE_KERNEL_S:g} ms)")
    if result["traced_pass_times"]:
        times = " ".join(f"{t:.4f}" for t in result["traced_pass_times"])
        print(f"{PASS_NAMES[kind]} per traced pass: {times}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_share {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(result_line(result))


def smoke(reference: dict[str, Any]) -> list[str]:
    """Run every kind of workload on tiny towns; return what went wrong."""
    import workloads as wl

    problems: list[str] = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(listed.items() ^ units.items())}")
    for workload in wl.SMOKE_WORKLOADS.values():
        for seed in (0, 7):
            for trace in (False, True):
                result = measure(workload, seed, 0.0, trace, reference)
                line = json.loads(result_line(result))
                units = PER_LAYER if trace else END_TO_END
                for name, unit in units.items():
                    m = line["metrics"].get(name)
                    if m is None or m["unit"] != unit or not isinstance(
                            m["value"], (int, float)) or not math.isfinite(m["value"]):
                        problems.append(f"{workload.name} seed {seed} trace "
                                        f"{int(trace)}: metric {name} is {m}")
                if line["failed"] or not line["correct"]:
                    problems.append(f"{workload.name} seed {seed}: "
                                    f"{result['failures']}")
    solve = wl.SMOKE_WORKLOADS["smoke-solve"]
    first = solve.towns[0]
    corrupted = json.loads(json.dumps(reference))
    corrupted[solve.name][first]["objective"] += 1.0
    result = measure(solve, 0, 0.0, False, corrupted)
    failed = [f for f in result["failures"] if f" {first}: objective" in f]
    if result["failed"] != MIN_PASSES or len(failed) != MIN_PASSES:
        problems.append(f"corrupted reference objective for {first} gave "
                        f"failures {result['failures']}")
    return problems


def record_reference() -> None:
    """Write the current program's seed-0 answers to reference.json."""
    import workloads as wl

    out = {}
    for workload in (*wl.WORKLOADS.values(), *wl.SMOKE_WORKLOADS.values()):
        inputs = RESULTS / "inputs" / f"{workload.name}-seed0"
        paths, labels = wl.write_inputs(workload, 0, inputs)
        done = wl.run_pass(workload, wl.load_instances(workload, paths), None, labels)
        failures = [f"{op.label}: {op.failure}" for op in done.ops if op.failure]
        if failures:
            raise SystemExit(f"not recording {workload.name}: {failures}")
        out[workload.name] = done.answers
        print(f"recorded {workload.name}", flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the generator's ids; others rename them in order")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "floodmit").is_dir():
        print(f"run.py: no floodmit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.record_reference:
        record_reference()
        return 0
    reference = json.loads(REFERENCE.read_text())
    if args.smoke:
        problems = smoke(reference)
        for problem in problems:
            print(f"SMOKE {problem}")
        print("smoke failed" if problems else "smoke ok")
        return 1 if problems else 0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    report(result, workload.kind)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
