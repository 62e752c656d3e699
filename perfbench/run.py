"""Closed-loop benchmark of the schmidtq public API.

Run from the repository root:

    python3 perfbench/run.py --workload verify_q --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client calls the package in this process and waits for each result
before the next call.  The run repeats whole passes over the workload's
deck (see ``workloads.py``) until ``--seconds`` have elapsed, so every
run measures the same mix of ops.  Every output is checked after its
clock stops.  Latencies and set-up times are scaled to a reference
speed by the readings of ``gauge.py`` taken around them.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each pass runs once untraced and
once with the wrappers of ``tracer.py`` installed, and the metrics are
the per-layer ones.  The line before it carries the run's environment
and sample counts, and ``perfbench/out/`` gets the latencies or the
trace of the run.  ``--workload all`` runs each workload in its own
process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import counts
import gauge
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The set-up is timed in this process and in this many fresh ones.
SETUP_PROBES = 4

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "series.mul_calls": "count",
    "series.mul_term_pairs": "count",
    "series.mul_kept_ratio": "ratio",
    "series.mul_self_s": "s",
    "series.geometric_inverse_self_s": "s",
    "series.poch_self_s": "s",
    "series.gaussian_self_s": "s",
    "identities.sum_side_s": "s",
    "identities.product_side_s": "s",
    "identities.enum_side_s": "s",
    "identities.compare_s": "s",
    "identities.verify_counting_s": "s",
    "identities.witnesses_s": "s",
    "identities.enum_objects_per_term": "ratio",
    "partitions.objects": "count",
    "partitions.objects_per_s": "1/s",
    "partitions.self_s": "s",
    "partitions.stat_self_s": "s",
    "partitions.class_keep_ratio": "ratio",
    "colored.objects": "count",
    "colored.objects_per_s": "1/s",
    "colored.self_s": "s",
    "colored.stat_self_s": "s",
    "bijections.maps": "count",
    "bijections.maps_per_s": "1/s",
    "bijections.self_s": "s",
    "cli.self_s": "s",
    "cli.lines_out": "count",
    "trace.overhead_ratio": "ratio",
}
# Counts that must repeat exactly from pass to pass and run to run.
EXACT = (
    "series.mul_calls",
    "series.mul_term_pairs",
    "partitions.objects",
    "colored.objects",
    "bijections.maps",
    "cli.lines_out",
)


def import_package():
    """Import schmidtq from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "schmidtq" / "__init__.py").is_file():
        raise SystemExit(f"error: no schmidtq package under {src}")
    sys.path.insert(0, str(src))
    import schmidtq
    import schmidtq.cli

    if Path(schmidtq.__file__).resolve().parent != (src / "schmidtq").resolve():
        raise SystemExit(f"error: imported schmidtq from {schmidtq.__file__}, not {src}")
    return schmidtq


class Session(NamedTuple):
    pkg: object
    runner: workloads.Runner
    deck: list
    rng: object  # orders each pass
    warm_failed: int


def set_up(workload, seed):
    """Import, build the deck and run the warm-up pass.

    Returns the session and the set-up time, unscaled and scaled by the
    gauge readings taken just before and after it.
    """
    before = gauge.reading()
    start = perf_counter()
    pkg = import_package()
    runner = workloads.Runner(pkg)
    deck, rng = workloads.build_deck(workload, seed)
    warm_failed = 0
    for op in workloads.warmup_ops(workload):
        ok, _, _ = run_op(runner, op)
        warm_failed += not ok
    elapsed = perf_counter() - start
    session = Session(pkg, runner, deck, rng, warm_failed)
    return session, elapsed, gauge.scaled(elapsed, before, gauge.reading())


def run_op(runner, op, tracer=None):
    """Time one op, then check it; returns (ok, seconds, output)."""
    frame = tracer.begin_op(op.label) if tracer is not None else None
    start = perf_counter()
    try:
        out = runner.execute(op)
    except Exception:
        traceback.print_exc()
        return False, perf_counter() - start, None
    finally:
        if frame is not None:
            tracer.end_op(frame)
    elapsed = perf_counter() - start
    if tracer is not None:
        return True, elapsed, out  # checked once the tracer is removed
    return safe_check(runner, op, out), elapsed, out


def safe_check(runner, op, out):
    try:
        ok = runner.check(op, out)
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"check failed: {op.label}", file=sys.stderr)
    return ok


def shuffled(deck, rng):
    order = list(deck)
    rng.shuffle(order)
    return order


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(p / 100 * len(sorted_values))) - 1]


def probe_setup(workload, seed):
    """(unscaled, scaled) set-up times of fresh processes, each starting from scratch."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["unscaled_s"], probe["setup_s"]))
    return times


def measure(session, seconds, least_passes):
    """Samples (label, seconds, index of the gauge reading before), failures,
    passes and gauge readings of an untraced run.  Reading ``i + 1`` always
    follows the ops that follow reading ``i``."""
    samples, failed, readings = [], 0, [gauge.reading()]
    start = last_reading = perf_counter()
    passes = 0
    while True:
        for op in shuffled(session.deck, session.rng):
            if perf_counter() - last_reading >= gauge.EVERY_S:
                readings.append(gauge.reading())
                last_reading = perf_counter()
            ok, dt, _ = run_op(session.runner, op)
            samples.append((op.label, dt, len(readings) - 1))
            failed += not ok
        passes += 1
        if passes >= least_passes and perf_counter() - start >= seconds:
            readings.append(gauge.reading())
            return samples, failed, passes, readings


def measure_traced(session, seconds):
    runner = session.runner
    passes, failed = [], 0
    start = perf_counter()
    while True:
        order = shuffled(session.deck, session.rng)
        untraced = 0.0
        for op in order:
            ok, dt, _ = run_op(runner, op)
            untraced += dt
            failed += not ok
        tracer = tracing.Tracer(session.pkg, counts.partition_count)
        results = []
        tracer.install()
        try:
            for op in order:
                ok, dt, out = run_op(runner, op, tracer)
                results.append((op, ok, dt, out))
                if op.kind == "cli" and ok:
                    tracer.counts["cli.lines_out"] += out[1].count("\n")
        finally:
            tracer.uninstall()
        traced = 0.0
        for op, ok, dt, out in results:
            traced += dt
            failed += not (ok and safe_check(runner, op, out))
        passes.append((untraced, traced, tracer))
        if perf_counter() - start >= seconds:
            return passes, failed, 2 * len(order) * len(passes)


def environment(workload, seed, trace):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
    }


def summarize(latencies, setups, pct):
    """The timing metrics of one run from its op latencies and set-up times."""
    latencies = sorted(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, pct),
        "setup_s": statistics.median(setups),
    }


def metric(values, units):
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(args):
    session, own_unscaled, own_scaled = set_up(args.workload, args.seed)
    info = environment(args.workload, args.seed, args.trace)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        passes, failed, attempted = measure_traced(session, args.seconds)
        per_pass = [t.layer_metrics() for _, _, t in passes]
        repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in EXACT)
        values = {
            k: per_pass[0][k] if k in EXACT else statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]
        }
        untraced = statistics.median(u for u, _, _ in passes)
        values["trace.overhead_ratio"] = untraced / statistics.median(t for _, t, _ in passes)
        info.update(
            passes=len(passes),
            exact_counts_repeat=repeat,
            sample_counts={k: len(passes) for k in PER_LAYER},
        )
        detail = {"info": info, "per_pass": per_pass, "first_pass": passes[0][2].dump()}
        metrics = metric(values, PER_LAYER)
        failed += not repeat
    else:
        setups = [(own_unscaled, own_scaled)] + probe_setup(args.workload, args.seed)
        pct = workloads.WORKLOADS[args.workload][1]
        samples, failed, passes, readings = measure(
            session, args.seconds, workloads.min_passes(args.workload, session.deck)
        )
        attempted = len(samples)
        unscaled = summarize([dt for _, dt, _ in samples], [s for s, _ in setups], pct)
        values = summarize(
            [gauge.scaled(dt, readings[i], readings[i + 1]) for _, dt, i in samples],
            [s for _, s in setups],
            pct,
        )
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info.update(
            passes=passes,
            samples=attempted,
            tail_percentile=pct,
            setup_samples=setups,
            gauge_readings=len(readings),
            gauge_median_s=statistics.median(readings),
            unscaled=unscaled,
            sample_counts={
                "ops_per_s": attempted,
                "latency_p50_s": attempted,
                "latency_tail_s": attempted,
                "setup_s": len(setups),
                "peak_rss_mb": 1,
            },
            failed_ratio=(failed + session.warm_failed) / attempted,
        )
        detail = {"info": info, "latencies": samples, "gauge_readings": readings}
        metrics = metric(values, END_TO_END)
    failed += session.warm_failed
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        results[name] = result
        extra = ""
        if not args.trace:
            extra = f"  failed_ratio {info['failed_ratio']}  tail=p{info['tail_percentile']}"
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}{extra}")
        for key, m in result["metrics"].items():
            print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe and args.workload == "all":
        parser.error("--setup-probe needs one workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        _, unscaled, scaled = set_up(args.workload, args.seed)
        print(json.dumps({"unscaled_s": unscaled, "setup_s": scaled}))
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
