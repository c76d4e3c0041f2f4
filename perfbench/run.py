"""Benchmark entry point: one workload, in one process and one thread.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs whole cycles of items until the items have taken
``--seconds`` of wall time, checks every output afterwards, and reports the
end-to-end metrics, with item times scaled to nominal host speed
(hostspeed.py).
With ``--trace 1`` it runs a fixed set of cycles twice, untraced and then
with span wrappers in place, and reports the per-layer metrics and the
tracing overhead.  It prints one line per metric, then as its
last line a JSON object with the keys correct, attempted, failed and metrics.

sidlab is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits with status 1 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program():
    src = ROOT / "src"
    if not (src / "sidlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sidlab package under {src}")
    sys.path.insert(0, str(src))
    import sidlab
    if Path(sidlab.__file__).resolve().parent != (src / "sidlab").resolve():
        sys.exit(f"perfbench: imported sidlab from {sidlab.__file__}, "
                 f"not from {src}")


@dataclass
class Record:
    item: object
    output: object
    error: BaseException | None
    seconds: float


def run_items(workload, items, tracer=None, speed=None):
    """Run each item once, timing the call; errors become failed records.
    With ``speed``, calibration slices are taken between items."""
    records = []
    for item in items:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(item)
            else:
                with tracer.span("item", item=len(tracer.spans)):
                    output = workload.run(item)
            error = None
        except Exception as exc:  # a failed item is counted, not fatal
            output, error = None, exc
        records.append(Record(item, output, error, time.perf_counter() - t0))
        if speed is not None:
            speed.after(records[-1].seconds)
    return records


def failures(workload, records):
    """(shape, reason) for every record whose call raised or whose output
    the workload's checker rejects."""
    out = []
    for r in records:
        reason = (f"raised {r.error!r}" if r.error is not None
                  else workload.check(r.item, r.output))
        if reason is not None:
            out.append((r.item.shape, reason))
    return out


def setup_seconds(args):
    """Median wall time of fresh interpreters that import sidlab, build the
    first cycle's inputs, run the warm-up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def latency_metrics(seconds):
    """(items/s, p50 ms, p90 ms) of a list of item times."""
    return (len(seconds) / sum(seconds),
            1e3 * statistics.median(seconds),
            1e3 * statistics.quantiles(seconds, n=10)[8])


def timed_run(workload, first_cycle, args):
    """Whole cycles until the items have taken ``args.seconds``; the item
    times are also scaled to nominal host speed (see hostspeed.py)."""
    speed = hostspeed.HostSpeed()
    seconds, failed, c, peak_kb = [], [], 0, None
    items = first_cycle
    while True:
        done = run_items(workload, items, speed=speed)
        # Checked cycle by cycle, outside every timed call, so that memory
        # does not grow with the number of items a run completes.
        failed += failures(workload, done)
        seconds += [r.seconds for r in done]
        if c + 1 == workload.fixed_cycles:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sum(seconds) >= args.seconds:
            break
        c += 1
        items = workload.cycle(c)
    speed.flush()
    if peak_kb is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    slowdown = statistics.median(speed.factors)
    items_per_s, p50, p90 = latency_metrics(speed.scaled)
    metrics = {
        "items_per_s": items_per_s,
        "item_ms_p50": p50,
        "item_ms_p90": p90,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": setup_seconds(args),
    }
    raw = latency_metrics(seconds)
    print(f"# {len(seconds)} items in {c + 1} cycles, {sum(seconds):.3f} s "
          f"busy; p50 and p90 over {len(seconds)} samples, "
          f"{sum(x > p90 / 1e3 for x in speed.scaled)} beyond p90")
    print(f"# host slowdown: median {slowdown:.3f}, range "
          f"{min(speed.factors):.3f}..{max(speed.factors):.3f} "
          f"over {len(speed.factors)} chunks")
    print(f"# unscaled: items_per_s {raw[0]!r} item_ms_p50 {raw[1]!r} "
          f"item_ms_p90 {raw[2]!r}")
    units = END_TO_END_UNITS
    return len(seconds), failed, {k: (v, units[k]) for k, v in metrics.items()}


def clear_order_cache():
    from sidlab import contraction
    cached = getattr(contraction, "_elimination_order_cached", None)
    if cached is not None:
        cached.cache_clear()
    return cached


def traced_run(workload, cycles):
    """Each cycle runs twice from an empty elimination-order cache: once
    plain, then with the span wrappers in place.  Interleaving the two keeps
    slow drift of the machine out of the overhead estimate."""
    tracer = tracing.Tracer()
    plain_s, failed, attempted, hits, misses = 0.0, [], 0, 0, 0
    for c in range(cycles):
        plain_items, traced_items = workload.cycle(c), workload.cycle(c)
        clear_order_cache()
        plain = run_items(workload, plain_items)
        cached = clear_order_cache()
        with tracing.installed(tracer, after=tracing.sidlab_hooks(tracer)):
            traced = run_items(workload, traced_items, tracer)
        if cached is not None:
            info = cached.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        plain_s += sum(r.seconds for r in plain)
        failed += failures(workload, plain) + failures(workload, traced)
        attempted += len(plain) + len(traced)
    values = tracing.layer_metrics(
        tracer, None if cached is None else (hits, misses), plain_s)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {k: (values[k], units[k]) for k in units}
    return attempted, failed, metrics, tracer


def write_spans(tracer, args):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracing.write_spans(tracer.spans, path)
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["search", "exact", "suites"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after the set-up (used to time set-up)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        first_cycle = workload.cycle(0)
        for item in workload.warmup():
            workload.run(item)
        if args.setup_only:
            return 0
        if args.trace:
            attempted, failed, metrics, tracer = traced_run(
                workload, workload.fixed_cycles)
            write_spans(tracer, args)
        else:
            attempted, failed, metrics = timed_run(workload, first_cycle, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for shape, reason in failed[:10]:
        print(f"# FAILED item {shape}: {reason}")
    print(f"failed_frac {len(failed) / attempted!r} ratio "
          f"({len(failed)} failed of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
