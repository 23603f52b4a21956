#!/usr/bin/env python3
"""The repository benchmark: one workload, checked, measured, reported.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 12 --trace 0

Builds the workload's inputs from ``--seed``, runs it as a closed loop
for ``--seconds``, checks every output (see ``perfbench/README.md``)
and prints one line per metric, then the result as one JSON object on
the last line.  With ``--trace 0`` the metrics are the end-to-end ones
of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer ones,
from a run whose iterations alternate untraced and traced.

A full record (host, seed, sample counts, every span summary) is
written under ``perfbench/out/``; traced runs also write every span.

Exit status: 0 measured and recorded; 1 an output check diverged,
nothing recorded; 2 bad arguments or no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIB = 1024 * 1024

SPANS = (
    "vitis.launch", "hw.dpu_run", "mmu.map", "petalinux.spawn",
    "petalinux.terminate", "petalinux.scrub_tick",
    "attack.observe", "attack.harvest", "attack.extract", "attack.identify",
    "attack.reconstruct", "analysis.match", "analysis.map_dump",
    "utils.marker_rows", "runtime.journal_append", "runtime.spool_put",
    "fabric.op.hello", "fabric.op.claim", "fabric.op.wave",
    "fabric.op.board_complete", "fabric.op.has_dump", "fabric.op.put_dump",
    "fabric.close",
    "service.put_dump", "service.submit", "service.queue_wait",
    "service.analyze",
)
"""Spans reported as ``<span>_ms`` (p50 per call), ``<span>.calls``
(calls per operation) and ``<span>.self_ms`` (self time per operation)."""

PREP_SPANS = ("campaign.prep", "defense.probe_prep")
"""Offline prep reboots a reference board and profiles on it; spans
under these belong to set-up, not to the layer metrics."""


def host_metadata() -> dict:
    """What the numbers were measured on."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def layer_metrics(summary: dict, counters: dict, ops: int) -> dict:
    """Per-layer metrics from span summaries and counters.

    *ops* is the operations (victims or dumps) the traced part did;
    per-operation metrics divide by it.
    """
    metrics: dict[str, tuple[float, int]] = {}
    ops = max(ops, 1)
    for span in SPANS:
        stats = summary.get(span)
        if stats is None:
            continue
        count = stats["count"]
        metrics[f"{span}_ms"] = (stats["p50_s"] * 1000, count)
        metrics[f"{span}.calls"] = (count / ops, count)
        metrics[f"{span}.self_ms"] = (stats["self_s"] * 1000 / ops, count)
    wave = summary.get("campaign.board_wave")
    if wave is not None:
        busy, count = wave["cpu_s"], wave["count"]
        metrics["campaign.board_busy_ms"] = (busy * 1000 / ops, count)
        metrics["campaign.board_wait_ms"] = (
            (wave["total_s"] - busy) * 1000 / ops, count)
    prep = summary.get("campaign.prep")
    if prep is not None:
        metrics["campaign.prep_s"] = (prep["p50_s"], prep["count"])

    def ratio(name, hits, total):
        if counters.get(total):
            metrics[name] = (
                counters.get(hits, 0.0) / counters[total], int(counters[total]))

    ratio("attack.translation_cache_hit_ratio",
          "attack.translation_hits", "attack.translation_lookups")
    ratio("attack.buffer_reuse_ratio",
          "attack.buffer_reuses", "attack.buffer_acquires")
    ratio("runtime.spool_dedup_ratio",
          "runtime.spool_dedups", "runtime.spool_puts")
    mapped = summary.get("analysis.map_dump")
    if mapped is not None and mapped["total_s"] > 0:
        metrics["analysis.map_dump_mib_per_s"] = (
            counters.get("analysis.map_dump_bytes", 0.0) / MIB
            / mapped["total_s"], mapped["count"])
    if "fabric.wire_bytes" in counters:
        metrics["fabric.wire_bytes_per_victim"] = (
            counters["fabric.wire_bytes"] / ops, ops)
    if "service.put_dump" in summary:
        metrics["service.backpressure_refusals"] = (
            counters.get("service.backpressure_refusals", 0.0), ops)
    return metrics


def without_prep(spans: list[tuple]) -> list[tuple]:
    """Drop spans nested under offline prep (kept: the prep spans)."""
    by_id = {span[0]: span for span in spans}
    kept = []
    for span in spans:
        parent = span[4]
        while parent is not None and by_id[parent][1] not in PREP_SPANS:
            parent = by_id[parent][4]
        if parent is None:
            kept.append(span)
    return kept


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracing import Tracer, summarize

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"scratch-{tag}-{os.getpid()}"
    scratch.mkdir(parents=True)
    # Library code that asks for a temp directory stays in the checkout.
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    tracer = Tracer() if args.trace else None
    run = {
        "campaign": lambda: workloads.campaign_workload(
            args.seed, args.seconds, scratch, tracer, fabric=False),
        "campaign_fabric": lambda: workloads.campaign_workload(
            args.seed, args.seconds, scratch, tracer, fabric=True),
        "defense_sweep": lambda: workloads.defense_workload(
            args.seed, args.seconds, scratch, tracer),
        "ingest": lambda: workloads.ingest_workload(
            args.seed, args.seconds, scratch, tracer),
    }[args.workload]
    started = time.perf_counter()
    try:
        measurement = run()
    except workloads.Divergence as divergence:
        print(f"DIVERGENCE: {divergence}; nothing recorded", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.perf_counter() - started

    metrics = dict(measurement.metrics)
    spans_file = None
    if tracer is not None:
        span_lists = [without_prep(tracer.spans)]
        counters = dict(tracer.counters)
        for spans, process_counters in measurement.process_spans:
            span_lists.append(without_prep(spans))
            for key, value in process_counters.items():
                counters[key] = counters.get(key, 0.0) + value
        summary = summarize(span_lists)
        metrics.update(layer_metrics(
            summary, counters, measurement.notes["traced_ops"]))
        measurement.notes["spans"] = summary
        measurement.notes["counters"] = counters
        spans_file = OUT / f"{tag}-spans.jsonl"
        tracer.write(spans_file, workload=args.workload, seed=args.seed)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result, samples = {}, {}
    for entry in wanted:
        value, count = metrics.get(entry["name"], (0.0, 0))
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        samples[entry["name"]] = count
        if not args.trace and entry["name"] not in metrics:
            print(f"end-to-end metric {entry['name']} was not measured",
                  file=sys.stderr)
            return 1

    attempted = max(measurement.attempted, 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": elapsed,
        "host": host_metadata(),
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "error_rate": measurement.failed / attempted,
        "metrics": {
            name: {**entry, "samples": samples[name]}
            for name, entry in result.items()
        },
        "notes": measurement.notes,
        "spans_file": str(spans_file) if spans_file else None,
    }
    record_file = OUT / f"{tag}.json"
    record_file.write_text(json.dumps(record, indent=2, default=str) + "\n")

    for name, entry in result.items():
        print(f"{name:<40} {entry['value']:>14.4f} {entry['unit']:<12} "
              f"n={samples[name]}")
    print(f"{'error_rate':<40} {record['error_rate']:>14.4f} "
          f"{'failed/op':<12} n={measurement.attempted}")
    print(f"record: {record_file}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": measurement.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
