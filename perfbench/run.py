"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced for half the time, then the same
number of cycles again with every layer's entry points wrapped in timing
spans (see ``tracer.py``), and reports the per-layer metrics of that
traced phase.  Workloads, the pool and the layer map are described in
``perfbench/workloads.json``; the metric names and bounds in
``BENCHMARK.json`` at the repository root.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; earlier lines carry the
answer digest and any findings.  The model pool is trained on the first run
in a checkout and cached under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _percentile_ms(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase, setups: list) -> dict:
    wall = phase.timed_wall_s
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (_percentile_ms(phase.op_latencies, 50), "ms"),
        "op_p90_ms": (_percentile_ms(phase.op_latencies, 90), "ms"),
        "ops_per_s": (len(phase.op_latencies) / wall, "1/s"),
        "frames_per_s": (phase.frames / wall, "1/s"),
        "query_p50_ms": (_percentile_ms(phase.query_latencies, 50), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _counters(db) -> dict:
    """Registry counters as ``{(metric, labels): value}``."""
    counters = {}
    for name, metric in db.metrics.snapshot().items():
        if metric["type"] != "counter":
            continue
        for series in metric["series"]:
            labels = tuple(sorted(series["labels"].items()))
            counters[(name, labels)] = series["value"]
    return counters


def _registry_total(before: dict, after: dict, name: str, **labels) -> int:
    total = 0.0
    for (metric, series_labels), value in after.items():
        if metric != name:
            continue
        if any(dict(series_labels).get(k) != v for k, v in labels.items()):
            continue
        total += value - before.get((metric, series_labels), 0.0)
    return int(round(total))


def cross_check(layers: dict, before: dict, after: dict) -> list[str]:
    """Benchmark counts vs the database's own registry, same traced phase."""
    def count(layer, key):
        return int(round(layers.get(layer, {}).get(key, 0)))

    store_n = count("store.get", "n")
    store_hits = count("store.get", "hits")
    pairs = [
        ("rows classified", count("cascade.classify", "rows"),
         _registry_total(before, after, "repro_query_rows_classified_total")),
        ("cascade level evaluated",
         count("cascade.classify", "evaluated.all"),
         _registry_total(before, after,
                         "repro_cascade_level_evaluated_total")),
        ("cascade level decided", count("cascade.classify", "decided.all"),
         _registry_total(before, after, "repro_cascade_level_decided_total")),
        ("store hits", store_hits,
         _registry_total(before, after, "repro_store_hits_total")),
        ("store misses", store_n - store_hits,
         _registry_total(before, after, "repro_store_misses_total")),
        ("admission submitted",
         count("admission.queue_wait", "n") + count("admission.rejected",
                                                    "n"),
         _registry_total(before, after, "repro_admission_queries_total",
                         event="submitted")),
        ("admission rejected", count("admission.rejected", "n"),
         _registry_total(before, after, "repro_admission_queries_total",
                         event="rejected")),
    ]
    for outcome in ("hit", "rebind", "miss"):
        pairs.append((f"plan-cache {outcome}",
                      count("plan_cache.lookup", f"outcome={outcome}.n"),
                      _registry_total(before, after,
                                      "repro_plan_cache_lookups_total",
                                      outcome=outcome)))
    return [f"{name}: benchmark={ours} registry={theirs}"
            for name, ours, theirs in pairs if ours != theirs]


def per_layer(summary: dict, phase_a, phase_b, findings: list,
              recovery: dict | None, failed_ratio: float) -> dict:
    layers = summary["layers"]
    ops = max(1, len(phase_b.op_latencies))

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0.0)

    def per_op(layer: str, key: str) -> float:
        return get(layer, key) / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    roots = summary["roots"]
    rec_layers = (recovery["summary"]["layers"] if recovery is not None
                  else {})
    phases = (phase_a, phase_b)
    frame_bytes = sum(phase.extra.get("frame_bytes", 0) for phase in phases)
    return {
        "sql.parse_s": (per_op("sql.parse", "time"), "s/op"),
        "planner.plan_self_s": (per_op("planner.plan", "self"), "s/op"),
        "planner.plans": (per_op("planner.plan", "n"), "count/op"),
        "evaluator.evaluate_s": (per_op("evaluator.evaluate", "time"),
                                 "s/op"),
        "evaluator.cascades_evaluated": (
            per_op("evaluator.evaluate", "cascades"), "count/op"),
        "selector.select_s": (per_op("selector.select", "time"), "s/op"),
        "plan_cache.lookup_s": (per_op("plan_cache.lookup", "time"), "s/op"),
        "plan_cache.hit_ratio": (ratio(
            get("plan_cache.lookup", "outcome=hit.n")
            + get("plan_cache.lookup", "outcome=rebind.n"),
            get("plan_cache.lookup", "n")), "ratio"),
        "database.execute_self_s": (per_op("database.execute", "self"),
                                    "s/op"),
        "executor.execute_self_s": (per_op("executor.execute", "self"),
                                    "s/op"),
        "executor.rows_in": (per_op("executor.execute", "rows_in"),
                             "count/op"),
        "executor.rows_out": (per_op("executor.execute", "rows_out"),
                              "count/op"),
        "cascade.classify_self_s": (per_op("cascade.classify", "self"),
                                    "s/op"),
        "cascade.rows": (per_op("cascade.classify", "rows"), "count/op"),
        "cascade.first_level_decided_ratio": (ratio(
            get("cascade.classify", "decided.0"),
            get("cascade.classify", "evaluated.0")), "ratio"),
        "model.infer_s.small": (per_op("model.infer", "kind=small.time"),
                                "s/op"),
        "model.infer_s.reference": (
            per_op("model.infer", "kind=reference.time"), "s/op"),
        "model.infer_rows.small": (per_op("model.infer", "kind=small.rows"),
                                   "count/op"),
        "model.infer_rows.reference": (
            per_op("model.infer", "kind=reference.rows"), "count/op"),
        "store.get_self_s": (per_op("store.get", "self"), "s/op"),
        "store.hit_ratio": (ratio(get("store.get", "hits"),
                                  get("store.get", "n")), "ratio"),
        "store.extend_s": (per_op("store.extend", "time"), "s/op"),
        "transforms.apply_s": (per_op("transforms.apply", "time"), "s/op"),
        "transforms.rows": (per_op("transforms.apply", "rows"), "count/op"),
        "results.build_s": (per_op("results.build", "time"), "s/op"),
        "admission.queue_wait_s": (per_op("admission.queue_wait", "time"),
                                   "s/op"),
        "admission.rejected": (get("admission.rejected", "n"), "count"),
        "session.handle_self_s": (per_op("session.handle", "self"), "s/op"),
        "protocol.encode_s": (per_op("protocol.encode", "time"), "s/op"),
        "protocol.decode_s": (per_op("protocol.decode", "time"), "s/op"),
        "protocol.bytes_out": (per_op("protocol.encode", "bytes"), "B/op"),
        "wire.roundtrip_s": (per_op("wire.roundtrip", "time"), "s/op"),
        "wire.other_s": ((get("wire.roundtrip", "time")
                          - get("session.handle", "time")) / ops, "s/op"),
        "executor.ingest_self_s": (per_op("executor.ingest", "self"),
                                   "s/op"),
        "wal.append_self_s": (per_op("wal.append", "self"), "s/op"),
        "wal.records": (per_op("wal.append", "n"), "count/op"),
        "wal.bytes_written": (phase_b.extra.get("wal_bytes", 0) / ops,
                              "B/op"),
        "wal.fsyncs": (per_op("wal.fsync", "n"), "count/op"),
        "wal.fsync_s": (per_op("wal.fsync", "time"), "s/op"),
        "wal.fsyncs_per_record": (ratio(get("wal.fsync", "n"),
                                        get("wal.append", "n")), "ratio"),
        "wal.disk_bytes_per_frame_byte": (ratio(
            sum(phase.extra.get("wal_bytes", 0) for phase in phases),
            frame_bytes), "ratio"),
        "retention.retain_s": (per_op("retention.retain", "time"), "s/op"),
        "retention.rows_dropped": (per_op("retention.retain", "rows"),
                                   "count/op"),
        "persistence.load_self_s": (
            rec_layers.get("persistence.load", {}).get("self", 0.0),
            "s/load"),
        "wal.replay_s": (rec_layers.get("wal.replay", {}).get("self", 0.0),
                         "s/load"),
        "persistence.recover_s": (
            statistics.median(recovery["loads"]) if recovery else 0.0, "s"),
        "unattributed_s": (roots["self"] / ops, "s/op"),
        "trace.coverage": (1.0 - ratio(roots["self"], roots["time"]),
                           "ratio"),
        "trace.overhead_ratio": (ratio(phase_b.wall_s, phase_a.wall_s),
                                 "ratio"),
        "trace.orphan_s": (summary["orphan_s"], "s"),
        "trace.ops": (ops, "count"),
        "registry.disagreements": (len(findings), "count"),
        "failed_ratio": (failed_ratio, "ratio"),
    }


def _result(failures: list, attempted: int, metrics: dict) -> dict:
    failed = len(failures)
    return {"correct": failed == 0,
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run(args, spec: dict, pool_dir: Path, run_dir: Path) -> dict:
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](spec, pool_dir, args.seed, run_dir)
    ingest = args.workload == "ingest"
    repeats = 1 if args.trace else spec["common"]["setup_repeats"]
    setups, state = [], None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
        started = perf_counter()
        state = workload.setup()
        setups.append(perf_counter() - started)
    try:
        if not args.trace:
            phase = workload.run(state,
                                 deadline=perf_counter() + args.seconds)
            phases = [phase]
        else:
            phase_a = workload.run(
                state, deadline=perf_counter() + args.seconds / 2)
            before = _counters(state["db"])
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                phase_b = workload.run(state, cycles=phase_a.cycles,
                                       tracer=tracer)
            finally:
                tracer.uninstall()
            after = _counters(state["db"])
            phases = [phase_a, phase_b]
        failures = [f for phase in phases for f in phase.failures]
        attempted = sum(phase.attempted for phase in phases)
        check_failures, digest = workload.check(state, phases)
        failures += check_failures
        recovery = None
        if ingest:
            def traced_load():
                load_tracer = tracing.Tracer()
                tracing.install(load_tracer)
                return load_tracer
            recovery = workload.recover(
                state, loads=3 if args.trace else 1,
                tracer_factory=traced_load if args.trace else None)
            failures += recovery["failures"]
        ops = sum(len(phase.op_latencies) for phase in phases)
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"ops={ops} cycles={[p.cycles for p in phases]} "
              f"digest={digest}", flush=True)
        for failure in failures[:20]:
            print(f"perfbench: FAILED {failure}", flush=True)
        if not args.trace:
            return _result(failures, attempted, end_to_end(phase, setups))
        summary = tracing.summarize(tracer.spans)
        if recovery is not None:
            recovery["summary"] = tracing.summarize(recovery["tracer"].spans)
        findings = cross_check(summary["layers"], before, after)
        for finding in findings:
            print(f"perfbench: registry disagreement: {finding}", flush=True)
        failed_ratio = len(failures) / max(1, attempted)
        return _result(failures, attempted,
                       per_layer(summary, phase_a, phase_b, findings,
                                 recovery, failed_ratio))
    finally:
        workload.teardown(state)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("adhoc", "scan", "dashboard", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program source under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import pool

    spec = pool.load_spec()
    pool_dir = pool.ensure_pool(spec["pool"])
    runs = pool.BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=runs))
    try:
        result = run(args, spec, pool_dir, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
