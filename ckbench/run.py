"""Run one workload of the benchmark and print its report.

    python3 ckbench/run.py --workload analyze-5k --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are the human report: every metric with its
median, quartiles, highest percentile with ten samples beyond it and
sample count, the host-speed control, the environment stamp, input
generation and reference-solve times, and known defects.

A traced run alternates untraced and traced cycles in one process;
the per-layer numbers come from the traced ones, ``trace.overhead_frac``
from comparing the two, and the spans are written as a Chrome trace to
``ckbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Carries preparation times across the re-exec that follows it.
PREPARED_ENV = "CKBENCH_PREPARED"

# Every workload reports every one of these (see the workloads' ``metrics``
# for which operation is its cold and which its warm one).
END_TO_END_UNITS = {
    "cold_ms": "ms",
    "warm_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> unit; "self_ms" is self time (span minus child spans) per cycle.
PER_LAYER_UNITS = {
    "lang.lexer.self_ms": "ms",
    "lang.parser.self_ms": "ms",
    "lang.semantic.self_ms": "ms",
    "lang.tokens": "count",
    "core.arena.build.self_ms": "ms",
    "core.arena.patch.self_ms": "ms",
    "core.aliases.compute.self_ms": "ms",
    "core.aliases.factor.self_ms": "ms",
    "core.aliases.pairs": "count",
    "core.rmod.self_ms": "ms",
    "core.imod_plus.self_ms": "ms",
    "core.gmod.self_ms": "ms",
    "core.dmod.self_ms": "ms",
    "core.bitplane.self_ms": "ms",
    "core.pipeline.payload.self_ms": "ms",
    "core.persist.encode.self_ms": "ms",
    "service.cache.put.self_ms": "ms",
    "core.persist.decode.self_ms": "ms",
    "service.cache.get.self_ms": "ms",
    "core.persist.record_bytes": "bytes",
    "service.cache.hit_ratio": "ratio",
    "service.batch.ipc_bytes": "bytes",
    "service.batch.pool_efficiency": "ratio",
    "core.incremental.update.self_ms": "ms",
    "core.incremental.region_procs": "count",
    "core.incremental.reuse_fraction": "ratio",
    "core.depindex.build.self_ms": "ms",
    "server.protocol.encode.self_ms": "ms",
    "server.client.decode.self_ms": "ms",
    "server.protocol.response_bytes": "bytes",
    "server.wait_ms": "ms",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Harness:
    """Times operations, checks them, and keeps the samples."""

    def __init__(self, args):
        from ckbench.inputs import CACHE_DIR, FULL, TINY

        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.sizes = TINY if args.tiny else FULL
        self.corrupt = args.corrupt_reference
        self.run_dir = os.path.join(CACHE_DIR, "run-%d" % os.getpid())
        os.makedirs(self.run_dir, exist_ok=True)
        # Host-scaled ms per op kind (the reported figures), and raw wall ms.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.warmup_ms: List[float] = []  # Host-scaled, for setup_s.
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.spins: List[float] = []
        self.generation_s = 0.0  # Recorded cost of generating the inputs.
        self.generation_now_s = 0.0  # Spent generating in this run.
        self.reference_s = 0.0
        self.setup_s: Optional[float] = None
        self.extra: Dict = {}
        self.cycles: List[Dict] = []
        self._ops: Optional[List] = None
        self.tracer = None
        if self.trace:
            from ckbench.tracing import Tracer

            self.tracer = Tracer(os.path.join(self.run_dir, "spool"))
            os.makedirs(self.tracer.spool, exist_ok=True)

    def note_generation(self, meta: Dict) -> None:
        self.generation_s += meta["generation_s"]
        if meta.get("fresh"):
            self.generation_now_s += meta["generation_s"]

    def record_check(self, what: str, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self._fail(what, reason)

    def _fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append("%s: %s" % (what, reason[:300]))

    def op(
        self,
        metric: str,
        action: Callable,
        check: Callable,
        warmup: bool = False,
        seconds: Optional[Callable] = None,
    ):
        """Time one operation; return its result, or None when it raised
        or its output failed the check (then it counts as failed and
        leaves no sample).  The sample is the op's time -- its wall time,
        or ``seconds(result)`` when the action times itself -- scaled by
        the host-speed probes read just before and just after it."""
        from ckbench.measure import host_factor, spin_ms

        gc.collect()  # A CLI user starts every run with a fresh heap.
        before = spin_ms()
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = action()
        except Exception as error:  # A failed op is data, not a crash.
            self._fail(metric, "%s: %s" % (type(error).__name__, error))
            return None
        ended = time.perf_counter()
        after = spin_ms()
        self.spins += [before, after]
        try:
            reason = check(result)
        except Exception as error:
            reason = "check raised %s: %s" % (type(error).__name__, error)
        if reason is not None:
            self._fail(metric, reason)
            return None
        factor = host_factor(before, after)
        elapsed = ended - started if seconds is None else seconds(result)
        wall_ms = elapsed * 1000.0
        if warmup:
            self.warmup_ms.append(wall_ms * factor)
            return result
        self.samples[metric].append(wall_ms * factor)
        self.raw[metric].append(wall_ms)
        if self._ops is not None:
            self._ops.append((metric, started, ended, factor))
        return result

    def measure(self, workload) -> None:
        """Cycles for ``seconds``; traced runs alternate untraced and
        traced cycles and run at least one of each.  A cycle starts only
        if it is expected to end less than half a cycle past the
        deadline, so a run's length stays near ``seconds``."""
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            started = time.perf_counter()
            traced = self.trace and index % 2 == 1
            self._ops = []
            if traced:
                self.tracer.install()
            try:
                workload.cycle(self)
            finally:
                if traced:
                    self.tracer.uninstall()
                    self.tracer.collect_workers()
            self.cycles.append({"traced": traced, "ops": self._ops})
            self._ops = None
            index += 1
            now = time.perf_counter()
            if now + (now - started) / 2 >= deadline and (not self.trace or index >= 2):
                break

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def per_layer_metrics(harness: Harness, workload_name: str) -> Dict[str, float]:
    """Per-layer numbers from the traced cycles (see PER_LAYER_UNITS)."""
    from ckbench.tracing import covered, self_times

    spans = harness.tracer.recorder.spans
    own = self_times(spans)
    traced = [c for c in harness.cycles if c["traced"]]
    untraced = [c for c in harness.cycles if not c["traced"]]
    cycles = max(1, len(traced))
    self_ms: Dict[str, float] = defaultdict(float)
    counts: Dict[str, list] = defaultdict(list)
    for span, seconds in zip(spans, own):
        self_ms[span.name] += seconds * 1000.0
        if span.count is not None:
            counts[span.name].append(span.count)

    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_ms"):
            metrics[name] = self_ms.get(name[: -len(".self_ms")], 0.0) / cycles
    metrics["lang.tokens"] = sum(counts["lang.lexer"]) / cycles
    metrics["core.aliases.pairs"] = sum(counts["core.aliases.compute"]) / cycles
    metrics["core.persist.record_bytes"] = sum(counts["core.persist.decode"]) / cycles
    gets = counts["service.cache.get"]
    metrics["service.cache.hit_ratio"] = sum(gets) / len(gets) if gets else 0.0
    metrics["service.batch.ipc_bytes"] = sum(counts["service.batch.task"]) / cycles
    updates = counts["core.incremental.update"]
    if updates:
        metrics["core.incremental.region_procs"] = statistics.mean(u[0] for u in updates)
        metrics["core.incremental.reuse_fraction"] = statistics.mean(u[1] for u in updates)
    metrics["server.protocol.response_bytes"] = sum(counts["server.client.decode"]) / cycles

    layer_intervals = [
        (span.start, span.end) for span in spans if span.name != "service.batch.task"
    ]
    op_total = covered_total = wait_total = 0.0
    for cycle in traced:
        for metric, start, end, _ in cycle["ops"]:
            inside = covered(layer_intervals, start, end)
            op_total += end - start
            covered_total += inside
            if workload_name == "ide-session":
                wait_total += (end - start) - inside
    metrics["trace.coverage_frac"] = covered_total / op_total if op_total else 0.0
    metrics["server.wait_ms"] = wait_total * 1000.0 / cycles

    if workload_name == "batch-corpus":
        task_s = sum(s.end - s.start for s in spans if s.name == "service.batch.task")
        cold_s = sum(
            end - start
            for cycle in traced
            for metric, start, end, _ in cycle["ops"]
            if metric == "cold_ms"
        )
        from ckbench.measure import pool_width

        if cold_s:
            metrics["service.batch.pool_efficiency"] = task_s / (cold_s * pool_width())

    def op_time(cycle):
        return sum((end - start) * factor for _, start, end, factor in cycle["ops"])

    complete = lambda cs: [op_time(c) for c in cs if c["ops"]]  # noqa: E731
    if complete(traced) and complete(untraced):
        base = statistics.median(complete(untraced))
        metrics["trace.overhead_frac"] = statistics.median(complete(traced)) / base - 1.0
    return metrics


def waterfall(harness: Harness) -> Dict[str, Dict[str, float]]:
    """Self ms per op kind and layer, over the traced cycles."""
    from ckbench.tracing import self_times

    spans = harness.tracer.recorder.spans
    own = self_times(spans)
    ops = [op for cycle in harness.cycles if cycle["traced"] for op in cycle["ops"]]
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    per_kind: Dict[str, int] = defaultdict(int)
    for metric, _, _, _ in ops:
        per_kind[metric] += 1
    for span, seconds in zip(spans, own):
        for metric, start, end, _ in ops:
            if start <= span.start < end:
                table[metric][span.name] += seconds * 1000.0 / per_kind[metric]
                break
    return {
        metric: dict(sorted(rows.items(), key=lambda item: -item[1]))
        for metric, rows in table.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-long input sizes (tests)"
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="replace the reference digests (tests: every op must fail)",
    )
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the daemon and pool still stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print("ckbench: no program sources at %s" % SRC_DIR, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)

    from ckbench import measure
    from ckbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; expected one of %s" % (args.workload, sorted(WORKLOADS)))
    run_started = time.perf_counter()
    harness = Harness(args)
    workload = WORKLOADS[args.workload]()
    prepared = os.environ.pop(PREPARED_ENV, None)
    try:
        started = time.perf_counter()
        workload.prepare(harness)
        prepare_s = time.perf_counter() - started
        if prepared is None and (harness.generation_now_s or harness.reference_s):
            # Generating and solving references leave this heap larger
            # than the measured ops would; start afresh from the cache
            # so peak memory and heap state match every later run.
            harness.close()
            os.environ[PREPARED_ENV] = json.dumps(
                {
                    "generation_now_s": harness.generation_now_s,
                    "reference_s": harness.reference_s,
                }
            )
            sys.stdout.flush()
            forwarded = sys.argv[1:] if argv is None else list(argv)
            os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + forwarded)
        if prepared is not None:
            for key, value in json.loads(prepared).items():
                setattr(harness, key, getattr(harness, key) + value)

        try:
            workload.setup(harness)
            # Long-lived inputs and references leave the collector's
            # view, so the per-op collection sees what a fresh CLI heap
            # would; peak memory restarts after preparation.
            gc.collect()
            gc.freeze()
            rss_reset = measure.reset_peak_rss()
            harness.measure(workload)
        finally:
            workload.close(harness)
        peak_rss = measure.peak_rss_mb()
    finally:
        harness.close()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "sizes": dataclasses.asdict(harness.sizes),
        "env": measure.env_stamp(workload.plan()),
        "host.spin_ms": measure.summarize(harness.spins),
        "generation_s": harness.generation_s,
        "generation_now_s": harness.generation_now_s,
        "reference_s": harness.reference_s,
        "prepare_s": prepare_s,
        "peak_rss_reset": rss_reset,
        "cycles": len(harness.cycles),
        "failures": harness.failures,
        "wall_s": time.perf_counter() - run_started,
    }
    report.update(harness.extra)
    for name in sorted(harness.samples):
        report[name] = measure.summarize(harness.samples[name])
        report[name + ".raw"] = measure.summarize(harness.raw[name])
    values: Dict[str, float] = {}
    if args.trace:
        values = per_layer_metrics(harness, args.workload)
        units = PER_LAYER_UNITS
        report["waterfall_ms_per_op"] = waterfall(harness)
        trace_path = os.path.join(
            BENCH_DIR, "out", "trace-%s-seed%d.json" % (args.workload, args.seed)
        )
        from ckbench.tracing import write_chrome_trace

        write_chrome_trace(trace_path, harness.tracer.recorder.spans, run_started)
        report["chrome_trace"] = os.path.relpath(trace_path, REPO_ROOT)
    else:
        units = END_TO_END_UNITS
        for name, samples in workload.metrics.items():
            if harness.samples[samples]:
                values[name] = statistics.median(harness.samples[samples])
        values["setup_s"] = harness.setup_s
        values["peak_rss_mb"] = peak_rss
    for name in sorted(report):
        print("%s: %s" % (name, json.dumps(report[name], sort_keys=True)))
    print(
        "failed/attempted: %d/%d" % (harness.failed, harness.attempted)
    )
    correct = harness.failed == 0 and all(name in values for name in units)
    result = {
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if values.get(name) is not None
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
