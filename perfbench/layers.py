"""The traced run: each layer's public entry points timed from outside.

:class:`LayerClock` replaces a layer's entry point (a method on a public
class, or a module-level function) with a timing wrapper for the
duration of a traced run and puts the original back afterwards; nothing
under ``src/`` changes.  Each thread keeps its own stack of open layer
calls, so a layer's *self* time is its inclusive time minus the time
spent in the wrapped layers it called (``plan.decide`` minus the audit
and compile calls inside it, ``pir.retrieve`` minus the GF(2) kernel).
A call into the layer that is already on top of the stack (the
recursive ``predicate_mask``) is not timed twice.

Counts come from the program's public counters, read at the end of each
repetition: ``runtime.stats()``, each shard engine's cache and refusal
counters, the shared audit history, the tracer's ``spans_started`` and
the observatory's event bus.  The one exception is the sum audit's rank,
which only the policy's ``_rank`` attribute exposes.

:data:`PER_LAYER` lists every metric with its unit; ``*_per_op`` values
divide by every op of the run, so the self times of one op add up.
"""

from __future__ import annotations

import functools
import gc
import statistics
import threading
import time
from collections import defaultdict

import loop
from repro.kernels import get_backend
from repro.plan import QueryPlanner
from repro.plan import executor as plan_executor
from repro.pir.itpir import TwoServerXorPIR
from repro.qdb.engine import StatisticalDatabase, SumAuditPolicy
from repro.serving import CrossShardAuditView, ServingRuntime
from repro.telemetry import requesttrace
from repro.telemetry.observatory import Observatory

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "serving.submit_ms_per_op": "ms",
    "serving.queue_ms_per_op": "ms",
    "serving.batch_queries_mean": "count",
    "serving.shard_ops_max_over_mean": "ratio",
    "serving.overload_refusals": "count",
    "qdb.ask_batch_ms_per_query": "ms",
    "qdb.mask_ms_per_op": "ms",
    "qdb.mask_cache_hit_ratio": "ratio",
    "qdb.audit_review_ms_per_op": "ms",
    "qdb.audit_commit_ms_per_op": "ms",
    "qdb.audit_rank": "count",
    "qdb.history_rows": "count",
    "qdb.refused_ratio": "ratio",
    "plan.decide_ms_per_op": "ms",
    "plan.compile_ms_per_op": "ms",
    "plan.cache_hit_ratio": "ratio",
    "pir.retrieve_ms_per_op": "ms",
    "pir.blocks_per_op": "count",
    "pir.bytes_scanned_per_op": "bytes",
    "kernels.gf2_matmul_ms_per_op": "ms",
    "kernels.gf2_matmul_calls_per_op": "count",
    "kernels.gf2_matmul_gbps": "GB/s",
    "telemetry.spans_per_op": "count",
    "telemetry.observatory_ms_per_op": "ms",
    "telemetry.events_per_op": "count",
    "process.gc_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"requesttrace.{stage}_p50_ms": "ms"
       for stage in requesttrace.TRACE_STAGES},
}


class LayerClock:
    """Per-thread, nesting-aware timers around wrapped layer entry points."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stats(self) -> dict:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = {"stack": [], "total": defaultdict(float),
                     "self": defaultdict(float)}
            self._local.stats = stats
            with self._lock:
                self._threads.append(stats)
        return stats

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Time every call of ``owner.attr`` as *layer*.

        ``after(args, kwargs, seconds)`` runs once per timed call, on the
        calling thread, for counts that depend on the arguments.
        """
        original = getattr(owner, attr)
        clock = self
        perf = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stats = clock._stats()
            stack = stats["stack"]
            if stack and stack[-1][0] == layer:
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                seconds = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                stats["total"][layer] += seconds
                stats["self"][layer] += seconds - frame[1]
                if after is not None:
                    after(args, kwargs, seconds)

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def totals(self, kind: str) -> dict[str, float]:
        """Inclusive (``"total"``) or self (``"self"``) seconds per layer."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for stats in self._threads:
                for layer, value in stats[kind].items():
                    out[layer] += value
        return out


class LayerTrace:
    """The hooks :func:`loop.run_rep` calls, plus the per-layer summary."""

    def __init__(self):
        self.clock = LayerClock()
        self._engine: list[float] = []
        self._op_of_query: dict[int, int] = {}
        self._op_of_seed: dict[int, int] = {}
        self._records: list[dict] = []
        self.engine_by_rep: list[list[float]] = []
        self.counters_by_rep: list[dict] = []
        self.stages: dict[str, list[float]] = defaultdict(list)
        self.batches = 0
        self.batch_queries = 0
        self.pir_blocks = 0
        self.kernel_calls = 0
        self.kernel_db_bytes = 0
        self.kernel_computed_bytes = 0
        self.gc_s = 0.0
        self._gc_start = 0.0
        # The after-call hooks run on every shard worker thread.
        self._lock = threading.Lock()

    # -- wrappers ----------------------------------------------------------

    def _after_ask_batch(self, args, kwargs, seconds):
        queries = args[1]
        with self._lock:
            self.batches += 1
            self.batch_queries += len(queries)
            for query in queries:
                index = self._op_of_query.get(id(query))
                if index is not None:
                    self._engine[index] = seconds

    def _after_pir(self, args, kwargs, seconds):
        index = self._op_of_seed.get(kwargs.get("rng"))
        with self._lock:
            self.pir_blocks += len(args[1])
            if index is not None:
                # Scatter/gather: the op waits for its slowest shard.
                self._engine[index] = max(self._engine[index], seconds)

    def _after_kernel(self, args, kwargs, seconds):
        masks, db_words = args[1], args[2]
        with self._lock:
            self.kernel_calls += 1
            self.kernel_db_bytes += db_words.nbytes
            self.kernel_computed_bytes += masks.shape[0] * db_words.nbytes

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def install(self) -> None:
        wrap = self.clock.wrap
        wrap(ServingRuntime, "submit", "serving.submit")
        wrap(ServingRuntime, "submit_pir", "serving.submit")
        wrap(StatisticalDatabase, "ask_batch", "qdb.ask_batch",
             after=self._after_ask_batch)
        wrap(StatisticalDatabase, "predicate_mask", "qdb.mask")
        wrap(CrossShardAuditView, "review", "qdb.audit_review")
        wrap(CrossShardAuditView, "commit", "qdb.audit_commit")
        wrap(QueryPlanner, "decide", "plan.decide")
        wrap(plan_executor, "compile_query", "plan.compile")
        wrap(plan_executor, "optimize", "plan.compile")
        wrap(TwoServerXorPIR, "retrieve_batch_int", "pir.retrieve",
             after=self._after_pir)
        wrap(type(get_backend()), "gf2_matmul", "kernels.gf2_matmul",
             after=self._after_kernel)
        wrap(Observatory, "process_record", "telemetry.observatory")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        self.clock.restore()
        gc.callbacks.remove(self._on_gc)

    # -- loop hooks --------------------------------------------------------

    def begin_rep(self, script, dep) -> None:
        self._engine = [0.0] * len(script.ops)
        self._op_of_query = {id(op.payload): i for i, op in
                             enumerate(script.ops) if op.kind == "qdb"}
        self._op_of_seed = {op.seed: i for i, op in
                            enumerate(script.ops) if op.kind == "pir"}
        self._records = []
        if dep.tracer is not None:
            dep.tracer.add_subscriber(self._records.append)

    def end_rep(self, script, dep) -> None:
        runtime = dep.runtime
        # Workers emit a request's span after resolving its future.
        runtime.drain()
        if dep.tracer is not None:
            dep.tracer.remove_subscriber(self._records.append)
            for record in requesttrace.request_records(self._records):
                attrs = record["attrs"]
                for stage in requesttrace.TRACE_STAGES:
                    value = attrs.get(f"stage_{stage}_seconds")
                    if value is not None:
                        self.stages[stage].append(value)
            self._records = []
        stats = runtime.stats()
        dbs = [shard.db for shard in runtime.shards]
        rank = 0
        if runtime.view is not None:
            for policy in runtime.view.policies:
                if isinstance(policy, SumAuditPolicy):
                    rank = policy._rank
        counters = {
            "shard_ops": [s["processed"] + s["pir_positions"]
                          for s in stats["shards"]],
            "overload_refusals": stats["overload_refusals"],
            "mask_hits": sum(db.mask_cache_hits for db in dbs),
            "mask_misses": sum(db.mask_cache_misses for db in dbs),
            "plan_hits": sum(db.plan_cache_hits for db in dbs),
            "plan_misses": sum(db.plan_cache_misses for db in dbs),
            "asked": sum(db.queries_asked for db in dbs),
            "refused": sum(db.queries_refused for db in dbs),
            "audit_rank": rank,
            "history_rows": (len(runtime.view.history)
                             if runtime.view is not None else 0),
            "spans": dep.tracer.spans_started if dep.tracer else 0,
            "events": dep.service.bus.seq if dep.service else 0,
        }
        self.engine_by_rep.append(self._engine)
        self.counters_by_rep.append(counters)

    # -- summary -----------------------------------------------------------

    def summarize(self, reps, untraced_ops_per_s: float) -> dict:
        """Every :data:`PER_LAYER` metric as ``(value, unit)``."""
        ops = sum(len(rep.outputs) for rep in reps)
        total = self.clock.totals("total")
        own = self.clock.totals("self")
        queue = sum(
            max(0.0, latency - engine)
            for rep, engines in zip(reps, self.engine_by_rep)
            for latency, engine in zip(rep.latencies_s, engines)
        )

        def summed(key):
            return sum(c[key] for c in self.counters_by_rep)

        def ratio(num, den):
            return num / den if den else 0.0

        last = self.counters_by_rep[-1]
        shard_ops = [sum(c["shard_ops"][i] for c in self.counters_by_rep)
                     for i in range(len(last["shard_ops"]))]
        ms = 1e3 / ops
        values = {
            "serving.submit_ms_per_op": total["serving.submit"] * ms,
            "serving.queue_ms_per_op": queue * ms,
            "serving.batch_queries_mean": ratio(self.batch_queries, self.batches),
            "serving.shard_ops_max_over_mean": ratio(
                max(shard_ops), statistics.fmean(shard_ops)),
            "serving.overload_refusals": summed("overload_refusals"),
            "qdb.ask_batch_ms_per_query": ratio(
                total["qdb.ask_batch"] * 1e3, self.batch_queries),
            "qdb.mask_ms_per_op": total["qdb.mask"] * ms,
            "qdb.mask_cache_hit_ratio": ratio(
                summed("mask_hits"),
                summed("mask_hits") + summed("mask_misses")),
            "qdb.audit_review_ms_per_op": total["qdb.audit_review"] * ms,
            "qdb.audit_commit_ms_per_op": total["qdb.audit_commit"] * ms,
            "qdb.audit_rank": last["audit_rank"],
            "qdb.history_rows": last["history_rows"],
            "qdb.refused_ratio": ratio(summed("refused"), summed("asked")),
            "plan.decide_ms_per_op": own["plan.decide"] * ms,
            "plan.compile_ms_per_op": total["plan.compile"] * ms,
            "plan.cache_hit_ratio": ratio(
                summed("plan_hits"),
                summed("plan_hits") + summed("plan_misses")),
            "pir.retrieve_ms_per_op": own["pir.retrieve"] * ms,
            "pir.blocks_per_op": self.pir_blocks / ops,
            "pir.bytes_scanned_per_op": self.kernel_db_bytes / ops,
            "kernels.gf2_matmul_ms_per_op": total["kernels.gf2_matmul"] * ms,
            "kernels.gf2_matmul_calls_per_op": self.kernel_calls / ops,
            "kernels.gf2_matmul_gbps": ratio(
                self.kernel_computed_bytes / 1e9, total["kernels.gf2_matmul"]),
            "telemetry.spans_per_op": summed("spans") / ops,
            "telemetry.observatory_ms_per_op": total["telemetry.observatory"] * ms,
            "telemetry.events_per_op": summed("events") / ops,
            "process.gc_ms_per_op": self.gc_s * ms,
            "trace.overhead_ratio": ratio(untraced_ops_per_s,
                                          loop.throughput(reps)),
        }
        for stage in requesttrace.TRACE_STAGES:
            samples = self.stages.get(stage)
            values[f"requesttrace.{stage}_p50_ms"] = (
                statistics.median(samples) * 1e3 if samples else 0.0)
        return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def decomposition(metrics: dict) -> list[str]:
    """The program's stage medians beside the outside-in layer figures.

    The program splits a request at queue and lock boundaries, the
    wrappers at layer calls, so the pairs below should agree in size,
    not to the digit: the stages are medians of single requests, the
    layer figures are means per op.  Empty when no request was traced.
    """
    def stage(name):
        return metrics[f"requesttrace.{name}_p50_ms"][0]

    if not any(stage(name) for name in requesttrace.TRACE_STAGES):
        return []
    waiting = sum(stage(name) for name in
                  ("queue_wait", "batch_assembly", "audit", "gather",
                   "serialize"))
    engine = (metrics["qdb.ask_batch_ms_per_query"][0],
              metrics["pir.retrieve_ms_per_op"][0]
              + metrics["kernels.gf2_matmul_ms_per_op"][0])
    return [
        "decomposition check (program stage p50 | outside, per op)",
        f"  admission      {stage('admission'):9.4f} ms | "
        f"serving.submit {metrics['serving.submit_ms_per_op'][0]:9.4f} ms",
        f"  waiting stages {waiting:9.4f} ms | "
        f"serving.queue  {metrics['serving.queue_ms_per_op'][0]:9.4f} ms",
        f"  kernel         {stage('kernel'):9.4f} ms | "
        f"qdb.ask_batch per query {engine[0]:.4f} ms, "
        f"pir+kernels per op of the run {engine[1]:.4f} ms",
    ]
