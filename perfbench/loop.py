"""The closed loop: one driver thread, a fixed window of outstanding ops.

:func:`run_ops` submits a script through the public
:class:`~repro.serving.ServingRuntime` API and never has more than
``window`` requests in flight; the next op is submitted as soon as any
outstanding one completes.  Ops marked ``sync`` run alone (the window
drains before and after them), which keeps an injected tracker's
padding/tracker probes adjacent in the decision order.

:func:`measure` repeats the whole script on a fresh deployment until
the time budget is spent, so audit state follows the same path in every
repetition and the metrics do not drift with history growth.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass

from workloads import Deployment, Script, check_outputs

#: Lower bounds on one measured run.  Every script has at least 1000
#: ops, so each repetition's p99 has at least ten samples beyond it.
MIN_REPS = 3
#: Set-ups timed per run (extra set-up-only cycles top up the reps).
SETUP_SAMPLES = 15
#: Ops replayed untimed on a throw-away deployment before timing, so
#: lazy imports and first-call costs stay out of every metric.
WARMUP_OPS = 32


@dataclass
class Rep:
    """One repetition's raw measurements."""

    setup_s: float
    elapsed_s: float
    cpu_s: float
    latencies_s: list[float]
    outputs: list
    alerts: set[str]


def run_ops(dep, ops, window: int) -> tuple[list, list, list]:
    """Drive *ops* through ``dep.runtime``; returns submit/done times, outputs."""
    runtime = dep.runtime
    n = len(ops)
    t_submit = [0.0] * n
    t_done = [0.0] * n
    futures = [None] * n
    permits = threading.Semaphore(window)
    perf = time.perf_counter

    def drain():
        for _ in range(window):
            permits.acquire()
        for _ in range(window):
            permits.release()

    for index, op in enumerate(ops):
        if op.sync:
            drain()
        permits.acquire()

        def done(_future, index=index):
            t_done[index] = perf()
            permits.release()

        session = dep.session(op.session)
        t_submit[index] = perf()
        if op.kind == "qdb":
            future = runtime.submit(session, op.payload)
        else:
            future = runtime.submit_pir(session, op.payload, seed=op.seed)
        futures[index] = future
        future.add_done_callback(done)
        if op.sync:
            drain()
    drain()
    outputs = []
    for future in futures:
        try:
            outputs.append(future.result())
        except Exception as exc:  # a failed op is counted, never raised
            outputs.append(exc)
    return t_submit, t_done, outputs


def run_rep(script: Script, ops=None, hooks=None) -> Rep:
    """Set up a fresh deployment, run the script once, tear down."""
    gc.collect()
    t0 = time.perf_counter()
    dep = Deployment(script)
    setup_s = time.perf_counter() - t0
    try:
        gc.collect()
        ops = script.ops if ops is None else ops
        if hooks is not None:
            hooks.begin_rep(script, dep)
        cpu0 = time.process_time()
        t_submit, t_done, outputs = run_ops(dep, ops, script.spec.window)
        cpu_s = time.process_time() - cpu0
        if hooks is not None:
            hooks.end_rep(script, dep)
        alerts = dep.alerts()
    finally:
        dep.close()
    return Rep(
        setup_s=setup_s,
        elapsed_s=max(t_done) - t_submit[0],
        cpu_s=cpu_s,
        latencies_s=[d - s for s, d in zip(t_submit, t_done)],
        outputs=outputs,
        alerts=alerts,
    )


def measure(script: Script, seconds: float, hooks=None,
            warmup: bool = True) -> list[Rep]:
    """Repeat the script until *seconds* have passed (and the minimums)."""
    if warmup:
        run_rep(script, ops=script.ops[:WARMUP_OPS])
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(run_rep(script, hooks=hooks))
    return reps


def extra_setups(script: Script, count: int) -> list[float]:
    """Time *count* more set-ups (each torn down untimed)."""
    samples = []
    for _ in range(count):
        gc.collect()
        t0 = time.perf_counter()
        dep = Deployment(script)
        samples.append(time.perf_counter() - t0)
        dep.close()
    return samples


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def throughput(reps: list[Rep]) -> float:
    """Median over repetitions of completed ops per second."""
    return statistics.median(len(rep.outputs) / rep.elapsed_s for rep in reps)


def verdicts(script: Script, reps: list[Rep]) -> tuple[int, int]:
    """``(attempted, failed)`` over every op of every repetition.

    The first failing op of each repetition is named on stderr.
    """
    attempted = failed = 0
    for number, rep in enumerate(reps):
        checks = check_outputs(script, rep.outputs, rep.alerts)
        attempted += len(checks)
        failed += checks.count(False)
        if not all(checks):
            index = checks.index(False)
            print(f"check failed: rep {number} op {index} "
                  f"{script.ops[index]!r} -> {rep.outputs[index]!r}",
                  file=sys.stderr)
    return attempted, failed


def summarize(script: Script, reps: list[Rep]) -> dict:
    """End-to-end metrics as ``(value, unit, samples)``, plus the verdicts.

    Every repetition replays the same ops, so each op's latency is its
    median over the repetitions, and the percentiles are taken over
    those per-op medians; throughput, CPU and set-up are medians of the
    repetitions' own figures.  A burst of host noise that hits one
    repetition, or a few ops of several, moves no metric by itself.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [rep.setup_s for rep in reps]
    setups += extra_setups(script, max(0, SETUP_SAMPLES - len(setups)))
    median = statistics.median
    per_op = sorted(median(latencies) * 1e3
                    for latencies in zip(*(rep.latencies_s for rep in reps)))
    cpu = [rep.cpu_s / len(rep.outputs) * 1e3 for rep in reps]
    ops, failed = verdicts(script, reps)
    metrics = {
        "ops_per_s": (throughput(reps), "1/s", ops),
        "latency_p50_ms": (_quantile(per_op, 0.50), "ms", ops),
        "latency_p99_ms": (_quantile(per_op, 0.99), "ms", ops),
        "cpu_ms_per_op": (median(cpu), "ms", ops),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "success_rate": ((ops - failed) / ops, "ratio", ops),
    }
    return {"metrics": metrics, "attempted": ops, "failed": failed,
            "reps": len(reps)}
