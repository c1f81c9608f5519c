"""Serving-stack benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit_stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first measures untraced throughput, then wraps each layer's
public entry points (see ``layers.py``) and reports the per-layer
metrics and the tracing overhead.  Every result carries an environment
stamp; ``--out FILE`` saves the full record for ``stamp.py`` to compare.
The last line of standard output is the JSON result; the exit code is 1
when any output check failed.

Before numpy is imported it pins BLAS to one thread, sets the
shard count to the usable cores (at most 2) and points the kernel build
cache into ``.bench_build/`` of the checkout, then builds the kernel
once before any set-up is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from stamp import PINNED_ENV, environment_stamp, usable_cores

ROOT = Path(__file__).resolve().parent.parent
SHARDS = min(usable_cores(), 2)


def _pin_environment() -> dict:
    settings = dict(PINNED_ENV)
    settings["REPRO_SERVING_SHARDS"] = str(SHARDS)
    settings["REPRO_KERNELS_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
    os.environ.update(settings)
    return settings


def _report(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        samples = f"  (n={entry[2]})" if len(entry) > 2 else ""
        print(f"  {name:40s} {value:14.4f} {unit}{samples}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)

    settings = _pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro.kernels import get_backend

    import layers
    import loop
    from workloads import SPECS, make_script

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    get_backend()  # builds the C kernel once, outside every timed region
    stamp = environment_stamp(SHARDS)
    script = make_script(SPECS[args.workload], args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops/rep={len(script.ops)} window={script.spec.window} "
          f"digest={script.digest()[:16]}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("settings: " + json.dumps(settings, sort_keys=True))

    started = time.perf_counter()
    reps = loop.measure(script, args.seconds)
    if args.trace:
        attempted, failed = loop.verdicts(script, reps)
        trace = layers.LayerTrace()
        trace.install()
        try:
            traced = loop.measure(script, args.seconds, hooks=trace,
                                  warmup=False)
        finally:
            trace.uninstall()
        metrics = trace.summarize(traced, loop.throughput(reps))
        more_attempted, more_failed = loop.verdicts(script, traced)
        attempted += more_attempted
        failed += more_failed
        _report(f"per-layer metrics ({len(traced)} traced reps of "
                f"{len(script.ops)} ops)", metrics)
        for line in layers.decomposition(metrics):
            print(line)
    else:
        summary = loop.summarize(script, reps)
        metrics = summary["metrics"]
        attempted, failed = summary["attempted"], summary["failed"]
        _report(f"end-to-end metrics (medians over {summary['reps']} reps "
                f"of {len(script.ops)} ops)", metrics)
    print(f"wall {time.perf_counter() - started:.1f} s")

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry[0], "unit": entry[1]}
                    for name, entry in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, stamp=stamp, settings=settings,
                      digest=script.digest(),
                      samples={name: entry[2] for name, entry in metrics.items()
                               if len(entry) > 2})
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
