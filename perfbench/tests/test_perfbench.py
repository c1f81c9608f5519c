"""The benchmark's own tests: seeded scripts, exact counts, output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import loop  # noqa: E402
import stamp  # noqa: E402
from workloads import SPECS, check_outputs, make_script  # noqa: E402

from repro.serving import ServingRuntime  # noqa: E402

#: Small shapes of the real workloads, so a test runs in seconds.
SMALL = {
    "audit_stream": dataclasses.replace(
        SPECS["audit_stream"], records=1000, rep_ops=200),
    "pir_scan": dataclasses.replace(
        SPECS["pir_scan"], rep_ops=24, pir_blocks=4096),
    "serve_observed": dataclasses.replace(
        SPECS["serve_observed"], rep_ops=300),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_script_digest_depends_only_on_seed(name):
    spec = SMALL[name]
    first = make_script(spec, 7).digest()
    assert make_script(spec, 7).digest() == first
    assert make_script(spec, 8).digest() != first


def _traced_counts(spec, seed):
    script = make_script(spec, seed)
    trace = layers.LayerTrace()
    trace.install()
    try:
        reps = loop.measure(script, seconds=0, hooks=trace, warmup=False)
    finally:
        trace.uninstall()
    assert loop.verdicts(script, reps)[1] == 0
    metrics = trace.summarize(reps, loop.throughput(reps))
    keys = ("qdb.audit_rank", "qdb.history_rows", "qdb.mask_cache_hit_ratio",
            "plan.cache_hit_ratio", "qdb.refused_ratio",
            "pir.bytes_scanned_per_op", "pir.blocks_per_op",
            "kernels.gf2_matmul_calls_per_op")
    return {key: metrics[key][0] for key in keys}


@pytest.mark.parametrize("name", ["audit_stream", "pir_scan"])
def test_exact_counts_repeat_across_traced_runs(name):
    original = ServingRuntime.submit
    first = _traced_counts(SMALL[name], 3)
    second = _traced_counts(SMALL[name], 3)
    assert first == second
    assert ServingRuntime.submit is original  # wrappers removed
    if name == "audit_stream":
        assert first["qdb.audit_rank"] > 0
        assert 0 < first["qdb.refused_ratio"] < 1
    else:
        assert first["pir.bytes_scanned_per_op"] > 0


def _one_rep(name, seed=5):
    script = make_script(SMALL[name], seed)
    rep = loop.run_rep(script)
    assert all(check_outputs(script, rep.outputs, rep.alerts))
    return script, rep


def _first(outputs, predicate):
    return next(i for i, out in enumerate(outputs) if predicate(out))


def test_corrupted_answer_fails_the_reference_check():
    script, rep = _one_rep("audit_stream")
    outputs = list(rep.outputs)
    index = _first(outputs, lambda out: not out.refused)
    outputs[index] = dataclasses.replace(outputs[index],
                                         value=outputs[index].value + 1)
    verdicts = check_outputs(script, outputs, rep.alerts)
    assert verdicts.count(False) == 1 and not verdicts[index]


def test_answered_tracker_pair_fails_every_tracker_op():
    script, rep = _one_rep("serve_observed")
    outputs = list(rep.outputs)
    members = [i for i, op in enumerate(script.ops) if op.tracker == 0]
    for i in members:  # exact values: only the pair rule can object
        outputs[i] = dataclasses.replace(
            outputs[i], refused=False, reason=None,
            value=script.ops[i].payload.evaluate(script.population))
    verdicts = check_outputs(script, outputs, rep.alerts)
    assert not any(verdicts[i] for i in members)
    assert all(v for i, v in enumerate(verdicts) if i not in members)


def test_corrupted_pir_value_fails():
    script, rep = _one_rep("pir_scan")
    outputs = list(rep.outputs)
    outputs[3] = [outputs[3][0] ^ 1] + outputs[3][1:]
    assert check_outputs(script, outputs, rep.alerts).count(False) == 1


def test_missing_tracker_alert_fails_the_observed_cohort():
    script, rep = _one_rep("serve_observed")
    assert "tracker-probe" in rep.alerts
    verdicts = check_outputs(script, rep.outputs, set())
    cohort = [i for i, op in enumerate(script.ops) if op.tracker >= 0]
    assert cohort and not any(verdicts[i] for i in cohort)


def test_stamps_that_differ_refuse_to_compare(tmp_path):
    record = {"workload": "pir_scan", "stamp": {"nproc": 2, "blas": {"threads": 1}},
              "metrics": {"ops_per_s": {"value": 100.0, "unit": "1/s"}}}
    other = json.loads(json.dumps(record))
    assert stamp.compare(record, other)
    other["stamp"]["blas"]["threads"] = 2
    with pytest.raises(ValueError, match="blas.threads"):
        stamp.compare(record, other)
    paths = []
    for name, content in (("a.json", record), ("b.json", other)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(content))
    assert stamp.main([str(p) for p in paths]) == 2


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pir_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
