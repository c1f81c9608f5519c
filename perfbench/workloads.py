"""Seeded workload scripts, deployments and output checks.

A workload is a :class:`Spec` (sizes, window, telemetry on or off) plus
a script generator.  :func:`make_script` turns ``(spec, seed)`` into a
fixed list of :class:`Op` records; the same seed always gives the same
script (see :meth:`Script.digest`).  :class:`Deployment` is a fresh
serving stack for one repetition, and :func:`check_outputs` decides,
op by op, whether the program's output was correct.

Why each workload exists is written down in ``README.md`` next to this
file.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.data import patients
from repro.qdb.engine import QuerySetSizeControl, StatisticalDatabase, SumAuditPolicy
from repro.qdb.parser import parse_query
from repro.qdb.query import Aggregate, Not, Query
from repro.qdb.tracker import split_predicate
from repro.serving import ADMISSION_PREFIX, ServingRuntime
from repro.telemetry import instrument as tele
from repro.telemetry.observatory.service import ObservatoryService

#: The shared-audit adapter prefixes every audit refusal with this; the
#: single-engine reference does not, so it is stripped before comparing.
_SHARED_AUDIT_PREFIX = "cross-shard-audit: "
#: Refusals that are not privacy decisions: overload and a dead backend.
_INFRA_REFUSALS = (ADMISSION_PREFIX, "backend: ")

_RANGE_COLUMNS = ("height", "weight", "age", "cholesterol")
_POOL_COLUMNS = ("height", "weight", "age")
_TRACKER_KEYS = ["height", "weight"]
_VALUE_COLUMN = "blood_pressure"


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; every size is fixed here, not by the seed."""

    name: str
    records: int
    rep_ops: int          # ops in one repetition (plus a mid-script cohort)
    window: int           # outstanding requests in the closed loop
    sessions: int
    telemetry: bool       # telemetry session + observatory service attached
    pir_blocks: int = 0   # size of the random PIR store (pir_scan only)
    pir_batch: int = 0    # blocks per PIR op
    pir_share: float = 0.0  # share of PIR ops in a mixed script
    tracker_every: int = 0  # inject a split tracker every N ops (0: never)
    trackers: int = 0       # split trackers injected mid-script as a cohort


SPECS = {
    spec.name: spec
    for spec in (
        Spec("audit_stream", records=5000, rep_ops=1000, window=1,
             sessions=8, telemetry=False, tracker_every=100),
        Spec("pir_scan", records=1000, rep_ops=1000, window=2, sessions=4,
             telemetry=False, pir_blocks=1 << 17, pir_batch=8),
        Spec("serve_observed", records=1000, rep_ops=3000, window=8,
             sessions=64, telemetry=True, pir_batch=4, pir_share=0.25,
             trackers=2),
    )
}


@dataclass(frozen=True)
class Op:
    """One scripted request."""

    kind: str              # "qdb" | "pir"
    session: str           # label; "@pad"/"@probe" map to distinct shards
    payload: object        # a Query, or a tuple of PIR block indices
    seed: int = 0          # PIR mask seed, unique per op
    tracker: int = -1      # injected tracker this op belongs to (-1: none)
    sync: bool = False     # drain the window before and after this op


@dataclass
class Script:
    """A workload's inputs for one seed: population seed, ops, PIR store."""

    spec: Spec
    seed: int
    ops: list[Op]
    population: object
    pir_values: list[int] | None = None
    _reference: list | None = field(default=None, repr=False)

    def digest(self) -> str:
        """SHA-256 over the canonical rendering of every op and the store."""
        h = hashlib.sha256()
        h.update(f"{self.spec}|{self.seed}\n".encode())
        for op in self.ops:
            h.update(f"{op.kind}|{op.session}|{op.payload!r}|{op.seed}|"
                     f"{op.tracker}|{op.sync}\n".encode())
        if self.pir_values is not None:
            h.update(np.asarray(self.pir_values, dtype=np.int64).tobytes())
        return h.hexdigest()


# -- script generation -----------------------------------------------------


def _tracker_targets(pop, rng, count: int) -> list[int]:
    """Records the height/weight split tracker can single out.

    Same recipe as the serving smoke: a unique (height, weight) pair
    whose height group holds at least six records, so the padding
    query passes the k=5 size control.
    """
    height, weight = pop["height"], pop["weight"]
    pairs = Counter(zip(height.tolist(), weight.tolist()))
    heights = Counter(height.tolist())
    candidates = [
        i for i in range(pop.n_rows)
        if pairs[(height[i], weight[i])] == 1 and heights[height[i]] >= 6
    ]
    picked = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in picked]


def _tracker_ops(pop, target: int, tracker_id: int) -> list[Op]:
    """Schlörer's padding/tracker COUNT then SUM pairs, split over shards."""
    c1, c2 = split_predicate(pop, target, _TRACKER_KEYS)
    probe = c1 & Not(c2)
    ops = []
    for aggregate, column in ((Aggregate.COUNT, None),
                              (Aggregate.SUM, _VALUE_COLUMN)):
        for session, predicate in (("@pad", c1), ("@probe", probe)):
            ops.append(Op("qdb", session, Query(aggregate, column, predicate),
                          tracker=tracker_id, sync=True))
    return ops


def _range_query(pop, rng) -> Query:
    """A two-column range COUNT/SUM/AVG with fresh random bounds."""
    first, second = rng.choice(len(_RANGE_COLUMNS), size=2, replace=False)
    parts = []
    for column in (_RANGE_COLUMNS[first], _RANGE_COLUMNS[second]):
        values = pop[column]
        lo, hi = np.sort(rng.uniform(np.quantile(values, 0.02),
                                     np.quantile(values, 0.98), size=2))
        parts.append(f"{column} >= {lo:.4f} AND {column} <= {hi:.4f}")
    aggregate = ("COUNT(*)", f"SUM({_VALUE_COLUMN})",
                 f"AVG({_VALUE_COLUMN})")[int(rng.integers(3))]
    return parse_query(f"SELECT {aggregate} WHERE {' AND '.join(parts)}")


def _pool(pop) -> list[str]:
    """The small pool of repeated predicates the observed sessions share."""
    pool = []
    for column in _POOL_COLUMNS:
        for q in (0.25, 0.5, 0.75):
            value = float(np.quantile(pop[column], q))
            pool += [f"SELECT COUNT(*) WHERE {column} > {value:g}",
                     f"SELECT AVG({_VALUE_COLUMN}) WHERE {column} > {value:g}",
                     f"SELECT SUM({_VALUE_COLUMN}) WHERE {column} <= {value:g}"]
    return pool


def _zipf(n: int, s: float = 1.2) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


def make_script(spec: Spec, seed: int) -> Script:
    """The seeded op script for *spec*; deterministic in ``(spec, seed)``."""
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    pop = patients(spec.records, seed=seed)
    ops: list[Op] = []
    pir_values = None
    if spec.name == "audit_stream":
        targets = _tracker_targets(pop, rng, spec.rep_ops // spec.tracker_every)
        for block, target in enumerate(targets):
            for i in range(spec.tracker_every - 4):
                if i == spec.tracker_every // 2:
                    ops += _tracker_ops(pop, target, block)
                ops.append(Op("qdb", f"analyst-{len(ops) % spec.sessions}",
                              _range_query(pop, rng)))
    elif spec.name == "pir_scan":
        pir_values = rng.integers(-(1 << 31), 1 << 31, spec.pir_blocks).tolist()
        for i in range(spec.rep_ops):
            indices = tuple(rng.integers(0, spec.pir_blocks, spec.pir_batch).tolist())
            ops.append(Op("pir", f"reader-{i % spec.sessions}", indices,
                          seed=seed * 100_003 + i))
    elif spec.name == "serve_observed":
        pir_values = [int(v) for v in pop[_VALUE_COLUMN]]
        pool = _pool(pop)
        weights = _zipf(spec.sessions)
        for i in range(spec.rep_ops):
            session = f"user-{int(rng.choice(spec.sessions, p=weights))}"
            if rng.random() < spec.pir_share:
                indices = tuple(rng.integers(0, len(pir_values), spec.pir_batch).tolist())
                ops.append(Op("pir", session, indices, seed=seed * 100_003 + i))
            else:
                # A fresh Query object per op (equal by value, so the
                # engine's caches still hit): the traced run maps engine
                # calls back to ops by object identity.
                ops.append(Op("qdb", session,
                              parse_query(pool[int(rng.integers(len(pool)))])))
        cohort = []
        for t, target in enumerate(_tracker_targets(pop, rng, spec.trackers)):
            cohort += _tracker_ops(pop, target, t)
        middle = len(ops) // 2
        ops[middle:middle] = cohort
    else:
        raise ValueError(f"unknown workload {spec.name!r}")
    return Script(spec, seed, ops, pop, pir_values)


# -- deployment ------------------------------------------------------------


class Deployment:
    """One repetition's stack: population, runtime, PIR store, service."""

    def __init__(self, script: Script):
        spec = script.spec
        self.population = patients(spec.records, seed=script.seed)
        self.runtime = ServingRuntime(
            self.population, k=5, sum_audit=True,
            pir_values=script.pir_values,
        )
        pad, probe = self.runtime.distinct_shard_sessions("tracker", 2)
        self.sessions = {"@pad": pad, "@probe": probe}
        self.tracer = None
        self.service = None
        self._telemetry = None
        if spec.telemetry:
            self._telemetry = tele.session()
            self.tracer = self._telemetry.__enter__()
            self.service = ObservatoryService().attach(self.tracer)

    def session(self, label: str) -> str:
        return self.sessions.get(label, label)

    def alerts(self) -> set[str]:
        """Names of the observatory alerts fired so far."""
        if self.service is None:
            return set()
        return {alert.name for alert in self.service.observatory.alerts}

    def close(self) -> None:
        self.runtime.close()
        if self.service is not None:
            self.service.close()
        if self._telemetry is not None:
            self._telemetry.__exit__(None, None, None)
            self._telemetry = None


# -- output checks ---------------------------------------------------------


def _reason(answer) -> str | None:
    reason = answer.reason
    if reason is not None and reason.startswith(_SHARED_AUDIT_PREFIX):
        reason = reason[len(_SHARED_AUDIT_PREFIX):]
    return reason


def reference_answers(script: Script) -> list:
    """The single-engine decision stream the shared audit must reproduce.

    One :class:`StatisticalDatabase` with the shipped stack (size k=5
    plus sum audit) replays the script in order; computed once per
    script, since every repetition replays the same ops.
    """
    if script._reference is None:
        db = StatisticalDatabase(
            patients(script.spec.records, seed=script.seed),
            [QuerySetSizeControl(5), SumAuditPolicy()],
        )
        script._reference = [
            db.ask(op.payload) if op.kind == "qdb" else None
            for op in script.ops
        ]
    return script._reference


def check_outputs(script: Script, outputs: list, alerts: set[str]) -> list[bool]:
    """Per-op verdicts: True where the program's output was correct.

    * Every op: no exception, no overload or backend refusal.
    * PIR ops: each value equals ``pir_values[i]``.
    * ``audit_stream`` qdb ops: decision, value and reason equal the
      single-engine reference (the shared-audit invariant).
    * Other qdb ops: answers exact; refusals only from privacy policy.
    * Injected trackers: at least one query of each padding/tracker
      pair refused; with telemetry on, the tracker-probe alert fired.
    """
    ops = script.ops
    reference = (reference_answers(script)
                 if script.spec.name == "audit_stream" else None)
    verdicts = []
    for index, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, BaseException) or out is None:
            verdicts.append(False)
        elif op.kind == "pir":
            verdicts.append(
                out == [script.pir_values[i] for i in op.payload])
        elif out.refused and (out.reason or "").startswith(_INFRA_REFUSALS):
            verdicts.append(False)
        elif reference is not None:
            ref = reference[index]
            verdicts.append(
                out.refused == ref.refused and out.value == ref.value
                and _reason(out) == _reason(ref))
        elif out.refused:
            verdicts.append(True)
        else:
            verdicts.append(out.value == op.payload.evaluate(script.population))
    trackers: dict[int, list[int]] = {}
    for index, op in enumerate(ops):
        if op.tracker >= 0:
            trackers.setdefault(op.tracker, []).append(index)
    for members in trackers.values():
        refused = [not isinstance(outputs[i], BaseException)
                   and outputs[i] is not None and outputs[i].refused
                   for i in members]
        pairs_refused = all(refused[j] or refused[j + 1]
                            for j in range(0, len(members), 2))
        alerted = not script.spec.telemetry or "tracker-probe" in alerts
        if not (pairs_refused and alerted):
            for i in members:
                verdicts[i] = False
    return verdicts
