"""Structured engine events and pluggable reporters.

Every observable step of a sweep — shard submitted, finished, retried,
served from the shard cache, quarantined — is emitted as a flat dict
through one :class:`EventBus`.  Both the human CLI progress line and the
machine-readable JSONL run log are reporters on that same bus, so they can
never drift apart; tests subscribe a :class:`CollectingReporter` to assert
on the exact execution history (e.g. "resume recomputed only shard 27").

Event schema (all events)::

    {"ts": <unix time>, "event": <kind>, ...kind-specific fields}

Kinds and their fields:

========================  ====================================================
``sweep_start``           ``fingerprint, n_shards, jobs, cached, resume``
``profile_ready``         ``machine, precision, source, elapsed_s`` (the
                          warm-start calibration; ``source`` is ``memory``,
                          ``disk`` or ``calibrated``)
``shard_cached``          ``shard, matrix`` (served from a completed shard)
``shard_start``           ``shard, matrix, attempt`` (submitted to a worker)
``shard_finish``          ``shard, matrix, attempt, elapsed_s, records,``
                          ``peak_rss_mib, phases`` (``peak_rss_mib`` is the
                          worker process's peak RSS so far, from
                          ``getrusage``; ``phases`` is the phase → seconds
                          breakdown of the worker's busy time:
                          ``convert`` / ``stats`` / ``simulate`` /
                          ``models``; ``None`` when the task function does
                          not report one)
``shard_retry``           ``shard, matrix, attempt, backoff_s, error,``
                          ``error_type`` (``error`` is the exception
                          message, ``error_type`` its class name)
``shard_quarantined``     ``shard, matrix, attempts, error, error_type``
``sweep_finish``          ``fingerprint, elapsed_s, completed, cached,``
                          ``quarantined, records, shards_per_s,``
                          ``records_per_s, worker_utilization, jobs``
========================  ====================================================

The resilience layer (:mod:`repro.resilience`) adds ``fault_injected``,
``breaker_open`` / ``breaker_close``, ``request_shed``,
``request_deadline_exceeded`` and ``drain_begin`` / ``drain_end``; their
fields are declared in :data:`EVENT_SCHEMAS` below and documented in
``docs/resilience.md``.  The fleet layer (:mod:`repro.fleet`) adds
``worker_spawn`` / ``worker_ready`` / ``worker_restart``,
``fleet_drain_begin`` / ``fleet_drain_end`` and ``request_routed``
(documented in ``docs/serving.md``).  The durability layer
(:mod:`repro.durability`) adds ``cache_corrupt_detected`` — a cache
artifact failed verify-on-load and was quarantined — and
``cache_write_failed`` — a cache write hit ``ENOSPC``/``OSError`` and
the owner degraded to memory (documented in ``docs/durability.md``).
The learning layer (:mod:`repro.learn`) adds ``trace_logged``,
``train_begin`` / ``train_end``, ``model_swap`` and ``drift_alarm``
(documented in ``docs/learning.md``).

The same schema is declared machine-readably in :data:`EVENT_SCHEMAS`,
which the ``event-schema`` lint rule (:mod:`repro.analysis`) checks every
``bus.emit`` call site against: a typo'd kind or a missing/undeclared
field fails ``python -m repro lint`` instead of silently producing an
event no reporter understands.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import IO, Protocol

__all__ = [
    "EVENT_SCHEMAS",
    "Reporter",
    "EventBus",
    "JsonlReporter",
    "ProgressReporter",
    "PhaseReporter",
    "CollectingReporter",
]

#: Every event kind the engine may emit, mapped to its exact field set
#: (``ts`` and ``event`` are added by :meth:`EventBus.emit` itself).
#: Checked statically by the ``event-schema`` lint rule — extend this
#: registry first when adding an event kind or field.
EVENT_SCHEMAS: dict[str, frozenset[str]] = {
    "sweep_start": frozenset(
        {"fingerprint", "n_shards", "jobs", "cached", "resume"}
    ),
    "profile_ready": frozenset(
        {"machine", "precision", "source", "elapsed_s"}
    ),
    "shard_cached": frozenset({"shard", "matrix"}),
    "shard_start": frozenset({"shard", "matrix", "attempt"}),
    "shard_finish": frozenset({
        "shard", "matrix", "attempt", "elapsed_s", "records", "peak_rss_mib",
        "phases",
    }),
    "shard_retry": frozenset(
        {"shard", "matrix", "attempt", "backoff_s", "error", "error_type"}
    ),
    "shard_quarantined": frozenset(
        {"shard", "matrix", "attempts", "error", "error_type"}
    ),
    "sweep_finish": frozenset({
        "fingerprint", "elapsed_s", "completed", "cached", "quarantined",
        "records", "shards_per_s", "records_per_s", "worker_utilization",
        "jobs",
    }),
    # Resilience events (repro.resilience; see docs/resilience.md).
    "fault_injected": frozenset({"site", "action", "hit", "rule"}),
    "breaker_open": frozenset({"precision", "failures"}),
    "breaker_close": frozenset({"precision"}),
    "request_shed": frozenset({"inflight", "limit"}),
    "request_deadline_exceeded": frozenset({"timeout_s", "elapsed_s"}),
    "drain_begin": frozenset({"inflight"}),
    "drain_end": frozenset({"inflight", "elapsed_s", "clean"}),
    # Fleet events (repro.fleet; see docs/serving.md).
    "worker_spawn": frozenset({"worker_id", "pid", "port"}),
    "worker_ready": frozenset({"worker_id", "port", "elapsed_s"}),
    "worker_restart": frozenset(
        {"worker_id", "restarts", "backoff_s", "reason"}
    ),
    "fleet_drain_begin": frozenset({"workers"}),
    "fleet_drain_end": frozenset({"workers", "clean", "elapsed_s"}),
    "request_routed": frozenset({"shard", "worker_id", "attempt"}),
    # Durability events (repro.durability; see docs/durability.md).
    "cache_corrupt_detected": frozenset(
        {"owner", "path", "error", "error_type", "quarantined"}
    ),
    "cache_write_failed": frozenset({"owner", "path", "error", "error_type"}),
    # Learning events (repro.learn; see docs/learning.md).
    "trace_logged": frozenset({"fingerprint", "mode", "holdout"}),
    "train_begin": frozenset({"trigger", "records"}),
    "train_end": frozenset({"version", "samples", "published", "elapsed_s"}),
    "model_swap": frozenset({"old_version", "new_version"}),
    "drift_alarm": frozenset({"state", "gap", "threshold", "window"}),
}


class Reporter(Protocol):
    """Anything that consumes engine events."""

    def handle(self, event: dict) -> None: ...


class EventBus:
    """Fans each emitted event out to every subscribed reporter."""

    def __init__(self, reporters: tuple[Reporter, ...] | list = ()) -> None:
        self._reporters: list[Reporter] = list(reporters)

    def subscribe(self, reporter: Reporter) -> None:
        self._reporters.append(reporter)

    def emit(self, kind: str, **fields) -> dict:
        event = {"ts": time.time(), "event": kind, **fields}
        for reporter in self._reporters:
            reporter.handle(event)
        return event


class JsonlReporter:
    """Appends one JSON line per event to ``path`` (the run log)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("a")

    def handle(self, event: dict) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class CollectingReporter:
    """Keeps every event in a list; the test-suite's reporter."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def handle(self, event: dict) -> None:
        self.events.append(event)

    def of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["event"] == kind]


class ProgressReporter:
    """Human-readable one-line-per-event progress (the CLI's reporter)."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self._stream = stream if stream is not None else sys.stdout

    def _print(self, line: str) -> None:
        print(line, file=self._stream, flush=True)

    def handle(self, event: dict) -> None:
        kind = event["event"]
        if kind == "profile_ready":
            self._print(
                f"[engine] profile {event['precision']} "
                f"({event['source']}, {event['elapsed_s']:.1f}s)"
            )
        elif kind == "sweep_start":
            self._print(
                f"[engine] sweep {event['fingerprint']}: "
                f"{event['n_shards']} shards on {event['jobs']} worker(s), "
                f"{event['cached']} already complete"
            )
        elif kind == "shard_cached":
            self._print(
                f"[engine] {event['shard']:3d} {event['matrix']:15s} cached"
            )
        elif kind == "shard_finish":
            self._print(
                f"[engine] {event['shard']:3d} {event['matrix']:15s} "
                f"done in {event['elapsed_s']:5.1f}s "
                f"({event['records']} records)"
            )
        elif kind == "shard_retry":
            self._print(
                f"[engine] {event['shard']:3d} {event['matrix']:15s} "
                f"retrying (attempt {event['attempt']}, "
                f"backoff {event['backoff_s']:.1f}s): "
                f"{event['error_type']}: {event['error']}"
            )
        elif kind == "shard_quarantined":
            self._print(
                f"[engine] {event['shard']:3d} {event['matrix']:15s} "
                f"QUARANTINED after {event['attempts']} attempts: "
                f"{event['error_type']}: {event['error']}"
            )
        elif kind == "sweep_finish":
            util = 100.0 * event["worker_utilization"]
            self._print(
                f"[engine] sweep finished in {event['elapsed_s']:.1f}s: "
                f"{event['completed']} computed + {event['cached']} cached, "
                f"{event['quarantined']} quarantined "
                f"({event['records_per_s']:.0f} records/s, "
                f"{util:.0f}% worker utilization)"
            )
        # shard_start is deliberately silent: submit-time noise.


class PhaseReporter:
    """Per-shard and aggregate phase-timing breakdown (``--profile``).

    Consumes the ``phases`` and ``peak_rss_mib`` fields of ``shard_finish``
    events and prints one line per shard plus, at ``sweep_finish``, totals
    showing where the sweep's time went (convert / stats / simulate /
    models, and the residual that none of the instrumented phases account
    for) and the largest worker peak RSS.
    """

    #: Reporting order; matches ``repro.bench.harness.PHASE_NAMES``.
    PHASES = ("convert", "stats", "simulate", "models")

    def __init__(self, stream: IO[str] | None = None) -> None:
        self._stream = stream if stream is not None else sys.stdout
        self.totals: dict[str, float] = {}
        self._busy_s = 0.0
        self._shards = 0
        self._peak_rss_mib = 0.0

    def _print(self, line: str) -> None:
        print(line, file=self._stream, flush=True)

    def _format(self, phases: dict) -> str:
        return " ".join(
            f"{name}={phases.get(name, 0.0):6.2f}s" for name in self.PHASES
        )

    def handle(self, event: dict) -> None:
        kind = event["event"]
        if kind == "shard_finish" and event.get("phases"):
            phases = event["phases"]
            self._shards += 1
            self._busy_s += event["elapsed_s"]
            self._peak_rss_mib = max(self._peak_rss_mib, event["peak_rss_mib"])
            for name, seconds in phases.items():
                self.totals[name] = self.totals.get(name, 0.0) + seconds
            self._print(
                f"[phases] {event['shard']:3d} {event['matrix']:15s} "
                f"{self._format(phases)} "
                f"peak_rss={event['peak_rss_mib']:.0f}MiB"
            )
        elif kind == "sweep_finish" and self._shards:
            accounted = sum(self.totals.values())
            other = max(self._busy_s - accounted, 0.0)
            self._print(
                f"[phases] total over {self._shards} shard(s): "
                f"{self._format(self.totals)} other={other:6.2f}s "
                f"peak_rss={self._peak_rss_mib:.0f}MiB"
            )
