"""The advise workloads: ``repro serve`` driven over HTTP, plus its trace.

Untraced, each run spawns ``python -m repro serve`` on an empty cache dir
with a pre-calibrated ``--profile-dir`` and drives it in a closed loop
from one client over one keep-alive connection — advisor callers (CLI
users, autotuning scripts) wait for each reply.  A second concurrent
client would only add noise on two cores: the server's threads then
contend for the interpreter lock and grow separate allocator arenas, which
made latency and peak RSS vary ~20% between identical runs.  Traced, the same requests go to a ``create_server`` hosted
in this process, once plain and once with span wrappers installed.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core import profiling
from repro.core.profiling import ProfileStore
from repro.matrices import mmio, suite
from repro.serve import features, server as server_mod, service as service_mod
from repro.serve.store import AdvisorStore

from inputs import (
    COLD_BLOCK,
    COLD_INLINE,
    HOT_INLINE,
    InlineMatrix,
    Request,
    cold_sequence,
    hot_pairs,
    hot_sequence,
    inline_matrix,
    options_key,
)
from measure import (
    Tally,
    median,
    peak_rss_mib,
    percentile,
    samples_beyond,
    tail_percentile,
)
from spans import Tracer, self_times

__all__ = ["MIN_REQUESTS", "run_advise_workload", "check_answer"]

#: At least this many timed requests per run, so ten samples lie beyond p90.
MIN_REQUESTS = 100
#: Blocks of the request stream replayed by each traced pass.
TRACE_BLOCKS = 2
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


# ------------------------------ the server ------------------------------ #
class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, profile_dir: Path, env: dict) -> None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(cache_dir / "serve.log", "w")
        argv = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", str(cache_dir), "--profile-dir", str(profile_dir),
            "--warmup",
        ]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        self.address: tuple[str, int] | None = None

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/readyz`` answers 200."""
        deadline = self.t_spawn + READY_TIMEOUT_S
        line = self.proc.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection(*self.address, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - self.t_spawn
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("repro serve never became ready")

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ------------------------------ the client ------------------------------ #
@dataclass
class Outcome:
    req: Request
    status: int
    latency_s: float
    answer: dict | None
    error: str | None = None


class _Connection:
    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.conn: http.client.HTTPConnection | None = None

    def post(self, req: Request, body: bytes) -> Outcome:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                *self.address, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json", "X-Request-Id": req.rid}
        t0 = time.perf_counter()
        try:
            self.conn.request("POST", "/advise", body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            answer = json.loads(data) if resp.status == 200 else None
            latency = time.perf_counter() - t0
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return Outcome(req, 0, time.perf_counter() - t0, None,
                           f"{type(exc).__name__}: {exc}")
        if resp.status != 200 or resp.will_close:
            # Error answers close the connection server-side.
            self.close()
        return Outcome(req, resp.status, latency, answer,
                       None if resp.status == 200 else data[:200].decode(errors="replace"))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def drive(
    address: tuple[str, int],
    requests: Iterator[Request],
    inline: dict[str, InlineMatrix],
    *,
    seconds: float | None = None,
    min_requests: int = 0,
    block: int = 1,
) -> tuple[list[Outcome], float]:
    """Closed loop: send the next request once the last reply is parsed.

    Stops when ``requests`` runs out, or once ``seconds`` have passed,
    ``min_requests`` were sent and the last ``block`` of the stream is
    complete — so every run sends whole blocks, the same mix.
    """
    outcomes: list[Outcome] = []
    conn = _Connection(address)
    t0 = time.perf_counter()
    try:
        for req in requests:
            outcomes.append(conn.post(req, req.body(inline)))
            n = len(outcomes)
            if (seconds is not None and n >= min_requests and n % block == 0
                    and time.perf_counter() - t0 >= seconds):
                break
    finally:
        conn.close()
    return outcomes, time.perf_counter() - t0


# ------------------------------ the checks ------------------------------ #
def _ranking(answer: dict) -> list:
    return [
        (r["kind"], r["block"], r["impl"], r["predicted_s"])
        for r in answer["ranking"]
    ]


def answer_view(answer: dict) -> dict:
    """The parts of an answer that must not depend on cache state."""
    return {
        "fingerprint": answer["fingerprint"],
        "shape": (answer["nrows"], answer["ncols"], answer["nnz"]),
        "best": answer["best"]["label"],
        "ranking": _ranking(answer),
        "evaluated": (answer["n_candidates_evaluated"],
                      answer["n_candidates_total"]),
    }


def check_answer(
    out: Outcome,
    identity: dict,
    pins: dict,
    *,
    want_hit: bool | None = None,
    reference: dict | None = None,
) -> str | None:
    """Why ``out`` counts as failed, or None if its answer is right.

    ``identity`` is the matrix's expected fingerprint and shape; suite
    answers must name the pinned best label; ``reference`` is an earlier
    answer to the same request that this one must equal.
    """
    req, answer = out.req, out.answer
    if out.status != 200 or answer is None:
        return f"{req.rid}: HTTP {out.status} {out.error}"
    if answer["fingerprint"] != identity["fingerprint"] or (
        answer["nrows"], answer["ncols"], answer["nnz"]
    ) != (identity["nrows"], identity["ncols"], identity["nnz"]):
        return f"{req.rid}: answer is about another matrix"
    predicted = [r["predicted_s"] for r in answer["ranking"]]
    if predicted != sorted(predicted) or answer["best"]["predicted_s"] != predicted[0]:
        return f"{req.rid}: ranking is not best-first"
    if req.suite:
        key = options_key(req.model, req.precision, req.nthreads, req.prune)
        pinned = pins["advise"]["best"].get(req.matrix, {}).get(key)
        if pinned is None:
            return f"{req.rid}: no pinned label for {req.matrix} {key}"
        if answer["best"]["label"] != pinned:
            return (f"{req.rid}: best {answer['best']['label']!r} != "
                    f"pinned {pinned!r}")
    if want_hit is not None and answer["cache_hit"] is not want_hit:
        return f"{req.rid}: cache_hit is {answer['cache_hit']}, expected {want_hit}"
    if reference is not None and answer_view(answer) != answer_view(reference):
        return f"{req.rid}: answer differs from the first answer to this request"
    return None


# ------------------------------ the inputs ------------------------------ #
@dataclass
class Mix:
    kind: str
    seed: int
    inline: dict[str, InlineMatrix]
    identity: dict[str, dict]
    pairs: list[Request]  # hot pair set (empty for cold)

    @property
    def block(self) -> int:
        """Requests per block of the timed stream (a fixed mix each)."""
        return len(self.pairs) if self.kind == "hot" else COLD_BLOCK

    def sequence(self) -> Iterator[Request]:
        """The run's timed request stream, from its first request."""
        if self.kind == "hot":
            return hot_sequence(self.seed, self.pairs)
        return cold_sequence(self.seed, list(self.inline))


def build_mix(kind: str, seed: int, pins: dict) -> Mix:
    identity = dict(pins["advise"]["matrices"])
    count = HOT_INLINE if kind == "hot" else COLD_INLINE
    inline = {m.name: m for m in (inline_matrix(seed, k) for k in range(count))}
    pairs = hot_pairs(seed, list(inline)) if kind == "hot" else []
    for name, m in inline.items():
        identity[name] = {
            "fingerprint": features.matrix_fingerprint(m.coo),
            "nrows": m.coo.nrows, "ncols": m.coo.ncols, "nnz": m.coo.nnz,
        }
    return Mix(kind, seed, inline, identity, pairs)


def calibrate(profile_dir: Path) -> None:
    store = ProfileStore(profile_dir)
    service = service_mod.AdvisorService(cache_dir=None, profile_cache=store)
    service.warmup(("sp", "dp"))


# ------------------------------- metrics -------------------------------- #
def _served_metrics(outcomes: list[Outcome], wall_s: float) -> dict:
    ok = [o for o in outcomes if o.answer is not None]
    latencies = [o.latency_s for o in ok]
    return {
        "p50_ms": 1e3 * median(latencies),
        "p90_ms": 1e3 * percentile(latencies, 90),
        "rps": len(ok) / wall_s,
        "cells_per_s": sum(o.answer["n_candidates_evaluated"] for o in ok) / wall_s,
    }


def _server_layer_metrics(outcomes: list[Outcome], rss_mib: float) -> dict:
    ok = [o for o in outcomes if o.answer is not None]
    misses = [o for o in ok if not o.answer["cache_hit"]]
    phases = {k: 0.0 for k in ("stats", "convert", "models")}
    for o in misses:
        for k in phases:
            phases[k] += (o.answer.get("phase_timings") or {}).get(k, 0.0)
    n = max(len(ok), 1)
    return {
        "server.overhead_ms": 1e3 * median(
            [o.latency_s - o.answer["elapsed_s"] for o in ok]
        ),
        "server.peak_rss_mib": rss_mib,
        "server.status_200": sum(1 for o in outcomes if o.status == 200),
        "server.status_other": sum(1 for o in outcomes if o.status != 200),
        "service.p50_ms": 1e3 * median([o.answer["elapsed_s"] for o in ok]),
        "service.mean_ms": 1e3 * sum(o.answer["elapsed_s"] for o in ok) / n,
        "service.hit_ratio": (len(ok) - len(misses)) / n,
        "pruning.kept_ratio": sum(o.answer["n_candidates_evaluated"] for o in ok)
        / max(sum(o.answer["n_candidates_total"] for o in ok), 1),
        "phase.stats_ms": 1e3 * phases["stats"] / n,
        "phase.convert_ms": 1e3 * phases["convert"] / n,
        "phase.models_ms": 1e3 * phases["models"] / n,
    }


# ------------------------------- tracing -------------------------------- #
def _install_advise_wrappers(tracer: Tracer) -> None:
    tracer.wrap(
        server_mod.AdvisorRequestHandler, "_handle_advise", "server.request",
        request_id=lambda args: args[0].headers.get("X-Request-Id"),
    )

    def profile_source(args, kwargs, result) -> None:
        tracer.count(f"profiling.{result[1]}")

    tracer.wrap(mmio, "read_matrix_market_text", "matrices.read_mm")
    tracer.wrap(service_mod.AdvisorService, "advise", "service.advise")
    tracer.wrap(service_mod, "resolve_matrix", "matrices.resolve")
    tracer.wrap(suite.SuiteEntry, "build", "matrices.build")
    tracer.wrap(features, "matrix_fingerprint", "features.fingerprint")
    tracer.wrap(service_mod, "extract_features", "features.extract")
    tracer.wrap(service_mod, "prune_candidates", "pruning.prune")
    tracer.wrap(service_mod, "evaluate_candidates", "selection.evaluate")
    tracer.wrap(AdvisorStore, "load", "store.load")
    tracer.wrap(AdvisorStore, "save", "store.save")
    tracer.wrap(profiling.ProfileStore, "get_with_source", "profiling.get",
                on_return=profile_source)


class InProcessServer:
    """``create_server`` over a fresh service, served from a thread."""

    def __init__(self, cache_dir: Path, profile_dir: Path) -> None:
        service = service_mod.AdvisorService(
            cache_dir=cache_dir, profile_cache=ProfileStore(profile_dir)
        )
        service.warmup(("sp", "dp"))
        self.server = server_mod.create_server(service, port=0)
        self.address = self.server.server_address[:2]
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()

    def stop(self) -> None:
        if self.thread.is_alive():
            self.server.shutdown()
            self.thread.join(timeout=10)
        self.server.server_close()


def _trace_metrics(
    kind: str, mix: Mix, work: Path, profile_dir: Path, pins: dict,
    tally: Tally, spans_out: Path,
) -> dict:
    sequence = mix.sequence()
    requests = [next(sequence) for _ in range(TRACE_BLOCKS * mix.block)]

    def replay(srv: InProcessServer) -> list[Outcome]:
        outcomes, _ = drive(srv.address, iter(requests), mix.inline)
        return outcomes

    # Hot replays both passes on one warmed server; cold gives each pass
    # its own empty cache so every request misses in both.
    servers = [InProcessServer(work / "trace-plain", profile_dir)]
    tracer = Tracer()
    try:
        if kind == "hot":
            drive(servers[0].address, iter(mix.pairs), mix.inline)
        plain = replay(servers[0])
        if kind == "cold":
            servers.append(InProcessServer(work / "trace-spans", profile_dir))
        _install_advise_wrappers(tracer)
        traced = replay(servers[-1])
    finally:
        tracer.restore()
        for srv in servers:
            srv.stop()
    for out in traced:
        tally.record(check_answer(out, mix.identity[out.req.matrix], pins))
    tracer.write(spans_out)
    own = self_times(tracer.spans)
    n = len(traced)

    def per_request_ms(*names: str) -> float:
        return 1e3 * sum(own.get(name, 0.0) for name in names) / n

    plain_p50 = median([o.latency_s for o in plain])
    traced_p50 = median([o.latency_s for o in traced])
    return {
        "matrices.resolve_ms": per_request_ms("matrices.resolve", "matrices.build"),
        "matrices.parse_ms": per_request_ms("matrices.read_mm"),
        "features.fingerprint_ms": per_request_ms("features.fingerprint"),
        "features.extract_ms": per_request_ms("features.extract"),
        "pruning.prune_ms": per_request_ms("pruning.prune"),
        "selection.evaluate_ms": per_request_ms("selection.evaluate"),
        "store.load_ms": per_request_ms("store.load"),
        "store.save_ms": per_request_ms("store.save"),
        "profiling.get_s": own.get("profiling.get", 0.0),
        "profiling.calibrated": tracer.counters.get("profiling.calibrated", 0),
        "profiling.disk": tracer.counters.get("profiling.disk", 0),
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
    }


# ------------------------------- workload ------------------------------- #
def _verify_inline_sample(
    outcomes: list[Outcome], mix: Mix, profile_dir: Path, tally: Tally
) -> None:
    """Recompute a few inline answers with the library API, no cache, in
    this process (so under another string-hash seed than the server)."""
    service = service_mod.AdvisorService(
        cache_dir=None, profile_cache=ProfileStore(profile_dir)
    )
    sample = [o for o in outcomes if not o.req.suite and o.answer is not None][:4]
    for out in sample:
        req = out.req
        rec = service.advise(
            mix.inline[req.matrix].coo, model=req.model,
            precision=req.precision, nthreads=req.nthreads, prune=req.prune,
        )
        expected = [
            (r.kind, list(r.block) if isinstance(r.block, tuple) else r.block,
             r.impl, r.predicted_s)
            for r in rec.top(len(out.answer["ranking"]))
        ]
        got = _ranking(out.answer)
        # Exact ties may be named differently across processes: the pruner
        # breaks equal-score shape ties in set order, which follows the
        # interpreter's string-hash seed.  Times must agree exactly; names
        # must agree unless the best time is tied.
        tied = len(got) > 1 and got[0][3] == got[1][3]
        same = [r[3] for r in expected] == [r[3] for r in got] and (
            tied or expected == got
        )
        tally.record(None if same else (
            f"{req.rid}: server answer {got} differs from the library's "
            f"{expected}"
        ))


def run_advise_workload(
    kind: str, *, seed: int, seconds: float, trace: bool, work: Path,
    env: dict, pins: dict, spans_out: Path,
) -> tuple[Tally, dict, dict]:
    """Returns (tally, metrics, context) for one run of advise-hot/-cold."""
    tally = Tally()
    mix = build_mix(kind, seed, pins)
    profile_dir = work / "profiles"
    calibrate(profile_dir)

    ready = []
    server = None
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = ServerProcess(work / f"cache-{i}", profile_dir, env)
            ready.append(server.wait_ready())
        warm_s = 0.0
        first: dict[tuple, dict] = {}
        if kind == "hot":
            warm, warm_s = drive(server.address, iter(mix.pairs), mix.inline)
            for out in warm:
                tally.record(check_answer(
                    out, mix.identity[out.req.matrix], pins, want_hit=False
                ))
                if out.answer is not None:
                    first[out.req.pair] = out.answer
        outcomes, wall = drive(
            server.address, mix.sequence(), mix.inline,
            seconds=seconds, min_requests=MIN_REQUESTS, block=mix.block,
        )
        rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    for out in outcomes:
        tally.record(check_answer(
            out, mix.identity[out.req.matrix], pins,
            want_hit=(kind == "hot"), reference=first.get(out.req.pair),
        ))
    if kind == "cold":
        _verify_inline_sample(outcomes, mix, profile_dir, tally)

    ok = [o for o in outcomes if o.answer is not None]
    context = {
        "requests": len(outcomes),
        "answered": len(ok),
        "client_threads": 1,
        "loop": "closed",
        "p90_samples_beyond": samples_beyond(len(ok), 90),
        "tail_percentile": tail_percentile(len(ok)),
        "suite_requests": sum(1 for o in outcomes if o.req.suite),
        "unpruned_requests": sum(1 for o in outcomes if not o.req.prune),
        "setup_samples": len(ready),
        "warm_s": warm_s,
        "failures": tally.reasons,
        "samples": [
            [o.req.rid, o.req.matrix, o.req.prune, o.status,
             round(1e3 * o.latency_s, 3),
             round(1e3 * o.answer["elapsed_s"], 3) if o.answer else None]
            for o in outcomes
        ],
    }
    if not ok:
        return tally, {}, context
    if trace:
        metrics = _server_layer_metrics(outcomes, rss)
        metrics.update(_trace_metrics(
            kind, mix, work, profile_dir, pins, tally, spans_out
        ))
        return tally, metrics, context
    metrics = _served_metrics(outcomes, wall)
    metrics["setup_s"] = median(ready) + warm_s
    metrics["peak_rss_mib"] = rss
    return tally, metrics, context
