"""The ``service_plane`` pass: campaign, gateway process and HTTP load.

One pass, from empty stores: a cold two-worker campaign and warm reruns
of it; then a gateway in a process of its own answers the same units
cold over TCP and serves the seeded warm request sequences.  Load is
closed-loop: each connection sends its next request only after the
previous reply, one TCP connection per request as the gateway's HTTP
front end requires.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

import repro.api as api
from repro.campaign import ResultCache, enumerate_units, execute_unit
from repro.obs import Observer, activate
from repro.options import RunOptions
from repro.results import ResultsDB

from catalogue import steady
from spans import SpanRecorder
from workloads import PARALLELISM, PassResult, Plan, observed_counts

_GATEWAY_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "gateway_proc.py")
_REQUEST_TIMEOUT_S = 60.0


class GatewayProcess:
    """``gateway_proc.py`` as a child process: ``port`` is bound once
    ``start`` returns and the process has exited once ``stop`` does."""

    def __init__(self, cache_dir: str, results_db: Optional[str],
                 workers: int = PARALLELISM) -> None:
        self._argv = [sys.executable, _GATEWAY_SCRIPT, cache_dir,
                      results_db or "-", str(workers)]
        self._proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        self._proc = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError(f"gateway did not start (said {line!r})")
        self.port = int(line)

    def stop(self) -> None:
        proc = self._proc
        proc.stdin.close()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def http_request(port: int, method: str, path: str,
                 body: Optional[dict] = None) -> Tuple[int, Dict[str, Any]]:
    """One request on one fresh connection; (status, JSON document)."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=_REQUEST_TIMEOUT_S) as sock:
        sock.sendall(head.encode("latin-1") + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw_head, _, raw_body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(raw_head.split(None, 2)[1]), json.loads(raw_body)


def closed_loop(port: int, feeds: List[Iterable[str]]) -> Dict[str, Any]:
    """``POST /run`` closed-loop, one connection per feed, and return the
    phase wall time and one record per request: (selector, status,
    served, result_sha256, seconds).

    Pass the same iterator several times to have that many connections
    share one list, each taking the next selector when its reply
    arrives, so all stay busy to the end whatever order the seed chose.
    """
    feeds = [iter(feed) for feed in feeds]
    records: List[tuple] = []
    lock = threading.Lock()
    start = threading.Barrier(len(feeds) + 1)

    def client(feed) -> None:
        start.wait()
        while True:
            with lock:
                selector = next(feed, None)
            if selector is None:
                return
            t0 = time.perf_counter()
            try:
                status, doc = http_request(port, "POST", "/run",
                                           {"experiment": selector})
                unit = (doc.get("units") or [{}])[0]
                record = (selector, status, unit.get("served"),
                          unit.get("result_sha256"))
            except (OSError, ValueError) as exc:
                record = (selector, 599, type(exc).__name__, None)
            seconds = time.perf_counter() - t0
            with lock:
                records.append(record + (seconds,))

    threads = [threading.Thread(target=client, args=(feed,))
               for feed in feeds]
    for thread in threads:
        thread.start()
    start.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    return {"wall_s": time.perf_counter() - t0, "records": records}


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 1])."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _check_answers(result: PassResult, phase: str, records: List[tuple],
                   served: str, shas: Dict[str, str]) -> None:
    """Every answer is a 200, served as expected, with the same bytes."""
    for selector, status, how, sha, _seconds in records:
        result.attempted += 1
        if status != 200 or how != served or sha != shas[selector]:
            result.fail(f"{phase} {selector}: status {status}, served "
                        f"{how!r}, sha256 "
                        f"{'matches' if sha == shas[selector] else 'differs'}")


def _pickle_sha256(value: Any) -> str:
    """The gateway's ``result_sha256`` recipe."""
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


def _expect(result: PassResult, ok: bool, message: str) -> None:
    result.attempted += 1
    if not ok:
        result.fail(message)


def run_service_pass(plan: Plan, traced: bool, rec: SpanRecorder,
                     workdir: str) -> PassResult:
    result = PassResult()
    root = tempfile.mkdtemp(dir=workdir, prefix="pass-")
    t_pass = time.perf_counter()
    try:
        with rec.span("pass"):
            _service_pass(plan, traced, rec, root, result)
    except Exception as exc:  # the pass cannot go on; count it as failed
        result.attempted += 1
        result.fail(f"pass aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        result.wall_s = time.perf_counter() - t_pass
        # Checks between the phases and the removal of the stores.
        result.parts["other"] = result.wall_s - sum(result.parts.values())
    return result


@contextmanager
def _phase(name: str, rec: SpanRecorder, result: PassResult):
    """A span that is also one of the pass's timed parts."""
    t0 = time.perf_counter()
    try:
        with rec.span(name):
            yield
    finally:
        result.parts[name] = time.perf_counter() - t0


def _service_pass(plan: Plan, traced: bool, rec: SpanRecorder, root: str,
                  result: PassResult) -> None:
    units = {u.label: u for u in enumerate_units(plan.order)}
    n = len(units)
    extra = result.extra
    campaign_cache = os.path.join(root, "campaign-cache")
    campaign_db = os.path.join(root, "campaign.db")
    options = RunOptions(workers=PARALLELISM, cache_dir=campaign_cache,
                         results_db=campaign_db,
                         obs=True if traced else None)

    # 1. campaign: cold, then warm reruns (reads beside the first writes)
    with _phase("campaign.cold", rec, result):
        report = api.run_campaign(plan.order, options=options)
    for outcome in report.outcomes:
        _expect(result, outcome.status == "ran",
                f"cold campaign {outcome.label}: {outcome.status} "
                f"{outcome.error or ''}")
    warm_ms = []
    with _phase("campaign.warm", rec, result):
        for _ in range(plan.warm_reruns):
            t0 = time.perf_counter()
            warm = api.run_campaign(plan.order, options=options)
            warm_ms.append((time.perf_counter() - t0) * 1e3)
            result.attempted += n
            if warm.cache_hits != n:
                result.fail(f"warm campaign: {warm.cache_hits}/{n} hits")
    extra["campaign_warm_ms_samples"] = warm_ms
    cache = ResultCache(campaign_cache)
    shas = {label: cache.meta(unit.key).get("result_sha256")
            for label, unit in units.items()}
    result.fingerprint = {label: {"sha256": sha}
                          for label, sha in shas.items()}
    # A hit answers with the hash of the entry unpickled and pickled
    # again, and for some units (fig_3d, fig2_3, fig4_6) that is not the
    # hash of the stored bytes.  Check hits against the same round trip.
    hit_shas = {label: _pickle_sha256(cache.get(unit.key))
                for label, unit in units.items()}
    with ResultsDB(campaign_db) as db:
        _expect(result, len(db) == n,
                f"campaign results DB has {len(db)} rows, not {n}")

    # 2. gateway process: the same units cold, then the warm sequences
    serve_cache = os.path.join(root, "serve-cache")
    serve_db = os.path.join(root, "serve.db")
    gateway = GatewayProcess(serve_cache, serve_db)
    with _phase("gateway.start", rec, result):
        gateway.start()
    try:
        with _phase("serve.cold", rec, result):
            cold = closed_loop(gateway.port,
                               [iter(plan.order)] * PARALLELISM)
        extra["serve_cold_s"] = cold["wall_s"]
        _check_answers(result, "serve cold", cold["records"], "executed",
                       shas)
        with _phase("serve.hits", rec, result):
            hits = closed_loop(gateway.port, plan.hit_sequences)
        extra["serve_hits_wall_s"] = hits["wall_s"]
        extra["serve_hit_ms_samples"] = [r[4] * 1e3 for r in hits["records"]]
        extra["serve_hits_served"] = sum(
            1 for r in hits["records"] if r[2] == "hit")
        _check_answers(result, "serve hit", hits["records"], "hit",
                       hit_shas)
        with rec.span("serve.status"):
            status, doc = http_request(gateway.port, "GET", "/status")
        _expect(result, status == 200 and doc.get("cache_entries") == n,
                f"gateway status {status}, cache_entries "
                f"{doc.get('cache_entries')!r}, expected {n}")
    finally:
        with _phase("gateway.stop", rec, result):
            gateway.stop()
    with ResultsDB(serve_db) as db:
        _expect(result, len(db) == n,
                f"serve results DB has {len(db)} rows, not {n}")


def service_samples(passes: List[PassResult]) -> Dict[str, List[float]]:
    """Per-pass samples behind the ``service_plane`` end-to-end metrics."""
    out: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        out.setdefault(name, []).append(value)

    for p in passes:
        e = p.extra
        if "serve_hit_ms_samples" not in e:
            continue  # aborted pass: counted as failed, gives no timing
        hits = e["serve_hit_ms_samples"]
        add("campaign_cold_s", p.parts["campaign.cold"])
        add("campaign_warm_ms", statistics.median(e["campaign_warm_ms_samples"]))
        add("serve_cold_s", e["serve_cold_s"])
        add("serve_hit_p50_ms", statistics.median(hits))
        add("serve_hit_p99_ms", percentile(hits, 0.99))
        add("serve_hits_wall_s", e["serve_hits_wall_s"])
        add("serve_hit_ratio", e["serve_hits_served"] / len(hits))
    return out


def service_metrics(samples: Dict[str, List[float]], units: int,
                    hits: int) -> Dict[str, Tuple[float, int]]:
    """The ``service_plane`` end-to-end metrics of a run: name ->
    (value, passes behind it).  Timings are steady values over the
    passes and the two rates are taken from them."""
    out = {name: (steady(samples[name]), len(samples[name]))
           for name in ("campaign_cold_s", "campaign_warm_ms",
                        "serve_cold_s", "serve_hit_p50_ms",
                        "serve_hit_p99_ms")}
    n = len(samples["serve_hit_ratio"])
    out["campaign_units_per_s"] = (units / out["campaign_cold_s"][0], n)
    out["serve_hit_rps"] = (hits / steady(samples["serve_hits_wall_s"]), n)
    out["serve_hit_ratio"] = (min(samples["serve_hit_ratio"]), n)
    return out


def reference_units(plan: Plan, rec: SpanRecorder) -> PassResult:
    """Traced runs only: every unit once in-process through
    ``execute_unit`` under an observer.  Gives the exact counts of each
    unit and the fourth ``result_sha256`` the other three must match."""
    result = PassResult()
    t_all = time.perf_counter()
    with rec.span("reference"):
        for unit in enumerate_units(plan.order):
            observer = Observer()
            t0 = time.perf_counter()
            with rec.span(f"unit:{unit.label}"):
                with activate(observer):
                    value = execute_unit(unit)
            result.unit_wall_s[unit.label] = time.perf_counter() - t0
            counts = observed_counts(
                api.wrap_sim_result(unit.label, value, observer))
            counts["sha256"] = _pickle_sha256(value)
            result.fingerprint[unit.label] = counts
    result.wall_s = time.perf_counter() - t_all
    return result
