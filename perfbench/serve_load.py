"""The ``serve-online`` workload: an open loop against ``repro serve``.

The server runs in a subprocess on loopback with a write-ahead journal
(``--journal-dir``) and default limits. Sixteen online tenants (``meta``
sessions: 12 functions, a declared 14-day horizon, default policy,
engine and telemetry) receive one minute of seeded synthetic
invocations per advance. Reads (``GET .../metrics`` and
``GET /v1/sessions/{id}``) run beside the advances, one per four.

Load comes in three windows at fixed aggregate advance rates (``low``,
``mid``, ``high``) from one process with at most ``nproc`` sender
threads, each holding one connection at a time. Latency is timed from
when a request was due, so a stall also counts against the requests
queued behind it. Every window holds the same number of advances per
tenant and is placed so that each tenant crosses exactly one journal
compaction boundary inside it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from outcome import Outcome, digest_summary
from tracing import (
    highest_supported_percentile,
    percentile,
    self_time_by_name,
    tail,
)

N_TENANTS = 16
N_FUNCTIONS = 12
#: The declared horizon. Opening an online session allocates a dense
#: n x horizon trace, a known cost that should stay visible in set-up
#: time and server memory.
HORIZON = 14 * 1440
#: Aggregate advance rates, requests per second. The closed-loop
#: capacity of this traffic on a 2-vCPU host is about 360 advances/s,
#: and about half that while the host is busy.
RATES = {"low": 60.0, "mid": 120.0, "high": 180.0}
#: One read per this many advances.
READ_EVERY = 4
#: The p99 advance latency a rate must meet to count as sustained.
LIMIT_MS = 20.0
#: The server's default compaction cadence (``--compact-every``).
COMPACT_EVERY = 240
#: Advances per tenant per window: at least this many, so that each
#: window's p99 has ten samples beyond it (16 x 64 = 1024).
MIN_PER_TENANT = 64
MAX_PER_TENANT = 200
#: Minutes of generated arrivals per tenant (windows end near minute 760).
ARRIVAL_MINUTES = 1440
SETUPS = 3
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


def senders() -> int:
    """Sender threads: no more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def per_tenant_advances(seconds: float) -> int:
    """Advances per tenant per window, so that the three windows last
    about ``seconds`` in total."""
    total = seconds / sum(1.0 / r for r in RATES.values())
    return int(min(MAX_PER_TENANT, max(MIN_PER_TENANT, total // N_TENANTS)))


def window_start(k: int, per_tenant: int) -> int:
    """First minute of window ``k`` (1-based): the window straddles the
    ``k``-th compaction boundary."""
    return k * COMPACT_EVERY - per_tenant // 2


def tenant_arrivals(seed: int, tenant: int) -> np.ndarray:
    """A tenant's (functions x minutes) invocation counts."""
    from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

    cfg = SyntheticTraceConfig(
        horizon_minutes=ARRIVAL_MINUTES, seed=seed * 1000 + tenant
    )
    return generate_trace(cfg).counts


@dataclass(frozen=True)
class Event:
    due: float  # seconds after the window opens
    kind: str  # "advance", "metrics" or "info"
    tenant: int
    minute: int  # advances only; -1 for reads


def schedule(seed: int, window: int, rate: float, per_tenant: int,
             start_minute: int) -> list[Event]:
    """The window's requests in due order, made from the seed alone.

    Advances are due at a constant ``rate`` and go to the tenants in
    turn, so each tenant's minutes ascend. After every ``READ_EVERY``-th
    advance a read is due half an interval later, for a seeded tenant,
    alternating the two kinds. A constant rate, rather than Poisson
    arrivals, keeps the queueing the same from seed to seed.
    """
    rng = np.random.default_rng([seed, window])
    n = per_tenant * N_TENANTS
    events = [
        Event(j / rate, "advance", j % N_TENANTS, start_minute + j // N_TENANTS)
        for j in range(n)
    ]
    read_tenant = rng.integers(0, N_TENANTS, n // READ_EVERY)
    events += [
        Event((i * READ_EVERY + 0.5) / rate, ("metrics", "info")[i % 2],
              int(t), -1)
        for i, t in enumerate(read_tenant.tolist())
    ]
    events.sort(key=lambda e: e.due)
    return events


def request(port: int, method: str, path: str,
            body: dict | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (``Connection: close``); status
    0 when the connection or the exchange failed."""
    try:
        return _request(port, method, path, body)
    except (OSError, http.client.HTTPException):
        return 0, b""


def _request(port: int, method: str, path: str,
             body: dict | None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Connection": "close"}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@dataclass
class Record:
    kind: str
    due: float
    sent: float
    done: float
    status: int  # 0 when the request raised
    nbytes: int

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """From due to done; a failed request misses any limit."""
        return (self.done - self.due) * 1e3 if self.ok else float("inf")


def meets_limit(records: list[Record], limit_ms: float) -> bool:
    """Whether a window's advances sustained the latency limit: p99
    (failures counting as infinitely late) within ``limit_ms`` and no
    backlog left at the end (the last tenth of requests sent on time)."""
    adv = [r for r in records if r.kind == "advance"]
    if not adv or any(not r.ok for r in records):
        return False
    if tail([r.latency_ms for r in adv], 99) > limit_ms:
        return False
    last = adv[-max(1, len(adv) // 10):]
    return statistics.median((r.sent - r.due) * 1e3 for r in last) <= limit_ms


class Server:
    """``repro serve`` in a subprocess, journaling under ``workdir``."""

    def __init__(self, root: Path, workdir: Path, spans_out: Path | None):
        self.journal = workdir / "journal"
        shutil.rmtree(self.journal, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--journal-dir", str(self.journal)]
        else:
            cmd = [sys.executable, str(root / "perfbench/serve_launcher.py"),
                   "--journal-dir", str(self.journal),
                   "--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split("/", 1)[0])

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and wait (a server whose state nobody needs)."""
        self.proc.kill()
        self.proc.communicate()
        shutil.rmtree(self.journal, ignore_errors=True)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        shutil.rmtree(self.journal, ignore_errors=True)


@dataclass
class Fleet:
    """The tenants of one server and what each was sent."""

    server: Server
    arrivals: list[np.ndarray]
    sids: list[str] = field(default_factory=list)
    sent: list[dict[int, np.ndarray]] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def tally(self, out: Outcome, ok: bool, problem: str | None = None) -> None:
        """Count one request (sender threads share ``out``)."""
        with self.lock:
            out.attempted += 1
            out.failed += not ok
            if problem is not None:
                out.problems.append(problem)

    def payload(self, tenant: int, minute: int) -> tuple[dict, int]:
        col = self.arrivals[tenant][:, minute]
        inv = {str(f): int(col[f]) for f in np.flatnonzero(col)}
        return {"minute": minute, "invocations": inv}, int(col.sum())

    def advance(self, tenant: int, minute: int, out: Outcome) -> Record:
        body, expect = self.payload(tenant, minute)
        sent = perf_counter()
        status, raw = request(self.server.port, "POST",
                              f"/v1/sessions/{self.sids[tenant]}/advance", body)
        done = perf_counter()
        problem = None
        if status == 200:
            echo = json.loads(raw)
            self.sent[tenant][minute] = self.arrivals[tenant][:, minute]
            if echo["minute"] != minute or echo["n_invocations"] != expect:
                problem = (
                    f"tenant {tenant} minute {minute}: advance echoed "
                    f"{echo['n_invocations']} invocations at minute "
                    f"{echo['minute']}, posted {expect}"
                )
        self.tally(out, status == 200, problem)
        return Record("advance", sent, sent, done, status, len(raw))

    def read(self, kind: str, tenant: int, out: Outcome) -> Record:
        path = f"/v1/sessions/{self.sids[tenant]}"
        if kind == "metrics":
            path += "/metrics"
        sent = perf_counter()
        status, raw = request(self.server.port, "GET", path)
        self.tally(out, status == 200)
        return Record(kind, sent, sent, perf_counter(), status, len(raw))


def boot(root: Path, workdir: Path, arrivals, spans_out=None) -> tuple[Fleet, float]:
    """Start a server and open every tenant; returns the set-up time."""
    t0 = perf_counter()
    fleet = Fleet(Server(root, workdir, spans_out), arrivals)
    spec = {"meta": {"n_functions": N_FUNCTIONS, "horizon_minutes": HORIZON}}
    try:
        for _ in range(N_TENANTS):
            status, raw = request(fleet.server.port, "POST", "/v1/sessions",
                                  spec)
            if status != 200:
                raise RuntimeError(f"session create answered {status}: {raw!r}")
            fleet.sids.append(json.loads(raw)["id"])
            fleet.sent.append({})
    except BaseException:
        fleet.server.stop()
        raise
    return fleet, perf_counter() - t0


def _send(fleet: Fleet, events: list[Event], t0: float, out: Outcome,
          records: list[Record]) -> None:
    for ev in events:
        due = t0 + ev.due
        wait = due - perf_counter()
        if wait > 0:
            time.sleep(wait)
        if ev.kind == "advance":
            rec = fleet.advance(ev.tenant, ev.minute, out)
        else:
            rec = fleet.read(ev.kind, ev.tenant, out)
        rec.due = due
        records.append(rec)


def run_window(fleet: Fleet, events: list[Event], out: Outcome
               ) -> tuple[list[Record], float, float]:
    """Send one window's schedule; returns its records and its start and
    end times. A tenant's advances share one sender thread, so they
    stay in order; its reads go to another thread, so reads and writes
    meet at the session lock."""
    n = senders()
    lanes: list[list[Event]] = [[] for _ in range(n)]
    for ev in events:
        shift = 0 if ev.kind == "advance" else 1
        lanes[(ev.tenant + shift) % n].append(ev)
    results: list[list[Record]] = [[] for _ in range(n)]
    t0 = perf_counter() + 0.05
    threads = [
        threading.Thread(target=_send, args=(fleet, lane, t0, out, res))
        for lane, res in zip(lanes, results)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    records = sorted((r for res in results for r in res), key=lambda r: r.due)
    return records, t0, perf_counter()


def keepalive_rtt_ms(port: int, n: int = 20) -> float:
    """Median round trip of health probes on one kept-alive connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    times = []
    try:
        for _ in range(n + 1):
            t0 = perf_counter()
            conn.request("GET", "/v1/healthz")
            conn.getresponse().read()
            times.append((perf_counter() - t0) * 1e3)
    finally:
        conn.close()
    return statistics.median(times[1:])


def oracle(arrivals_sent: dict[int, np.ndarray]) -> dict:
    """What ``simulate`` gives for the arrivals a tenant was sent."""
    from repro.api import simulate
    from repro.experiments.assignments import sample_assignment
    from repro.serve.session import TraceMeta

    trace = TraceMeta(N_FUNCTIONS, HORIZON).to_trace()
    counts = np.zeros_like(trace.counts)
    for minute, col in arrivals_sent.items():
        counts[:, minute] = col
    result = simulate(
        replace(trace, counts=counts),
        assignment=sample_assignment(N_FUNCTIONS, seed=0),
        policy="pulse",
        observe=True,
    )
    return result.summary()


def _finish(fleet: Fleet, results: dict[int, dict], out: Outcome) -> None:
    for tenant, sid in enumerate(fleet.sids):
        port = fleet.server.port
        status, _ = request(port, "POST", f"/v1/sessions/{sid}/advance",
                            {"minute": HORIZON - 1})
        fleet.tally(out, status == 200)
        if status != 200:
            continue
        status, raw = request(port, "GET", f"/v1/sessions/{sid}/result")
        fleet.tally(out, status == 200)
        if status == 200:
            results[tenant] = json.loads(raw)


def verify_results(fleet: Fleet, out: Outcome) -> None:
    """Advance every tenant to its horizon and compare ``/result`` with
    ``simulate`` over the same arrivals (computed meanwhile here)."""
    served: dict[int, dict] = {}
    finisher = threading.Thread(target=_finish, args=(fleet, served, out))
    finisher.start()
    expected = [oracle(sent) for sent in fleet.sent]
    finisher.join()
    for tenant, want in enumerate(expected):
        got = served.get(tenant)
        if got is None:
            out.check(False, f"tenant {tenant}: no /result")
            continue
        strip = ("wall_clock_s", "overhead_s")
        got_d = digest_summary({k: v for k, v in got.items() if k not in strip})
        want_d = digest_summary({k: v for k, v in want.items()
                                 if k not in strip})
        out.check(got_d == want_d,
                  f"tenant {tenant}: /result differs from simulate(): "
                  f"{got} vs {want}")


@dataclass
class Session:
    """Everything one server's load produced."""

    windows: dict[str, list[Record]] = field(default_factory=dict)
    spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    cpu_s: float = 0.0  # server CPU time over the windows
    peak_rss_mb: float = 0.0
    keepalive_ms: float = 0.0


def drive(fleet: Fleet, seed: int, seconds: float, out: Outcome) -> Session:
    """Warm up, run the three windows, then verify every tenant."""
    per_tenant = per_tenant_advances(seconds)
    s = Session()
    for tenant in range(N_TENANTS):
        for minute in range(2):
            fleet.advance(tenant, minute, out)
    for k, (name, rate) in enumerate(RATES.items(), start=1):
        start = window_start(k, per_tenant)
        for tenant in range(N_TENANTS):  # untimed jump to the window
            fleet.advance(tenant, start - 1, out)
        events = schedule(seed, k, rate, per_tenant, start)
        cpu0 = fleet.server.cpu_s()
        records, t0, t1 = run_window(fleet, events, out)
        s.cpu_s += fleet.server.cpu_s() - cpu0
        s.windows[name] = records
        s.spans[name] = (t0, t1)
    s.peak_rss_mb = fleet.server.peak_rss_mb()
    s.keepalive_ms = keepalive_rtt_ms(fleet.server.port)
    verify_results(fleet, out)
    return s


def _ms(records: list[Record], kind: str = "advance") -> list[float]:
    return [r.latency_ms for r in records if r.kind == kind]


def client_metrics(s: Session, out: Outcome) -> None:
    """The client-side ladder (per-layer names) and the report lines."""
    max_rate = 0.0
    for name, records in s.windows.items():
        lat = _ms(records)
        p50, p99 = statistics.median(lat), tail(lat, 99)
        out.put(f"serve.advance_p50_ms.{name}", p50)
        out.put(f"serve.advance_p99_ms.{name}", p99)
        late = [(r.sent - r.due) * 1e3 for r in records]
        ok = meets_limit(records, LIMIT_MS)
        if ok:
            max_rate = max(max_rate, RATES[name])
        by_status: dict[int, int] = {}
        for r in records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        out.report.append(
            f"window {name} ({RATES[name]:g} adv/s): {len(lat)} advances, "
            f"{len(records) - len(lat)} reads; advance p50 {p50:.3f} ms, "
            f"p99 {p99:.3f} ms (highest supported percentile "
            f"p{_best(len(lat))}); generator late p99 "
            f"{percentile(late, 99):.3f} ms; by status {by_status}; "
            f"{'meets' if ok else 'misses'} the {LIMIT_MS:g} ms limit"
        )
    reads = _ms(s.windows["mid"], "metrics") + _ms(s.windows["mid"], "info")
    read_q = _best(len(reads))
    out.put("serve.read_tail_ms", tail(reads, read_q))
    out.report.append(f"reads at mid: {len(reads)}, tail is p{read_q}")
    out.put("serve.max_rate_rps", max_rate)
    every = [r for recs in s.windows.values() for r in recs]
    rtt = [(r.done - r.sent) * 1e3 for r in every if r.kind == "advance"]
    out.put("serve.http.rtt_ms.p50", statistics.median(rtt))
    out.put("serve.http.rtt_ms.p99", tail(rtt, 99))
    out.put("serve.http.keepalive_rtt_ms.p50", s.keepalive_ms)
    out.put("serve.gen.late_ms.p99",
            percentile([(r.sent - r.due) * 1e3 for r in every], 99))
    out.put("serve.response_bytes.mean",
            statistics.fmean(r.nbytes for r in every))
    out.put("serve.requests.sent", len(every))
    out.put("serve.requests.ok", sum(r.ok for r in every))
    out.put("serve.requests.failed", sum(not r.ok for r in every))


def _best(n: int) -> int:
    q = highest_supported_percentile(n)
    if q is None:
        raise ValueError(f"{n} samples support no percentile")
    return q


def _end_to_end(s: Session, setup_s: float, out: Outcome) -> None:
    adv_ok = sum(r.ok for recs in s.windows.values() for r in recs
                 if r.kind == "advance")
    out.put("setup_s", setup_s)
    out.put("peak_rss_mb", s.peak_rss_mb)
    rate = N_FUNCTIONS * adv_ok / s.cpu_s
    out.put("fn_min_per_s", rate)
    out.put("fn_min_per_s.pulse", rate)
    out.report.append(
        f"serve-online: {N_TENANTS} tenants x {N_FUNCTIONS} functions, "
        f"{len(_ms(s.windows['low'])) // N_TENANTS} advances per tenant "
        f"per window, "
        f"{senders()} sender threads; server CPU {s.cpu_s:.2f} s "
        f"over the windows"
    )


def _workdir(root: Path) -> Path:
    path = root / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def run(seed: int, seconds: float, root: Path) -> Outcome:
    """The untraced run: every end-to-end metric."""
    out = Outcome()
    workdir = _workdir(root)
    try:
        arrivals = [tenant_arrivals(seed, t) for t in range(N_TENANTS)]
        times = []
        for i in range(SETUPS):
            fleet, took = boot(root, workdir, arrivals)
            times.append(took)
            if i < SETUPS - 1:
                fleet.server.kill()
        try:
            s = drive(fleet, seed, seconds, out)
        finally:
            fleet.server.stop()
        _end_to_end(s, statistics.median(times), out)
        out.report.extend(_ladder_lines(s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _ladder_lines(s: Session) -> list[str]:
    scratch = Outcome()
    client_metrics(s, scratch)
    lines = scratch.report
    for name in RATES:
        for q in ("p50", "p99"):
            key = f"serve.advance_{q}_ms.{name}"
            lines.append(f"advance_{q}_ms.{name} {scratch.metrics[key]:.6g} ms")
    lines.append(f"read_tail_ms {scratch.metrics['serve.read_tail_ms']:.6g} ms")
    lines.append(
        f"max_rate_rps {scratch.metrics['serve.max_rate_rps']:.6g} 1/s"
    )
    return lines


def run_traced(seed: int, seconds: float, root: Path) -> Outcome:
    """An untraced server, then a traced one under the same load:
    client-side figures from the first, server-side layer figures from
    the second, tracing overhead from the difference."""
    out = Outcome()
    workdir = _workdir(root)
    try:
        arrivals = [tenant_arrivals(seed, t) for t in range(N_TENANTS)]
        fleet, _ = boot(root, workdir, arrivals)
        try:
            plain = drive(fleet, seed, seconds, out)
        finally:
            fleet.server.stop()
        spans_path = workdir / "spans.json"
        fleet, _ = boot(root, workdir, arrivals, spans_out=spans_path)
        try:
            traced = drive(fleet, seed, seconds, out)
        finally:
            fleet.server.stop()
        spans = json.loads(spans_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    client_metrics(plain, out)
    _server_layers(spans, traced, out)
    plain_p50 = statistics.median(_ms(plain.windows["low"]))
    traced_p50 = statistics.median(_ms(traced.windows["low"]))
    out.put("trace.overhead_share", traced_p50 / plain_p50 - 1.0)
    out.report.append(
        f"advance p50 at low: {plain_p50:.3f} ms untraced, "
        f"{traced_p50:.3f} ms traced"
    )
    return out


def _server_layers(spans: list, s: Session, out: Outcome) -> None:
    """Server-side figures from the spans recorded inside the windows."""
    inside = [sp for sp in spans
              if any(t0 <= sp[1] and sp[2] <= t1 for t0, t1 in s.spans.values())]

    def ms(name: str) -> list[float]:
        return [(sp[2] - sp[1]) * 1e3 for sp in inside if sp[0] == name]

    app = ms("serve.app.advance")
    out.put("serve.app.advance_ms.p50", statistics.median(app))
    out.put("serve.app.advance_ms.p99", tail(app, 99))
    out.put("serve.session.advance_ms.p50",
            statistics.median(ms("serve.session.advance")))
    append = ms("serve.journal.append")
    out.put("serve.journal.append_ms.p50", statistics.median(append))
    out.put("serve.journal.append_ms.p99", tail(append, 99))
    compact = ms("serve.journal.compact")
    out.put("serve.journal.compact.calls", len(compact))
    out.put("serve.journal.compact_ms",
            statistics.fmean(compact) if compact else 0.0)
    for name, (t0, t1) in s.spans.items():
        n = sum(1 for sp in inside
                if sp[0] == "serve.journal.compact" and t0 <= sp[1] <= t1)
        out.check(n == N_TENANTS,
                  f"window {name}: {n} journal compactions, "
                  f"expected one per tenant ({N_TENANTS})")
    rtt = [(r.done - r.sent) * 1e3 for recs in s.windows.values()
           for r in recs if r.kind == "advance"]
    out.put("serve.transport_ms.p50",
            statistics.median(rtt) - statistics.median(app))
    own = self_time_by_name(inside)
    for layer in ("serve.app", "serve.session", "serve.journal", "obs"):
        out.put(f"self_s.{layer}",
                sum(t for n, t in own.items() if n.startswith(layer + ".")))
